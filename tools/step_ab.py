#!/usr/bin/env python3
"""Time one step of ``evolve`` in two fracblow source trees, paired round by round.

    python3 tools/step_ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Both trees are imported into one process, under names of
their own, with the allocator policy the CLI sets (``fracblow.cli``) and
one BLAS thread, as fracbench runs it.  On
each sweep lattice of the benchmark (1D N = 16384, L = 256, p = 1.25 and
2D N = 384, L = 4, p = 2) every round runs one ``evolve`` per tree over the
same fixed run: radial data on the lattice's even part, 50 steps of a
power-of-two dt that do not blow up.  The 400 rounds alternate which tree
runs first.  Prints, per lattice, each tree's median and quartiles in ms per
step (the whole ``evolve`` call over its 50 steps), the ratio of the
medians (change over parent) and the number of rounds in which the change
was faster.  Exits 1 if a run does not take its 50 steps, or blows up.

Standard library and numpy only.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as fracbench runs the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
import numpy as np  # noqa: E402

STEPS = 50
ROUNDS = 400
#: (label, n, L, N, p, dt, amplitude): the sweep workloads' lattices and
#: powers; dt is a power of two, so that 50 steps end at t_max exactly
LATTICES = (
    ("1d N=16384", 1, 256.0, 16384, 1.25, 2.0 ** -4, 0.1),
    ("2d N=384", 2, 4.0, 384, 2.0, 2.0 ** -6, 0.5),
)


def keep_freed_memory() -> None:
    """The CLI's allocator policy: glibc keeps freed arrays on the heap."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def load_tree(src: Path, name: str):
    """The ``fracblow`` package under ``src``, imported as ``name``."""
    pkg = src / "fracblow"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no fracblow package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def even_part_data(n: int, L: float, N: int, amplitude: float) -> np.ndarray:
    """amplitude * exp(-|x|^2) at the sites N/2, ..., N-1, 0 of each axis."""
    h = N // 2
    r = (2.0 * L / N) * np.arange(h + 1.0)
    r[-1] = L  # site 0 sits at -L
    if n == 2:
        r = np.hypot.outer(r, r)
    return (amplitude * np.exp(-r * r)).astype(np.complex128)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    keep_freed_memory()
    trees = {"parent": load_tree(args.parent, "fracblow_parent"),
             "change": load_tree(args.change, "fracblow_change")}

    for label, n, L, N, p, dt, amplitude in LATTICES:
        u0 = even_part_data(n, L, N, amplitude)
        runs = {}
        for side, fb in trees.items():
            grid, params = fb.GridSpec(n, L, N), fb.ProblemParams(n, p, 1j)
            runs[side] = (lambda fb=fb, grid=grid, params=params:
                          fb.evolve(u0, grid, params, dt, STEPS * dt, 1.0))
            rec = runs[side]()  # warm-up, and the run's shape checked once
            if len(rec.times) != STEPS + 1 or rec.blew_up:
                print(f"{label}: the {side} run took {len(rec.times) - 1} steps "
                      f"(blew up: {rec.blew_up}); expected {STEPS}", file=sys.stderr)
                return 1
        ms = {side: [] for side in runs}
        for k in range(ROUNDS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.perf_counter()
                runs[side]()
                ms[side].append(1e3 * (time.perf_counter() - start) / STEPS)
        wins = sum(c < p_ for p_, c in zip(ms["parent"], ms["change"]))
        stats = {side: quartiles(values) for side, values in ms.items()}
        for side, (median, q1, q3) in stats.items():
            print(f"{label} {side}: median {median:.4f} ms/step "
                  f"(q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"{label} ratio change/parent {stats['change'][0] / stats['parent'][0]:.3f}, "
              f"change faster in {wins}/{ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
