#!/usr/bin/env python3
"""Check that two fracblow source trees write byte-identical outputs.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Both trees run the same jobs, one process each, in a
temporary directory: the three benchmark workloads of
``fracbench/inputs.py`` at seeds 0-3, the README's example config
through all five commands, one sweep per family whose amplitudes
straddle the loose regime edge, so that rows skipped at the edge and
their notes are compared too, a 1D and a 2D ``evolve`` that halve
their step four and three times before they blow up, the same two at
lambda = 0.6+0.8i, whose stepper turns its state, a 1D inner sweep at
lambda = 0.6+0.8i whose four rows each halve their step twice before
they blow up, so that rows stepped without a weight radius pass through
the turned frame and the retry path, a 1D ``evolve`` on
the 1D sweep's lattice (L = 256, N = 16384), whose step transforms split
each DCT-I, through 88 steps to its blow-up, and ``frac-apply``
of the slowly decaying weights <x>^(-1/2) in 1D and <x>^(-1) in 2D, whose
far cutoffs grow past the default one.  Every CSV, JSON and
NPY file a job writes is compared byte for byte, and so is its exit code.  Prints one line per job,
and for each CSV that differs the columns that moved, each with its
largest relative difference, and where it holds ``g`` and
``certified_error`` (the lemma CSVs) the largest ``|g_new - g_old|`` over
the old ``certified_error``; for each JSON file that differs, every numeric
leaf that moved, by its path, with its relative difference, and every
other leaf that changed, was added or is missing; for each NPY file that
differs, the largest absolute difference of its values and that over the
largest old magnitude; exits 0 when everything matches, 1 on any difference.  Each job's line
also gives the peak RSS of its process, parent -> change, from
``os.wait4``, and flags a rise above 2%.  A last
line gives the size of each tree's ``fracblow`` package, parent -> change:
its lines, its dataclasses and their stored fields (``dataclasses.fields``
of each class its own module defines), and its public names: the
top-level functions and classes, and the methods of those classes, whose
names do not start with ``_``.  Neither memory nor size enters the exit
code.

Standard library only.  The configs come from the checkout holding this
script; the code under test comes only from the two arguments.
"""
from __future__ import annotations

import argparse
import array
import ast
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "fracbench"))
import inputs  # noqa: E402  (standard library only)

SEEDS = range(4)
COMMANDS = ("constants", "frac-apply", "verify-lemma", "evolve", "sweep")
SUFFIXES = (".csv", ".json", ".npy")
#: a change's peak RSS above the parent's by more than this share is flagged
RSS_RISE = 0.02
#: (name, p, kind, k, L, mu_min, mu_max) of the sweeps across a loose regime
#: edge, n = 1 and N = 4096: two of the four rows of each lie outside it
EDGE_SWEEPS = (
    ("edge-inner", 2.0, "inner-singular", 0.25, 40.0, 5.0, 25.0),
    ("edge-outer", 1.25, "outer-decay", 0.6, 256.0, 1e-3, 0.2),
)
#: a 2D run that halves its step three times and blows up at t = 0.0019375,
#: so that a 2D final state and the retry path are compared too
EVOLVE_2D = ("[problem]\nn = 2\np = 2\nlambda = i\n\n[grid]\nL = 4\nN = 128\n\n"
             "[evolve]\ndata = inner-singular\nmu = 100\nk = 0.5\ndt = 5e-4\n"
             "t_max = 0.2\nr = auto\n")
#: a 1D run that halves its step four times and blows up at t = 0.0195, so
#: that a 1D final state off the README's config and the 1D retry path are
#: compared too
EVOLVE_1D = ("[problem]\nn = 1\np = 2\nlambda = i\n\n[grid]\nL = 8\nN = 1024\n\n"
             "[evolve]\ndata = inner-singular\nmu = 20\nk = 0.25\ndt = 8e-3\n"
             "t_max = 0.2\nr = auto\n")
#: an outer-decay run at the 1D sweep workload's lattice and amplitude,
#: which blows up at t = 17.6 after 88 steps, so that a trajectory through
#: the split DCT-I (``evolution._SPLIT_MIN``) is compared at the lattice
#: the benchmark times; the sweep jobs there write no trajectory
EVOLVE_SWEEP_1D = ("[problem]\nn = 1\np = 1.25\nlambda = i\n\n[grid]\nL = 256\nN = 16384\n\n"
                   f"[evolve]\ndata = outer-decay\nmu = {inputs.OUTER_EDGE_MU!r}\nk = 0.6\n"
                   "dt = 0.2\nt_max = 40\nr = auto\n")
#: lambda of the jobs that turn their state, two ``evolve`` runs and one
#: sweep: every other job has lambda = i, whose turn -i lambda/|lambda| is 1
TURNED_LAMBDA = "0.6+0.8i"
#: a 1D inner sweep at lambda = TURNED_LAMBDA whose four rows each halve
#: their step twice (dt_factor = 0.15) and blow up at t = 0.0553 to 0.0032:
#: rows evolve without a weight radius, and no other sweep job turns its
#: state or halves a row's step
TURNED_SWEEP = (f"[problem]\nn = 1\np = 2\nlambda = {TURNED_LAMBDA}\n\n"
                "[grid]\nL = 40\nN = 4096\n\n"
                "[sweep]\nkind = inner-singular\nk = 0.25\ncount = 4\ndt_factor = 0.15\n"
                "mu_min = 12\nmu_max = 120\n")
#: (name, n, q) of the frac-apply runs, with no lattice, of weights <x>^(-q)
#: with q <= n, whose far field needs a cutoff past the default one
FRAC_APPLY = (("frac-apply-1d-q0.5", 1, 0.5), ("frac-apply-2d-q1", 2, 1.0))
#: prints the number of dataclasses of the importable ``fracblow`` and of
#: their stored fields
COUNT_FIELDS = """
import dataclasses, importlib, pkgutil, fracblow
modules = [importlib.import_module("fracblow." + m.name)
           for m in pkgutil.iter_modules(fracblow.__path__)]
classes = [c for m in modules for c in vars(m).values() if isinstance(c, type)
           and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
print(len(classes), sum(len(dataclasses.fields(c)) for c in classes))
"""


def readme_config() -> str:
    """The complete example config of the README (its ``ini`` block)."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def jobs():
    """(name, command, config text) of every run."""
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            yield (f"{workload}-seed{seed}", inputs.COMMANDS[workload],
                   inputs.config_text(workload, seed))
    for command in COMMANDS:
        yield f"readme-{command}", command, readme_config()
    for name, p, kind, k, half_width, mu_min, mu_max in EDGE_SWEEPS:
        yield name, "sweep", (
            f"[problem]\nn = 1\np = {p}\nlambda = 1j\nalpha = auto\n\n"
            f"[grid]\nL = {half_width}\nN = 4096\n\n"
            f"[sweep]\nkind = {kind}\nk = {k}\ncount = 4\n"
            f"mu_min = {mu_min}\nmu_max = {mu_max}\n")
    yield "sweep-turned-halving", "sweep", TURNED_SWEEP
    yield "evolve-1d-halving", "evolve", EVOLVE_1D
    yield "evolve-2d-halving", "evolve", EVOLVE_2D
    yield "evolve-1d-sweep-lattice", "evolve", EVOLVE_SWEEP_1D
    for name, text in (("evolve-1d-turned", EVOLVE_1D), ("evolve-2d-turned", EVOLVE_2D)):
        yield name, "evolve", text.replace("lambda = i", f"lambda = {TURNED_LAMBDA}")
    for name, n, q in FRAC_APPLY:
        yield name, "frac-apply", (f"[problem]\nn = {n}\np = 2\nlambda = i\n\n"
                                   f"[frac_apply]\nprofile = bracket\nq = {q:g}\n")


def run(src: Path, command: str, config: Path, out: Path) -> tuple[int, float]:
    """Exit code and peak RSS (MB) of ``fracblow COMMAND`` with only ``src``
    on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fracblow.cli", command, "--config", str(config),
         "--out", str(out)],
        cwd=out.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # reap the job here, so that its resource usage comes with its status
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def public_names(source: str) -> int:
    """Top-level functions and classes of a module, and the methods of its
    classes, whose names do not start with ``_``."""
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef)) and not node.name.startswith("_")
    top = [node for node in ast.parse(source).body if public(node)]
    return len(top) + sum(public(m) for node in top if isinstance(node, ast.ClassDef)
                          for m in node.body)


def package_size(src: Path) -> tuple[str, str, str, str]:
    """Lines in the Python files of the ``fracblow`` package under ``src``,
    its dataclasses and their stored fields (``?`` where it fails to
    import), and its public names."""
    files = list((src / "fracblow").rglob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    proc = subprocess.run([sys.executable, "-c", COUNT_FIELDS], capture_output=True, text=True,
                          cwd=src, env=dict(os.environ, PYTHONPATH=str(src)))
    counts = proc.stdout.split() if proc.returncode == 0 else ["?", "?"]
    names = sum(public_names(p.read_text()) for p in files)
    return str(lines), *counts, str(names)


def outputs(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.suffix in SUFFIXES}


def moved_columns(old: bytes, new: bytes) -> str:
    """The columns in which two CSV tables differ, each with its largest
    relative difference (``text`` when a differing cell is not a number),
    and, for a table of certified values ``g`` with ``certified_error``,
    the largest move of ``g`` in units of its old certificate."""
    a = list(csv.reader(io.StringIO(old.decode())))
    b = list(csv.reader(io.StringIO(new.decode())))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return "header or row count differs"
    moved = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for name, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
                scale = max(abs(fx), abs(fy))
                rel = abs(fx - fy) / scale if scale > 0 else 0.0  # 0 against 0.0
            except ValueError:
                rel = math.nan
            worst = moved.get(name, 0.0)
            # a text difference (NaN) sticks
            moved[name] = worst if math.isnan(worst) or rel <= worst else rel
    summary = ", ".join(f"{name} " + ("text" if math.isnan(rel) else f"max rel {rel:.3g}")
                        for name, rel in moved.items())
    if "g" in moved and "certified_error" in a[0]:
        g, err = a[0].index("g"), a[0].index("certified_error")
        worst = max(abs(float(row_b[g]) - float(row_a[g])) / float(row_a[err])
                    for row_a, row_b in zip(a[1:], b[1:]))
        summary += f"; max |g_new - g_old| / certified_error_old {worst:.3g}"
    return summary


def json_leaves(node, path: str = "") -> list[tuple[str, object]]:
    """(path, value) of every leaf of a parsed JSON document, in order."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items()
                for leaf in json_leaves(value, f"{path}.{key}" if path else key)]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in json_leaves(value, f"{path}[{i}]")]
    return [(path, node)]


def moved_leaves(old: bytes, new: bytes) -> str:
    """The leaves in which two JSON documents differ: a number with its
    relative difference, any other value as ``text``, or ``added`` or
    ``missing``."""
    try:
        a, b = (dict(json_leaves(json.loads(data))) for data in (old, new))
    except ValueError:
        return "not JSON"
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    moved = []
    for path in [*a, *(p for p in b if p not in a)]:
        if path not in b or path not in a:
            moved.append(f"{path} {'missing' if path not in b else 'added'}")
            continue
        x, y = a[path], b[path]
        if type(x) is type(y) and (x == y or x != x and y != y):  # NaN against NaN
            continue
        if number(x) and number(y):
            scale = max(abs(x), abs(y))
            rel = abs(x - y) / scale if scale > 0 else 0.0  # 0 against 0.0
            moved.append(f"{path} rel {math.inf if math.isnan(rel) else rel:.3g}")  # inf
        else:
            moved.append(f"{path} text")
    return ", ".join(moved) or "same leaves, other bytes"


def npy_values(data: bytes) -> tuple[dict, list] | None:
    """The header and flat values of an NPY 1.0 file of little-endian
    float64 or complex128, else None."""
    if data[:8] != b"\x93NUMPY\x01\x00":
        return None
    (size,) = struct.unpack("<H", data[8:10])
    start = 10 + size
    header = ast.literal_eval(data[10:start].decode("latin1"))
    if header.get("descr") not in ("<f8", "<c16") or (len(data) - start) % 8:
        return None
    payload = array.array("d", data[start:])
    if sys.byteorder != "little":
        payload.byteswap()
    if header["descr"] == "<c16":
        return header, [complex(re, im) for re, im in zip(payload[::2], payload[1::2])]
    return header, list(payload)


def moved_values(old: bytes, new: bytes) -> str:
    """The largest absolute difference between two NPY arrays' values, and
    that over the largest magnitude in the old one."""
    a, b = npy_values(old), npy_values(new)
    if a is None or b is None:
        return "not a float64 or complex128 NPY file"
    if a[0] != b[0]:
        return f"header {a[0]} -> {b[0]}"
    worst = max((abs(x - y) for x, y in zip(a[1], b[1])), default=0.0)
    scale = max((abs(x) for x in a[1]), default=0.0)
    return (f"max abs {worst:.3g}, max rel to max {worst / scale:.3g}" if scale > 0
            else f"max abs {worst:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for side, src in sides.items():
        if not (src / "fracblow" / "__init__.py").is_file():
            ap.error(f"{side}: no fracblow package under {src}")

    files = differences = 0
    with tempfile.TemporaryDirectory(prefix="output-gate-") as tmp:
        for name, command, text in jobs():
            results = {}
            for side, src in sides.items():
                job = Path(tmp) / side / name
                job.mkdir(parents=True)
                (job / "run.ini").write_text(text)
                code, rss = run(src, command, job / "run.ini", job / "out")
                results[side] = code, rss, outputs(job / "out")
            (code_a, rss_a, out_a), (code_b, rss_b, out_b) = results.values()
            problems = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
            names = sorted(out_a.keys() | out_b.keys())
            moved = {".csv": moved_columns, ".json": moved_leaves, ".npy": moved_values}
            problems += [f"{f}: " + ("missing" if f not in out_b else
                                     "added" if f not in out_a else
                                     f"differs ({moved[Path(f).suffix](out_a[f], out_b[f])})")
                         for f in names if out_a.get(f) != out_b.get(f)]
            files += len(names)
            differences += len(problems)
            verdict = "; ".join(problems) if problems else f"{len(out_b)} files identical"
            rss = f"peak RSS {rss_a:.1f} -> {rss_b:.1f} MB"
            if rss_b > (1.0 + RSS_RISE) * rss_a:
                rss += f" (RISE {100.0 * (rss_b / rss_a - 1.0):+.1f}%)"
            print(f"{'DIFF' if problems else 'same'}  {name} (exit {code_b}): {verdict}; {rss}")
    sizes = zip(*map(package_size, sides.values()))
    print("fracblow package: " + ", ".join(
        f"{a} -> {b} {what}" for (a, b), what in zip(
            sizes, ("lines", "dataclasses", "stored fields", "public names"))))
    print(f"{files} files compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
