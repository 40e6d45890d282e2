"""Workload definitions and the config text each one hands to ``fracblow``.

The program receives only the generated config file.  Seed 0 gives the
reference inputs; any other seed jitters the amplitudes (sweeps) or the fit
window (verify-lemma) inside ranges where every check in ``checks.py``
still holds, so that no seed turns an operation into a failure.

Pure standard library: run.py imports this module without numpy.
"""
from __future__ import annotations

import random

#: amplitude at which the adapted radius R* of the outer-decay family
#: (n=1, p=1.25, k=0.6) equals 22, the top of the automatic decade that
#: ``fracblow sweep`` picks when no mu range is given
OUTER_EDGE_MU = 1.2291918730891445e-3
#: amplitudes at which the adapted radius of the 2D inner-singular family
#: (n=2, p=2, k=0.5) equals the strict edge 0.45 and 0.1 (R* ~ mu^-2)
INNER_EDGE_MU = 85.86501035564946
INNER_TOP_MU = 182.1471932673986

WORKLOADS = ("sweep-outer-1d", "sweep-inner-2d", "verify-lemma")
COMMANDS = {"sweep-outer-1d": "sweep", "sweep-inner-2d": "sweep",
            "verify-lemma": "verify-lemma"}


def jitter(seed: int, lo: float, hi: float) -> float:
    """A factor in [lo, hi] drawn from the seed; exactly 1.0 for seed 0."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(lo, hi)


def config_text(workload: str, seed: int) -> str:
    """The INI text for one workload and seed."""
    if workload == "sweep-outer-1d":
        # jitter only downward: R* grows, staying above the strict edge 20;
        # 4 rows and dt = 0.2 keep a round near 2 s, so a run holds many
        f = jitter(seed, 0.97, 1.0)
        mu_range = "" if seed == 0 else (
            f"mu_min = {f * OUTER_EDGE_MU / 10.0!r}\nmu_max = {f * OUTER_EDGE_MU!r}\n")
        return ("[problem]\nn = 1\np = 1.25\nlambda = i\n\n"
                "[grid]\nL = 256\nN = 16384\n\n"
                "[sweep]\nkind = outer-decay\nk = 0.6\ncount = 4\ndt_base = 0.2\n"
                f"{mu_range}workers = 1\n")
    if workload == "sweep-inner-2d":
        # jitter only upward: R* shrinks below the strict edge 0.45, and the
        # smallest R* (~0.094) stays over four grid spacings (dx = 1/48) wide;
        # N = 384 and dt_factor = 0.08 keep a round near 2 s
        f = jitter(seed, 1.0, 1.03)
        return ("[problem]\nn = 2\np = 2\nlambda = i\n\n"
                "[grid]\nL = 4\nN = 384\n\n"
                "[sweep]\nkind = inner-singular\nk = 0.5\ncount = 4\ndt_factor = 0.08\n"
                f"mu_min = {f * INNER_EDGE_MU!r}\nmu_max = {f * INNER_TOP_MU!r}\n"
                "workers = 1\n")
    if workload == "verify-lemma":
        # the window keeps its two decades, so every case samples 28 radii
        lo = 100.0 * jitter(seed, 1.0, 1.05)
        return ("[lemma]\ndims = 1, 2\n"
                f"fit_window = {lo!r}, {100.0 * lo!r}\ngaussian = true\n")
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
