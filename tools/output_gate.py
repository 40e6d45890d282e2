#!/usr/bin/env python3
"""Check that two fracblow source trees write byte-identical outputs.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Both trees run the same jobs, one process each, in a
temporary directory: the three benchmark workloads of
``fracbench/inputs.py`` at seeds 0-3, the README's example config
through all five commands, one sweep per family whose amplitudes
straddle the loose regime edge, so that rows skipped at the edge and
their notes are compared too, and a 2D ``evolve`` that halves its step
three times before it blows up.  Every CSV, JSON and NPY file a job writes is
compared byte for byte, and so is its exit code.  Prints one line per job,
and for each CSV that differs the columns that moved, each with its
largest relative difference, and where it holds ``g`` and
``certified_error`` (the lemma CSVs) the largest ``|g_new - g_old|`` over
the old ``certified_error``; exits 0 when everything matches, 1 on any
difference.  Each job's line also gives the peak RSS of its process,
parent -> change, from ``os.wait4``, and flags a rise above 2%.  A last
line gives the size of each tree's ``fracblow`` package, parent -> change:
its lines, its dataclasses and their stored fields (``dataclasses.fields``
of each class its own module defines).  Neither memory nor size enters the
exit code.

Standard library only.  The configs come from the checkout holding this
script; the code under test comes only from the two arguments.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
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
    yield "evolve-2d-halving", "evolve", EVOLVE_2D


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


def package_size(src: Path) -> tuple[str, str, str]:
    """Lines in the Python files of the ``fracblow`` package under ``src``,
    its dataclasses and their stored fields (``?`` where it fails to import)."""
    lines = sum(p.read_bytes().count(b"\n") for p in (src / "fracblow").rglob("*.py"))
    proc = subprocess.run([sys.executable, "-c", COUNT_FIELDS], capture_output=True, text=True,
                          cwd=src, env=dict(os.environ, PYTHONPATH=str(src)))
    counts = proc.stdout.split() if proc.returncode == 0 else ["?", "?"]
    return str(lines), *counts


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
                rel = abs(fx - fy) / scale if scale > 0 else math.inf
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
            problems += [f"{f}: " + ("missing" if f not in out_b else
                                     "added" if f not in out_a else
                                     f"differs ({moved_columns(out_a[f], out_b[f])})"
                                     if f.endswith(".csv") else "differs")
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
            sizes, ("lines", "dataclasses", "stored fields"))))
    print(f"{files} files compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
