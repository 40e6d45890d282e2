#!/usr/bin/env python3
"""Check that two fracblow source trees write byte-identical outputs.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Both trees run the same jobs, one process each, in a
temporary directory: the three benchmark workloads of
``fracbench/inputs.py`` at seeds 0-3, and the README's example config
through all five commands.  Every CSV, JSON and NPY file a job writes is
compared byte for byte, and so is its exit code.  Prints one line per job,
and for each CSV that differs the columns that moved, each with its
largest relative difference; exits 0 when everything matches, 1 on any
difference.  Each job's line also gives the peak RSS of its process,
parent -> change, from ``os.wait4``, and flags a rise above 2%; memory does
not enter the exit code.

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


def outputs(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.suffix in SUFFIXES}


def moved_columns(old: bytes, new: bytes) -> str:
    """The columns in which two CSV tables differ, each with its largest
    relative difference (``text`` when a differing cell is not a number)."""
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
    return ", ".join(f"{name} " + ("text" if math.isnan(rel) else f"max rel {rel:.3g}")
                     for name, rel in moved.items())


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
    print(f"{files} files compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
