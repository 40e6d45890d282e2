#!/usr/bin/env python3
"""Check that two fracblow source trees write byte-identical outputs.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Both trees run the same jobs, one process each, in a
temporary directory: the three benchmark workloads of
``fracbench/inputs.py`` at seeds 0-3, and the README's example config
through all five commands.  Every CSV, JSON and NPY file a job writes is
compared byte for byte, and so is its exit code.  Prints one line per job
and exits 0 when everything matches, 1 on any difference.

Standard library only.  The configs come from the checkout holding this
script; the code under test comes only from the two arguments.
"""
from __future__ import annotations

import argparse
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


def run(src: Path, command: str, config: Path, out: Path) -> int:
    """Exit code of ``fracblow COMMAND`` with only ``src`` on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "fracblow.cli", command, "--config", str(config),
         "--out", str(out)],
        cwd=out.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def outputs(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.suffix in SUFFIXES}


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
                code = run(src, command, job / "run.ini", job / "out")
                results[side] = code, outputs(job / "out")
            (code_a, out_a), (code_b, out_b) = results.values()
            problems = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
            names = sorted(out_a.keys() | out_b.keys())
            problems += [f"{f}: " + ("missing" if f not in out_b else
                                     "added" if f not in out_a else "differs")
                         for f in names if out_a.get(f) != out_b.get(f)]
            files += len(names)
            differences += len(problems)
            verdict = "; ".join(problems) if problems else f"{len(out_b)} files identical"
            print(f"{'DIFF' if problems else 'same'}  {name} (exit {code_b}): {verdict}")
    print(f"{files} files compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
