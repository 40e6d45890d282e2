"""Benchmark of the fracblow CLI: one workload per invocation.

    python3 fracbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/`` as
it stands, with no build step.  Each round starts one program process
(``program.py``), which sets up, runs the workload's CLI command in-process
and exits; rounds repeat until S seconds have passed, and every round's
outputs are checked by ``checks.py``.  With --trace 0 the run reports the
end-to-end metrics:

    run_s        wall time of the CLI command (mean over rounds)
    setup_s      process start until the command is ready (mean over at
                 least five set-ups per run; extra processes that only set
                 up make up the count)
    peak_rss_mb  peak resident memory of the program process (median)

Both times are given at the reference speed: they are multiplied by
``reference.REF_S`` over the mean time of the reference job, which every
untraced process runs after set-up and after its command, so that the
host's own changes of speed cancel.  The wall times themselves are
printed before the result line.

With --trace 1 the rounds alternate untraced and traced processes; the
run reports the per-layer metrics of the traced rounds and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is a
sweep row or a lemma verdict.  The exit code is 0 when every check
passed, 1 when one failed (the reasons go to standard error), and 2 when
the checkout has no program to run.  Work files go under ``.fracbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".fracbench"
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class ProgramError(RuntimeError):
    """A program process did not finish or wrote no result."""


def spawn(workload: str, seed: int, rdir: Path, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one program process; its result plus the set-up time it took."""
    rdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "program.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rdir)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = {**os.environ, **THREAD_ENV}
    with open(rdir / "program.log", "w") as log:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise ProgramError(f"program process ran over {CHILD_TIMEOUT_S} s "
                               f"(log: {rdir / 'program.log'})") from exc
    if proc.returncode != 0:
        raise ProgramError(f"program process exited with {proc.returncode} "
                           f"(log: {rdir / 'program.log'})")
    result = json.loads((rdir / "result.json").read_text())
    result["setup_s"] = result["ready"] - start
    return result


class Run:
    """The rounds of one benchmark invocation and what they measured."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-s{seed}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.count = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[dict] = []

    def _next_dir(self, tag: str) -> Path:
        self.count += 1
        return self.dir / f"{self.count:03d}-{tag}"

    def probe(self) -> dict:
        """A process that only sets up."""
        return spawn(self.workload, self.seed, self._next_dir("setup"), setup_only=True)

    def round(self, trace: bool) -> dict:
        rdir = self._next_dir("traced" if trace else "round")
        result = spawn(self.workload, self.seed, rdir, trace=trace)
        if result["exit_code"] != 0:
            problems = [f"exit code {result['exit_code']} (log: {rdir / 'program.log'})"]
            cfg = checks.read_config(rdir / "run.ini")
            attempted = (cfg.getint("sweep", "count") if cfg.has_section("sweep")
                         else len(checks.lemma_cases(cfg)))
            failed = attempted
        else:
            problems, attempted, failed = checks.check(self.workload, rdir / "run.ini",
                                                       rdir / "out")
        self.problems += [f"round {self.count}: {p}" for p in problems]
        self.attempted += attempted
        self.failed += failed
        (self.traced if trace else self.plain).append(result)
        if not trace:
            self.setups.append(result)
        for note in result.get("missing", []):
            print(f"note: boundary {note} not found; its spans read 0", file=sys.stderr)
        return result

    def tidy(self) -> None:
        """Keep the last round of each kind; drop the rest once all passed."""
        if self.problems:
            return
        dirs = sorted(self.dir.iterdir())
        keep = {max((d for d in dirs if d.name.endswith(tag)), default=None)
                for tag in ("-round", "-traced")}
        for d in dirs:
            if d not in keep:
                shutil.rmtree(d)


def end_to_end(run: Run) -> dict:
    """Mean times over the run, at the reference speed that its jobs measured."""
    run_s = statistics.fmean(r["run_s"] for r in run.plain)
    setup_s = statistics.fmean(r["setup_s"] for r in run.setups)
    ref_s = statistics.fmean(t for r in run.setups for t in r["ref_s"])
    print(f"wall: run_s {run_s:.6g} s over {len(run.plain)}, setup_s {setup_s:.6g} s "
          f"over {len(run.setups)}, reference job {ref_s:.6g} s over "
          f"{sum(len(r['ref_s']) for r in run.setups)}")
    speed = reference.REF_S / ref_s
    return {
        "run_s": (run_s * speed, "s"),
        "setup_s": (setup_s * speed, "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in run.plain), "MB"),
    }


def per_layer(run: Run) -> dict:
    metrics = {name: (statistics.median(r["layers"][name]["value"] for r in run.traced), m["unit"])
               for name, m in run.traced[0]["layers"].items()}
    plain = statistics.median(r["run_s"] for r in run.plain)
    traced = statistics.median(r["run_s"] for r in run.traced)
    metrics["trace.overhead"] = (100.0 * (traced / plain - 1.0), "%")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fracblow" / "cli.py").is_file():
        print(f"no fracblow sources under {ROOT / 'src'}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        run.probe()  # compiles the bytecode and warms the file cache; not timed
        begin = time.monotonic()
        while True:
            result = run.round(trace=False)
            if args.trace:
                traced = run.round(trace=True)
                print(f"round: run_s {result['run_s']:.4f} traced {traced['run_s']:.4f}")
            else:
                print(f"round: run_s {result['run_s']:.4f} setup_s {result['setup_s']:.4f} "
                      f"reference job {statistics.median(result['ref_s']):.4f}")
            if time.monotonic() - begin >= args.seconds:
                break
        while not args.trace and len(run.setups) < MIN_SETUPS:
            run.setups.append(run.probe())
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(run) if args.trace else end_to_end(run)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    run.tidy()
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
