#!/usr/bin/env python3
"""Paired fracbench runs of two fracblow source trees, with an A/A' control.

    python3 tools/bench_ab.py PARENT_SRC CHANGE_SRC [--seeds 0 ...] [--json FILE]

Each ``SRC`` is a directory holding the ``fracblow`` package (the ``src``
of a checkout).  Each tree is copied, without ``__pycache__``, into a
temporary checkout of its own beside a copy of the ``fracbench/`` that sits
next to this script, so both trees run the same benchmark code.  A third
checkout, A', is the parent with an inert comment block at the top of
every module that the change edits, as many lines as that module's diff
and of the same lengths: it moves line numbers and file sizes and nothing
else, so the A/A' pairs measure what layout and noise alone can shift.

For every workload in ``fracbench/inputs.py`` and every seed it runs
``fracbench/run.py --seconds 8 --trace 0`` in ten pairs of parent and
change and ten of parent and A', flipping which side runs first from one
pair of a kind to the next: ten pairs is the fewest for which a claim of
nine wins in ten means anything, and 8 s rather than fracbench's 35 s
keeps the 120 runs of one seed to about twenty minutes on two cores.
Every run starts from a tree with no ``__pycache__``: where
``PYTHONDONTWRITEBYTECODE`` is set, fracbench's probe writes no bytecode,
and a tree holding some would skip the compile that every process of the
other tree pays.  The load average is read before each run.  A run that
prints no result line stops the tool.

It prints, per workload, seed and metric, each side's median and quartile
spread (IQR), the pairs the change won (lower is better for every metric;
ties count for neither side) and the paired shift: the Hodges-Lehmann
estimate of the change-minus-parent difference with its distribution-free
95% interval from the Wilcoxon signed-rank test (Kalibera and Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013), in metric units
and as a share of the parent median, next to the A/A' shift.  The metrics
are fracbench's three, at the reference speed (scaled), and the wall
``run_s`` and ``setup_s`` with the wall time of the reference job, which
``run.py`` prints before its result line.

The rule, fixed before any run: a metric counts as moved when its
interval excludes zero and its shift exceeds the A/A' shift in size;
``better`` or ``worse`` then says which way, and anything else reads
``no claim``.  A line also says whether the benchmark's own claim rule
holds: at least nine tenths of the pairs won and a median gap larger
than the parent's IQR.  Neither can read as a gain while any change run
is incorrect or the change fails more operations than the parent; each
side's incorrect runs and failed operations are printed.  With ``--json``
every run and summary goes to one file.  It acts on its own processes
only.

Standard library only.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "fracbench"))
import inputs  # noqa: E402  (standard library only)

#: a run.py call that takes longer than this is stopped
RUN_TIMEOUT_S = 900
#: the two-sided level of the Hodges-Lehmann interval
ALPHA = 0.05
#: share of the pairs the change must win under the benchmark's claim rule
WIN_SHARE = 0.9
#: parent/change pairs, and as many parent/A' pairs, per workload and seed
PAIRS = 10
#: run.py --seconds: the rounds of one fracbench run
SECONDS = 8.0
WALL = re.compile(r"wall: run_s (\S+) s over \d+, setup_s (\S+) s over \d+, "
                  r"reference job (\S+) s over \d+")
#: fracbench's three metrics from its result line, the first two at the
#: reference speed, then the wall times it prints before that line
METRICS = ("run_s", "setup_s", "peak_rss_mb", "run_s_wall", "setup_s_wall", "ref_s_wall")
IGNORE = shutil.ignore_patterns("__pycache__")


def checkout(src: Path, dest: Path) -> Path:
    """A checkout at dest: src's fracblow package and this checkout's fracbench."""
    shutil.copytree(src / "fracblow", dest / "src" / "fracblow", ignore=IGNORE)
    shutil.copytree(ROOT / "fracbench", dest / "fracbench", ignore=IGNORE)
    return dest


def pad_like_diff(parent: Path, change: Path, dest: Path) -> int:
    """Prepend to each module of dest that differs between the two trees a
    comment block as long as its diff, line for line; returns the lines added."""
    total = 0
    for path in sorted((parent / "fracblow").rglob("*.py")):
        rel = path.relative_to(parent)
        other = change / rel
        if not other.is_file():
            continue
        old, new = path.read_text().splitlines(), other.read_text().splitlines()
        changed = [line for line in difflib.unified_diff(old, new, lineterm="", n=0)
                   if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        if changed:
            block = "".join("#" + "~" * max(len(line) - 2, 0) + "\n" for line in changed)
            target = dest / "src" / rel
            target.write_text(block + target.read_text())
            total += len(changed)
    return total


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One fracbench run of a tree with no bytecode: its metrics and load average."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    load = os.getloadavg()[0]
    cmd = [sys.executable, "fracbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    wall = next(filter(None, map(WALL.match, lines)), None)
    if not lines or wall is None or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree.name}: {workload} seed {seed} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    metrics = {name: result["metrics"][name]["value"] for name in ("run_s", "setup_s",
                                                                     "peak_rss_mb")}
    metrics.update(zip(("run_s_wall", "setup_s_wall", "ref_s_wall"),
                       map(float, wall.groups())))
    return {"loadavg": load, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def signed_rank_counts(n: int) -> list[int]:
    """Number of the 2^n sign patterns of ranks 1..n whose positive ranks sum to w, by w."""
    counts = [1]
    for rank in range(1, n + 1):
        grown = counts + [0] * rank
        for w, c in enumerate(counts):
            grown[w + rank] += c
        counts = grown
    return counts


def hodges_lehmann(diffs: list[float]) -> tuple[float, float | None, float | None]:
    """The median of the Walsh averages of diffs, and its 1 - ALPHA interval
    from the signed-rank distribution (None when n is too small for one)."""
    n = len(diffs)
    walsh = sorted((diffs[i] + diffs[j]) / 2.0 for i in range(n) for j in range(i, n))
    shift = statistics.median(walsh)
    counts, total, below, k = signed_rank_counts(n), 2 ** n, 0, 0
    # k: the largest count with P(T+ <= k - 1) <= ALPHA / 2
    while below + counts[k] <= ALPHA / 2 * total:
        below += counts[k]
        k += 1
    if k == 0:
        return shift, None, None
    return shift, walsh[k - 1], walsh[len(walsh) - k]


def compare(base: list[dict], other: list[dict], name: str) -> dict:
    """The summary of one metric over pairs (base[i], other[i])."""
    a = [r["metrics"][name] for r in base]
    b = [r["metrics"][name] for r in other]
    qa, qb = quartiles(a), quartiles(b)
    shift, lo, hi = hodges_lehmann([y - x for x, y in zip(a, b)])
    return {"parent_median": qa[1], "parent_iqr": qa[2] - qa[0],
            "other_median": qb[1], "other_iqr": qb[2] - qb[0],
            "wins": sum(y < x for x, y in zip(a, b)), "pairs": len(a),
            "shift": shift, "shift_pct": 100.0 * shift / qa[1], "ci": [lo, hi]}


def failures(runs: list[dict]) -> tuple[int, int]:
    """Incorrect runs and failed operations over a side's runs."""
    return sum(not r["correct"] for r in runs), sum(r["failed"] for r in runs)


def sound(runs: dict) -> bool:
    """Whether the change may claim a gain: every change run correct, and no
    more failed operations than the parent's over as many runs."""
    incorrect, failed = failures(runs["change"])
    return incorrect == 0 and failed <= failures(runs["parent"])[1]


def verdict(ab: dict, aa: dict, ok: bool) -> str:
    lo, hi = ab["ci"]
    if lo is None or lo <= 0.0 <= hi or abs(ab["shift"]) <= abs(aa["shift"]):
        return "no claim"
    if hi < 0.0:
        return "better" if ok else "no claim"
    return "worse"


def claim_rule(ab: dict, ok: bool) -> bool:
    gap = ab["parent_median"] - ab["other_median"]
    return ok and ab["wins"] >= WIN_SHARE * ab["pairs"] and gap > ab["parent_iqr"]


def fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.5g}"


def report(key: str, runs: dict, summary: dict) -> None:
    loads = [r["loadavg"] for side in runs.values() for r in side]
    print(f"\n{key}: {len(runs['change'])} A/B pairs, {len(runs['parent_aa'])} A/A' pairs, "
          f"load average {min(loads):.2f}-{max(loads):.2f}")
    print("  incorrect runs / failed operations: " + ", ".join(
        "{} {}/{}".format(side, *failures(runs[side])) for side in runs))
    for name in METRICS:
        ab, aa = summary["ab"][name], summary["aa"][name]
        print(f"  {name:13s} parent {ab['parent_median']:.5g} [IQR {ab['parent_iqr']:.3g}]  "
              f"change {ab['other_median']:.5g} [IQR {ab['other_iqr']:.3g}]  "
              f"wins {ab['wins']}/{ab['pairs']}  shift {ab['shift']:+.4g} "
              f"({ab['shift_pct']:+.2f}%) CI [{fmt(ab['ci'][0])}, {fmt(ab['ci'][1])}]  "
              f"A/A' {aa['shift']:+.4g} ({aa['shift_pct']:+.2f}%)  {summary['verdict'][name]}"
              f"{'  (claim rule met)' if claim_rule(ab, sound(runs)) else ''}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="directory holding the parent's fracblow")
    ap.add_argument("change", type=Path, help="directory holding the change's fracblow")
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--json", type=Path, help="write every run and summary here")
    args = ap.parse_args()
    for src in (args.parent, args.change):
        if not (src / "fracblow" / "cli.py").is_file():
            print(f"no fracblow package under {src}", file=sys.stderr)
            return 2

    out = {"parent": str(args.parent), "change": str(args.change), "seconds": SECONDS,
           "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                       "python": platform.python_version()},
           "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "results": {}}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {side: checkout(src, Path(tmp) / side) for side, src in
                 (("parent", args.parent), ("change", args.change), ("prime", args.parent))}
        out["aa_padding_lines"] = pad_like_diff(args.parent, args.change, trees["prime"])
        print(f"A' carries {out['aa_padding_lines']} comment lines")
        for workload in inputs.WORKLOADS:
            for seed in args.seeds:
                runs = {"parent": [], "change": [], "parent_aa": [], "prime": []}
                # A/B and A/A' pairs interleaved, each kind flipping its order
                schedule = [(i, ("parent", a_key), (b, b)) for i in range(PAIRS)
                            for a_key, b in (("parent", "change"), ("parent_aa", "prime"))]
                for n, (i, first, second) in enumerate(schedule, 1):
                    order = (first, second) if i % 2 == 0 else (second, first)
                    for side, key in order:
                        runs[key].append(run_once(trees[side], workload, seed))
                    print(f"{workload} seed {seed} pair {n}/{len(schedule)}: " + ", ".join(
                        f"{key} {runs[key][-1]['metrics']['run_s']:.4f}" for _, key in order),
                        flush=True)
                summary = {"ab": {}, "aa": {}, "verdict": {}}
                for name in METRICS:
                    ab = summary["ab"][name] = compare(runs["parent"], runs["change"], name)
                    aa = summary["aa"][name] = compare(runs["parent_aa"], runs["prime"], name)
                    summary["verdict"][name] = verdict(ab, aa, sound(runs))
                key = f"{workload}/seed{seed}"
                out["results"][key] = {"runs": runs, "summary": summary}
                report(key, runs, summary)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
