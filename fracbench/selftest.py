"""Self-test of the checks: each one must reject a deliberately wrong output.

    python3 fracbench/selftest.py

Runs each workload once at seed 0 through ``program.py``, requires the
checks to pass on the real outputs, then for every mutation below copies
the outputs, breaks them in one way and requires the check named by the
mutation to reject the copy.  Prints one line per mutation and exits 1 if
any wrong copy is accepted.  Takes about 35 s for all three workloads.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import inputs
from run import WORK, ProgramError, spawn


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows) or rows
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_column(rows, col, factor):
    for r in rows:
        r[col] = repr(float(r[col]) * factor(r))


# --- sweep mutations: (name, reason the check must give, edit of the outputs) ---

def _no_blowup(out):
    _edit_csv(out / "sweep_rows.csv", lambda rows: rows[0].update(blew_up="0", t_num=""))


def _row_failed(out):
    _edit_csv(out / "sweep_rows.csv", lambda rows: rows[0].update(failed="1"))


def _late_blowup(out):
    def edit(rows):
        rows[-1]["t_num"] = repr(1.2 * float(rows[-1]["t_prop"]))
    _edit_csv(out / "sweep_rows.csv", edit)


def _bound_off_law(out):
    def edit(rows):
        rows[1]["t_bound"] = repr(float(rows[1]["t_bound"]) * (1.0 + 1e-6))
    _edit_csv(out / "sweep_rows.csv", edit)


def _num_exponent_off(out):
    # t_num ~ mu^e becomes mu^(1.3 e); every row stays below t_prop
    pred = json.loads((out / "sweep_result.json").read_text())["predicted_exponent"]

    def edit(rows):
        top = float(rows[-1]["mu"])
        _scale_column(rows, "t_num", lambda r: (float(r["mu"]) / top) ** (0.3 * pred))
    _edit_csv(out / "sweep_rows.csv", edit)


def _wrong_prediction(out):
    _edit_json(out / "sweep_result.json",
               lambda d: d.update(predicted_exponent=1.01 * d["predicted_exponent"]))


def _row_missing(out):
    _edit_csv(out / "sweep_rows.csv", lambda rows: rows[:-1])


SWEEP_MUTATIONS = (
    ("a row did not blow up", "blow-up", _no_blowup),
    ("a row is marked failed", "blow-up", _row_failed),
    ("t_num = 1.2 t_prop on the top row", "lifespan", _late_blowup),
    ("one t_bound off its power law by 1e-6", "t_bound exponent", _bound_off_law),
    ("t_num exponent 30% steeper", "t_num exponent", _num_exponent_off),
    ("predicted exponent 1% off in the summary", "prediction", _wrong_prediction),
    ("one row dropped", "rows", _row_missing),
)


# --- lemma mutations ----------------------------------------------------------

def _off_closed_form(csv_name):
    def mutate(out):
        def edit(rows):
            r = rows[3]
            r["g"] = repr(float(r["g"]) + 2.0 * float(r["certified_error"]))
        _edit_csv(out / csv_name, edit)
    return mutate


def _positive_tail(out):
    _edit_csv(out / "lemma_n1_q3.csv",
              lambda rows: rows[-1].update(g=repr(-float(rows[-1]["g"]))))


def _steeper_decay(out):
    _edit_csv(out / "lemma_n2_q3.csv",
              lambda rows: _scale_column(rows, "g", lambda r: (1.0 + float(r["r"])) ** -0.3))


def _edit_verdict(n, q, **changes):
    def mutate(out):
        def edit(doc):
            next(v for v in doc["verdicts"] if v["n"] == n and v["q"] == q).update(changes)
        _edit_json(out / "lemma_report.json", edit)
    return mutate


def _verdict_missing(out):
    _edit_json(out / "lemma_report.json", lambda d: d["verdicts"].pop())


LEMMA_MUTATIONS = (
    ("(n=1, q=2) sample 2 certificates off (1-r^2)/(1+r^2)^2", "closed form",
     _off_closed_form("lemma_n1_q2.csv")),
    ("(n=2, q=1) sample 2 certificates off (1+r^2)^(-3/2)", "closed form",
     _off_closed_form("lemma_n2_q1.csv")),
    ("(n=1, q=3) last sample made positive", "negativity", _positive_tail),
    ("(n=2, q=3) decay 0.3 steeper", "exponent", _steeper_decay),
    ("(n=1, q=1) log coefficient negative", "log model", _edit_verdict(1, 1.0, log_coeff=-0.1)),
    ("(n=2, q=1) predicted -2", "prediction", _edit_verdict(2, 1.0, predicted_exponent=-2.0)),
    ("the last verdict dropped", "cases", _verdict_missing),
)


def selftest(workload: str, base: Path) -> list[str]:
    """Names of the mutations the checks let through (empty: all rejected)."""
    rdir = base / workload
    result = spawn(workload, 0, rdir)
    cfg = rdir / "run.ini"
    problems, _, _ = checks.check(workload, cfg, rdir / "out")
    if result["exit_code"] != 0 or problems:
        return [f"{workload}: the real output fails: exit {result['exit_code']}, {problems}"]
    accepted = []
    mutations = SWEEP_MUTATIONS if workload.startswith("sweep") else LEMMA_MUTATIONS
    for i, (name, reason, mutate) in enumerate(mutations):
        copy = rdir / f"mutant{i}"
        shutil.copytree(rdir / "out", copy)
        mutate(copy)
        problems, _, _ = checks.check(workload, cfg, copy)
        hits = [p for p in problems if p.startswith(reason)]
        print(f"{workload}: {name}: " + (f"rejected ({hits[0]})" if hits else "ACCEPTED"))
        if not hits:
            accepted.append(f"{workload}: {name}")
    return accepted


def main() -> int:
    base = WORK / "selftest"
    if base.exists():
        shutil.rmtree(base)
    accepted = []
    try:
        for workload in inputs.WORKLOADS:
            accepted += selftest(workload, base)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in accepted:
        print(f"not rejected: {name}", file=sys.stderr)
    return 1 if accepted else 0


if __name__ == "__main__":
    sys.exit(main())
