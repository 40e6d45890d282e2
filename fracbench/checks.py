"""Correctness checks on the CLI outputs, made apart from the program.

Each check compares an output against theory, a closed form or the
paper's lifespan ordering, never against a stored copy of an earlier run.
A check returns a list of reasons; an empty list means it passed.
Pure standard library: the exponents and fits are computed here.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

#: criterion-3 exponent tolerances per dimension; the Gaussian uses 0.1
EXPONENT_TOL = {1: 0.05, 2: 0.1}
GAUSSIAN_TOL = 0.1
#: default fit window of ``verify_gaussian_remark`` (the CLI passes none)
GAUSSIAN_WINDOW = (8.0, 800.0)
#: slack on the lifespan ordering, as in acceptance criterion 9
LIFESPAN_SLACK = 1.1
#: relative tolerance of the closed-form t_bound exponent
BOUND_EXPONENT_RTOL = 1e-9
#: relative tolerance of the fitted t_num exponent
NUM_EXPONENT_RTOL = 0.2


def read_config(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(Path(path).read_text())
    return parser


def slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def log_bracket(r: float) -> float:
    """log <r> = log sqrt(1 + r^2)."""
    return 0.5 * math.log1p(r * r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def predicted_sweep_exponent(n: int, p: float, kind: str, k: float) -> float:
    """-1/(1/(p-1) - k') with k' = k (inner) or min(n, k) (outer)."""
    kk = k if kind == "inner-singular" else min(float(n), k)
    return -1.0 / (1.0 / (p - 1.0) - kk)


def read_sweep(out: Path) -> list[dict]:
    with open(out / "sweep_rows.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(cfg: configparser.ConfigParser, out: Path) -> list[str]:
    """Rows blew up, the lifespan bound holds, and both exponents are right."""
    problems = []
    rows = read_sweep(out)
    result = json.loads((out / "sweep_result.json").read_text())
    n, p = cfg.getint("problem", "n"), cfg.getfloat("problem", "p")
    kind, k = cfg.get("sweep", "kind"), cfg.getfloat("sweep", "k")
    predicted = predicted_sweep_exponent(n, p, kind, k)

    if len(rows) != cfg.getint("sweep", "count"):
        problems.append(f"rows: {len(rows)} rows, config asks for {cfg.get('sweep', 'count')}")
    for row in rows:
        mu = float(row["mu"])
        if row["blew_up"] != "1" or row["failed"] != "0":
            problems.append(f"blow-up: row mu={mu:.6g} blew_up={row['blew_up']} "
                            f"failed={row['failed']} note={row['note']!r}")
        elif float(row["t_num"]) > LIFESPAN_SLACK * float(row["t_prop"]):
            problems.append(f"lifespan: row mu={mu:.6g} t_num {row['t_num']} > "
                            f"{LIFESPAN_SLACK} t_prop {row['t_prop']}")

    if abs(result["predicted_exponent"] - predicted) > 1e-12 * abs(predicted):
        problems.append(f"prediction: program predicts {result['predicted_exponent']!r}, "
                        f"theory {predicted!r}")
    usable = [r for r in rows if r["in_regime"] == "1" and r["blew_up"] == "1"
              and r["failed"] == "0"]
    if len(usable) < 4:
        return problems + [f"fit: only {len(usable)} usable rows, need 4"]
    log_mu = [math.log(float(r["mu"])) for r in usable]
    bound = slope(log_mu, [math.log(float(r["t_bound"])) for r in usable])
    if abs(bound - predicted) > BOUND_EXPONENT_RTOL * abs(predicted):
        problems.append(f"t_bound exponent: fitted {bound!r} vs theory {predicted!r}")
    num = slope(log_mu, [math.log(float(r["t_num"])) for r in usable])
    if abs(num - predicted) > NUM_EXPONENT_RTOL * abs(predicted):
        problems.append(f"t_num exponent: fitted {num:.4f} vs theory {predicted:.4f}")
    return problems


def sweep_operations(out: Path) -> tuple[int, int]:
    """(rows attempted, rows that failed or did not blow up)."""
    rows = read_sweep(out)
    return len(rows), sum(r["failed"] != "0" or r["blew_up"] != "1" for r in rows)


# ---------------------------------------------------------------------------
# verify-lemma
# ---------------------------------------------------------------------------

def theory_exponent(n: int, q: float | None) -> float:
    """Sharp decay exponent of the half-Laplacian of <x>^(-q) (None: Gaussian).

    -(q+1) for q < n, except -(n+1) at q = n - 1, where the leading
    coefficient vanishes; -(n+1) for q >= n and for the Gaussian.
    """
    if q is None or q >= n or q == n - 1:
        return -(n + 1.0)
    return -(q + 1.0)


def read_samples(path: Path) -> list[tuple[float, float, float]]:
    with open(path, newline="") as fh:
        return [(float(r["r"]), float(r["g"]), float(r["certified_error"]))
                for r in csv.DictReader(fh)]


def fitted_exponent(samples, window, logarithmic: bool) -> float:
    """Slope of log|g| (divided by 1 + log(1+r) for q = n) against log<r>."""
    # the CSV rounds radii to 12 digits, which can move a window end across
    lo, hi = window[0] * (1.0 - 1e-9), window[1] * (1.0 + 1e-9)
    picked = [(r, g) for r, g, _ in samples if lo <= r <= hi and g != 0.0]
    xs = [log_bracket(r) for r, _ in picked]
    if logarithmic:
        ys = [math.log(abs(g) / (1.0 + math.log1p(r))) for r, g in picked]
    else:
        ys = [math.log(abs(g)) for _, g in picked]
    return slope(xs, ys)


def closed_form(n: int, q: float | None):
    """Exact half-Laplacian of <x>^(-q) where one is known, else None."""
    if n == 1 and q == 2.0:
        return lambda r: (1.0 - r * r) / (1.0 + r * r) ** 2
    if n == 2 and q == 1.0:
        return lambda r: (1.0 + r * r) ** -1.5
    return None


def lemma_cases(cfg: configparser.ConfigParser) -> list[tuple[int, float | None]]:
    """(n, q) of every verdict the default suite produces; q None = Gaussian."""
    dims = [int(float(d)) for d in cfg.get("lemma", "dims").split(",")]
    cases = []
    for n in dims:
        cases += [(n, q) for q in (0.5 * n, float(n), n + 1.0, n + 2.0)]
        if cfg.get("lemma", "gaussian", fallback="true").strip().lower() in ("1", "true", "yes"):
            cases.append((n, None))
    return cases


def check_lemma(cfg: configparser.ConfigParser, out: Path) -> list[str]:
    """Exponents against theory, negativity, and the two closed forms."""
    problems = []
    report = json.loads((out / "lemma_report.json").read_text())
    verdicts = {(v["n"], v["q"]): v for v in report["verdicts"]}
    window = tuple(float(v) for v in cfg.get("lemma", "fit_window").split(","))
    for n, q in lemma_cases(cfg):
        label = f"n={n} " + ("gaussian" if q is None else f"q={q:g}")
        v = verdicts.get((n, q))
        if v is None:
            problems.append(f"cases: no verdict for {label}")
            continue
        samples = read_samples(out / v["csv"])
        expected = theory_exponent(n, q)
        tol = GAUSSIAN_TOL if q is None else EXPONENT_TOL[n]
        fitted = fitted_exponent(samples, GAUSSIAN_WINDOW if q is None else window,
                                 logarithmic=q == float(n))
        if abs(fitted - expected) > tol:
            problems.append(f"exponent: {label} fitted {fitted:.4f} vs theory "
                            f"{expected:g} (tol {tol})")
        if abs(v["predicted_exponent"] - expected) > 1e-12:
            problems.append(f"prediction: {label} program predicts "
                            f"{v['predicted_exponent']!r}, theory {expected:g}")
        if q == float(n) and not (v["log_coeff"] > 0.0 and v["residual_ratio"] > 3.0):
            problems.append(f"log model: {label} log coeff {v['log_coeff']} "
                            f"residual ratio {v['residual_ratio']}")
        if q is None or q >= n:
            r_neg = v["r_neg"]
            positive = [] if r_neg is None else \
                [r for r, g, _ in samples if r >= r_neg and not g < 0.0]
            if r_neg is None or positive:
                problems.append(f"negativity: {label} r_neg={r_neg}, "
                                f"non-negative samples at r={positive[:3]}")
        exact = closed_form(n, q)
        if exact is not None:
            worst = max(abs(g - exact(r)) / e for r, g, e in samples)
            if worst > 1.0:
                problems.append(f"closed form: {label} |g - exact| reaches "
                                f"{worst:.3g} x certified_error")
    return problems


def lemma_operations(out: Path) -> tuple[int, int]:
    """(verdicts attempted, verdicts not matched)."""
    report = json.loads((out / "lemma_report.json").read_text())
    return len(report["verdicts"]), sum(not v["matched"] for v in report["verdicts"])


def check(workload: str, cfg_path: Path, out: Path) -> tuple[list[str], int, int]:
    """(problems, operations attempted, operations failed) for one round."""
    cfg = read_config(cfg_path)
    if workload.startswith("sweep"):
        return (check_sweep(cfg, out), *sweep_operations(out))
    return (check_lemma(cfg, out), *lemma_operations(out))
