"""Decay-regime verification for the half-Laplacian of algebraic weights.

For the weight <x>^(-q) the half-Laplacian is bounded by <x>^(-q-1) when
q < n, and that rate is sharp except at q = n - 1, where the leading
coefficient 2 G((q+1)/2) G((n-q)/2) / (G(q/2) G((n-q-1)/2)) (G the Gamma
function) vanishes and the exact identity (n-1)<x>^(-n-1) takes over.  It
decays like <x>^(-n-1) log(1+|x|) at q = n, and like <x>^(-n-1) when
q > n, with a definite negative sign at large radius once q >= n.  This
module samples the operator with the certified singular quadrature at its
default rule, fits the decay exponents (with the logarithmic correction
where hypothesised), estimates the bound constants, and packages
machine-readable verdicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .profiles import RadialProfile, bracket, bracket_profile, gaussian_profile
from .pv import TOL, Y_MAX, frac_laplacian_pv, normalization_constant, sphere_measure
from .reporting import write_csv, write_manifest

__all__ = [
    "DecayFitResult",
    "LemmaSample",
    "LemmaVerdict",
    "default_radii",
    "sample_frac_weight",
    "fit_decay",
    "verify_lemma",
    "verify_gaussian_remark",
    "write_lemma_report",
]

#: default radius window of the algebraic-weight decay fits
FIT_WINDOW = (1e2, 1e4)
#: radius window of the Gaussian decay fit
GAUSSIAN_WINDOW = (8.0, 800.0)
#: exponent-match tolerances per dimension
EXPONENT_TOL = {1: 0.05, 2: 0.1}
#: the far cutoff of an algebraic weight sampled at radius r starts at this times 1 + r
FAR_CUTOFF_FACTOR = 120.0


@dataclass(frozen=True)
class LemmaSample:
    r: float
    value: float
    error: float


@dataclass(frozen=True)
class DecayFitResult:
    """Least-squares decay fit over a radius window.

    ``exponent`` is the slope of log|g| against log<r> (for the
    logarithmic model, after dividing out 1 + log(1+r)).  ``log_coeff``
    is the coefficient b of the a + b*log(1+r) model, 0 for plain fits.
    ``a_hat`` is the certified sup of |g| over the samples relative to the
    hypothesised bound shape.  ``residual`` is the rms misfit in log|g|.
    """

    exponent: float
    log_coeff: float
    a_hat: float
    residual: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (self.window[0] < self.window[1]):
            raise ValueError("fit window must be increasing")
        if self.residual < 0 or self.a_hat <= 0:
            raise ValueError("residual must be >= 0 and a_hat > 0")


@dataclass(frozen=True)
class LemmaVerdict:
    n: int
    q: float
    regime: str                    # "q<n" | "q=n" | "q>n"
    predicted_exponent: float
    fit: DecayFitResult
    matched: bool
    a_hat: float
    negativity_required: bool
    negativity_ok: bool | None
    r_neg: float | None
    residual_ratio: float | None   # plain rms / log-model rms, q = n only
    diagnostics: str
    samples: tuple[LemmaSample, ...] = ()


def default_radii(window: tuple[float, float] = FIT_WINDOW) -> np.ndarray:
    """Sampling radii: origin, a coarse midrange, and 8 a decade in the fit window."""
    lo, hi = window
    mid = np.geomspace(0.25, lo, 10, endpoint=False)
    decades = math.log10(hi / lo)
    fit = np.geomspace(lo, hi, max(8, int(round(8 * decades)) + 1))
    return np.concatenate(([0.0], mid, fit))


def _sample(n: int, profile: RadialProfile, radii, decay: float,
            cutoff_factor: float) -> list[LemmaSample]:
    """Certified point values of the profile's half-Laplacian at radii.

    Radial symmetry means one point per radius.  The tolerance is rescaled
    to the expected magnitude <r>^(-decay), and the far cutoff starts at
    cutoff_factor * (1 + r) and doubles until the profile's own tail bound
    certifies a third of that tolerance, so slowly decaying profiles get
    the larger domains they need.  Everything else is the default rule.
    """
    b, omega = normalization_constant(n).value, sphere_measure(n)
    out = []
    for r in radii:
        r = float(r)
        tol = max(TOL * float(bracket(r) ** -decay) * 50.0, 1e-13)
        y = max(Y_MAX, cutoff_factor * (1.0 + r))
        while b * omega * profile.tail(y - r) / (2.0 * y) > tol / 3.0 and y < 1e9:
            y *= 2.0
        res = frac_laplacian_pv(profile, r if n == 1 else (r, 0.0), y, tol)
        out.append(LemmaSample(r, res.value, res.error))
    return out


def sample_frac_weight(n: int, q: float, radii) -> list[LemmaSample]:
    """Certified point values of the half-Laplacian of <x>^(-q) at radii.

    The certificate stays a small fraction of the expected local magnitude
    <r>^(-min(q, n)-1).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be nonnegative and strictly increasing")
    return _sample(n, bracket_profile(q), radii, min(q, n) + 1.0, FAR_CUTOFF_FACTOR)


def _window_samples(samples, window):
    lo, hi = window
    picked = [s for s in samples if lo <= s.r <= hi and s.value != 0.0]
    if len(picked) < 8:
        raise ValueError(f"need >= 8 samples inside window {window}, got {len(picked)}")
    if picked[-1].r / picked[0].r < 99.0:
        raise ValueError("fit window must span at least two decades")
    if max(abs(s.value) for s in picked) < 1e3 * np.finfo(float).eps:
        raise ValueError("degenerate fit: all samples below the noise floor")
    return picked


def fit_decay(samples: list[LemmaSample], regime: str,
              bound_exponent: float, n: int | None = None,
              window: tuple[float, float] = FIT_WINDOW) -> DecayFitResult:
    """Fit the decay of |g(r)| inside the window.

    ``regime`` selects the model: "plain" fits log|g| ~ c + s log<r> and
    reports slope s; "logarithmic" fits |g|<r>^(n+1) ~ a + b log(1+r),
    reports b, and quotes the exponent after dividing the log factor out.
    ``bound_exponent`` is the hypothesised decay power (e.g. -(q+1)); the
    constant estimate a_hat is sup over all supplied samples of the
    certified |g| against that bound shape.
    """
    picked = _window_samples(samples, window)
    r = np.array([s.r for s in picked])
    g = np.abs(np.array([s.value for s in picked]))
    br = bracket(r)

    if regime == "plain":
        slope, intercept = np.polyfit(np.log(br), np.log(g), 1)
        resid = float(np.sqrt(np.mean(
            (np.log(g) - (slope * np.log(br) + intercept)) ** 2)))
        log_coeff = 0.0
        exponent = float(slope)
    elif regime == "logarithmic":
        if n is None:
            raise ValueError("logarithmic fit needs the dimension n")
        y = g * br ** (n + 1.0)
        design = np.stack([np.ones_like(r), np.log1p(r)], axis=1)
        (a, bcoef), *_ = np.linalg.lstsq(design, y, rcond=None)
        model = np.maximum(design @ np.array([a, bcoef]), 1e-300)
        resid = float(np.sqrt(np.mean((np.log(g) - np.log(model * br ** (-(n + 1.0)))) ** 2)))
        exponent = float(np.polyfit(np.log(br), np.log(g / (1.0 + np.log1p(r))), 1)[0])
        log_coeff = float(bcoef)
    else:
        raise ValueError(f"unknown regime hypothesis {regime!r}")

    shape = (lambda rr: bracket(rr) ** bound_exponent * (1.0 + np.log1p(rr))) \
        if regime == "logarithmic" else (lambda rr: bracket(rr) ** bound_exponent)
    a_hat = max((abs(s.value) + s.error) / float(shape(s.r)) for s in samples)
    return DecayFitResult(exponent=exponent, log_coeff=log_coeff, a_hat=float(a_hat),
                          residual=resid, window=window)


def _negativity(samples):
    """Smallest positive sampled radius beyond which every sample is strictly negative."""
    rs = [s for s in samples if s.r > 0.0]
    r_neg = None
    for i, s in enumerate(rs):
        if all(t.value < 0.0 for t in rs[i:]):
            r_neg = s.r
            break
    return r_neg


def _regime_of(n: int, q: float) -> str:
    if abs(q - n) < 1e-12:
        return "q=n"
    return "q<n" if q < n else "q>n"


def verify_lemma(n: int, q: float,
                 window: tuple[float, float] = FIT_WINDOW) -> LemmaVerdict:
    """Sample, fit, and judge the decay regime of the weight's half-Laplacian.

    The regime is selected by comparing q with n; the fitted exponent must
    match the sharp asymptotic exponent of that case within the
    per-dimension tolerance, and for q >= n every sample beyond the
    reported sign-change radius must be strictly negative.  In the q < n
    regime the sharp exponent is -(q+1), except at q = n - 1 where the
    leading coefficient vanishes and it is -(n+1); a_hat is still taken
    against the lemma's bound shape <x>^(-q-1).  A mismatch is reported in
    the verdict, not raised.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    samples = sample_frac_weight(n, q, default_radii(window))
    regime = _regime_of(n, q)
    tol = EXPONENT_TOL[n]

    # (-Delta)^(1/2)<x>^(1-n) = (n-1)<x>^(-n-1) exactly (Poisson extension):
    # the leading <x>^(-q-1) coefficient vanishes at q = n - 1
    degenerate = regime == "q<n" and abs(q - (n - 1)) < 1e-12

    bound = -(q + 1.0) if regime == "q<n" else -(n + 1.0)
    predicted = -(n + 1.0) if degenerate else bound
    if regime == "q=n":
        fit = fit_decay(samples, "logarithmic", bound, n=n, window=window)
        plain = fit_decay(samples, "plain", bound, n=n, window=window)
        ratio = plain.residual / max(fit.residual, 1e-15)
        matched = (abs(fit.exponent - predicted) <= tol
                   and fit.log_coeff > 0.0 and ratio > 3.0)
    else:
        fit = fit_decay(samples, "plain", bound, n=n, window=window)
        matched = abs(fit.exponent - predicted) <= tol
        ratio = None

    negativity_required = q >= n - 1e-12
    r_neg = _negativity(samples) if negativity_required else None
    negativity_ok = (r_neg is not None) if negativity_required else None
    if negativity_required and not negativity_ok:
        matched = False

    diag = (f"n={n} q={q} regime {regime}: fitted exponent {fit.exponent:.4f} "
            f"vs predicted {predicted:.4f} (tol {tol})")
    if degenerate:
        diag += (f", leading coefficient vanishes at q = n - 1: sharp exponent "
                 f"-(n+1) = {predicted:g}, steeper than the bound rate {bound:g}")
    if ratio is not None:
        diag += f", log coeff b={fit.log_coeff:.4f}, plain/log residual ratio {ratio:.2f}"
    if negativity_required:
        diag += f", negative beyond r={r_neg}" if r_neg is not None else ", no negativity radius found"
    return LemmaVerdict(n=n, q=q, regime=regime, predicted_exponent=predicted,
                        fit=fit, matched=matched, a_hat=fit.a_hat,
                        negativity_required=negativity_required,
                        negativity_ok=negativity_ok, r_neg=r_neg,
                        residual_ratio=ratio, diagnostics=diag,
                        samples=tuple(samples))


def verify_gaussian_remark(n: int) -> LemmaVerdict:
    """Negativity and decay of the half-Laplacian of exp(-|x|^2) at large radius.

    The Gaussian decays faster than any algebraic weight, so its
    half-Laplacian behaves like the q > n regime: eventually negative with
    decay power -(n+1).  Reports the extracted lower-bound constant as
    a_hat (the smallest |g| <r>^(n+1) inside ``GAUSSIAN_WINDOW``).
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    window = GAUSSIAN_WINDOW
    radii = np.concatenate(([0.0, 0.5, 1.0, 2.0, 4.0],
                            np.geomspace(window[0], window[1], 16)))
    # the Gaussian's tail is negligible a few widths out: a short far cutoff
    samples = _sample(n, gaussian_profile(1.0), radii, n + 1.0, 4.0)

    predicted = -(n + 1.0)
    fit = fit_decay(samples, "plain", predicted, n=n, window=window)
    r_neg = _negativity(samples)
    matched = abs(fit.exponent - predicted) <= 0.1 and r_neg is not None
    inside = [s for s in samples if window[0] <= s.r <= window[1]]
    c_hat = min(max(-s.value - s.error, 0.0) * float(bracket(s.r)) ** (n + 1.0)
                for s in inside)
    diag = (f"gaussian n={n}: fitted exponent {fit.exponent:.4f} vs {predicted} "
            f"(tol 0.1), negative beyond r={r_neg}, C_hat={c_hat:.5f}")
    return LemmaVerdict(n=n, q=math.inf, regime="gaussian", predicted_exponent=predicted,
                        fit=fit, matched=matched, a_hat=c_hat,
                        negativity_required=True, negativity_ok=r_neg is not None,
                        r_neg=r_neg, residual_ratio=None, diagnostics=diag,
                        samples=tuple(samples))


def write_lemma_report(verdicts: list[LemmaVerdict], out_dir: str | Path) -> list[Path]:
    """Emit the JSON report plus one plot-ready CSV per verdict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    entries = []
    for v in verdicts:
        tag = "gaussian" if v.regime == "gaussian" else f"q{v.q:g}"
        written.append(write_csv(out / f"lemma_n{v.n}_{tag}.csv",
                                 ["r", "g", "certified_error", "bound_case"],
                                 ([s.r, s.value, s.error, v.regime] for s in v.samples)))
        entries.append({
            "n": v.n, "q": None if v.regime == "gaussian" else v.q,
            "regime": v.regime, "matched": v.matched,
            "fitted_exponent": v.fit.exponent,
            "predicted_exponent": v.predicted_exponent,
            "log_coeff": v.fit.log_coeff, "a_hat": v.a_hat,
            "residual": v.fit.residual, "residual_ratio": v.residual_ratio,
            "r_neg": v.r_neg, "negativity_ok": v.negativity_ok,
            "diagnostics": v.diagnostics, "csv": written[-1].name,
        })
    written.append(write_manifest(out / "lemma_report.json", "lemma", {"verdicts": entries}))
    return written
