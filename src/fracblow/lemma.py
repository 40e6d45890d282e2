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

import numpy as np

from .profiles import RadialProfile, bracket, bracket_profile, gaussian_profile
from .pv import TOL, Y_MAX, frac_laplacian_pv

__all__ = [
    "DegenerateFitError",
    "LemmaVerdict",
    "default_radii",
    "sample_frac_weight",
    "fit_decay",
    "verify_lemma",
    "verify_gaussian_remark",
]

#: default radius window of the algebraic-weight decay fits
FIT_WINDOW = (1e2, 1e4)
#: the least ratio of a fit window's ends: two decades, less a percent for rounding
MIN_WINDOW_SPAN = 99.0
#: first radius of the sampled midrange; a fit window must start above it
MIDRANGE_START = 0.25
#: radius window of the Gaussian decay fit
GAUSSIAN_WINDOW = (8.0, 800.0)
#: exponent-match tolerances per dimension
EXPONENT_TOL = {1: 0.05, 2: 0.1}
#: the far cutoff of an algebraic weight sampled at radius r starts at this times 1 + r
FAR_CUTOFF_FACTOR = 120.0


class DegenerateFitError(ValueError):
    """The fit window holds too few nonzero samples, or all lie below the noise floor."""


@dataclass(frozen=True)
class LemmaVerdict:
    """One case's judgement, with its samples as the columns of its CSV:
    radii ``r``, certified values ``g`` and their ``certified_error``.

    ``fitted_exponent``, ``log_coeff`` and ``residual`` are the decay fit's
    (see ``fit_decay``).  ``a_hat`` is the certified sup of |g| against the
    lemma's bound shape; for the Gaussian (``q`` None) it is C_hat, the
    smallest certified |g|<r>^(n+1) in ``GAUSSIAN_WINDOW``.
    """

    n: int
    q: float | None
    regime: str                    # "q<n" | "q=n" | "q>n" | "gaussian"
    predicted_exponent: float
    fitted_exponent: float
    log_coeff: float | None        # the log model's b, q = n only
    residual: float
    matched: bool
    a_hat: float
    r_neg: float | None
    residual_ratio: float | None   # plain rms / log-model rms, q = n only
    diagnostics: str
    r: np.ndarray
    g: np.ndarray
    certified_error: np.ndarray

    @property
    def negativity_ok(self) -> bool | None:
        """None where no sign is required (q < n), else whether a sign-change radius was found."""
        return None if self.q is not None and self.q < self.n - 1e-12 \
            else self.r_neg is not None


def default_radii(window: tuple[float, float] = FIT_WINDOW) -> np.ndarray:
    """Sampling radii: origin, a coarse midrange, and 8 a decade in the fit window."""
    lo, hi = window
    if not lo > MIDRANGE_START:
        raise ValueError(f"fit window must start above the midrange start "
                         f"MIDRANGE_START = {MIDRANGE_START:g}, got {lo!r}")
    mid = np.geomspace(MIDRANGE_START, lo, 10, endpoint=False)
    decades = math.log10(hi / lo)
    fit = np.geomspace(lo, hi, max(8, int(round(8 * decades)) + 1))
    return np.concatenate(([0.0], mid, fit))


def _sample(n: int, profile: RadialProfile, radii: np.ndarray, decay: float,
            cutoff_factor: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified values of the profile's half-Laplacian at radii, and their errors.

    The tolerance is rescaled to the expected magnitude <r>^(-decay), and
    the far cutoff starts at cutoff_factor * (1 + r), from which the
    sampler grows it as slowly decaying profiles need.  Everything else is
    the default rule.
    """
    radii = radii.tolist()
    tols = [max(TOL * float(bracket(r) ** -decay) * 50.0, 1e-13) for r in radii]
    y_max = [max(Y_MAX, cutoff_factor * (1.0 + r)) for r in radii]
    return frac_laplacian_pv(profile, n, radii, y_max, tols)


def sample_frac_weight(n: int, q: float, radii) -> tuple[np.ndarray, np.ndarray]:
    """Certified values of the half-Laplacian of <x>^(-q) at radii, and their errors.

    The certificate stays a small fraction of the expected local magnitude
    <r>^(-min(q, n)-1).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be nonnegative and strictly increasing")
    return _sample(n, bracket_profile(q), radii, min(q, n) + 1.0, FAR_CUTOFF_FACTOR)


def _window(r: np.ndarray, g: np.ndarray, window) -> tuple[np.ndarray, np.ndarray]:
    """The radii and |g| of the nonzero samples inside the window."""
    lo, hi = window
    picked = (lo <= r) & (r <= hi) & (g != 0.0)
    r, g = r[picked], np.abs(g[picked])
    if hi < MIN_WINDOW_SPAN * lo:
        raise ValueError("fit window must span at least two decades")
    if len(r) < 8 or r[-1] < MIN_WINDOW_SPAN * r[0]:
        raise DegenerateFitError(f"need >= 8 nonzero samples over two decades in window {window}")
    if g.max() < 1e3 * np.finfo(float).eps:
        raise DegenerateFitError("degenerate fit: all samples below the noise floor")
    return r, g


def fit_decay(r: np.ndarray, g: np.ndarray, regime: str, n: int | None = None,
              window: tuple[float, float] = FIT_WINDOW) -> tuple[float, float | None, float]:
    """Least-squares fit of the decay of |g(r)| inside the window.

    Returns ``(exponent, log_coeff, residual)``.  ``regime`` selects the
    model: "plain" fits log|g| ~ c + s log<r>, with exponent s and no
    log_coeff (None); "logarithmic" fits |g|<r>^(n+1) ~ a + b log(1+r), with
    log_coeff b and the exponent quoted after dividing 1 + log(1+r) out.
    ``residual`` is the rms misfit in log|g|.
    """
    r, g = _window(r, g, window)
    br = bracket(r)

    if regime == "plain":
        slope, intercept = np.polyfit(np.log(br), np.log(g), 1)
        resid = float(np.sqrt(np.mean(
            (np.log(g) - (slope * np.log(br) + intercept)) ** 2)))
        log_coeff = None
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
    return exponent, log_coeff, resid


def _a_hat(r: np.ndarray, g: np.ndarray, certified_error: np.ndarray, power: float,
           logarithmic: bool = False) -> float:
    """Sup over all samples of the certified |g| against <r>^power, times
    1 + log(1+r) where ``logarithmic``: the lemma's bound shape."""
    def shape(ri: float) -> float:
        # one sample at a time: an array power can differ from the scalar one in the last bit
        s = bracket(ri) ** power
        return float(s * (1.0 + np.log1p(ri)) if logarithmic else s)

    return max((abs(gi) + ei) / shape(ri)
               for ri, gi, ei in zip(r.tolist(), g.tolist(), certified_error.tolist()))


def _negativity(r: np.ndarray, g: np.ndarray) -> float | None:
    """Smallest positive sampled radius beyond which every sample is strictly negative."""
    positive = r > 0.0
    r, g = r[positive], g[positive]
    not_negative = np.flatnonzero(~(g < 0.0))  # NaN counts as not negative
    start = not_negative[-1] + 1 if not_negative.size else 0
    return float(r[start]) if start < r.size else None


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
    r = default_radii(window)
    g, err = sample_frac_weight(n, q, r)
    regime = _regime_of(n, q)
    tol = EXPONENT_TOL[n]

    # (-Delta)^(1/2)<x>^(1-n) = (n-1)<x>^(-n-1) exactly (Poisson extension):
    # the leading <x>^(-q-1) coefficient vanishes at q = n - 1
    degenerate = regime == "q<n" and abs(q - (n - 1)) < 1e-12

    bound = -(q + 1.0) if regime == "q<n" else -(n + 1.0)
    predicted = -(n + 1.0) if degenerate else bound
    if regime == "q=n":
        exponent, log_coeff, residual = fit_decay(r, g, "logarithmic", n=n, window=window)
        ratio = fit_decay(r, g, "plain", window=window)[2] / max(residual, 1e-15)
        matched = abs(exponent - predicted) <= tol and log_coeff > 0.0 and ratio > 3.0
    else:
        exponent, log_coeff, residual = fit_decay(r, g, "plain", window=window)
        matched = abs(exponent - predicted) <= tol
        ratio = None
    a_hat = _a_hat(r, g, err, bound, logarithmic=regime == "q=n")

    negativity_required = q >= n - 1e-12
    r_neg = _negativity(r, g) if negativity_required else None
    if negativity_required and r_neg is None:
        matched = False

    diag = (f"n={n} q={q} regime {regime}: fitted exponent {exponent:.4f} "
            f"vs predicted {predicted:.4f} (tol {tol})")
    if degenerate:
        diag += (f", leading coefficient vanishes at q = n - 1: sharp exponent "
                 f"-(n+1) = {predicted:g}, steeper than the bound rate {bound:g}")
    if ratio is not None:
        diag += f", log coeff b={log_coeff:.4f}, plain/log residual ratio {ratio:.2f}"
    if negativity_required:
        diag += f", negative beyond r={r_neg}" if r_neg is not None else ", no negativity radius found"
    return LemmaVerdict(n=n, q=q, regime=regime, predicted_exponent=predicted,
                        fitted_exponent=exponent, log_coeff=log_coeff, residual=residual,
                        matched=matched, a_hat=a_hat, r_neg=r_neg, residual_ratio=ratio,
                        diagnostics=diag, r=r, g=g, certified_error=err)


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
    r = np.concatenate(([0.0, 0.5, 1.0, 2.0, 4.0], np.geomspace(window[0], window[1], 16)))
    # the Gaussian's tail is negligible a few widths out: a short far cutoff
    g, err = _sample(n, gaussian_profile(1.0), r, n + 1.0, 4.0)

    predicted = -(n + 1.0)
    exponent, log_coeff, residual = fit_decay(r, g, "plain", window=window)
    r_neg = _negativity(r, g)
    matched = abs(exponent - predicted) <= 0.1 and r_neg is not None
    c_hat = min(max(-gi - ei, 0.0) * float(bracket(ri)) ** (n + 1.0)
                for ri, gi, ei in zip(r.tolist(), g.tolist(), err.tolist())
                if window[0] <= ri <= window[1])
    diag = (f"gaussian n={n}: fitted exponent {exponent:.4f} vs {predicted} "
            f"(tol 0.1), negative beyond r={r_neg}, C_hat={c_hat:.5f}")
    return LemmaVerdict(n=n, q=None, regime="gaussian", predicted_exponent=predicted,
                        fitted_exponent=exponent, log_coeff=log_coeff, residual=residual,
                        matched=matched, a_hat=c_hat, r_neg=r_neg, residual_ratio=None,
                        diagnostics=diag, r=r, g=g, certified_error=err)
