"""Singular quadrature for the half-Laplacian.

Evaluates (-Delta)^(1/2) f at a point as B_n times the principal-value
integral of (f(x) - f(x+y)) / |y|^(n+1).  The integrand is symmetrized in
y -> -y, which turns the principal value into a proper integral whose
radial form is

    int_0^inf r^(-2) S(r) dr,
    S(r) = int_{S^(n-1)} [f(x) - f(x + r w)] dsigma(w),

so no epsilon-limit is taken numerically.  The radial axis is covered by
geometric shells refined around the profile feature at r = |x|, each shell
integrated with a fixed-order Gauss-Legendre rule; for n = 2 the sphere
integral uses Gauss rules on a geometric ladder of angular segments
accumulating at the antipodal direction, where the integrand develops an
O(scale/|x|) feature.  Profiles are evaluated on the squared radius
|x + r w|^2, and the n = 2 (radial x angular) table is swept in row blocks
that stay in cache.  Everything past the far cutoff is handled with an
exact term for the f(x) part and a certified bracket [0, tail] for the
rest (every profile decays), so each returned value carries a defensible
error estimate.

The rule is fixed in code: only the far cutoff ``y_max`` and the tolerance
``tol`` are arguments, and only the lemma's sampler varies them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import RadialProfile

__all__ = [
    "PVResult",
    "QuadratureError",
    "sphere_measure",
    "normalization_constant",
    "frac_laplacian_pv",
    "frac_laplacian_pv_many",
]


#: innermost shell boundary
EPS0 = 1e-3
#: geometric ratio of the radial shells and of the angular segments
GROWTH = 1.7
#: Gauss nodes per radial shell, and per angular segment for n = 2
RADIAL_NODES = ANGULAR_NODES = 12
#: default far cutoff of the explicit shells, and default target tolerance
Y_MAX, TOL = 256.0, 1e-6


@dataclass(frozen=True)
class PVResult:
    value: float
    error: float

    def __float__(self):
        return self.value


class QuadratureError(RuntimeError):
    """Raised when the shell series cannot meet the requested tolerance.

    Carries the partial value and the residual estimate so callers can
    decide whether the answer is still usable.
    """

    def __init__(self, message: str, value: float, residual: float):
        super().__init__(f"{message} (partial value {value:.6g}, residual {residual:.3g})")
        self.value = value
        self.residual = residual


def sphere_measure(n: int) -> float:
    """Surface measure of S^(n-1): 2 for n=1, 2*pi for n=2."""
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * math.pi
    raise ValueError(f"dimension must be 1 or 2, got {n}")


#: (radial x angular) elements per row block of the n = 2 sphere integral:
#: the block and the profile's temporaries on it (256 KiB each) fit in L2
_BLOCK_ELEMENTS = 32768


@functools.lru_cache(maxsize=64)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _segment_nodes(breaks: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated Gauss nodes/weights for each [breaks[i], breaks[i+1]]."""
    t, w = _leggauss(m)
    a = breaks[:-1]
    half = 0.5 * (breaks[1:] - a)
    mid = a + half
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _geometric_ladder(lo: float, hi: float, g: float) -> list[float]:
    """Points lo, lo*g, lo*g^2, ... capped at hi (hi excluded)."""
    out = []
    v = lo
    while v < hi:
        out.append(v)
        v *= g
    return out


def _radial_breaks(ax: float, scale: float, y: float) -> np.ndarray:
    """Shell boundaries on [0, y], refined around the feature at r = ax.

    The innermost boundary never drops below 2% of the profile scale: the
    symmetrized integrand is smooth there, and smaller first shells only
    amplify the r^(-2) roundoff of the cancellation in S.
    """
    eps_eff = max(EPS0, 0.02 * scale)
    pts = {0.0, y}
    pts.update(_geometric_ladder(eps_eff, y, GROWTH))
    if ax > 0 and ax < y:
        # resolve the profile core (width ~ scale) seen at radius ax
        delta0 = min(EPS0 * scale, 0.25 * ax)
        for d in _geometric_ladder(delta0, 0.75 * ax, GROWTH):
            pts.add(ax - d)
            if ax + d < y:
                pts.add(ax + d)
        pts.add(ax)
    b = np.array(sorted(p for p in pts if 0.0 <= p <= y))
    keep = np.concatenate(([True], np.diff(b) > 1e-14 * max(1.0, y)))
    return b[keep]


def _theta_breaks(ax: float, scale: float) -> np.ndarray:
    """Angular segment boundaries on [0, pi], accumulating at pi."""
    width = math.pi * min(1.0, 0.05 * scale / max(ax, scale))
    offs = _geometric_ladder(width, math.pi, GROWTH)
    pts = sorted({0.0, math.pi} | {math.pi - d for d in offs})
    return np.array(pts)


def _radial_integral(profile: RadialProfile, ax: float, f_ax: float, rb: np.ndarray,
                     tb: np.ndarray | None, mr: int, mt: int) -> tuple[float, float]:
    """int_0^y r^(-2) S(r) dr at one point |x| = ax, over the radial breaks rb.

    ``tb`` holds the angular breaks for n = 2 and is None for n = 1.  Also
    returns the kernel-weighted magnitude sum that scales the cancellation
    roundoff in the error estimate.
    """
    r, wr = _segment_nodes(rb, mr)
    if tb is None:
        fp, fm = profile.fn(np.square(ax + r)), profile.fn(np.square(ax - r))
        s = 2.0 * f_ax - fp - fm
        smag = 2.0 * abs(f_ax) + np.abs(fp) + np.abs(fm)
    else:
        th, wt = _segment_nodes(tb, mt)
        s, smag = _sphere_integral_2d(profile, ax, f_ax, r, th, wt)
    # magnitude actually summed against the kernel: scales the roundoff left
    # by the symmetric cancellation in S near r -> 0
    cancel_mass = float(np.dot(np.abs(wr), smag / np.square(r)))
    return float(np.dot(wr, s / np.square(r))), cancel_mass


def _sphere_integral_2d(profile: RadialProfile, ax: float, f_ax: float, r: np.ndarray,
                        th: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(r) and its magnitude sum on the circle, for every radial node r.

    |x + r w|^2 = (ax^2 + r^2) + 2 ax (r cos(theta)), theta in [0, pi]
    doubled, feeds the profile as a squared radius.  The (radial x angular)
    table is swept in row blocks of about _BLOCK_ELEMENTS, built in place in
    one buffer, so the working set stays in cache whatever the node count.
    """
    cos, awt = np.cos(th), np.abs(wt)
    base, two_ax = ax * ax + np.square(r), 2.0 * ax
    s, smag = np.empty_like(r), np.empty_like(r)
    rows = max(1, _BLOCK_ELEMENTS // th.size)
    buf = np.empty((min(rows, r.size), th.size))
    for i in range(0, r.size, rows):
        j = min(i + rows, r.size)
        rho2 = buf[:j - i]
        np.multiply(r[i:j, None], cos, out=rho2)
        rho2 *= two_ax
        rho2 += base[i:j, None]
        np.maximum(rho2, 0.0, out=rho2)
        fv = profile.fn(rho2)
        smag[i:j] = np.abs(fv) @ awt
        s[i:j] = np.subtract(f_ax, fv, out=rho2) @ wt
    return 2.0 * s, 2.0 * (abs(f_ax) * float(np.sum(awt)) + smag)


def frac_laplacian_pv(profile: RadialProfile, x, y_max: float = Y_MAX,
                      tol: float = TOL) -> PVResult:
    """Half-Laplacian of a radial profile at point x via singular quadrature.

    The kernel normalization is :func:`normalization_constant` of the
    point's dimension.  The reported error combines a node-refinement
    difference, the certified bracket of the far field beyond ``y_max``,
    and a cancellation roundoff term; if it misses ``tol`` a
    :class:`QuadratureError` carries the partial value and residual.
    """
    if not 1.0 <= y_max < math.inf:
        raise ValueError(f"y_max must be finite and at least 1, got {y_max!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = xv.size
    if n not in (1, 2):
        raise ValueError("point must have 1 or 2 coordinates")
    ax = float(np.linalg.norm(xv))
    b, omega = normalization_constant(n).value, sphere_measure(n)
    y = y_max

    # the coarse and the fine rule share the breaks and f(|x|)
    f_ax = float(profile(ax))
    rb = _radial_breaks(ax, profile.scale, y)
    tb = _theta_breaks(ax, profile.scale) if n == 2 else None
    coarse, _ = _radial_integral(profile, ax, f_ax, rb, tb, RADIAL_NODES, ANGULAR_NODES)
    fine, cmass = _radial_integral(profile, ax, f_ax, rb, tb,
                                   RADIAL_NODES + 6, ANGULAR_NODES + 6)

    # beyond y:  int r^-2 S dr = omega*f(ax)/y - int_{|y'|>y} f(x+y') K dy',
    # the second term sits inside [0, tail(y-ax)] * omega / y: its midpoint
    # and its half-width are both half the tail bound
    tail_half = 0.5 * (profile.tail(y - ax) if y > ax else profile.tail(0.0))

    value = b * (fine + (f_ax - tail_half) * omega / y)
    roundoff = np.finfo(float).eps * (16.0 * cmass + 4.0 * abs(f_ax) * omega / y)
    err = b * (3.0 * abs(fine - coarse) + tail_half * omega / y + roundoff)
    if not err <= tol:  # a NaN error is no certificate
        raise QuadratureError(
            f"shell series not converged at y_max={y} for |x|={ax:.3g}", value, err)
    return PVResult(value, err)


def frac_laplacian_pv_many(profile: RadialProfile, xs) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise PV evaluation at the default rule, in the order of the points."""
    vals, errs = [], []
    for x in xs:
        res = frac_laplacian_pv(profile, x)
        vals.append(res.value)
        errs.append(res.error)
    return np.array(vals), np.array(errs)


# ---------------------------------------------------------------------------
# kernel normalization
# ---------------------------------------------------------------------------

def normalization_constant(n: int) -> PVResult:
    """Kernel normalization B = (integral of (1 - cos xi_1)/|xi|^(n+1))^(-1).

    Closed form B_n = Gamma((n+1)/2) / pi^((n+1)/2): 1/pi for n = 1 and
    1/(2 pi) for n = 2 (Di Nezza, Palatucci, Valdinoci, Bull. Sci. Math.
    136 (2012), Sec. 3).  The error is a roundoff allowance, 4 eps B.
    """
    if n not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    b = math.gamma(0.5 * (n + 1)) / math.pi ** (0.5 * (n + 1))
    return PVResult(b, 4.0 * math.ulp(1.0) * b)
