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
exact term for the f(x) part and a certified bracket for the rest, so each
returned value carries a defensible error estimate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import RadialProfile

__all__ = [
    "PVQuadratureConfig",
    "PVResult",
    "QuadratureError",
    "sphere_measure",
    "normalization_constant",
    "frac_laplacian_pv",
    "frac_laplacian_pv_many",
]


@dataclass(frozen=True)
class PVQuadratureConfig:
    """Shell decomposition and tolerance policy for the singular integral."""

    eps0: float = 1e-3        # innermost shell boundary
    growth: float = 1.7       # geometric shell ratio
    y_max: float = 256.0      # far cutoff of the explicit shells
    radial_nodes: int = 12    # Gauss nodes per radial shell
    angular_nodes: int = 12   # Gauss nodes per angular segment (n = 2)
    tol: float = 1e-6         # target absolute tolerance per point value

    def __post_init__(self):
        if not (0.0 < self.eps0 < 1.0 <= self.y_max):
            raise ValueError("need 0 < eps0 < 1 <= y_max")
        if self.growth <= 1.0:
            raise ValueError("shell growth factor must exceed 1")
        if self.radial_nodes < 2 or self.angular_nodes < 2:
            raise ValueError("need at least 2 nodes per shell")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


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


def _radial_breaks(quad: PVQuadratureConfig, ax: float, scale: float, y: float) -> np.ndarray:
    """Shell boundaries on [0, y], refined around the feature at r = ax.

    The innermost boundary never drops below 2% of the profile scale: the
    symmetrized integrand is smooth there, and smaller first shells only
    amplify the r^(-2) roundoff of the cancellation in S.
    """
    eps_eff = max(quad.eps0, 0.02 * scale)
    pts = {0.0, y}
    pts.update(_geometric_ladder(eps_eff, y, quad.growth))
    if ax > 0 and ax < y:
        # resolve the profile core (width ~ scale) seen at radius ax
        delta0 = min(quad.eps0 * scale, 0.25 * ax)
        for d in _geometric_ladder(delta0, 0.75 * ax, quad.growth):
            pts.add(ax - d)
            if ax + d < y:
                pts.add(ax + d)
        pts.add(ax)
    b = np.array(sorted(p for p in pts if 0.0 <= p <= y))
    keep = np.concatenate(([True], np.diff(b) > 1e-14 * max(1.0, y)))
    return b[keep]


def _theta_breaks(ax: float, scale: float, g: float) -> np.ndarray:
    """Angular segment boundaries on [0, pi], accumulating at pi."""
    width = math.pi * min(1.0, 0.05 * scale / max(ax, scale))
    offs = _geometric_ladder(width, math.pi, g)
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


def frac_laplacian_pv(profile: RadialProfile, x, b: float,
                      quad: PVQuadratureConfig) -> PVResult:
    """Half-Laplacian of a radial profile at point x via singular quadrature.

    ``b`` is the kernel normalization from :func:`normalization_constant`.
    The reported error combines a node-refinement difference, the certified
    bracket of the far field beyond ``quad.y_max``, and a cancellation
    roundoff term; if it misses ``quad.tol`` a :class:`QuadratureError`
    carries the partial value and residual.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = xv.size
    if n not in (1, 2):
        raise ValueError("point must have 1 or 2 coordinates")
    ax = float(np.linalg.norm(xv))
    y = quad.y_max
    omega = sphere_measure(n)

    # the coarse and the fine rule share the breaks and f(|x|)
    f_ax = float(profile(ax))
    rb = _radial_breaks(quad, ax, profile.scale, y)
    tb = _theta_breaks(ax, profile.scale, quad.growth) if n == 2 else None
    coarse, _ = _radial_integral(profile, ax, f_ax, rb, tb,
                                 quad.radial_nodes, quad.angular_nodes)
    fine, cmass = _radial_integral(profile, ax, f_ax, rb, tb,
                                   quad.radial_nodes + 6, quad.angular_nodes + 6)

    # beyond y:  int r^-2 S dr = omega*f(ax)/y - int_{|y'|>y} f(x+y') K dy',
    # the second term sits inside [floor, tail(y-ax)] * omega / y
    hi = profile.tail(y - ax) if y > ax else profile.tail(0.0)
    lo = profile.floor
    tail_mid = 0.5 * (hi + lo)
    tail_half = 0.5 * (hi - lo)

    value = b * (fine + (f_ax - tail_mid) * omega / y)
    roundoff = np.finfo(float).eps * (16.0 * cmass + 4.0 * abs(f_ax) * omega / y)
    err = b * (3.0 * abs(fine - coarse) + tail_half * omega / y + roundoff)
    if err > quad.tol:
        raise QuadratureError(
            f"shell series not converged at y_max={y} for |x|={ax:.3g}", value, err)
    return PVResult(value, err)


def frac_laplacian_pv_many(profile: RadialProfile, xs, b: float,
                           quad: PVQuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise PV evaluation over a sequence of points (deterministic order)."""
    vals, errs = [], []
    for x in xs:
        res = frac_laplacian_pv(profile, x, b, quad)
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
