"""Singular quadrature for the half-Laplacian of a radial profile.

Evaluates (-Delta)^(1/2) f at radii a = |x|, as B_n times the
principal-value integral of (f(x) - f(z)) / |x - z|^(n+1).  For a radial f
both dimensions reduce to one integral over the radius rho = |z|, and
pairing the two radii rho = a +- t turns the principal value into a proper
integral,

    int_0^inf t^(-2) S(t) dt,
    S(t) = sum over rho = a +- t of (f(a) - f(rho)) kappa_n(a, rho),

so no epsilon-limit is taken numerically.  In 1D, kappa_1 = 1: the two
points x +- t.  In 2D the angle integral has a closed form (Ferrari and
Verbitsky, J. Differential Equations 253 (2012)): kappa_2(a, rho) =
4 rho E(k) / (rho + a) with k^2 = 4 rho a / (rho + a)^2, zero for rho <= 0,
and 2 pi at a = 0; E comes from the arithmetic-geometric mean.  The t axis
is covered by geometric shells refined around the profile core at t = a,
each shell integrated with a fixed-order Gauss-Legendre rule, and profiles
are evaluated on the squared radius rho^2.  Everything past the far cutoff
is handled with an exact term for the f(x) part and a certified bracket
[0, tail] for the rest (every profile decays), so each returned value
carries a defensible error estimate.

One function samples a profile, :func:`frac_laplacian_pv`: radii in,
arrays of values and errors out.  The rule is fixed in code: besides the
dimension and the radii, only the far cutoff ``y_max`` and the tolerance
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
    "weight_mass",
    "frac_laplacian_pv",
]


#: innermost shell boundary
EPS0 = 1e-3
#: geometric ratio of the radial shells
GROWTH = 1.7
#: Gauss nodes per radial shell of the coarse rule; the fine rule has 6 more
RADIAL_NODES = 12
#: default far cutoff of the explicit shells, and default target tolerance
Y_MAX, TOL = 256.0, 1e-6


@dataclass(frozen=True)
class PVResult:
    value: float
    error: float


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
    """Points lo, lo*g, lo*g^2, ... capped at hi (hi excluded); none if lo is 0,
    as it is for a subnormal radius, whose quarter underflows."""
    out = []
    v = lo
    while 0.0 < v < hi:
        out.append(v)
        v *= g
    return out


def _radial_breaks(ax: float, scale: float, y: float) -> np.ndarray:
    """Shell boundaries on [0, y], refined around the feature at t = ax.

    The innermost boundary never drops below 2% of the profile scale: the
    symmetrized integrand is smooth there, and smaller first shells only
    amplify the t^(-2) roundoff of the cancellation in S.
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


def _ellipe(k2, kp):
    """E(k) from k^2 and the complementary modulus k', both given (k' taken
    from k would cancel as k -> 1), by the arithmetic-geometric mean (DLMF
    19.8.6); once every c_j <= 1e-8 a_j the terms left are below roundoff."""
    a, g, c = np.ones_like(kp), kp, np.sqrt(k2)
    total, power = 0.5 * k2, 0.5
    while np.any(c > 1e-8 * a):
        a, g, c = 0.5 * (a + g), np.sqrt(a * g), 0.5 * (a - g)
        power *= 2.0
        total = total + power * c * c
    return 0.5 * math.pi / a * (1.0 - total)


def _kappa_2(a: float, rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """kappa_2(a, rho) = 4 rho E(k) / (rho + a) for rho = a +- t > 0: the
    integral of |x - z|^(-3) over the circle |z| = rho, times rho t^2."""
    s = rho + a
    return 4.0 * rho * _ellipe(4.0 * rho * a / (s * s), t / s) / s


def _radial_integral(profile: RadialProfile, n: int, ax: float, f_ax: float, tb: np.ndarray,
                     m: int) -> tuple[float, float]:
    """int_0^y t^(-2) S(t) dt at one point |x| = ax, over the shell breaks tb.

    Also returns the kernel-weighted magnitude sum that scales the
    cancellation roundoff in the error estimate.
    """
    t, w = _segment_nodes(tb, m)
    fp, fm = profile.fn(np.square(ax + t)), profile.fn(np.square(ax - t))
    if n == 1:
        kp = km = 1.0
    else:
        # the radius ax - t is a circle only while it is positive
        kp, km, inner = _kappa_2(ax, ax + t, t), np.zeros_like(t), t < ax
        km[inner] = _kappa_2(ax, ax - t[inner], t[inner])
    s = f_ax * (kp + km) - fp * kp - fm * km
    smag = abs(f_ax) * (kp + km) + np.abs(fp) * kp + np.abs(fm) * km
    # magnitude actually summed against the kernel: scales the roundoff left
    # by the symmetric cancellation in S near t -> 0
    cancel_mass = float(np.dot(np.abs(w), smag / np.square(t)))
    return float(np.dot(w, s / np.square(t))), cancel_mass


def _far_field(profile: RadialProfile, ax: float, n: int, y: float) -> tuple[float, float, float]:
    """Half the tail bound past the cutoff, and the kernel mass num / den of
    the cut-off region: int t^-2 S dt there is f(ax) * mass minus a term in
    [0, tail * mass].  In 1D the region is |z - x| > y, where |z| >= y - ax,
    with mass 2 / y; in 2D it is |z| > R = ax + y, with mass
    4 R E(ax / R) / (R^2 - ax^2).  A ratio, so that c * num / den rounds in
    1D as c * 2 / y does."""
    if n == 1:
        return 0.5 * (profile.tail(y - ax) if y > ax else profile.tail(0.0)), 2.0, y
    big = ax + y
    den = y * (big + ax)
    return (0.5 * profile.tail(big),
            4.0 * big * float(_ellipe((ax / big) ** 2, math.sqrt(den) / big)), den)


def far_cutoff(profile: RadialProfile, x_norm: float, n: int, y: float, tol: float) -> float:
    """y, doubled until the far field's share of the certified error at a
    point of radius x_norm in n dimensions is within tol, or y reaches 1e9."""
    b = normalization_constant(n).value
    while y < 1e9:
        tail_half, num, den = _far_field(profile, x_norm, n, y)
        if not b * num * tail_half / den > tol:
            break
        y *= 2.0
    return y


def frac_laplacian_pv(profile: RadialProfile, n: int, radii, y_max=Y_MAX,
                      tol=TOL) -> tuple[np.ndarray, np.ndarray]:
    """Half-Laplacian of a radial profile in n dimensions at radii, via
    singular quadrature: its values and certified errors, in radius order.

    The kernel normalization is :func:`normalization_constant` of n.  The
    far cutoff ``y_max`` and the tolerance ``tol`` are each one number or
    one per radius.  A radius's error combines a node-refinement
    difference, the certified bracket of the far field past its cutoff,
    and a cancellation roundoff term; at the first radius whose error
    misses its tolerance a :class:`QuadratureError` carries that radius's
    partial value and residual.
    """
    b = normalization_constant(n).value
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError("radii must be a 1-D array of finite nonnegative numbers")
    y_maxs = np.broadcast_to(np.asarray(y_max, dtype=np.float64), r.shape)
    tols = np.broadcast_to(np.asarray(tol, dtype=np.float64), r.shape)
    if not np.all((1.0 <= y_maxs) & (y_maxs < math.inf)):
        raise ValueError(f"y_max must be finite and at least 1, got {y_max!r}")
    if not np.all((0.0 < tols) & (tols < math.inf)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")

    values, errors = np.empty_like(r), np.empty_like(r)
    for i, (ax, y, tol_i) in enumerate(zip(r.tolist(), y_maxs.tolist(), tols.tolist())):
        if n == 2:
            # the shells run past t = ax, so that the profile core at the
            # origin, seen at t = ax, is refined
            y = max(y, 2.0 * ax)
        # the coarse and the fine rule share the breaks and f(ax)
        f_ax = float(profile(ax))
        tb = _radial_breaks(ax, profile.scale, y)
        coarse, _ = _radial_integral(profile, n, ax, f_ax, tb, RADIAL_NODES)
        fine, cmass = _radial_integral(profile, n, ax, f_ax, tb, RADIAL_NODES + 6)

        tail_half, num, den = _far_field(profile, ax, n, y)
        value = b * (fine + (f_ax - tail_half) * num / den)
        roundoff = np.finfo(float).eps * (16.0 * cmass + 4.0 * abs(f_ax) * num / den)
        err = b * (3.0 * abs(fine - coarse) + tail_half * num / den + roundoff)
        if not err <= tol_i:  # a NaN error is no certificate
            raise QuadratureError(
                f"shell series not converged at y_max={y} for radius {ax:.3g}", value, err)
        values[i], errors[i] = value, err
    return values, errors


# ---------------------------------------------------------------------------
# closed-form constants: kernel normalization and weight mass
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


def weight_mass(n: int) -> PVResult:
    """Integral of <x>^(-n-1) over the whole space: pi (n=1) or 2 pi (n=2).

    Closed form; the error is a roundoff allowance.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    val = n * math.pi
    return PVResult(val, 64.0 * np.finfo(float).eps * abs(val))
