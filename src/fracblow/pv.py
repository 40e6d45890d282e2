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
are evaluated on the squared radius rho^2.  The two rules, of 12 and 18
nodes, are stored here, halves of the symmetric arrays that
``numpy.polynomial.legendre.leggauss`` returns, to the bit: a sample does
not import the six modules of ``numpy.polynomial`` to build them.
Everything past the far cutoff is handled with an exact term for the f(x)
part and a certified bracket [0, tail] for the rest (every profile
decays), so each returned value carries a defensible error estimate.

One function samples a profile, :func:`frac_laplacian_pv`: radii in,
arrays of values and errors out.  The rule is fixed in code: besides the
dimension and the radii, only the first far cutoff tried, ``y_max``, and
the tolerance ``tol`` are arguments, and only the lemma's sampler varies
them.  The one far-cutoff rule lives here: each cutoff doubles until its
far field takes at most a third of the radius's tolerance.  A call
prepares each radius (its cutoff, far field, shells and f(a)) in a loop,
then samples runs of consecutive radii in array passes, one per rule, of
at most ``_BLOCK_NODES`` nodes: a pass evaluates the profile, the kernel
(one AGM over the pass) and the integrand once, and each radius's sums
are dot products over its own nodes.  So a radius's value and certificate do not
depend on which other radii share its call, up to the one-ulp kernel
exception that :func:`_ellipe` names; the block size bounds memory and
per-pass overhead, not the result.
"""
from __future__ import annotations

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
#: largest radius, in profile scales, sampled at a far cutoff y_max below it.
#: The nodes near the profile core at t = |x| sit on the double grid of
#: spacing ulp(|x|), which the error does not count; against closed forms at
#: the default cutoff that rounding first outweighs it at about 4e7 scales
MAX_RADIUS = 2.0 ** 22
#: most fine-rule nodes sampled in one array pass: it bounds the pass's
#: memory, and no result depends on it.  Chosen by ``verify-lemma``'s peak
#: RSS, which it raises by about 1.4% over one radius at a time (4096: 2%)
_BLOCK_NODES = 3072


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


#: the m-node Gauss-Legendre rules on [-1, 1] that the shells use, m =
#: ``RADIAL_NODES`` and 6 more: each rule's positive nodes, ascending, with
#: their weights.  ``numpy.polynomial.legendre.leggauss`` gives these bits,
#: and mirrors them to the bit: node -x and x share a weight
_GAUSS_HALVES = {
    12: ((0.1252334085114689, 0.2491470458134027),
         (0.3678314989981802, 0.2334925365383546),
         (0.5873179542866175, 0.20316742672306573),
         (0.7699026741943047, 0.16007832854334642),
         (0.9041172563704748, 0.10693932599531907),
         (0.9815606342467192, 0.04717533638651141)),
    18: ((0.08477501304173529, 0.1691423829631439),
         (0.2518862256915055, 0.16427648374583304),
         (0.41175116146284263, 0.15468467512626555),
         (0.5597708310739475, 0.14064291467065093),
         (0.6916870430603532, 0.1225552067114787),
         (0.8037049589725231, 0.10094204410628728),
         (0.8926024664975557, 0.07642573025488957),
         (0.9558239495713978, 0.049714548894969394),
         (0.991565168420931, 0.021616013526481497)),
}


def _gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Legendre nodes and weights on [-1, 1], ascending, in fresh arrays.

    A node count with no stored rule (``RADIAL_NODES`` changed) takes
    ``leggauss`` itself.
    """
    if m not in _GAUSS_HALVES:
        return np.polynomial.legendre.leggauss(m)
    x, w = np.array(_GAUSS_HALVES[m]).T
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _segment_nodes(lo: np.ndarray, hi: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated m-point Gauss nodes/weights for each segment [lo[i], hi[i]]."""
    t, w = _gauss_rule(m)
    half = 0.5 * (hi - lo)
    mid = lo + half
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
    19.8.6); once every c_j <= 1e-8 a_j the terms left are below roundoff.

    The whole array stops together, at the first step that every element
    passes.  An element that passed steps earlier sits at a floating-point
    fixed point of E(k): further steps leave its bits alone, so contiguous
    k' ranges give the same bits in one array as apart.  An element that
    only just passed when its own array would stop can still move by one
    ulp in an array that runs longer (k' near 6e-14 alone, against an array
    that reaches k' = 1e-15).  Stopping each element on its own would change
    the bits of elements that pass before their array does.
    """
    a, g, c = np.ones_like(kp), kp, np.sqrt(k2)
    total, power = 0.5 * k2, 0.5
    # the largest k converges last: while it has not, the whole test is true
    i = int(np.argmax(k2))
    del k2, kp  # free a caller's temporaries before the loop's own arrays
    while c.item(i) > 1e-8 * a.item(i) or np.any(c > 1e-8 * a):
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), np.sqrt(a * g)
        power *= 2.0
        total = total + power * c * c
    return 0.5 * math.pi / a * (1.0 - total)


def _kappa_2(a, rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """kappa_2(a, rho) = 4 rho E(k) / (rho + a) for rho = a +- t > 0: the
    integral of |x - z|^(-3) over the circle |z| = rho, times rho t^2."""
    s = rho + a
    # E first, so that no product is held through the AGM
    e = _ellipe(4.0 * rho * a / (s * s), t / s)
    return 4.0 * rho * e / s


def _blocks(shells: list[int]):
    """Consecutive ranges [lo, hi) of radii, given each radius's shell count,
    whose fine rules add up to at most _BLOCK_NODES nodes; a radius with more
    is a block of its own."""
    lo, nodes = 0, 0
    for i, k in enumerate(shells):
        if i > lo and nodes + k * (RADIAL_NODES + 6) > _BLOCK_NODES:
            yield lo, i
            lo, nodes = i, 0
        nodes += k * (RADIAL_NODES + 6)
    if lo < len(shells):
        yield lo, len(shells)


def _shell_sums(profile: RadialProfile, n: int, ax: np.ndarray, f_ax: np.ndarray,
                breaks: list[np.ndarray], m: int) -> tuple[list[float], list[float]]:
    """int_0^y t^(-2) S(t) dt at each radius ax[i] over its shell breaks[i]
    by the m-node rule, in one array pass over all their nodes.

    Also returns the kernel-weighted magnitude sums, which scale the
    cancellation roundoff in the error estimate.  Each sum is a dot product
    over its own radius's nodes, so a radius's sums do not depend on which
    other radii share the pass.
    """
    t, w = _segment_nodes(np.concatenate([tb[:-1] for tb in breaks]),
                          np.concatenate([tb[1:] for tb in breaks]), m)
    counts = m * np.array([tb.size - 1 for tb in breaks])
    a = ax.repeat(counts)
    if n == 1:
        kp = km = 1.0
    else:
        # the radius a - t is a circle only while it is positive; the kernel
        # at both radii takes one call
        inner = t < a
        kp = _kappa_2(np.concatenate((a, a[inner])), np.concatenate((a + t, a[inner] - t[inner])),
                      np.concatenate((t, t[inner])))
        km = np.zeros_like(t)
        km[inner] = kp[t.size:]
        kp = kp[:t.size]
    # the three terms of S: f(ax) (kp + km), f(a + t) kp and f(a - t) km
    fs = f_ax.repeat(counts) * (kp + km)
    fp = profile.fn(np.square(a + t)) * kp
    fm = profile.fn(np.square(a - t)) * km
    t2 = np.square(t)
    integrand = (fs - fp - fm) / t2
    # magnitude actually summed against the kernel: scales the roundoff left
    # by the symmetric cancellation in S near t -> 0.  Rounding is symmetric
    # in sign and the kernels are nonnegative, so |f k| is |f| k to the bit.
    magnitude = (np.abs(fs) + np.abs(fp) + np.abs(fm)) / t2
    w_abs = np.abs(w)
    ends = counts.cumsum().tolist()
    spans = list(zip([0] + ends[:-1], ends))
    return ([float(np.dot(w[i:j], integrand[i:j])) for i, j in spans],
            [float(np.dot(w_abs[i:j], magnitude[i:j])) for i, j in spans])


def _far_field(profile: RadialProfile, ax: float, n: int, y: float) -> tuple[float, float, float]:
    """Half the tail bound past the cutoff, and the kernel mass num / den of
    the cut-off region: int t^-2 S dt there is f(ax) * mass minus a term in
    [0, tail * mass].  In 1D the region is |z - x| > y, where |z| >= y - ax,
    with mass 2 / y; in 2D it is |z| > R = ax + y, with mass
    4 R E(ax / R) / (R^2 - ax^2).  A ratio, so that c * num / den rounds in
    1D as c * 2 / y does."""
    if n == 1:
        return 0.5 * profile.tail(y - ax), 2.0, y
    big = ax + y
    den = y * (big + ax)
    return (0.5 * profile.tail(big),
            4.0 * big * float(_ellipe((ax / big) ** 2, math.sqrt(den) / big)), den)


def frac_laplacian_pv(profile: RadialProfile, n: int, radii, y_max=Y_MAX,
                      tol=TOL) -> tuple[np.ndarray, np.ndarray]:
    """Half-Laplacian of a radial profile in n dimensions at radii, via
    singular quadrature: its values and certified errors, in radius order.

    The kernel normalization is :func:`normalization_constant` of n.  The
    first far cutoff tried, ``y_max``, and the tolerance ``tol`` are each
    one number or one per radius.  ``OverflowError`` refuses a radius r
    past :data:`MAX_RADIUS` profile scales whose y_max does not exceed r
    (the lemma's sampler sets y_max past r and judges such samples by its
    own fit checks).  A cutoff y below 2r is raised to 2r, and a radius
    where (2r + y)^2 overflows is refused too; only then does y double
    while it is below 1e9 and the far field past it takes more than a third
    of the radius's tolerance.  A radius's error combines a node-refinement
    difference, the certified bracket of the far field past its cutoff, and
    a cancellation roundoff term; at the first radius whose error misses
    its tolerance a :class:`QuadratureError` carries that radius's partial
    value and residual.
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

    ax, tols = r.tolist(), tols.tolist()
    big = MAX_RADIUS * profile.scale
    ys, far = [], []
    for x, y, tol_i in zip(ax, y_maxs.tolist(), tols):
        if x > big and not y > x:
            raise OverflowError(f"radius {x:g} too large: past {big:g}, rounding its nodes "
                                f"near the core can outweigh its error (y_max = {y:g})")
        # the shells refine the origin's core, seen at t = ax, and end past it
        y = max(y, 2.0 * x)
        if not math.isfinite((2.0 * x + y) * (2.0 * x + y)):  # the 2D kernel squares rho + ax
            raise OverflowError(f"radius {x:g} too large: (2r + y)^2 at its far cutoff "
                                f"y = {y:g} exceeds {np.finfo(float).max:g}")
        # double the cutoff until the far field takes at most a third of the tolerance
        tail_half, num, den = _far_field(profile, x, n, y)
        while y < 1e9 and b * num * tail_half / den > tol_i / 3.0:
            y *= 2.0
            tail_half, num, den = _far_field(profile, x, n, y)
        ys.append(y)
        far.append((tail_half, num, den))
    # the coarse and the fine rule share the breaks and f(ax)
    f_ax = np.array([float(profile(x)) for x in ax])
    breaks = [_radial_breaks(x, profile.scale, y) for x, y in zip(ax, ys)]
    values, errors = np.empty_like(r), np.empty_like(r)
    for lo, hi in _blocks([tb.size - 1 for tb in breaks]):
        block = (profile, n, r[lo:hi], f_ax[lo:hi], breaks[lo:hi])
        coarse_sums, _ = _shell_sums(*block, RADIAL_NODES)
        fine_sums, cancel_mass = _shell_sums(*block, RADIAL_NODES + 6)
        for i, (coarse, fine, cmass) in enumerate(zip(coarse_sums, fine_sums, cancel_mass), lo):
            tail_half, num, den = far[i]
            f_i = f_ax.item(i)
            value = b * (fine + (f_i - tail_half) * num / den)
            roundoff = np.finfo(float).eps * (16.0 * cmass + 4.0 * abs(f_i) * num / den)
            err = b * (3.0 * abs(fine - coarse) + tail_half * num / den + roundoff)
            if not err <= tols[i]:  # a NaN error is no certificate
                raise QuadratureError(f"shell series not converged at far cutoff y={ys[i]} "
                                      f"for radius {ax[i]:.3g}", value, err)
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
