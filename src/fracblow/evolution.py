"""Split-step time integration of the half-wave equation with power source.

The evolution is i u_t + Op u = lam |u|^p with Op the half-Laplacian, so
u_t = i Op u - i lam |u|^p.  Each step is a Strang composition: half a
linear step (exact Fourier multiplier exp(i t |xi|)), a full nonlinear
step (explicit midpoint on the pointwise ODE), and another half linear
step.  ``_step`` is the one stepping kernel: it maps a spectrum and its
two half-step factors to the next step's spectrum and the sup norm of its
post-source stage; the factors carry the phase exp(i dt/2 |xi|) together
with the constants the transforms would otherwise apply in passes of
their own.  ``evolve`` carries that (spectrum, sup) pair through its loop,
so a run costs 2 FFTs a step, and reads each step without leaving the
spectrum: ``M_R`` as a pairing with the weight's DFT, and the L2 norm by
Parseval.  Radial data are even about index N/2, so they live on their
even part alone, sites N/2, ..., N-1, 0 of each axis (a half in 1D, a
quarter in 2D; ``_EvenPart``): ``blowup.make_initial_data`` samples them
there, ``weighted_functional`` sums them with each site's multiplicity,
and ``evolve`` steps the even part's spectrum, a DCT-I by 1D FFTs over
even extensions (Martucci, IEEE Trans. Signal Process. 42, 1994).  In 2D
that halves the FFT work a step; in 1D the FFTs keep their N points and
the pointwise work halves.  Each pass transforms the rows of one fresh
even extension in place; in 2D the second extension keeps the transposed
layout of its input, so that pass reads its rows strided.  ``evolve``
tells the even part from the full lattice by the shape of its data; the
full lattice serves data that are not even.
Blow-up is detected from the sup norm, with step halving near the
singularity; the last accepted time is the numerical blow-up time.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridSpec, _norm
from .profiles import bracket
from .reporting import write_csv

__all__ = [
    "ProblemParams",
    "TrajectoryRecord",
    "UnresolvedFieldError",
    "spectral_tail_fraction",
    "weighted_functional",
    "evolve",
]

#: largest share of spectral l2 mass allowed in the top band of the initial data
TAIL_FRACTION_LIMIT = 1e-3
#: a step whose sup grows past this factor is retried at half the step size ...
GROWTH_CAP = 4.0
#: ... at most this many times in the whole run (dt never grows back) before
#: the run is flagged as blown up
MAX_HALVINGS = 10
#: ``evolve`` flags blow-up once sup|u| reaches this many times sup|u0|
THRESHOLD_FACTOR = 25.0
#: modes with |xi| at or above this share of the largest |xi| form the top band
TAIL_BAND = 0.85


@dataclass(frozen=True)
class ProblemParams:
    """Equation data: dimension, nonlinearity power, coefficients.

    ``alpha`` is the pairing coefficient of the weighted functional; the
    default conj(lam)/|lam| makes Re(alpha*lam) = |lam| > 0 automatically.
    lam = 0 degenerates to the free flow and is admitted for integrator
    testing only; the blow-up machinery rejects it at its own gate.
    """

    n: int
    p: float
    lam: complex
    alpha: complex | None = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"nonlinearity power must be finite and exceed 1, got {self.p}")
        if not (cmath.isfinite(self.lam) and cmath.isfinite(self.alpha or 0)):
            raise ValueError(f"lambda and alpha must be finite, got {self.lam} and {self.alpha}")
        if self.alpha is None:
            default = self.lam.conjugate() / abs(self.lam) if self.lam != 0 else 1.0
            object.__setattr__(self, "alpha", default)

    @property
    def p_conj(self) -> float:
        """Holder conjugate p/(p-1)."""
        return self.p / (self.p - 1.0)

    @property
    def re_alpha_lam(self) -> float:
        return (self.alpha * self.lam).real


@dataclass
class TrajectoryRecord:
    """Time series of the weighted functional and norms for one run."""

    times: np.ndarray
    m_r: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    t_num: float | None
    grid: GridSpec
    # DFT of the last accepted state, or that of its even part (see _EvenPart)
    final_spectrum: np.ndarray = field(repr=False)

    @property
    def final(self) -> np.ndarray:  # the lattice's last accepted state, else u0 to roundoff
        spec = self.final_spectrum
        if spec.shape != self.grid.shape:
            spec = _EvenPart(self.grid).full_spectrum(spec)
        return np.fft.ifftn(spec)

    @property
    def threshold(self) -> float:  # the sup norm at which the run is flagged
        return THRESHOLD_FACTOR * self.sup_norm[0]

    @property
    def blew_up(self) -> bool:
        return self.t_num is not None

    def to_csv(self, path: str | Path) -> Path:
        return write_csv(path, ["t", "m_r", "sup_norm", "l2_norm"],
                         zip(self.times, self.m_r, self.sup_norm, self.l2_norm))


class UnresolvedFieldError(RuntimeError):
    """The initial data puts too much spectral mass near the grid Nyquist."""


def _midpoint_source(u: np.ndarray, dt: float, params: ProblemParams) -> np.ndarray:
    """Explicit midpoint for i u_t = lam |u|^p over dt, overwriting u."""
    mag = np.abs(u)
    mag **= params.p
    mid = np.multiply(0.5j * dt * params.lam, mag)
    np.subtract(u, mid, out=mid)
    np.abs(mid, out=mag)
    mag **= params.p
    np.multiply(1j * dt * params.lam, mag, out=mid)
    u -= mid
    return u


def _half_step_factors(absxi: np.ndarray, dt: float, size: int,
                       scale: np.ndarray | float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(into, out_of): a linear half step's multiplier exp(i dt/2 |xi|) as ``_step`` applies it.

    ``into`` multiplies the spectrum before the unnormalised inverse DFT and
    also undoes the spectrum's ``scale`` and the inverse's 1/``size`` (N^n);
    ``out_of`` multiplies the forward DFT and applies the ``scale``, so that a
    step makes no other pass over its arrays for them.
    """
    phase = np.exp(1j * (0.5 * dt) * absxi)
    return phase / (scale * size), phase * scale


def _unscaled_idftn(spec: np.ndarray, into: np.ndarray) -> np.ndarray:
    """The full lattice's inverse DFT of ``into * spec`` without its 1/N^n, in one fresh array."""
    u = np.multiply(spec, into)
    return np.fft.ifftn(u, norm="forward", out=u)


def _step(spec: np.ndarray, factors: tuple[np.ndarray, np.ndarray], dt: float,
          params: ProblemParams, transforms=None) -> tuple[np.ndarray, float]:
    """Linear half step, nonlinear full step, linear half step, on a spectrum.

    Returns the output's spectrum and the sup norm of the post-source
    stage, half a linear step before the output.  ``spec`` is not written,
    so a rejected step is retried from it.  ``factors`` are the half step's
    (into, out_of) from ``_half_step_factors``; ``transforms`` is the
    unscaled (forward, inverse) pair, ``inverse(spec, into)`` the inverse
    DFT of ``into * spec`` without its 1/N^n, by default the full lattice's.
    """
    into, out_of = factors
    forward, inverse = transforms or (np.fft.fftn, _unscaled_idftn)
    u = inverse(spec, into)
    _midpoint_source(u, dt, params)
    stage_sup = float(np.max(np.abs(u)))
    spec = forward(u)
    if spec.flags.owndata and spec.flags.c_contiguous:  # the full lattice's fresh fftn
        spec *= out_of
        return spec, stage_sup
    # a view into the even part's last extension: one contiguous product,
    # since ``_spectral_readings`` views it as float pairs
    return np.multiply(spec, out_of, order="C"), stage_sup


class _EvenPart:
    """The N/2+1 sites per axis of a lattice that fix a field even about N/2.

    It holds sites N/2, ..., N-1, 0 of each axis (a half in 1D, a quarter in
    2D), each of which stands for ``mult`` sites of the lattice, and, as a
    DCT-I, the DFT at frequencies 0, ..., N/2 times the square root of each
    one's multiplicity, so that Parseval holds on it; it has a grid's
    ``shape``, ``radii`` and ``abs_freq``.
    """

    def __init__(self, grid: GridSpec):
        h = grid.N // 2
        self.grid, self.n = grid, grid.n
        self.shape = (h + 1,) * grid.n
        self.sites = np.arange(h, 2 * h + 1) % grid.N
        # sites N/2 + j and N/2 - j, like frequencies k and N - k, are one mode:
        # each counts twice but the two ends
        mult = np.r_[1.0, np.full(h - 1, 2.0), 1.0]
        # (-1)^k: the sites start at N/2
        scale = (-1.0) ** np.arange(h + 1) * np.sqrt(mult)
        self.mult, self.scale = ((mult, scale) if self.n == 1
                                 else (np.outer(mult, mult), np.outer(scale, scale)))

    def radii(self) -> np.ndarray:
        return _norm(self.grid.axis()[self.sites], self.n)

    def abs_freq(self) -> np.ndarray:
        return _norm(self.grid.freq_axis()[:len(self.sites)], self.n)

    def _even(self, a: np.ndarray, transform, into=None, norm=None) -> np.ndarray:
        # ``transform`` of the even extension on every axis, of ``into * a`` if
        # given: each pass transforms the rows of one fresh extension in place
        # and hands on its leading columns transposed, so the last pass's view
        # is the result.  In 2D the second extension keeps the transposed
        # layout of its input, so that pass reads its rows strided (writing it
        # C-ordered after a strided copy measured slower)
        h = len(a) - 1
        for _ in range(self.n):
            if into is None:
                ext = np.concatenate((a, a[..., h - 1:0:-1]), axis=-1, dtype=np.complex128)
            else:
                ext = np.empty(a.shape[:-1] + (2 * h,), dtype=np.complex128)
                np.multiply(a, into, out=ext[..., :h + 1])
                ext[..., h + 1:] = ext[..., h - 1:0:-1]
                into = None
            a = transform(ext, axis=-1, norm=norm, out=ext)[..., :h + 1].T
        return a

    def unscaled_dft(self, u: np.ndarray) -> np.ndarray:
        """The part's DFT without its ``scale``, in any layout."""
        return self._even(u, np.fft.fft)

    def unscaled_idft(self, spec: np.ndarray, into: np.ndarray) -> np.ndarray:
        """The inverse of ``dft`` at ``into * spec * scale``, without its 1/N^n."""
        return self._even(spec, np.fft.ifft, into, "forward")

    def dft(self, u: np.ndarray) -> np.ndarray:
        # contiguous, since ``_spectral_readings`` views it as float pairs
        return np.multiply(self.unscaled_dft(u), self.scale, order="C")

    def idft(self, spec: np.ndarray) -> np.ndarray:
        return self._even(spec / self.scale, np.fft.ifft)

    def full_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """The full lattice's DFT, in one (N,) * n array."""
        fold = np.r_[0:len(spec), len(spec) - 2:0:-1]
        return (spec / np.abs(self.scale))[np.ix_(*(fold,) * self.n)]


def spectral_tail_fraction(spectrum: np.ndarray, absxi: np.ndarray) -> float:
    """Fraction of spectral l2 mass carried by modes with |xi| >= TAIL_BAND * max.

    ``absxi`` is the spectrum's |xi|, ``abs_freq()`` of its grid or even part.
    """
    spec = np.abs(spectrum) ** 2
    total = float(spec.sum())
    if total == 0.0:
        return 0.0
    return float(spec[absxi >= TAIL_BAND * absxi.max()].sum() / total)


def _test_weight(grid: GridSpec, R: float) -> np.ndarray:
    """The test weight <x/R>^(-n-1) at every site of a grid or an even part."""
    if not R > 0:
        raise ValueError(f"weight radius must be positive, got {R}")
    return bracket(grid.radii() / R) ** -(grid.n + 1)


def weighted_functional(u: np.ndarray, grid: GridSpec, alpha: complex, R: float) -> float:
    """M_R(u) = -Im(alpha * integral of u against <x/R>^(-n-1)), by lattice quadrature.

    ``u`` holds the even part's sites of data even about N/2 (see
    ``_EvenPart``); each site counts as often as it stands on the lattice.
    """
    even = _EvenPart(grid)
    acc = complex(np.sum(even.mult * u * _test_weight(even, R))) * grid.cell_volume
    return -(alpha * acc).imag


def _spectral_readings(spec: np.ndarray, grid: GridSpec, alpha: complex,
                       w_hat: np.ndarray) -> tuple[float, float]:
    """(M_R, L2 norm) of the state with DFT ``spec``, by Parseval.

    ``w_hat`` is the test weight's DFT times dx^n / N^n, real and contiguous;
    both may be an even part's.
    """
    # real and imaginary parts side by side, so that w_hat needs no complex copy
    re, im = w_hat.ravel() @ spec.view(np.float64).reshape(-1, 2)
    l2_sq = np.vdot(spec, spec).real * grid.cell_volume / grid.N ** grid.n
    return -(alpha * complex(re, im)).imag, math.sqrt(l2_sq)


def _require_resolved(spec: np.ndarray, absxi: np.ndarray) -> None:
    """Refuse data whose spectral tail exceeds ``TAIL_FRACTION_LIMIT``."""
    tail = spectral_tail_fraction(spec, absxi)
    if tail > TAIL_FRACTION_LIMIT:
        raise UnresolvedFieldError(
            f"grid too coarse: {tail:.2e} of the spectral mass sits in the top band "
            f"(limit {TAIL_FRACTION_LIMIT:.1e}); refine N or enlarge L")


def _require_positive(**values: float) -> None:
    # written so that NaN fails: a NaN dt would be halved forever
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _initial_sup(u0: np.ndarray) -> float:
    """sup|u0|, refused unless finite and positive: zero data sets no scale."""
    sup0 = float(np.max(np.abs(u0)))
    if not 0.0 < sup0 < math.inf:
        raise ValueError(f"initial sup norm must be finite and positive, got {sup0!r}")
    return sup0


def evolve(u0: np.ndarray, grid: GridSpec, params: ProblemParams, dt: float, t_max: float,
           weight_radius: float) -> TrajectoryRecord:
    """March the split-step scheme from step size dt, recording M_R(t) at R = weight_radius.

    Halts at t_max, or flags blow-up once the sup norm reaches
    ``THRESHOLD_FACTOR * sup|u0|``.  A step's sup norm is that of its
    post-source stage, half a linear step before the step's end; M_R and
    the L2 norm are read from the step's spectrum.  Violent steps
    (non-finite values or sup growth beyond ``GROWTH_CAP``) are retried with
    halved dt, which then holds for the rest of the run; once
    ``MAX_HALVINGS`` halvings in all are spent, the last accepted time is
    reported as the numerical blow-up time.

    ``u0`` of shape (N/2+1,) * n holds the even part's sites of data even
    about N/2 (see ``_EvenPart``), and only they are stepped; ``u0`` of
    shape ``grid.shape`` holds the whole lattice.  Any other shape is
    refused.
    """
    _require_positive(dt=dt, t_max=t_max)
    even = _EvenPart(grid)
    if u0.shape == even.shape:
        lattice, dft, scale = even, even.dft, even.scale
        transforms = (even.unscaled_dft, even.unscaled_idft)
    elif u0.shape == grid.shape:
        lattice, dft, scale, transforms = grid, np.fft.fftn, 1.0, None
    else:
        raise ValueError(f"initial data of shape {u0.shape} is neither the lattice's "
                         f"{grid.shape} nor its even part's {even.shape}")
    # one DFT of u0 serves the tail check, M_R(0) and step 1
    spec = dft(u0)
    absxi = lattice.abs_freq()  # for the tail check and every step size's factors
    _require_resolved(spec, absxi)
    sup0 = _initial_sup(u0)
    threshold = THRESHOLD_FACTOR * sup0

    # the weight is even on the lattice, so its DFT is real; a real copy
    # lets the complex transform go
    w_hat = dft(_test_weight(lattice, weight_radius)).real.copy()
    w_hat *= grid.cell_volume / grid.N ** grid.n
    t = 0.0
    dt_floor = dt / 2**MAX_HALVINGS
    t_num = None

    m0, l2_0 = _spectral_readings(spec, grid, params.alpha, w_hat)
    times, m_r, sups, l2s = [0.0], [m0], [sup0], [l2_0]
    sup = sup0
    factors_dt = None  # dt_step changes only at a halving and at the short last step
    while t < t_max:
        dt_step = min(dt, t_max - t)
        if dt_step != factors_dt:
            factors = _half_step_factors(absxi, dt_step, grid.N ** grid.n, scale)
            factors_dt = dt_step
        trial, trial_sup = _step(spec, factors, dt_step, params, transforms)
        # a non-finite stage makes its sup NaN or infinite, failing this test too
        if not trial_sup <= GROWTH_CAP * max(sup, 1e-300):
            if dt * 0.5 < dt_floor:
                t_num = t
                break
            dt *= 0.5
            continue
        spec, sup = trial, trial_sup
        t += dt_step
        m, l2 = _spectral_readings(spec, grid, params.alpha, w_hat)
        times.append(t)
        m_r.append(m)
        sups.append(sup)
        l2s.append(l2)
        if sup >= threshold:
            t_num = t
            break

    return TrajectoryRecord(times=np.array(times), m_r=np.array(m_r),
                            sup_norm=np.array(sups), l2_norm=np.array(l2s),
                            t_num=t_num, grid=grid, final_spectrum=spec)

