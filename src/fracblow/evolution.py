"""Split-step time integration of the half-wave equation with power source.

The evolution is i u_t + Op u = lam |u|^p with Op the half-Laplacian, so
u_t = i Op u - i lam |u|^p.  Each step is a Strang composition: half a
linear step (exact Fourier multiplier exp(i t |xi|)), a full nonlinear
step (explicit midpoint on the pointwise ODE), and another half linear
step.  The source's increment -i lam |u|^p dt always points along
turn = -i lam/|lam|, so the stepper carries the state turned by
conj(turn), in which the source moves only the real part.  ``_step`` is
the one stepping kernel: it maps such a spectrum and its two half-step
factors to the next step's spectrum and the sup norm of its post-source
stage; the factors carry the phase exp(i dt/2 |xi|) together with the
constants the transforms would otherwise apply in passes of their own.
``evolve`` turns the data's spectrum once and carries the (spectrum, sup)
pair through its loop, so a run costs one inverse and one forward
transform a step.  Given a weight radius, it also reads each step without
leaving the spectrum: ``M_R`` as a pairing with the weight's DFT, and the
L2 norm by Parseval; without one (a sweep row, which reads only ``t_num``)
it builds no weight and takes no reading.
Radial data are even about index N/2, so they live on their
even part alone, sites N/2, ..., N-1, 0 of each axis (a half in 1D, a
quarter in 2D; ``_EvenPart``): ``blowup.make_initial_data`` samples them
there, ``weighted_functional`` sums them with each site's multiplicity,
and ``evolve`` steps the even part's spectrum, a DCT-I by 1D FFTs over
even extensions (Martucci, IEEE Trans. Signal Process. 42, 1994).  In 2D
that halves the FFT work a step; in 1D the pointwise work halves.  Each
pass of the inverse transforms the rows of one fresh even extension in
place; in 2D the second extension keeps the transposed layout of its
input, so that pass reads its rows strided.  The DCT-I is its own
inverse up to N^n, so a step's forward transforms only the real part, by
real inverse FFTs of the N/2+1 sites, and carries the imaginary part's
spectrum over from the inverse's input.  On a long axis, N/2 a multiple
of 4 and at least ``_SPLIT_MIN`` (in 1D from N = 8192), both of a step's
transforms split the DCT-I into its even outputs, a DCT-I of half the
length, and its odd ones, a DCT-III by one N/4-point FFT, in place of one
N-point FFT.  ``evolve``
tells the even part from the full lattice by the shape of its data; the
full lattice serves data that are not even, and takes the complex DFT
of its whole stage.
Blow-up is detected from the sup norm, with step halving near the
singularity; the last accepted time is the numerical blow-up time.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridSpec, _norm
from .profiles import bracket

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
#: log of the largest float: a power of |u| whose log reaches it overflows
_LOG_MAX = math.log(np.finfo(np.float64).max)
#: shortest h = N/2 (a multiple of 4) on which a step's two DCT-Is take the
#: split (``_EvenPart._split``), an h- and an h/2-point FFT in place of one
#: N-point FFT.  Chosen by timing one transform against the padded one (1D,
#: paired medians, 2-core VM): complex/real 1.21/1.49x at h = 1024, 1.08/1.11x
#: at 2048, 1.00/0.94x at 3072, 0.95/0.89x at 4096, 0.93/0.88x at 8192
_SPLIT_MIN = 4096


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
    """Time series of the weighted functional and norms for one run.

    ``m_r`` and ``l2_norm`` are None for a run given no weight radius,
    which reads neither; the other fields do not depend on the radius.
    """

    times: np.ndarray
    m_r: np.ndarray | None
    sup_norm: np.ndarray
    l2_norm: np.ndarray | None
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


class UnresolvedFieldError(RuntimeError):
    """The initial data puts too much spectral mass near the grid Nyquist."""


def _midpoint_source(u: np.ndarray, dt: float, params: ProblemParams) -> float:
    """Explicit midpoint for the source over dt on the turned state, overwriting ``u.real``.

    In the stepper's frame, the state turned by conj(``_turn(lam)``), the
    source i u_t = lam |u|^p becomes x_t = |lam| (x^2 + y^2)^(p/2) for
    u = x + iy: it moves only the real part, and ``u.imag`` is not written.
    Returns the sup norm of the updated stage.
    """
    x, half_p, c = u.real, 0.5 * params.p, dt * abs(params.lam)
    y2 = np.square(u.imag)
    s = np.square(x)
    s += y2
    if half_p != 1.0:  # s ** 1.0 is s to the bit
        s **= half_p
    s *= 0.5 * c
    s += x  # the midpoint's real part
    np.square(s, out=s)
    s += y2
    if half_p != 1.0:
        s **= half_p
    s *= c
    x += s
    np.square(x, out=s)
    s += y2
    return math.sqrt(float(s.max()))


def _turn(lam: complex) -> complex:
    """-i lam/|lam| (1 for lam = 0): the direction of the source's increment -i lam |u|^p dt."""
    return -1j * lam / abs(lam) if lam != 0 else 1.0


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


def _dftn(u: np.ndarray, spec: np.ndarray, into: np.ndarray) -> np.ndarray:
    """The full lattice's step forward: its DFT of the whole stage ``u``.

    Its inverse DFT is not real on real data, so no part of the stage's
    transform is carried over from ``into * spec``.
    """
    return np.fft.fftn(u)


def _step(spec: np.ndarray, factors: tuple[np.ndarray, np.ndarray], dt: float,
          params: ProblemParams, transforms=None) -> tuple[np.ndarray, float]:
    """Linear half step, nonlinear full step, linear half step, on a turned spectrum.

    ``spec`` is the DFT of the state turned by conj(``_turn(lam)``), in
    which ``_midpoint_source`` moves only the real part.  Returns the
    output's spectrum, in one fresh C-contiguous array, and the sup norm
    of the post-source stage, half a linear step before the output.
    ``spec`` is not written, so a rejected step is retried from it.
    ``factors`` are the half step's (into, out_of) from
    ``_half_step_factors``; ``transforms`` is the unscaled (forward,
    inverse) pair, by default the full lattice's: ``inverse(spec, into)``
    is the inverse DFT of ``into * spec`` without its 1/N^n, and
    ``forward(u, spec, into)`` the DFT of the stage ``u`` that the source
    made of it, which may carry the transform of the imaginary part over
    from ``into * spec``.
    """
    into, out_of = factors
    forward, inverse = transforms or (_dftn, _unscaled_idftn)
    u = inverse(spec, into)
    stage_sup = _midpoint_source(u, dt, params)
    out = forward(u, spec, into)
    out *= out_of
    return out, stage_sup


class _EvenPart:
    """The N/2+1 sites per axis of a lattice that fix a field even about N/2.

    It holds sites N/2, ..., N-1, 0 of each axis (a half in 1D, a quarter in
    2D), each of which stands for ``mult`` sites of the lattice, and, as a
    DCT-I, the DFT at frequencies 0, ..., N/2 times the square root of each
    one's multiplicity, so that Parseval holds on it; it has a grid's
    ``shape``, ``radii`` and ``abs_freq``.  A step's two transforms,
    ``unscaled_idft`` and ``unscaled_dft``, take an axis with h = N/2 a
    multiple of 4 and at least ``_SPLIT_MIN`` by the split DCT-I
    (``_split``) and any other axis by the padded one, one N-point FFT;
    ``dft`` is always padded, bit for bit the full lattice's DFT.
    ``mult`` and ``scale`` are built when first read: the data's radii
    need neither, and the verdict's sum only ``mult``.
    """

    def __init__(self, grid: GridSpec):
        h = grid.N // 2
        self.grid, self.n = grid, grid.n
        self.shape = (h + 1,) * grid.n
        self.sites = np.arange(h, 2 * h + 1) % grid.N

    def _axis_mult(self) -> np.ndarray:
        # sites N/2 + j and N/2 - j, like frequencies k and N - k, are one mode:
        # each counts twice but the two ends
        h = len(self.sites) - 1
        return np.r_[1.0, np.full(h - 1, 2.0), 1.0]

    @cached_property
    def mult(self) -> np.ndarray:
        mult = self._axis_mult()
        return mult if self.n == 1 else np.outer(mult, mult)

    @cached_property
    def scale(self) -> np.ndarray:
        # (-1)^k: the sites start at N/2
        scale = (-1.0) ** np.arange(len(self.sites)) * np.sqrt(self._axis_mult())
        return scale if self.n == 1 else np.outer(scale, scale)

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

    def unscaled_dft(self, u: np.ndarray, spec: np.ndarray, into: np.ndarray) -> np.ndarray:
        """A step's forward: the part's DFT of the stage ``u``, without its ``scale``.

        ``u`` is the stage that ``unscaled_idft(spec, into)`` returned and
        the source then moved in its real part only.  The DFT of even data
        is its own inverse DFT, a DCT-I E with E(E(a)) = N^n a, so the
        imaginary part's transform is N^n Im(into * spec) and only the real
        part is transformed, by real FFTs (``_real_dct``), split on a long
        axis as ``unscaled_idft`` is: the result is fresh and C-contiguous.
        """
        re = self._real_dct(u.real)  # first, so that its temporaries are gone
        out = np.multiply(spec, into)
        out.imag *= self.grid.N ** self.n
        out.real = re
        return out

    def _real_dct(self, x: np.ndarray) -> np.ndarray:
        # E of real data, axis by axis: on a long axis the split, by two
        # inverse real FFTs of h and h/2 points, else one inverse real FFT of
        # the N/2+1 sites as a half spectrum, so no even extension is built;
        # each pass hands on its leading columns transposed, as ``_even`` does
        h = len(x) - 1
        for _ in range(self.n):
            x = (np.fft.irfft(x, n=2 * h, axis=-1, norm="forward")[..., :h + 1]
                 if self._twiddle is None else self._split(x)).T
        return x

    def unscaled_idft(self, spec: np.ndarray, into: np.ndarray) -> np.ndarray:
        """The inverse of ``dft`` at ``into * spec * scale``, without its 1/N^n.

        On a long axis each pass is the split (``_split``); on any other,
        each pass writes an even extension, the first one of ``into * spec``,
        and takes its N-point inverse FFT.
        """
        if self._twiddle is None:
            return self._even(spec, np.fft.ifft, into, "forward")
        for _ in range(self.n):
            spec, into = self._split(spec, into).T, None
        return spec

    @cached_property
    def _twiddle(self) -> np.ndarray | None:
        # e^(i pi k/h), k < h = N/2, for the split's odd outputs, or None on an
        # axis too short to split or whose h is no multiple of 4
        h = len(self.sites) - 1
        if h % 4 or h < _SPLIT_MIN:
            return None
        return np.exp((1j * np.pi / h) * np.arange(h))

    def _split(self, a: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
        # E along the last axis, of ``into * a`` if given, in one fresh array
        # and by one level of the even/odd split of the DCT-I, h = N/2 = 2M.
        # With d_k = a_k - a_(h-k) for k < h:
        # - E(a)_2m is the DCT-I of g_k = a_k + a_(h-k) on M + 1 sites
        #   (g_M = 2 a_M): the padded transform at half the length;
        # - E(a)_(2m+1) = d_0 + 2 sum over 0 < k < M of d_k cos(pi (2m+1) k/2M),
        #   a DCT-III, is one M-point inverse DFT v of V_k = t_k (d_k -
        #   i d_(M-k)), t the twiddle, with output 4j+1 at v_j and 4j+3 at
        #   v_(M-1-j) (Makhoul, IEEE Trans. ASSP 28, 1980).  As d_(M-k) =
        #   -d_(M+k) and i t_k = t_(M+k), V_k = t_k d_k + t_(M+k) d_(M+k).
        # V is complex-linear in a, so complex a takes it as it stands; for
        # real a it is Hermitian, and both halves are inverse real FFTs
        h = a.shape[-1] - 1
        m = h // 2
        twiddle = self._twiddle
        if into is not None:
            a = np.multiply(a, into)
        out = np.empty(a.shape, dtype=a.dtype)
        if a.dtype.kind == "f":
            q = m // 2 + 1  # V's half spectrum
            out[..., ::2] = np.fft.irfft(a[..., :m + 1] + a[..., h:m - 1:-1], n=h,
                                         norm="forward")[..., :m + 1]
            v = np.empty(a.shape[:-1] + (q,), dtype=np.complex128)
            np.subtract(a[..., :q], a[..., h:h - q:-1], out=v.real)
            np.subtract(a[..., m:m + q], a[..., m:m - q:-1], out=v.imag)
            v *= twiddle[:q]
            v = np.fft.irfft(v, n=m, norm="forward")
        else:
            g = np.add(a[..., :h], a[..., h:0:-1])
            out[..., ::2] = np.fft.ifft(g, norm="forward", out=g)[..., :m + 1]
            d = np.subtract(a[..., :h], a[..., h:0:-1])
            d *= twiddle
            v = d[..., :m]
            v += d[..., m:]
            v = np.fft.ifft(v, norm="forward", out=v)
        out[..., 1::4] = v[..., :m // 2]
        out[..., 3::4] = v[..., :m // 2 - 1:-1]
        return out

    def dft(self, u: np.ndarray) -> np.ndarray:
        # contiguous, since ``_spectral_readings`` views it as float pairs
        return np.multiply(self._even(u, np.fft.fft), self.scale, order="C")

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


def _require_radius(R: float) -> None:
    """Refuse a weight radius that is not finite and positive: at R = inf the
    weight is 1 everywhere, and its pairing the unweighted sum."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"weight radius must be positive and finite, got {R!r}")


def _test_weight(grid: GridSpec, R: float) -> np.ndarray:
    """The test weight <x/R>^(-n-1) at every site of a grid or an even part."""
    _require_radius(R)
    return bracket(grid.radii() / R) ** -(grid.n + 1)


def weighted_functional(u: np.ndarray, grid: GridSpec, alpha: complex, R: float) -> float:
    """M_R(u) = -Im(alpha * integral of u against <x/R>^(-n-1)), by lattice quadrature.

    ``u`` holds the even part's sites of data even about N/2 (see
    ``_EvenPart``); each site counts as often as it stands on the lattice.
    R must be finite and positive, as ``evolve``'s weight radius must.
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
           weight_radius: float | None = None) -> TrajectoryRecord:
    """March the split-step scheme from step size dt, recording M_R(t) at R = weight_radius.

    Halts at t_max, or flags blow-up once the sup norm reaches
    ``THRESHOLD_FACTOR * sup|u0|``; data whose squares or p-th powers
    would overflow below ``GROWTH_CAP`` times that raise ``OverflowError``.  The run
    steps the state turned by conj(turn) (see ``_turn``) and reads and
    returns the state itself.  A step's sup norm is that of its
    post-source stage, half a linear step before the step's end; M_R and
    the L2 norm are read from the step's spectrum.  Without a
    ``weight_radius`` no weight is built and neither is read: the
    record's ``m_r`` and ``l2_norm`` are None, and its times, sup norms,
    ``t_num`` and final spectrum are bit for bit those of a run given a
    radius, which must be finite and positive.  Violent steps
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
    if weight_radius is not None:
        _require_radius(weight_radius)
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
    # the source squares |u| and raises it to p; a stage that a step may
    # accept stays below GROWTH_CAP * threshold, so both must be finite there
    if not max(params.p, 2.0) * math.log(GROWTH_CAP * threshold) < _LOG_MAX:
        raise OverflowError(f"initial sup norm {sup0:g} too large: the source's powers of "
                            f"|u| overflow below {GROWTH_CAP:g} times the blow-up threshold")

    t = 0.0
    dt_floor = dt / 2**MAX_HALVINGS
    t_num = None

    # step the state turned by conj(turn), in which the source moves only
    # the real part; M_R pairs the turned state with alpha * turn
    turn = _turn(params.lam)
    spec *= turn.conjugate()
    alpha = params.alpha * turn
    readings = None
    if weight_radius is not None:
        # the weight is even on the lattice, so its DFT is real; a real copy
        # lets the complex transform go
        w_hat = dft(_test_weight(lattice, weight_radius)).real.copy()
        w_hat *= grid.cell_volume / grid.N ** grid.n
        readings = [_spectral_readings(spec, grid, alpha, w_hat)]
    times, sups = [0.0], [sup0]
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
        times.append(t)
        sups.append(sup)
        if readings is not None:
            readings.append(_spectral_readings(spec, grid, alpha, w_hat))
        if sup >= threshold:
            t_num = t
            break

    m_r, l2s = (None, None) if readings is None else np.array(readings).T
    return TrajectoryRecord(times=np.array(times), m_r=m_r, sup_norm=np.array(sups),
                            l2_norm=l2s, t_num=t_num, grid=grid, final_spectrum=turn * spec)

