"""Exact blow-up oracle for the stepper: constant data on the families' phase.

With the default alpha = conj(lam)/|lam|, the phase of the data families
(``make_initial_data``) is -i conj(alpha)/|alpha|^2 = -i lam/|lam|.  Take
u0 = mu times that phase, constant in space.  The linear step does not act
on a constant, and the source keeps u on its ray, so |u| = b(t) with
b' = |lam| b^p and b(0) = mu:

    b(t)^(1-p) = mu^(1-p) - (p - 1) |lam| t,    T = mu^(1-p) / ((p - 1) |lam|),

and ``evolve``'s threshold 25 mu is crossed at t_25 = T (1 - 25^(1-p)).  This
holds in 1D and 2D on any lattice.  The constant is radial, so it is given
on the even part, as the commands give their data (the half in 1D, the
quarter in 2D).

The bounds follow from the scheme.  The first was fixed before any run;
the second after trial runs had shown where second order sets in (below):

- ``t_num`` is the first step end at or past the numerical crossing, and the
  explicit midpoint rule lags the convex growth b' = |lam| b^p (its local
  error is negative), so 0 <= t_num - t_25 <= 2 dt.  That makes t_num first
  order: over three halvings of dt its error falls by about 2^3, a mean
  order in [0.75, 1.25].
- b^(1-p) is linear in t for the exact flow, so the zero crossing of
  sup^(1-p) - (25 mu)^(1-p), interpolated linearly between the last two
  records, carries only the scheme's error: second order, a mean order in
  [1.7, 2.3] over three halvings, once dt is small against the time left at
  the crossing, T - t_25 = T 25^(1-p).  From dt = (T - t_25)/2 on, that is.

For p = 3, T - t_25 is T/625, so the steps T/50 ... T/400 are all longer than
it: the step that crosses the threshold grows the sup past ``GROWTH_CAP`` and
is halved, and where t_25 falls between step ends moves t_num by up to a step
from one dt to the next.  That is why its order per halving wanders there
(0.7 to 1.4) and why the interpolated crossing looks first order on those
steps; from dt = (T - t_25)/2 on it is second order again.
"""
import math

import numpy as np
import pytest

from fracblow.evolution import ProblemParams, evolve
from fracblow.grid import GridSpec

MU = 0.5
#: (p, lam) of the oracle runs
EQUATIONS = [(2.0, 1j), (2.0, 1 + 0.5j), (3.0, 2 - 1j)]


def blowup_times(p, lam):
    """(T, t_25) of the exact flow from |u0| = MU."""
    T = MU ** (1.0 - p) / ((p - 1.0) * abs(lam))
    return T, T * (1.0 - 25.0 ** (1.0 - p))


def constant_run(n, p, lam, dt):
    params = ProblemParams(n, p, lam)
    grid = GridSpec(n, 10.0, 8)
    phase = -1j * np.conjugate(params.alpha) / abs(params.alpha) ** 2
    u0 = np.full((grid.N // 2 + 1,) * n, MU * phase)  # the even part's sites
    T, _ = blowup_times(p, lam)
    record = evolve(u0, grid, params, dt, 2.0 * T, 1.0)
    assert record.blew_up
    assert record.final_spectrum.shape == (5,) * n  # the even part's spectrum
    return record


def mean_order(errors):
    """Observed order over the halvings of dt from the first to the last error."""
    return math.log2(errors[0] / errors[-1]) / (len(errors) - 1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p, lam", EQUATIONS)
def test_t_num_is_first_order_past_t_25(n, p, lam):
    T, t_25 = blowup_times(p, lam)
    errors = []
    for j in range(4):
        dt = T / 50.0 / 2**j
        t_num = constant_run(n, p, lam, dt).t_num
        assert 0.0 <= t_num - t_25 <= 2.0 * dt, (dt, t_num, t_25)
        errors.append(t_num - t_25)
    assert 0.75 <= mean_order(errors) <= 1.25, errors


@pytest.mark.parametrize("p, lam", [(2.0, 1j), (3.0, 2 - 1j)])
def test_interpolated_crossing_is_second_order(p, lam):
    T, t_25 = blowup_times(p, lam)
    target = (25.0 * MU) ** (1.0 - p)
    errors = []
    for j in range(4):
        record = constant_run(1, p, lam, 0.5 * (T - t_25) / 2**j)
        (t0, t1), (y0, y1) = record.times[-2:], record.sup_norm[-2:] ** (1.0 - p)
        errors.append(abs(t0 + (target - y0) * (t1 - t0) / (y1 - y0) - t_25))
    assert 1.7 <= mean_order(errors) <= 2.3, errors
