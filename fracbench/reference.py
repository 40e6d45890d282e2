"""A fixed reference job that measures how fast the machine runs.

On a shared host the speed of one core moves by a factor of up to about
1.7, switching within seconds and drifting over minutes as neighbours come
and go.  Each untraced program process runs this job a few times right
after set-up and again after the command.  ``run.py`` divides the mean
times of a run by the mean time of its jobs and reports them at the
reference speed, at which one job takes ``REF_S``: the switches within
seconds average out over a run, and the drift between runs cancels.  The
job mixes what the program does: 1D FFT round trips of 16384 points with
a pointwise phase, as in a Strang step, and an interpreted integer loop.
It uses numpy only, never ``fracblow``, so a change to the program cannot
move it; its arrays are below 1 MB, so it cannot raise the program's peak
memory.  numpy is imported in ``job`` so that ``run.py`` can read the
constants without it.
"""
from __future__ import annotations

import time

#: the job's time at the reference speed, a fixed constant: about its
#: time on a 2.1 GHz Xeon core that its host leaves running at full speed
REF_S = 0.020
#: jobs timed after set-up and again after the command
REPS = 5


def job() -> int:
    import numpy as np

    a = np.exp(1j * np.linspace(0.0, 50.0, 16384))
    phase = np.exp(0.01j * np.arange(16384))
    for _ in range(16):
        a = np.fft.ifft(np.fft.fft(a) * phase)
        a = a * np.exp(0.01j * (a.real ** 2 + a.imag ** 2))
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s


def times() -> list[float]:
    """Wall times of ``REPS`` jobs, in seconds."""
    out = []
    for _ in range(REPS):
        start = time.perf_counter()
        job()
        out.append(time.perf_counter() - start)
    return out
