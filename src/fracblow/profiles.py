"""Radial profiles with certified tail envelopes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def bracket(r: np.ndarray | float) -> np.ndarray | float:
    """Japanese bracket (1 + r^2)^(1/2)."""
    return np.sqrt(1.0 + np.square(r))


@dataclass(frozen=True)
class RadialProfile:
    """A radial function together with tail information.

    ``fn`` takes the squared radius s = r^2 and returns f(sqrt(s)), so the
    singular quadrature evaluates it on |x + y|^2 without a square root;
    calling the profile takes the radius itself.  ``tail(r)`` takes the
    radius: it must bound sup_{|z| >= r} |f(z)| from above, and ``floor``
    must bound inf over the same set from below (0 for decaying profiles).
    These drive the certified far-field error in the singular quadrature.
    ``scale`` is the radius over which f varies near its core; it controls
    feature refinement in the quadrature.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[float], float]
    floor: float = 0.0
    scale: float = 1.0
    label: str = ""

    def __call__(self, r):
        return self.fn(np.square(np.asarray(r, dtype=np.float64)))

    def combine(self, other: "RadialProfile", a: float = 1.0, b: float = 1.0) -> "RadialProfile":
        """a*self + b*other, with a crude (triangle-inequality) tail bound."""
        return RadialProfile(
            fn=lambda s: a * self.fn(s) + b * other.fn(s),
            tail=lambda r: abs(a) * self.tail(r) + abs(b) * other.tail(r),
            floor=min(a * self.floor, b * other.floor, 0.0),
            scale=max(self.scale, other.scale),
            label=f"{a}*{self.label}+{b}*{other.label}",
        )


def bracket_profile(q: float, R: float = 1.0) -> RadialProfile:
    """The weight <r/R>^(-q); radially nonincreasing, tail bound is itself."""
    if not (0.0 < q < math.inf and 0.0 < R < math.inf):
        raise ValueError(f"bracket profile needs finite q > 0 and R > 0, got q={q!r}, R={R!r}")
    fn = lambda s: (1.0 + s / (R * R)) ** (-0.5 * q)
    return RadialProfile(fn=fn, tail=lambda r: float(fn(max(r, 0.0) ** 2)), floor=0.0,
                         scale=R, label=f"bracket(q={q},R={R})")


def gaussian_profile(width: float = 1.0) -> RadialProfile:
    """exp(-(r/width)^2)."""
    if not 0.0 < width < math.inf:
        raise ValueError(f"gaussian width must be finite and positive, got {width!r}")
    fn = lambda s: np.exp(-s / (width * width))
    return RadialProfile(fn=fn, tail=lambda r: float(fn(max(r, 0.0) ** 2)), floor=0.0,
                         scale=width, label=f"gaussian(w={width})")


def constant_profile(c: float = 1.0) -> RadialProfile:
    return RadialProfile(fn=lambda s: np.full_like(s, c, dtype=np.float64),
                         tail=lambda r: c, floor=c, scale=1.0, label=f"const({c})")

