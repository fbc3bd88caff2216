"""Initial lead-time laws.

A lead-time law describes the time-to-deadline a customer is born
with.  There is one implementation: a CDF given by linear
interpolation between knots, ``PiecewiseLinearCDF``.  ``PointMass`` and
``Uniform`` are its one- and two-knot cases; they only check their
arguments, name their parameters and keep their own config kinds
(``point``, ``uniform``).  Every law has bounded upper support: there
is a finite largest lead ``upper_support`` beyond which the CDF is 1.

The quantity the frontier machinery actually consumes is the
*integrated tail*

    integrated_tail(y) = integral over (y, infinity) of (1 - cdf(x)) dx,

which is finite for all y, convex, strictly decreasing up to
``upper_support``, and identically zero afterwards.  Between knots the
CDF is linear and the tail quadratic, so the tail is evaluated in
closed form, with no numerical integration.  The solver inverts weighted
sums of these tails stage by stage (``frontier.solve_frontiers``); a
one-term sum is the inverse of a single law's tail.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["LeadTimeDist", "PointMass", "Uniform", "PiecewiseLinearCDF"]


@dataclass(frozen=True)
class PiecewiseLinearCDF:
    """Lead-time law whose CDF interpolates linearly between knots.

    ``knots`` is a sequence of (lead, cdf value) pairs with strictly
    increasing leads and nondecreasing values in [0, 1]; the final value
    must be exactly 1.  The CDF is zero below the first knot, so a
    first knot with positive value is an atom there.  Knots past the
    first value equal to 1 are redundant and dropped.

    Equality holds between laws of the same class with the same knots,
    so ``PointMass(5.0)`` differs from ``PiecewiseLinearCDF([(5.0, 1.0)])``:
    the two are written to configs under different kinds.
    """

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) == 0:
            raise ValueError("need at least one knot")
        ys = [float(y) for y, _ in self.knots]
        gs = [float(g) for _, g in self.knots]
        if not all(map(math.isfinite, ys + gs)):
            raise ValueError("knots must be finite")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot leads must be strictly increasing")
        if any(b < a for a, b in zip(gs, gs[1:])):
            raise ValueError("knot values must be nondecreasing")
        if gs[0] < 0.0 or gs[-1] != 1.0:
            raise ValueError("knot values must lie in [0, 1] and end at 1")
        # truncate at the first knot reaching 1: that is the upper support
        n = gs.index(1.0) + 1
        ys, gs = tuple(ys[:n]), tuple(gs[:n])
        # integrated tail at each knot, accumulated right to left;
        # each segment contributes the trapezoid of the survival function
        tails = [0.0] * n
        for i in range(n - 2, -1, -1):
            width = ys[i + 1] - ys[i]
            surv = (1.0 - gs[i]) + (1.0 - gs[i + 1])
            tails[i] = tails[i + 1] + 0.5 * width * surv
        object.__setattr__(self, "knots", tuple(zip(ys, gs)))
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_gs", gs)
        object.__setattr__(self, "_tails", tuple(tails))

    @property
    def upper_support(self) -> float:
        """Largest value the lead time can take."""
        return self._ys[-1]

    def cdf(self, y: float) -> float:
        """P(lead <= y), right-continuous."""
        ys, gs = self._ys, self._gs
        if y < ys[0]:
            return 0.0
        if y >= ys[-1]:
            return 1.0
        i = bisect_right(ys, y) - 1
        frac = (y - ys[i]) / (ys[i + 1] - ys[i])
        return gs[i] + frac * (gs[i + 1] - gs[i])

    def integrated_tail(self, y: float) -> float:
        """Integral of the survival function over (y, infinity)."""
        ys, gs, tails = self._ys, self._gs, self._tails
        if y >= ys[-1]:
            return 0.0
        if y <= ys[0]:
            return tails[0] + (ys[0] - y)
        i = bisect_right(ys, y) - 1
        gap = ys[i + 1] - y
        slope = (gs[i + 1] - gs[i]) / (ys[i + 1] - ys[i])
        return tails[i + 1] + (1.0 - gs[i + 1]) * gap + 0.5 * slope * gap * gap

    def breakpoints(self) -> Tuple[float, ...]:
        """Ascending lead levels where the tail integral changes
        polynomial piece (the knots).  Below the first breakpoint the
        integrated tail is linear with slope -1; above the last it is
        zero."""
        return self._ys

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` inverse-CDF draws: for each u from ``rng.random``,
        the smallest lead y with cdf(y) >= u."""
        ys, gs = np.array(self._ys), np.array(self._gs)
        u = rng.random(size)
        i = np.searchsorted(gs, u, side="left")
        out = np.full(size, ys[0])
        up = i > 0
        hi, lo = i[up], i[up] - 1
        frac = (u[up] - gs[lo]) / (gs[hi] - gs[lo])
        out[up] = ys[lo] + frac * (ys[hi] - ys[lo])
        return out


#: the type of every lead-time law, for annotations
LeadTimeDist = PiecewiseLinearCDF


class PointMass(PiecewiseLinearCDF):
    """All customers are born with the same lead time: one knot,
    (value, 1)."""

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError("point mass location must be finite")
        super().__init__([(value, 1.0)])

    def __repr__(self) -> str:
        return f"PointMass(value={self.value!r})"

    @property
    def value(self) -> float:
        return self._ys[0]


class Uniform(PiecewiseLinearCDF):
    """Lead times uniform on [lo, hi]: two knots, (lo, 0) and (hi, 1).

    A draw is lo + u * (hi - lo), bit for bit ``rng.uniform(lo, hi)``."""

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("uniform bounds must be finite")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        super().__init__([(lo, 0.0), (hi, 1.0)])

    def __repr__(self) -> str:
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def lo(self) -> float:
        return self._ys[0]

    @property
    def hi(self) -> float:
        return self._ys[1]
