"""Initial lead-time distributions.

A lead-time distribution describes the time-to-deadline a customer is
born with.  Every variant here has bounded upper support: there is a
finite largest lead ``upper_support`` beyond which the CDF is 1.

The quantity the frontier machinery actually consumes is the
*integrated tail*

    integrated_tail(y) = integral over (y, infinity) of (1 - cdf(x)) dx,

which is finite for all y, convex, strictly decreasing up to
``upper_support``, and identically zero afterwards.  Its inverse maps a
nonnegative mass back to the unique lead level carrying that much tail
mass.  Both directions are evaluated in closed form per polynomial
piece; no numerical integration is involved.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NegativeTail

__all__ = ["LeadTimeDist", "PointMass", "Uniform", "PiecewiseLinearCDF"]


class LeadTimeDist:
    """Common interface for initial lead-time laws."""

    #: largest value the lead time can take (finite for all variants)
    upper_support: float

    def cdf(self, y: float) -> float:
        """P(lead <= y), right-continuous."""
        raise NotImplementedError

    def integrated_tail(self, y: float) -> float:
        """Integral of the survival function over (y, infinity)."""
        raise NotImplementedError

    def integrated_tail_inverse(self, h: float) -> float:
        """The unique y <= upper_support with integrated_tail(y) == h.

        h == 0 maps to the upper support itself; negative h is a caller
        bug and raises NegativeTail.
        """
        raise NotImplementedError

    def breakpoints(self) -> Tuple[float, ...]:
        """Ascending lead levels where the tail integral changes
        polynomial piece.  Below the first breakpoint the integrated
        tail is linear with slope -1; above the last it is zero."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw lead times (scalar when size is None)."""
        raise NotImplementedError

    def _check_tail_arg(self, h: float) -> None:
        if h < 0:
            raise NegativeTail(f"integrated tail inverse queried at {h!r}")


@dataclass(frozen=True)
class PointMass(LeadTimeDist):
    """All customers are born with the same lead time."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("point mass location must be finite")

    @property
    def upper_support(self) -> float:
        return self.value

    def cdf(self, y: float) -> float:
        return 1.0 if y >= self.value else 0.0

    def integrated_tail(self, y: float) -> float:
        return max(self.value - y, 0.0)

    def integrated_tail_inverse(self, h: float) -> float:
        self._check_tail_arg(h)
        return self.value - h

    def breakpoints(self) -> Tuple[float, ...]:
        return (self.value,)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self.value
        return np.full(size, self.value)


@dataclass(frozen=True)
class Uniform(LeadTimeDist):
    """Lead times uniform on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def upper_support(self) -> float:
        return self.hi

    def cdf(self, y: float) -> float:
        if y < self.lo:
            return 0.0
        if y >= self.hi:
            return 1.0
        return (y - self.lo) / (self.hi - self.lo)

    def integrated_tail(self, y: float) -> float:
        if y >= self.hi:
            return 0.0
        if y <= self.lo:
            return (self.lo - y) + 0.5 * (self.hi - self.lo)
        return 0.5 * (self.hi - y) ** 2 / (self.hi - self.lo)

    def integrated_tail_inverse(self, h: float) -> float:
        self._check_tail_arg(h)
        half_width = 0.5 * (self.hi - self.lo)
        if h <= half_width:
            return self.hi - np.sqrt(2.0 * (self.hi - self.lo) * h)
        return self.lo - (h - half_width)

    def breakpoints(self) -> Tuple[float, ...]:
        return (self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return rng.uniform(self.lo, self.hi)
        return rng.uniform(self.lo, self.hi, size)


class PiecewiseLinearCDF(LeadTimeDist):
    """CDF given by linear interpolation between knots.

    ``knots`` is a sequence of (lead, cdf value) pairs with strictly
    increasing leads and nondecreasing values in [0, 1]; the final value
    must be exactly 1.  The CDF is zero below the first knot, so a
    first knot with positive value is an atom there.  Knots past the
    first value equal to 1 are redundant and dropped.
    """

    def __init__(self, knots: Sequence[Tuple[float, float]]):
        if len(knots) == 0:
            raise ValueError("need at least one knot")
        ys = [float(y) for y, _ in knots]
        gs = [float(g) for _, g in knots]
        if any(not np.isfinite(v) for v in ys + gs):
            raise ValueError("knots must be finite")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot leads must be strictly increasing")
        if any(b < a for a, b in zip(gs, gs[1:])):
            raise ValueError("knot values must be nondecreasing")
        if gs[0] < 0.0 or gs[-1] != 1.0:
            raise ValueError("knot values must lie in [0, 1] and end at 1")
        # truncate at the first knot reaching 1: that is the upper support
        top = gs.index(1.0)
        self._ys: Tuple[float, ...] = tuple(ys[: top + 1])
        self._gs: Tuple[float, ...] = tuple(gs[: top + 1])
        # integrated tail at each knot, accumulated right to left;
        # each segment contributes the trapezoid of the survival function
        n = len(self._ys)
        tails = [0.0] * n
        for i in range(n - 2, -1, -1):
            width = self._ys[i + 1] - self._ys[i]
            surv = (1.0 - self._gs[i]) + (1.0 - self._gs[i + 1])
            tails[i] = tails[i + 1] + 0.5 * width * surv
        self._tails: Tuple[float, ...] = tuple(tails)

    def __repr__(self) -> str:
        pairs = ", ".join(f"({y!r}, {g!r})" for y, g in zip(self._ys, self._gs))
        return f"PiecewiseLinearCDF([{pairs}])"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearCDF):
            return NotImplemented
        return self._ys == other._ys and self._gs == other._gs

    def __hash__(self) -> int:
        return hash((self._ys, self._gs))

    @property
    def knots(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._ys, self._gs))

    @property
    def upper_support(self) -> float:
        return self._ys[-1]

    def cdf(self, y: float) -> float:
        ys, gs = self._ys, self._gs
        if y < ys[0]:
            return 0.0
        if y >= ys[-1]:
            return 1.0
        i = bisect_right(ys, y) - 1
        frac = (y - ys[i]) / (ys[i + 1] - ys[i])
        return gs[i] + frac * (gs[i + 1] - gs[i])

    def integrated_tail(self, y: float) -> float:
        ys, gs, tails = self._ys, self._gs, self._tails
        if y >= ys[-1]:
            return 0.0
        if y <= ys[0]:
            return tails[0] + (ys[0] - y)
        i = bisect_right(ys, y) - 1
        gap = ys[i + 1] - y
        slope = (gs[i + 1] - gs[i]) / (ys[i + 1] - ys[i])
        return tails[i + 1] + (1.0 - gs[i + 1]) * gap + 0.5 * slope * gap * gap

    def integrated_tail_inverse(self, h: float) -> float:
        self._check_tail_arg(h)
        ys, gs, tails = self._ys, self._gs, self._tails
        if h == 0.0:
            return ys[-1]
        if h >= tails[0]:
            return ys[0] - (h - tails[0])
        # tails are descending; locate the segment with
        # tails[i+1] < h <= tails[i] by bisecting the reversed list
        rev = self._tails[::-1]
        i = len(ys) - 1 - bisect_left(rev, h)
        excess = h - tails[i + 1]
        surv = 1.0 - gs[i + 1]
        slope = (gs[i + 1] - gs[i]) / (ys[i + 1] - ys[i])
        if slope == 0.0:
            gap = excess / surv
        else:
            gap = (np.sqrt(surv * surv + 2.0 * slope * excess) - surv) / slope
        gap = min(gap, ys[i + 1] - ys[i])
        return ys[i + 1] - gap

    def breakpoints(self) -> Tuple[float, ...]:
        return self._ys

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Inverse-CDF draws: the smallest lead y with cdf(y) >= u."""
        if size is None:
            return float(self.sample(rng, 1)[0])
        ys, gs = np.array(self._ys), np.array(self._gs)
        u = rng.random(size)
        i = np.searchsorted(gs, u, side="left")
        out = np.full(size, ys[0])
        up = i > 0
        hi, lo = i[up], i[up] - 1
        frac = (u[up] - gs[lo]) / (gs[hi] - gs[lo])
        out[up] = ys[lo] + frac * (ys[hi] - ys[lo])
        return out


DistLike = Union[PointMass, Uniform, PiecewiseLinearCDF]
