"""Sampling laws for interarrival and service times.

These are descriptors, not streams: a law is immutable and stateless;
``draws(rng)`` returns a fresh iterator of draws from the given
generator, and ``sampler(rng)`` its draw() callable.  Random laws draw
in blocks to keep the per-draw overhead out of the event loop; the
scripted Sequence law replays a fixed list and then repeats a final
value (infinity by default, i.e. no further arrivals).  Every iterator
is built from ``itertools`` parts, so a draw is one C-level step, a
block refill aside.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

__all__ = ["SamplingLaw", "Exponential", "Deterministic", "UniformLaw", "Sequence"]

_BLOCK = 1024


class SamplingLaw:
    """Interface: a mean (None when undefined) and a draw-stream factory."""

    #: reciprocal-rate consistency checks use this; None disables them
    mean: Optional[float] = None

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        raise NotImplementedError

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        """draw(): the next value of ``draws(rng)``."""
        return self.draws(rng).__next__


def _blocks(draw_block: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of blocks of _BLOCK draws, each drawn when the last
    runs out and held as an ``array('d')`` of the same float64 bits, so
    each value is a Python float."""
    blocks = (array("d", np.asarray(draw_block(_BLOCK), dtype=np.float64).tobytes())
              for _ in repeat(None))
    return chain.from_iterable(blocks)


@dataclass(frozen=True)
class Exponential(SamplingLaw):
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        scale = 1.0 / self.rate
        return _blocks(lambda n: rng.exponential(scale, n))


@dataclass(frozen=True)
class Deterministic(SamplingLaw):
    value: float

    def __post_init__(self):
        if not self.value > 0.0 or not math.isfinite(self.value):
            raise ValueError(f"value must be positive and finite, got {self.value!r}")

    @property
    def mean(self) -> float:
        return self.value

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        return repeat(self.value)


@dataclass(frozen=True)
class UniformLaw(SamplingLaw):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi) or not math.isfinite(self.hi):
            raise ValueError(f"need 0 <= lo < hi finite, got [{self.lo}, {self.hi}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        return _blocks(lambda n: rng.uniform(self.lo, self.hi, n))


@dataclass(frozen=True)
class Sequence(SamplingLaw):
    """Scripted draws: the listed values in order, then ``then`` forever.

    Meant for constructing exact scenarios in tests; it has no mean, so
    rate consistency checks do not apply.  Values are >= 0 and not NaN,
    which would break the event order; an infinite value means no
    further draw.  ``then`` must be positive: a zero tail would replay
    simultaneous events without end.
    """

    values: Tuple[float, ...]
    then: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(v >= 0.0 for v in self.values):
            raise ValueError(f"scripted draws must be >= 0, got {self.values!r}")
        if not self.then > 0.0:
            raise ValueError(f"then must be positive, got {self.then!r}")

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        return chain(self.values, repeat(self.then))
