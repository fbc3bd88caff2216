"""Sampling laws for interarrival and service times.

These are descriptors, not streams: a law is immutable and stateless;
``draws(rng)`` returns a fresh iterator of draws from the given
generator, and ``sampler(rng)`` its draw() callable.  Random laws draw
in blocks to keep the per-draw overhead out of the event loop.  The
blocks grow with use, 16, 32, ..., 512 values and then _BLOCK each, so
what a stream holds grows with what it has read: a network of many
rarely read streams does not hold a full block for each.  numpy's
generators give the same values whether n are drawn in one call or in
pieces, so the schedule changes no draw.  The scripted Sequence law
replays a fixed list and then repeats a final value (infinity by
default, i.e. no further arrivals).  Every iterator is built from
``itertools`` parts, so a draw is one C-level step, a block refill
aside.  Every parameter is read as a float by ``errors._real``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import _positive, _real

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
    """The values of ``draw_block(n)`` for n = 16, 32, ..., 512 and then
    _BLOCK for every later block.  Each block is drawn when the last
    runs out, the first when the first value is read, and is held as an
    ``array('d')`` of the same float64 bits, so each value is a Python
    float.  ``draw_block`` must give the same values in pieces as in one
    call, as numpy's generators do, so the values do not depend on the
    schedule."""
    return chain.from_iterable(_grown_blocks(draw_block))


def _grown_blocks(draw_block: Callable[[int], np.ndarray]) -> Iterator[array]:
    """The blocks of ``_blocks``.  One generator frame per stream holds
    the size, so a stream that has read little costs little more than
    its block."""
    n = _BLOCK >> 6
    while True:
        yield array("d", np.asarray(draw_block(n), dtype=np.float64).tobytes())
        n = min(2 * n, _BLOCK)


@dataclass(frozen=True)
class Exponential(SamplingLaw):
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _positive(self.rate, "rate"))

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
        object.__setattr__(self, "value", _positive(self.value, "value"))

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
        object.__setattr__(self, "lo", _real(self.lo, "lo"))
        object.__setattr__(self, "hi", _real(self.hi, "hi"))
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
        object.__setattr__(self, "values", tuple(_real(v, "value") for v in self.values))
        object.__setattr__(self, "then", _real(self.then, "then"))
        if not all(v >= 0.0 for v in self.values):
            raise ValueError(f"scripted draws must be >= 0, got {self.values!r}")
        if not self.then > 0.0:
            raise ValueError(f"then must be positive, got {self.then!r}")

    def draws(self, rng: np.random.Generator) -> Iterator[float]:
        return chain(self.values, repeat(self.then))
