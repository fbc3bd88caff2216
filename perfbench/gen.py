"""Workload inputs generated from the workload seed.

The program receives only what is built here: network specs, load
vectors and grids.  The plain parameters (routes, rates, lead-time
laws) are kept beside each spec so that the reference checks in
``reference.py`` can work from them instead of from the program's
own objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

import edfnet as en

SIZES = (2, 8, 32)   # stations in the three generated networks
INTENSITY = 0.9      # offered load at every generated station


@dataclass(frozen=True)
class Net:
    """A generated network: the spec handed to edfnet and its parameters."""

    spec: en.NetworkSpec
    routes: Tuple[Tuple[int, ...], ...]   # position k-1 is class k
    rates: Tuple[float, ...]
    laws: Tuple[tuple, ...]               # ("point", v) / ("uniform", lo, hi) / ("piecewise", knots)
    mu: Dict[int, float]                  # one exponential service rate per station

    @property
    def stations(self) -> int:
        return self.spec.station_count


def _law(rng: np.random.Generator, k: int) -> tuple:
    kind = k % 3
    if kind == 0:
        return ("point", float(rng.uniform(50.0, 400.0)))
    if kind == 1:
        lo = float(rng.uniform(0.0, 200.0))
        return ("uniform", lo, lo + float(rng.uniform(20.0, 200.0)))
    a = float(rng.uniform(0.0, 150.0))
    b = a + float(rng.uniform(20.0, 100.0))
    c = b + float(rng.uniform(20.0, 150.0))
    return ("piecewise", ((a, 0.0), (b, float(rng.uniform(0.2, 0.8))), (c, 1.0)))


def _lead_time(law: tuple) -> en.LeadTimeDist:
    if law[0] == "point":
        return en.PointMass(law[1])
    if law[0] == "uniform":
        return en.Uniform(law[1], law[2])
    return en.PiecewiseLinearCDF(law[1])


def feedforward(rng: np.random.Generator, J: int) -> Net:
    """A binary in-tree of J stations draining into station 1, two
    classes entering at every station.

    Station i > 1 feeds station i // 2, and every class follows the tree
    from where it enters down to station 1.  So every customer leaving a
    station goes on to the same next station, the stream between
    stations is a whole station's output, and Burke's theorem makes each
    station an M/M/1 queue under any work-conserving order when all
    classes there share one exponential rate.  That is what lets
    ``reference.jackson_check`` hold the simulator to rho / (1 - rho) at
    every station.  The shape is the same for every seed, so that the
    work in a round (class visits per station, route lengths) does not
    vary with it; the seed draws the rates and the lead-time laws.
    """
    routes, rates, laws = [], [], []
    for i in range(1, J + 1):
        route = [i]
        while route[-1] != 1:
            route.append(route[-1] // 2)
        for _ in range(2):
            routes.append(tuple(route))
            rates.append(float(rng.uniform(0.5, 1.5)))
            laws.append(_law(rng, len(laws) + 1))
    through = {j: 0.0 for j in range(1, J + 1)}
    for route, lam in zip(routes, rates):
        for j in route:
            through[j] += lam
    mu = {j: lam / INTENSITY for j, lam in through.items()}
    classes = tuple(
        en.ClassSpec(id=k, route=route, arrival_rate=lam, lead_time=_lead_time(law),
                     service_rates={j: mu[j] for j in route})
        for k, (route, lam, law) in enumerate(zip(routes, rates, laws), start=1))
    return Net(en.NetworkSpec(station_count=J, classes=classes),
               tuple(routes), tuple(rates), tuple(laws), mu)


def networks(seed: int) -> Tuple[Net, ...]:
    """The J = 2, 8 and 32 networks of a workload seed (shared by
    ``freerun`` and ``predict``)."""
    rng = np.random.default_rng(seed)
    return tuple(feedforward(rng, J) for J in SIZES)


def load_vectors(rng: np.random.Generator, J: int, count: int, lo: float,
                 hi: float) -> Tuple[Tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in rng.uniform(lo, hi, J)) for _ in range(count))


def grid(hi: float, points: int = 211) -> Tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(0.0, 1.05 * hi, points))
