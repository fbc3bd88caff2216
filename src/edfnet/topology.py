"""Network description and route combinatorics.

A network is a set of stations 1..J and a set of customer classes
1..K.  Each class follows a fixed acyclic route (no station is visited
twice) and carries an initial lead-time distribution.  From the routes
we derive the station-level sets that every other module consumes:
which classes visit a station, and which stations a class has already
cleared when it reaches a given station.

One rule links the routes to the solver: a class waits at the first
unplaced station on its route and moves on when that station is placed.
The solver places stations one stage at a time, each among the stations
some class waits at; each order built this way carves out a piece of
the domain on which the frontier map is invertible.  The solver checks
the piece of the order it builds as it places each station; the
two-station closed form writes out the crossing network's two pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

import numpy as np

from . import dists
from .errors import DisconnectedNetwork, EmptyStation, RouteRepeatsStation
from .leadtime import LeadTimeDist

__all__ = [
    "ClassSpec",
    "NetworkSpec",
    "Topology",
    "build_topology",
    "traffic_intensity",
]


def _whole(value, what: str) -> int:
    """A Python or numpy integer as an int; a float, a bool or anything
    else raises ValueError naming the value, where ``int()`` would
    have truncated it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ClassSpec:
    """One customer class.

    ``service_rates`` may be a single float (same rate at every station
    on the route) or a mapping from station id to rate.  ``interarrival``
    and ``service_laws`` optionally override the sampling laws used by
    the simulator; they default to exponential with the declared rates.
    Scripted laws (e.g. ``dists.Sequence``) have no defined mean and are
    accepted as-is; for laws with a mean, it must match the declared
    rate's reciprocal.
    """

    id: int
    route: Tuple[int, ...]
    arrival_rate: float
    lead_time: LeadTimeDist
    service_rates: Union[float, Mapping[int, float]] = 1.0
    interarrival: Optional[dists.SamplingLaw] = None
    service_laws: Optional[Mapping[int, dists.SamplingLaw]] = None

    def __post_init__(self):
        object.__setattr__(self, "id", _whole(self.id, "class id"))
        if self.id < 1:
            raise ValueError(f"class id must be a positive integer, got {self.id!r}")
        route = tuple(_whole(j, f"class {self.id}: station id") for j in self.route)
        object.__setattr__(self, "route", route)
        rates, what = self.service_rates, f"class {self.id}: service rate"
        object.__setattr__(self, "service_rates",
                           {_whole(j, f"class {self.id}: station id"): dists._real(mu, what)
                            for j, mu in rates.items()}
                           if isinstance(rates, Mapping) else dists._real(rates, what))
        object.__setattr__(self, "arrival_rate",
                           dists._real(self.arrival_rate, f"class {self.id}: arrival rate"))
        if len(route) == 0:
            raise ValueError(f"class {self.id}: route must visit at least one station")
        if any(j < 1 for j in route):
            raise ValueError(f"class {self.id}: station ids must be positive")
        if not 0.0 < self.arrival_rate < math.inf:
            raise ValueError(f"class {self.id}: arrival rate must be positive and "
                             f"finite, got {self.arrival_rate!r}")
        if self.interarrival is not None:
            _check_rate(self.interarrival, self.arrival_rate,
                        f"class {self.id} interarrival")
        for j in route:
            mu = self.service_rate(j)
            if not 0.0 < mu < math.inf:
                raise ValueError(f"class {self.id}: service rate at station {j} "
                                 f"must be positive and finite, got {mu!r}")
            law = self.service_law(j)
            if law is not None:
                _check_rate(law, mu, f"class {self.id} service at station {j}")

    def service_rate(self, j: int) -> float:
        if isinstance(self.service_rates, Mapping):
            try:
                return self.service_rates[j]
            except KeyError:
                raise ValueError(f"class {self.id}: no service rate for station {j}")
        return self.service_rates

    def service_law(self, j: int) -> Optional[dists.SamplingLaw]:
        if self.service_laws is None:
            return None
        return self.service_laws.get(j)


def _check_rate(law: dists.SamplingLaw, rate: float, what: str) -> None:
    mean = law.mean
    if mean is None:
        return
    if abs(mean - 1.0 / rate) > 1e-9 * max(1.0, 1.0 / rate):
        raise ValueError(f"{what}: law mean {mean} contradicts rate {rate}")


@dataclass(frozen=True)
class NetworkSpec:
    """Stations 1..station_count plus one ClassSpec per class."""

    station_count: int
    classes: Tuple[ClassSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "station_count",
                           _whole(self.station_count, "station count"))
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.station_count < 1:
            raise ValueError("need at least one station")
        ids = [c.id for c in self.classes]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise ValueError(f"class ids must be 1..K without gaps, got {sorted(ids)}")
        # not a field: equality, hashing, replace() and digests ignore it
        object.__setattr__(self, "_by_id", {c.id: c for c in self.classes})

    @property
    def stations(self) -> range:
        return range(1, self.station_count + 1)

    def class_by_id(self, k: int) -> ClassSpec:
        """The class with id k; KeyError for an unknown id."""
        return self._by_id[k]


@dataclass(frozen=True)
class Topology:
    """Validated network with its derived route sets.

    visiting[j]      classes whose route passes through station j
    upstream[(k, j)] stations class k clears before reaching j; only
                     pairs with j on the route of k are keys
    """

    spec: NetworkSpec
    visiting: Mapping[int, FrozenSet[int]]
    upstream: Mapping[Tuple[int, int], FrozenSet[int]]

    @property
    def station_count(self) -> int:
        return self.spec.station_count

    def lead_dist(self, k: int) -> LeadTimeDist:
        return self.spec.class_by_id(k).lead_time


def build_topology(spec: NetworkSpec) -> Topology:
    """Validate a NetworkSpec and derive its route sets.

    Raises RouteRepeatsStation if any route revisits a station,
    EmptyStation if some station is on no route, and
    DisconnectedNetwork if the undirected graph whose edges are
    consecutive route hops does not connect all stations.
    """
    J = spec.station_count
    for c in spec.classes:
        if len(set(c.route)) != len(c.route):
            raise RouteRepeatsStation(f"class {c.id} route {c.route} repeats a station")
        for j in c.route:
            if j > J:
                raise ValueError(f"class {c.id} route visits station {j}, "
                                 f"but the network has only {J}")

    visiting: Dict[int, set] = {j: set() for j in spec.stations}
    upstream: Dict[Tuple[int, int], FrozenSet[int]] = {}
    for c in spec.classes:
        for pos, j in enumerate(c.route):
            visiting[j].add(c.id)
            upstream[(c.id, j)] = frozenset(c.route[:pos])

    for j in spec.stations:
        if not visiting[j]:
            raise EmptyStation(f"station {j} is visited by no class")

    # connectivity over the undirected hop graph
    adjacency: Dict[int, set] = {j: set() for j in spec.stations}
    for c in spec.classes:
        for a, b in zip(c.route, c.route[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {1}
    stack = [1]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != J:
        missing = sorted(set(spec.stations) - seen)
        raise DisconnectedNetwork(f"stations {missing} are not connected to station 1")

    return Topology(
        spec=spec,
        visiting={j: frozenset(v) for j, v in visiting.items()},
        upstream=upstream,
    )


def traffic_intensity(topo: Topology, j: int) -> float:
    """Offered load at a station: sum over visiting classes of
    arrival rate divided by service rate there."""
    j = _whole(j, "station id")
    if j not in topo.visiting:
        raise ValueError(f"station {j} is not in the network")
    classes = (topo.spec.class_by_id(k) for k in topo.visiting[j])
    return sum(c.arrival_rate / c.service_rate(j) for c in classes)
