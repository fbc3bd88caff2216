"""Network description and route combinatorics.

A network is a set of stations 1..J and a set of customer classes
1..K.  Each class follows a fixed acyclic route (no station is visited
twice) and carries an initial lead-time distribution.  From the routes
we build the visit table other modules read (``Topology.visiting``):
per station, its visiting classes in ascending id, each with its spec
and its route's prefix there.  ``_station_id`` checks ids against it.

One rule links the routes to the solver: a class waits at the first
unplaced station on its route and moves on when that station is placed.
The solver places stations one stage at a time, each among the stations
some class waits at; each order built this way carves out a piece of
the domain on which the frontier map is invertible.  The solver checks
the piece of the order it builds as it places each station; the
two-station closed form writes out the crossing network's two pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from . import dists
from .errors import (DisconnectedNetwork, EmptyStation, RouteRepeatsStation, _echo,
                     _positive, _real, _whole)
from .leadtime import LeadTimeDist

__all__ = [
    "ClassSpec",
    "NetworkSpec",
    "Topology",
    "build_topology",
    "traffic_intensity",
]


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
            raise ValueError(f"class id must be a positive integer, got {_echo(self.id)}")
        route = tuple(_whole(j, f"class {self.id}: station id") for j in self.route)
        object.__setattr__(self, "route", route)
        rates, what = self.service_rates, f"class {self.id}: service rate"
        object.__setattr__(self, "service_rates",
                           {_whole(j, f"class {self.id}: station id"): _real(mu, what)
                            for j, mu in rates.items()}
                           if isinstance(rates, Mapping) else _real(rates, what))
        object.__setattr__(self, "arrival_rate",
                           _positive(self.arrival_rate, f"class {self.id}: arrival rate"))
        if len(route) == 0:
            raise ValueError(f"class {self.id}: route must visit at least one station")
        if any(j < 1 for j in route):
            raise ValueError(f"class {self.id}: station ids must be positive")
        if self.interarrival is not None:
            _check_rate(self.interarrival, self.arrival_rate,
                        f"class {self.id} interarrival")
        for j in route:
            mu = _positive(self.service_rate(j),
                           f"class {self.id}: service rate at station {j}")
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
            raise ValueError(f"class ids must be 1..K without gaps, got {_echo(sorted(ids))}")

    @property
    def stations(self) -> range:
        return range(1, self.station_count + 1)


@dataclass(frozen=True)
class Topology:
    """Validated network; ``visiting[j]`` maps each class visiting
    station j, in ascending id, to (its spec, its route before j)."""

    spec: NetworkSpec
    visiting: Mapping[int, Mapping[int, Tuple[ClassSpec, Tuple[int, ...]]]]

    @property
    def station_count(self) -> int:
        return self.spec.station_count


def build_topology(spec: NetworkSpec) -> Topology:
    """Validate a NetworkSpec and build its visit table.

    Raises RouteRepeatsStation if any route revisits a station,
    EmptyStation if some station is on no route, and
    DisconnectedNetwork if the undirected graph whose edges are
    consecutive route hops does not connect all stations.
    """
    J = spec.station_count
    visiting: Dict[int, Dict[int, tuple]] = {j: {} for j in spec.stations}
    for c in sorted(spec.classes, key=lambda c: c.id):
        if len(set(c.route)) != len(c.route):
            raise RouteRepeatsStation(f"class {c.id} route {_echo(c.route)} repeats a station")
        for at, j in enumerate(c.route):
            if j > J:
                raise ValueError(f"class {c.id} route visits station {j}, "
                                 f"but the network has only {J}")
            visiting[j][c.id] = (c, c.route[:at])

    for j in spec.stations:
        if not visiting[j]:
            raise EmptyStation(f"station {j} is visited by no class")

    # connectivity over the undirected hop graph, whose hops join each
    # route's stations: a class visiting a reached station reaches its route
    seen, stack, joined = {1}, [1], set()
    while stack:
        for k, (c, _) in visiting[stack.pop()].items():
            if k not in joined:
                joined.add(k)
                fresh = set(c.route) - seen
                seen |= fresh
                stack.extend(fresh)
    if len(seen) != J:
        missing = sorted(set(spec.stations) - seen)
        raise DisconnectedNetwork(f"stations {_echo(missing)} are not connected to station 1")

    return Topology(spec=spec, visiting=visiting)


def _station_id(topo: Topology, j) -> int:
    """Station id j as an int, read by ``_whole``; ValueError unless the
    network has that station."""
    j = _whole(j, "station id")
    if j not in topo.visiting:
        raise ValueError(f"station {j} is not in the network")
    return j


def traffic_intensity(topo: Topology, j: int) -> float:
    """Offered load at a station: sum over visiting classes, in ascending
    id, of arrival rate divided by service rate there."""
    j = _station_id(topo, j)
    return sum(c.arrival_rate / c.service_rate(j) for c, _ in topo.visiting[j].values())
