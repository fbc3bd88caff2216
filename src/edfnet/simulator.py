"""Event-level simulation of deadline-ordered service networks.

Customers arrive per class through renewal streams, carry an absolute
deadline (arrival time plus a draw from the class lead-time law), and
are served at each station on their route in earliest-deadline-first
order, ties broken by arrival index to the system, which is unique.
Service is non-preemptive by default; with ``preemptive=True`` a more
urgent arrival suspends the current job and the remainder is served
later (preempt-resume).  Transfers between stations are instantaneous.
Late customers (negative lead time) stay in the system and keep their
priority; nothing is dropped.

Each station tracks a per-class *frontier*: the largest absolute
deadline it has ever admitted to service, seeded with a phantom value
equal to the class's largest possible lead (as if a maximally patient
customer had entered service at time zero).  The lead-time frontier at
time t is that stored deadline minus t.  Customers whose deadline is
strictly below the station's overall frontier are "behind" it; they
measure how far the system deviates from the idealized profile
ordering.  Their count is kept as the loop runs; their residual work,
like the station's workload, is summed from the pending heap and the
server when it is read, so each reads exactly 0.0 when there is
nothing to sum.

Everything is deterministic given the seed: every (class, purpose,
station) stream draws from its own generator derived from the seed, and
simultaneous events are ordered departures-first, then by station id,
then by scheduling order.

One loop, ``SimState._run``, processes every event.  An arrival reads
one row per class id, built once: the route and a joint draw, one
C-level call that reads each of the class's streams once and returns
the service times in route order, the lead time and the gap to the
next arrival.  A customer is a bare slotted record that the loop fills
in, and pending heaps hold flat (deadline, arrival index, customer)
entries; since arrival indices are unique, no entry compares past its
index.  An event changes at most two stations, and each goes through
one block: integrate the station, then release its server (a
departure) or admit the customer moving in (an arrival, or a departure
routed onward), then start whoever takes the server.  Each start bumps
the station's token and stamps its departure event with it, so a
preemption voids the displaced job's departure in the heap.
``conditional_sample`` checks its condition between batches of events,
each as long as the condition's distance allows.

Time integrals (idle time, present count and behind count) are kept
per station and brought up to date lazily: the loop integrates a
station from its own ``last_t`` only when its state is about to
change, that is, when a customer enters it or its server departs.
Advancing the clock touches no station, so an event costs the same
whatever the number of stations.  The accessors read the integrals up
to the clock through ``_integrals``, which does the loop's arithmetic
without writing anything back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import dists
from .errors import (ClassDoesNotVisitStation, ValidationError, _echo, _flag, _positive, _real,
                     _whole)
from .topology import NetworkSpec, Topology, _station_id, build_topology

__all__ = [
    "SimState",
    "Snapshot",
    "SampleResult",
    "BehindStats",
    "ExactCounts",
    "TotalCounts",
    "CountBands",
    "new_sim",
    "run_until",
    "conditional_sample",
    "snapshot_profiles",
    "class_frontier",
    "station_frontier",
    "workload",
    "netput",
    "idleness",
    "utilization",
    "queue_length",
    "class_counts",
    "mean_queue_length",
    "behind_frontier_stats",
]

_DEPART = 0
_ARRIVE = 1


class _Customer:
    """One customer; ``SimState._run`` sets every slot on arrival, so
    there is no ``__init__`` to call.  ``draws`` is its row's joint draw:
    the service time at each route station in route order, then the
    lead time and the gap to the class's next arrival."""

    __slots__ = ("class_id", "deadline", "index", "route", "route_pos",
                 "draws", "remaining")


class _Station:
    __slots__ = ("sid", "pending", "pending_behind", "serving", "serving_dep",
                 "serving_behind", "token", "max_by_class", "max_admitted",
                 "class_counts", "present", "last_t", "idle_time",
                 "arrived_work", "int_present", "int_behind")

    def __init__(self, sid: int, class_count: int, visits: Mapping[int, tuple]):
        self.sid = sid
        self.pending: List[tuple] = []
        self.pending_behind = 0
        self.serving: Optional[_Customer] = None
        self.serving_dep = math.inf
        self.serving_behind = False
        self.token = 0
        self.max_by_class = [-math.inf] * (class_count + 1)
        for k, (c, _) in visits.items():   # the phantom frontier: the largest lead
            self.max_by_class[k] = c.lead_time.upper_support
        self.max_admitted = max(self.max_by_class)
        self.class_counts = [0] * (class_count + 1)
        self.present = 0
        self.last_t = 0.0
        self.idle_time = 0.0
        self.arrived_work = 0.0
        self.int_present = 0.0
        self.int_behind = 0.0


class SimState:
    """One simulation run; construct through new_sim().

    ``_run(until, limit)`` is the one event loop: it pops and processes
    up to ``limit`` events at or before ``until``, and every station an
    event changes goes through one station block.  ``run_until`` runs
    it without a limit and ``conditional_sample`` in batches; a limit
    of one steps the run event by event.  The sequence number, arrival
    count and clock are loop locals, written back when the batch ends.
    ``events_processed`` counts every event popped, including a
    departure that a preemption superseded (its token no longer
    matches): such an event only moves the clock, since each station
    integrates lazily from its own ``last_t``, but it still counts.
    ``superseded`` counts those departures apart.
    """

    def __init__(self, spec: NetworkSpec, *, seed: int, preemptive: bool = False):
        if isinstance(seed, bool) or _whole(seed, "seed") < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {_echo(seed)}")
        self.topology: Topology = build_topology(spec)
        self.spec = spec
        self.seed = int(seed)
        self.preemptive = _flag(preemptive, "preemptive")
        self.clock = 0.0
        self.events_processed = 0
        self.superseded = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._arrival_counter = 0
        K = len(spec.classes)
        self.stations: List[Optional[_Station]] = [None] + [
            _Station(j, K, row) for j, row in self.topology.visiting.items()]

        # one row per class id: (route, draw), where draw() returns the
        # services in route order, the lead and the next gap in one
        # C-level step.  One independent generator per (class, purpose,
        # station); purposes are 1=interarrival, 2=lead time, 3=service
        # at a given station.  First arrivals are pushed in spec.classes
        # order, which breaks their ties.
        self._rows: List[Optional[tuple]] = [None] * (K + 1)
        for c in spec.classes:
            gaps = (c.interarrival or dists.Exponential(c.arrival_rate)).draws(
                self._stream(1, c.id, 0))
            services = [(c.service_law(j) or dists.Exponential(c.service_rate(j)))
                        .draws(self._stream(3, c.id, j)) for j in c.route]
            leads = dists._blocks(partial(c.lead_time.sample, self._stream(2, c.id, 0)))
            first = next(gaps)
            self._rows[c.id] = (c.route, zip(*services, leads, gaps).__next__)
            if math.isfinite(first):
                self._seq += 1
                heappush(self._heap, (first, _ARRIVE, c.route[0], self._seq, c.id))

    def _stream(self, purpose: int, k: int, j: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, purpose, k, j)))

    def _run(self, until: float, limit: float) -> int:
        """Process up to ``limit`` events at or before ``until`` and
        return how many ran.  An event names the station it changes and
        the customer moving in, ``None`` when the server departs; one
        pass per station then integrates, releases or admits, and
        starts service.  A departing customer with a station left on
        its route moves in there on the next pass.  A newcomer preempts
        (under preempt-resume) only with a smaller (deadline, arrival
        index) than the server's."""
        heap, stations, rows = self._heap, self.stations, self._rows
        preemptive, isfinite, customer = self.preemptive, math.isfinite, _Customer
        seq, arrivals, now = self._seq, self._arrival_counter, self.clock
        done = superseded = 0
        while done < limit and heap and heap[0][0] <= until:
            now, kind, sid, _, payload = heappop(heap)
            done += 1
            st = stations[sid]
            if kind == _DEPART:
                if payload != st.token:
                    superseded += 1  # voided by a preemption
                    continue
                moving = None
            else:
                # an arrival event names the first station on the route
                route, draw = rows[payload]
                draws = draw()
                arrivals += 1
                moving = customer()
                moving.class_id = payload
                moving.deadline = now + draws[-2]
                moving.index = arrivals
                moving.route = route
                moving.route_pos = 0
                moving.draws = draws
                moving.remaining = draws[0]
                gap = draws[-1]
                if isfinite(gap):
                    seq += 1
                    heappush(heap, (now + gap, _ARRIVE, sid, seq, payload))
            while True:
                # integrate st up to now; its state changes next
                dt = now - st.last_t
                serving = st.serving
                if serving is None:
                    st.idle_time += dt
                else:
                    st.int_present += st.present * dt
                    st.int_behind += (st.pending_behind + st.serving_behind) * dt
                st.last_t = now
                if moving is None:
                    # the server departs; the most urgent pending customer starts
                    moving = serving
                    st.class_counts[moving.class_id] -= 1
                    st.present -= 1
                    if st.pending:
                        start = heappop(st.pending)[2]
                        if start.deadline < st.max_admitted:
                            st.pending_behind -= 1
                    else:
                        start = None
                        st.serving, st.serving_behind, st.serving_dep = None, False, math.inf
                else:
                    # moving enters st: it starts, waits, or displaces the server
                    start, moving = moving, None
                    st.arrived_work += start.remaining
                    st.class_counts[start.class_id] += 1
                    st.present += 1
                    if serving is not None:
                        deadline = start.deadline
                        if preemptive and (deadline < serving.deadline or (
                                deadline == serving.deadline and start.index < serving.index)):
                            # the server's remainder waits; start takes its place
                            serving.remaining = st.serving_dep - now
                        else:
                            serving, start = start, None  # the newcomer waits
                        heappush(st.pending, (serving.deadline, serving.index, serving))
                        if serving.deadline < st.max_admitted:
                            st.pending_behind += 1
                if start is not None:
                    deadline = start.deadline
                    st.serving_behind = deadline < st.max_admitted
                    if deadline > st.max_by_class[start.class_id]:
                        st.max_by_class[start.class_id] = deadline
                        if deadline > st.max_admitted:
                            st.max_admitted = deadline
                    st.serving = start
                    st.token = token = st.token + 1
                    st.serving_dep = dep = now + start.remaining
                    seq += 1
                    heappush(heap, (dep, _DEPART, sid, seq, token))
                if moving is None:
                    break
                moving.route_pos = pos = moving.route_pos + 1
                route = moving.route
                if pos == len(route):
                    break
                moving.remaining = moving.draws[pos]
                sid = route[pos]
                st = stations[sid]
        self._seq, self._arrival_counter, self.clock = seq, arrivals, now
        self.events_processed += done
        self.superseded += superseded
        return done

    def _advance(self, t: float) -> None:
        """Move the clock to t; stations integrate up to it lazily."""
        if t < self.clock:
            raise ValueError(f"cannot advance backwards to {t} from {self.clock}")
        self.clock = t


def _integrals(st: _Station, now: float) -> Tuple[float, float, float]:
    """Station st's idle, present and behind integrals up to now, given
    that its state has not changed since st.last_t: the update
    ``SimState._run`` makes inline, without writing it back."""
    dt = now - st.last_t
    if st.serving is None:
        return st.idle_time + dt, st.int_present, st.int_behind
    return (st.idle_time, st.int_present + st.present * dt,
            st.int_behind + (st.pending_behind + st.serving_behind) * dt)


# -------- snapshots and sampling --------

@dataclass(frozen=True)
class Snapshot:
    """Per-station (class id, lead time) pairs at one instant."""

    time: float
    stations: Mapping[int, Tuple[Tuple[int, float], ...]]

    def leads(self, j: int) -> Tuple[float, ...]:
        """The lead times at station j; ValueError if the snapshot lacks j."""
        if j not in self.stations:
            raise ValueError(f"station {_echo(j)} is not in the snapshot")
        return tuple(lead for _, lead in self.stations[j])


@dataclass(frozen=True)
class SampleResult:
    snapshots: Tuple[Snapshot, ...]
    exhausted: bool  # True when the horizon ran out short of the quota


@dataclass(frozen=True)
class BehindStats:
    count: int
    work: float
    fraction: float
    time_avg_fraction: float
    behind_count_integral: float
    present_count_integral: float


def _stations(mapping) -> Dict[int, object]:
    """A condition's mapping with each key read by ``_whole`` as a
    station id; anything but a mapping raises ValueError naming it."""
    if not isinstance(mapping, Mapping):
        raise ValueError(f"a condition maps station ids to counts, got {_echo(mapping)}")
    return {_whole(j, "station id"): v for j, v in mapping.items()}


def _counts(value, j: int, what: str, size: Optional[int] = None) -> Tuple[int, ...]:
    """The counts given for station j, each read by ``_whole``; a value
    that is not a sequence, or not one of ``size`` counts, raises
    ValueError naming the station and the value."""
    try:
        vec = tuple(value)
    except TypeError:
        vec = None
    if vec is None or (size is not None and len(vec) != size):
        shape = "a sequence" if size is None else f"{size} counts"
        raise ValueError(f"{what} at station {j} must be {shape}, got {_echo(value)}")
    return tuple(_whole(n, "count") for n in vec)


@dataclass(frozen=True)
class ExactCounts:
    """Condition: per-class queue vector at each listed station."""

    targets: Mapping[int, Tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "targets", {
            j: _counts(vec, j, "counts") for j, vec in _stations(self.targets).items()})
        if any(n < 0 for vec in self.targets.values() for n in vec):
            raise ValueError(f"counts must be nonnegative, got {_echo(self.targets)}")

    def distance(self, sim: SimState) -> int:
        """L1 distance from the per-class counts to the targets."""
        return sum(abs(have - want) for j, vec in self.targets.items()
                   for have, want in zip(sim.stations[j].class_counts[1:], vec))

    def totals(self) -> Dict[int, float]:
        """Station totals a prediction inverts: the vector sums."""
        return {j: float(sum(vec)) for j, vec in self.targets.items()}


@dataclass(frozen=True)
class CountBands:
    """Condition: total count within [lo, hi] at each listed station."""

    bands: Mapping[int, Tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "bands", {
            j: _counts(band, j, "band", 2) for j, band in _stations(self.bands).items()})
        if any(not 0 <= lo <= hi for lo, hi in self.bands.values()):
            raise ValueError(f"bands must satisfy 0 <= lo <= hi, got {_echo(self.bands)}")

    def distance(self, sim: SimState) -> int:
        """How far each station's total lies outside its band, summed."""
        stations = sim.stations
        d = 0
        for j, (lo, hi) in self.bands.items():
            n = stations[j].present
            if n < lo:
                d += lo - n
            elif n > hi:
                d += n - hi
        return d

    def totals(self) -> Dict[int, float]:
        """Station totals a prediction inverts: the band midpoints."""
        return {j: 0.5 * (lo + hi) for j, (lo, hi) in self.bands.items()}


@dataclass(frozen=True, init=False, repr=False)
class TotalCounts(CountBands):
    """Condition: total customer count n at each listed station, which
    is the band [n, n].  It keeps its own kind, repr and equality, so
    its configs hash apart from the band's."""

    def __init__(self, targets: Mapping[int, int]):
        targets = {j: _whole(n, "count") for j, n in _stations(targets).items()}
        if any(n < 0 for n in targets.values()):
            raise ValueError(f"counts must be nonnegative, got {_echo(targets)}")
        super().__init__({j: (n, n) for j, n in targets.items()})

    def __repr__(self) -> str:
        return f"TotalCounts(targets={self.targets!r})"

    @property
    def targets(self) -> Dict[int, int]:
        return {j: n for j, (n, _) in self.bands.items()}


Condition = Union[ExactCounts, CountBands]


def _check_condition(condition: Condition, spec: NetworkSpec) -> None:
    """Raise ValidationError unless the condition fits the network:
    station ids in 1..J and, for exact counts, one count per class."""
    if isinstance(condition, ExactCounts):
        K = len(spec.classes)
        for j, vec in condition.targets.items():
            if len(vec) != K:
                raise ValidationError(
                    f"condition vector at station {j} has {len(vec)} counts; "
                    f"the network has {K} classes")
    elif not isinstance(condition, CountBands):
        raise ValidationError(f"unsupported condition {type(condition).__name__}")
    for j in condition.totals():
        if not 1 <= j <= spec.station_count:
            raise ValidationError(
                f"condition names station {j}; stations are 1..{spec.station_count}")


# -------- public operations --------

def new_sim(spec: NetworkSpec, *, seed: int, preemptive: bool = False) -> SimState:
    """Build a simulation at time zero with empty queues.  ``seed`` is a
    nonnegative integer and ``preemptive`` True or False; anything else
    raises ValueError."""
    return SimState(spec, seed=seed, preemptive=preemptive)


def run_until(sim: SimState, until: float) -> int:
    """Advance the simulation to a finite time.

    Every event at or before ``until`` is processed and the clock then
    advances to exactly ``until``.  A time other than a finite real at
    or after the clock raises ValueError before any event is processed.
    Returns the number of events processed, including departures that a
    preemption superseded (see SimState).
    """
    t = _real(until, "until")
    if not (math.isfinite(t) and t >= sim.clock):
        raise ValueError(f"cannot run to {t} from {sim.clock}: the time must "
                         f"be finite and not before the clock")
    done = sim._run(t, math.inf)
    sim._advance(t)
    return done


def conditional_sample(
    sim: SimState,
    condition: Condition,
    *,
    threshold: float,
    count: int,
    horizon_cap: float,
) -> SampleResult:
    """Snapshots taken each time conditioned local time fills a quota.

    Local time accumulates whenever the condition holds at all its
    stations simultaneously; it persists across excursions away from
    the conditioning set.  Each time the accumulated amount reaches
    ``threshold`` a snapshot of every station's (class, lead) content
    is recorded and the accumulator resets.  The run never passes
    ``horizon_cap``; if the quota of ``count`` snapshots is not met by
    then, the partial list is returned with ``exhausted=True``.  A
    condition that does not fit the network raises ValidationError
    before any event is processed.

    The condition is checked in batches of events, not after each one.
    An event moves at most two (station, class) counts, each by one,
    so the condition's distance moves by at most 2 per event; from
    distance d it cannot hold again until ceil(d / 2) more events have
    run, and that many run before the next check.  The snapshots,
    clock and event count are those of a check after every event.
    """
    _check_condition(condition, sim.spec)
    threshold = _positive(threshold, "threshold")
    count = _whole(count, "count")
    if count < 1:
        raise ValueError(f"count must be an integer of at least 1, got {_echo(count)}")
    horizon_cap = _real(horizon_cap, "horizon_cap")
    if not (math.isfinite(horizon_cap) and horizon_cap >= sim.clock):
        raise ValueError(f"cannot sample to horizon_cap {horizon_cap} from {sim.clock}: "
                         f"it must be finite and not before the clock")

    snaps: List[Snapshot] = []
    acc = 0.0
    while True:
        d = condition.distance(sim)
        if d == 0:
            boundary = min(sim._heap[0][0] if sim._heap else math.inf, horizon_cap)
            while boundary > sim.clock:
                t_hit = sim.clock + (threshold - acc)
                if t_hit > boundary:
                    acc += boundary - sim.clock
                    break
                sim._advance(t_hit)
                acc = 0.0
                snaps.append(snapshot_profiles(sim))
                if len(snaps) == count:
                    return SampleResult(tuple(snaps), False)
        if not sim._run(horizon_cap, max(1, (d + 1) // 2)):
            sim._advance(horizon_cap)
            return SampleResult(tuple(snaps), len(snaps) < count)


def snapshot_profiles(sim: SimState) -> Snapshot:
    """Current per-station (class id, lead time) content."""
    now = sim.clock
    stations = {}
    for st in sim.stations[1:]:
        pairs = [(c.class_id, c.deadline - now) for _, _, c in st.pending]
        if st.serving is not None:
            pairs.append((st.serving.class_id, st.serving.deadline - now))
        pairs.sort(key=lambda p: (p[1], p[0]))
        stations[st.sid] = tuple(pairs)
    return Snapshot(time=now, stations=stations)


def _station(sim: SimState, j: int) -> _Station:
    """Station j of the run; ValueError unless j is an integer and the
    network has it."""
    return sim.stations[_station_id(sim.topology, j)]


def class_frontier(sim: SimState, k: int, j: int) -> float:
    """Lead-time frontier of class k at station j right now."""
    st = _station(sim, j)
    k = _whole(k, "class id")
    if k not in sim.topology.visiting[st.sid]:
        raise ClassDoesNotVisitStation(f"class {k} does not visit station {j}")
    return st.max_by_class[k] - sim.clock


def station_frontier(sim: SimState, j: int) -> float:
    """Largest class frontier at station j right now."""
    return _station(sim, j).max_admitted - sim.clock


def workload(sim: SimState, j: int) -> float:
    """Residual work sitting at station j (pending plus in service),
    summed over its queue when read."""
    st = _station(sim, j)
    work = sum(c.remaining for _, _, c in st.pending)
    if st.serving is None:
        return work
    return work + (st.serving_dep - sim.clock)


def netput(sim: SimState, j: int) -> float:
    """Work arrived at station j minus elapsed time; workload equals
    this plus the accumulated idleness."""
    return _station(sim, j).arrived_work - sim.clock


def idleness(sim: SimState, j: int) -> float:
    return _integrals(_station(sim, j), sim.clock)[0]


def utilization(sim: SimState, j: int) -> float:
    """Share of elapsed time station j was busy (idle time's complement)."""
    return 1.0 - idleness(sim, j) / sim.clock if sim.clock > 0 else 0.0


def queue_length(sim: SimState, j: int) -> int:
    """Customers at station j, including the one in service."""
    return _station(sim, j).present


def class_counts(sim: SimState, j: int) -> Tuple[int, ...]:
    """Per-class customer counts at station j (index k-1 is class k)."""
    return tuple(_station(sim, j).class_counts[1:])


def mean_queue_length(sim: SimState, j: int) -> float:
    present = _integrals(_station(sim, j), sim.clock)[1]
    return present / sim.clock if sim.clock > 0 else 0.0


def behind_frontier_stats(sim: SimState, j: int) -> BehindStats:
    """How much of station j sits strictly behind its frontier.

    Instantaneous count/work/fraction refer to the current instant;
    the time-averaged fraction is the ratio of the time integral of
    the behind count to the time integral of the total count (zero
    when the station has never held anyone).  The count is kept as
    the run goes; ``work``, like ``workload``, is an O(queue length)
    sum over the pending heap when read, so it is exactly 0.0 when
    no customer is behind.
    """
    st = _station(sim, j)
    count = st.pending_behind + st.serving_behind
    work = sum(c.remaining for d, _, c in st.pending if d < st.max_admitted)
    if st.serving_behind:
        work += st.serving_dep - sim.clock
    fraction = count / st.present if st.present else 0.0
    _, present, behind = _integrals(st, sim.clock)
    return BehindStats(
        count=count,
        work=work,
        fraction=fraction,
        time_avg_fraction=behind / present if present > 0.0 else 0.0,
        behind_count_integral=behind,
        present_count_integral=present,
    )
