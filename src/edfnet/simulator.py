"""Event-level simulation of deadline-ordered service networks.

Customers arrive per class through renewal streams, carry an absolute
deadline (arrival time plus a draw from the class lead-time law), and
are served at each station on their route in earliest-deadline-first
order, ties broken by arrival index to the system and then class id.
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
strictly below the station's overall frontier are "behind" it; their
count and residual work are tracked continuously since they measure
how far the system deviates from the idealized profile ordering.

Everything is deterministic given the seed: every (class, purpose)
pair draws from its own generator derived from the seed, and
simultaneous events are ordered departures-first, then by station id,
then by scheduling order.

One loop, ``SimState._run``, processes every event.  An arrival reads
one row per class id, built once: the route, the interarrival and
lead-time draws, and the service draws in route order.  A customer
carries its EDF key (deadline, arrival index, class id), and pending
heaps hold (key, customer) pairs.  An event changes at most two
stations, and each goes through one block: integrate the station,
then release its server (a departure) or admit the customer moving in
(an arrival, or a departure routed onward), then start whoever takes
the server.  Each start bumps the station's token and stamps its
departure event with it, so a preemption voids the displaced job's
departure in the heap.  ``conditional_sample`` checks its condition
between batches of events, each as long as the condition's distance
allows.

Time integrals (idle time, present count, behind count and behind
work) are kept per station and brought up to date lazily: the loop
integrates a station from its own ``last_t`` only when its state is
about to change, that is, when a customer enters it or its server
departs.  Advancing the clock touches no station, so an event costs
the same whatever the number of stations.  The accessors read the
integrals up to the clock through ``_integrals``, which does the
loop's arithmetic without writing anything back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import dists
from .errors import ClassDoesNotVisitStation, ValidationError
from .topology import NetworkSpec, Topology, build_topology

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
    __slots__ = ("class_id", "deadline", "key", "route", "route_pos",
                 "service_times", "remaining")

    def __init__(self, class_id, arrival_index, deadline, route, service_times):
        self.class_id = class_id
        self.deadline = deadline
        self.key = (deadline, arrival_index, class_id)
        self.route = route
        self.route_pos = 0
        self.service_times = service_times
        self.remaining = service_times[0]


class _Station:
    __slots__ = ("sid", "pending", "pending_work", "pending_behind",
                 "pending_behind_work", "serving", "serving_dep",
                 "serving_behind", "token", "max_by_class", "max_admitted",
                 "class_counts", "present", "last_t", "idle_time",
                 "arrived_work", "int_present", "int_behind", "int_behind_work")

    def __init__(self, sid: int, class_count: int):
        self.sid = sid
        self.pending: List[tuple] = []
        self.pending_work = 0.0
        self.pending_behind = 0
        self.pending_behind_work = 0.0
        self.serving: Optional[_Customer] = None
        self.serving_dep = math.inf
        self.serving_behind = False
        self.token = 0
        self.max_by_class = [-math.inf] * (class_count + 1)
        self.max_admitted = -math.inf
        self.class_counts = [0] * (class_count + 1)
        self.present = 0
        self.last_t = 0.0
        self.idle_time = 0.0
        self.arrived_work = 0.0
        self.int_present = 0.0
        self.int_behind = 0.0
        self.int_behind_work = 0.0


class SimState:
    """One simulation run; construct through new_sim().

    ``_run(until, limit)`` is the one event loop: it pops and processes
    up to ``limit`` events at or before ``until``, and every station an
    event changes goes through one station block.  ``run_until`` runs
    it without a limit and ``conditional_sample`` in batches; a limit
    of one steps the run event by event.  The sequence number, arrival count and
    clock are loop locals, written back when the batch ends.
    ``events_processed`` counts every event popped, including a
    departure that a preemption superseded (its token no longer
    matches): such an event only moves the clock, since each station
    integrates lazily from its own ``last_t``, but it still counts.
    ``superseded`` counts those departures apart.
    """

    def __init__(self, spec: NetworkSpec, *, seed: int, preemptive: bool = False):
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        self.topology: Topology = build_topology(spec)
        self.spec = spec
        self.seed = seed
        self.preemptive = preemptive
        self.clock = 0.0
        self.events_processed = 0
        self.superseded = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._arrival_counter = 0
        K = len(spec.classes)
        self.stations: List[Optional[_Station]] = [None] + [
            _Station(j, K) for j in spec.stations]
        for c in spec.classes:
            for j in c.route:
                self.stations[j].max_by_class[c.id] = c.lead_time.upper_support
        for j in spec.stations:
            st = self.stations[j]
            st.max_admitted = max(st.max_by_class[1:])

        # one row per class id: (route, draw_gap, draw_lead, draw_services).
        # One independent generator per (class, purpose); purposes are
        # 1=interarrival, 2=lead time, 3=service at a given station.  First
        # arrivals are pushed in spec.classes order, which breaks their ties.
        self._rows: List[Optional[tuple]] = [None] * (K + 1)
        for c in spec.classes:
            gap_law = c.interarrival or dists.Exponential(c.arrival_rate)
            draw_gap = gap_law.sampler(self._stream(1, c.id, 0))
            self._rows[c.id] = (
                c.route,
                draw_gap,
                dists._block_sampler(partial(c.lead_time.sample, self._stream(2, c.id, 0))),
                tuple((c.service_law(j) or dists.Exponential(c.service_rate(j)))
                      .sampler(self._stream(3, c.id, j)) for j in c.route),
            )
            first = draw_gap()
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
        its route moves in there on the next pass."""
        heap, stations, rows = self._heap, self.stations, self._rows
        preemptive, isfinite = self.preemptive, math.isfinite
        seq, arrivals, now = self._seq, self._arrival_counter, self.clock
        done = superseded = 0
        while done < limit and heap and heap[0][0] <= until:
            now, kind, sid, _, payload = heappop(heap)
            done += 1
            if kind == _DEPART:
                st = stations[sid]
                if payload != st.token:
                    superseded += 1  # voided by a preemption
                    continue
                moving = None
            else:
                route, draw_gap, draw_lead, draw_services = rows[payload]
                arrivals += 1
                moving = _Customer(payload, arrivals, now + draw_lead(), route,
                                   tuple([draw() for draw in draw_services]))
                gap = draw_gap()
                if isfinite(gap):
                    seq += 1
                    heappush(heap, (now + gap, _ARRIVE, route[0], seq, payload))
                st = stations[route[0]]
            while True:
                # integrate st up to now; its state changes next
                dt = now - st.last_t
                serving = st.serving
                if serving is None:
                    st.idle_time += dt
                else:
                    behind, work = st.pending_behind, st.pending_behind_work * dt
                    if st.serving_behind:
                        behind += 1
                        work += (st.serving_dep - st.last_t) * dt - 0.5 * dt * dt
                    st.int_present += st.present * dt
                    st.int_behind += behind * dt
                    st.int_behind_work += work
                st.last_t = now
                if moving is None:
                    # the server departs; the most urgent pending customer starts
                    moving = serving
                    st.class_counts[moving.class_id] -= 1
                    st.present -= 1
                    if st.pending:
                        _, start = heappop(st.pending)
                        st.pending_work -= start.remaining
                        if start.deadline < st.max_admitted:
                            st.pending_behind -= 1
                            st.pending_behind_work -= start.remaining
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
                        if preemptive and start.key < serving.key:
                            # the server's remainder waits; start takes its place
                            serving.remaining = st.serving_dep - now
                        else:
                            serving, start = start, None  # the newcomer waits
                        heappush(st.pending, (serving.key, serving))
                        st.pending_work += serving.remaining
                        if serving.deadline < st.max_admitted:
                            st.pending_behind += 1
                            st.pending_behind_work += serving.remaining
                if start is not None:
                    deadline = start.deadline
                    st.serving_behind = deadline < st.max_admitted
                    if deadline > st.max_by_class[start.class_id]:
                        st.max_by_class[start.class_id] = deadline
                        if deadline > st.max_admitted:
                            st.max_admitted = deadline
                    st.serving = start
                    st.token += 1
                    st.serving_dep = dep = now + start.remaining
                    seq += 1
                    heappush(heap, (dep, _DEPART, st.sid, seq, st.token))
                if moving is None:
                    break
                moving.route_pos += 1
                if moving.route_pos == len(moving.route):
                    break
                moving.remaining = moving.service_times[moving.route_pos]
                st = stations[moving.route[moving.route_pos]]
        self._seq, self._arrival_counter, self.clock = seq, arrivals, now
        self.events_processed += done
        self.superseded += superseded
        return done

    def _advance(self, t: float) -> None:
        """Move the clock to t; stations integrate up to it lazily."""
        if t < self.clock:
            raise ValueError(f"cannot advance backwards to {t} from {self.clock}")
        self.clock = t


def _integrals(st: _Station, now: float) -> Tuple[float, float, float, float]:
    """Station st's idle, present, behind and behind-work integrals up
    to now, given that its state has not changed since st.last_t: the
    update ``SimState._run`` makes inline, without writing it back."""
    dt = now - st.last_t
    if st.serving is None:
        return st.idle_time + dt, st.int_present, st.int_behind, st.int_behind_work
    behind = st.pending_behind
    work = st.pending_behind_work * dt
    if st.serving_behind:
        behind += 1
        work += (st.serving_dep - st.last_t) * dt - 0.5 * dt * dt
    return (st.idle_time, st.int_present + st.present * dt,
            st.int_behind + behind * dt, st.int_behind_work + work)


# -------- snapshots and sampling --------

@dataclass(frozen=True)
class Snapshot:
    """Per-station (class id, lead time) pairs at one instant."""

    time: float
    stations: Mapping[int, Tuple[Tuple[int, float], ...]]

    def leads(self, j: int) -> Tuple[float, ...]:
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
    behind_work_integral: float


@dataclass(frozen=True)
class ExactCounts:
    """Condition: per-class queue vector at each listed station."""

    targets: Mapping[int, Tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "targets", {int(j): tuple(int(n) for n in vec)
                                             for j, vec in self.targets.items()})
        if any(n < 0 for vec in self.targets.values() for n in vec):
            raise ValueError(f"counts must be nonnegative, got {self.targets}")

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
        object.__setattr__(self, "bands", {int(j): (int(lo), int(hi))
                                           for j, (lo, hi) in self.bands.items()})
        if any(not 0 <= lo <= hi for lo, hi in self.bands.values()):
            raise ValueError(f"bands must satisfy 0 <= lo <= hi, got {self.bands}")

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
        targets = {int(j): int(n) for j, n in targets.items()}
        if any(n < 0 for n in targets.values()):
            raise ValueError(f"counts must be nonnegative, got {targets}")
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
    """Build a simulation at time zero with empty queues."""
    return SimState(spec, seed=seed, preemptive=preemptive)


def run_until(sim: SimState, until: float) -> int:
    """Advance the simulation to a finite time.

    Every event at or before ``until`` is processed and the clock then
    advances to exactly ``until``.  A time that is not finite or lies
    before the clock raises ValueError before any event is processed.
    Returns the number of events processed, including departures that a
    preemption superseded (see SimState).
    """
    t = float(until)
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
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be an integer of at least 1, got {count!r}")
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
        pairs = [(c.class_id, c.deadline - now) for _, c in st.pending]
        if st.serving is not None:
            pairs.append((st.serving.class_id, st.serving.deadline - now))
        pairs.sort(key=lambda p: (p[1], p[0]))
        stations[st.sid] = tuple(pairs)
    return Snapshot(time=now, stations=stations)


def _station(sim: SimState, j: int) -> _Station:
    """Station j of the run; ValueError unless the network has it."""
    if j not in sim.topology.visiting:
        raise ValueError(f"station {j} is not in the network")
    return sim.stations[j]


def class_frontier(sim: SimState, k: int, j: int) -> float:
    """Lead-time frontier of class k at station j right now."""
    st = _station(sim, j)
    if k not in sim.topology.visiting[j]:
        raise ClassDoesNotVisitStation(f"class {k} does not visit station {j}")
    return st.max_by_class[k] - sim.clock


def station_frontier(sim: SimState, j: int) -> float:
    """Largest class frontier at station j right now."""
    return _station(sim, j).max_admitted - sim.clock


def workload(sim: SimState, j: int) -> float:
    """Residual work sitting at station j (pending plus in service)."""
    st = _station(sim, j)
    if st.serving is None:
        return st.pending_work
    return st.pending_work + (st.serving_dep - sim.clock)


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
    when the station has never held anyone).
    """
    st = _station(sim, j)
    count = st.pending_behind + (1 if st.serving_behind else 0)
    work = st.pending_behind_work
    if st.serving_behind:
        work += st.serving_dep - sim.clock
    fraction = count / st.present if st.present else 0.0
    _, present, behind, behind_work = _integrals(st, sim.clock)
    return BehindStats(
        count=count,
        work=work,
        fraction=fraction,
        time_avg_fraction=behind / present if present > 0.0 else 0.0,
        behind_count_integral=behind,
        present_count_integral=present,
        behind_work_integral=behind_work,
    )
