"""Tests for the event-level simulator.

Most scenarios are fully scripted through ``dists.Sequence`` laws, so
arrival times, deadlines, and service times are known exactly and every
assertion is plain arithmetic done by hand.
"""

import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import (
    LEAD_KINDS,
    ReferenceIntegrator,
    _random_spec,
    fifo_lead_cdf,
    run_each,
    sample_every_event,
    valid_random_spec,
)
from edfnet import (
    ClassDoesNotVisitStation,
    ClassSpec,
    CountBands,
    ExactCounts,
    NetworkSpec,
    PiecewiseLinearCDF,
    PointMass,
    TotalCounts,
    Uniform,
    ValidationError,
    behind_frontier_stats,
    class_counts,
    class_frontier,
    conditional_sample,
    count_model,
    dists,
    idleness,
    mean_queue_length,
    netput,
    new_sim,
    predict_profile,
    queue_length,
    run_until,
    snapshot_profiles,
    solve_frontiers,
    station_frontier,
    traffic_intensity,
    utilization,
    workload,
)
from edfnet.harness import theory_cdf


def scripted_class(cid, route, *, gaps, services, lead, rate=1.0):
    """A class with fully scripted arrivals and service times."""
    return ClassSpec(
        id=cid,
        route=route,
        arrival_rate=rate,
        lead_time=PointMass(float(lead)),
        interarrival=dists.Sequence(gaps),
        service_laws={j: dists.Sequence(seq) for j, seq in services.items()},
    )


def two_class_station():
    """Class 1 arrives at t=1 (deadline 101, 5 units of work); class 2
    arrives at t=2 (deadline 12, 3 units).  Service is non-preemptive,
    so class 1 holds the server until t=6 and class 2 departs at t=9."""
    return NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[1.0], services={1: [5.0]}, lead=100.0),
        scripted_class(2, (1,), gaps=[2.0], services={1: [3.0]}, lead=10.0),
    ))


def single_class_station():
    """Arrivals at t=1,2,3 with 10 units of work each and deadline
    at arrival + 100; departures then fall at t=11, 21, 31."""
    return NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[1.0, 1.0, 1.0],
                       services={1: [10.0, 10.0, 10.0]}, lead=100.0),
    ))


# -------- scripted non-preemptive run --------

def test_scripted_order_and_snapshot():
    sim = new_sim(two_class_station(), seed=0)
    run_until(sim, 3.0)
    assert sim.clock == 3.0
    assert queue_length(sim, 1) == 2
    assert class_counts(sim, 1) == (1, 1)
    snap = snapshot_profiles(sim)
    assert snap.time == 3.0
    # sorted by lead: the urgent class-2 customer first
    assert snap.stations[1] == ((2, 9.0), (1, 98.0))
    assert snap.leads(1) == (9.0, 98.0)
    assert workload(sim, 1) == pytest.approx(6.0)


def test_scripted_frontiers():
    sim = new_sim(two_class_station(), seed=0)
    # phantom frontiers at time zero equal the largest possible leads
    assert class_frontier(sim, 1, 1) == 100.0
    assert class_frontier(sim, 2, 1) == 10.0
    assert station_frontier(sim, 1) == 100.0
    run_until(sim, 3.0)
    # class 1 entered service at t=1 with deadline 101
    assert class_frontier(sim, 1, 1) == pytest.approx(98.0)
    assert class_frontier(sim, 2, 1) == pytest.approx(7.0)  # still the phantom
    assert station_frontier(sim, 1) == pytest.approx(98.0)
    run_until(sim, 7.0)
    # class 2 (deadline 12) entered service at t=6
    assert class_frontier(sim, 2, 1) == pytest.approx(5.0)
    assert station_frontier(sim, 1) == pytest.approx(101.0 - 7.0)


def test_scripted_behind_frontier_accounting():
    sim = new_sim(two_class_station(), seed=0)
    run_until(sim, 3.0)
    stats = behind_frontier_stats(sim, 1)
    # class 2's deadline 12 sits behind the admitted frontier 101
    assert stats.count == 1
    assert stats.work == pytest.approx(3.0)
    assert stats.fraction == pytest.approx(0.5)
    run_until(sim, 7.0)
    stats = behind_frontier_stats(sim, 1)
    # now class 2 is *in service* and still behind
    assert stats.count == 1
    assert stats.work == pytest.approx(2.0)
    assert stats.fraction == 1.0
    run_until(sim, 10.0)
    stats = behind_frontier_stats(sim, 1)
    assert stats.count == 0 and stats.work == 0.0 and stats.fraction == 0.0
    # behind integral: one behind customer over [2, 9); present integral:
    # 1 over [1, 2), 2 over [2, 6), 1 over [6, 9)
    assert stats.behind_count_integral == pytest.approx(7.0)
    assert stats.present_count_integral == pytest.approx(12.0)
    assert stats.time_avg_fraction == pytest.approx(7.0 / 12.0)


def test_scripted_totals_after_drain():
    sim = new_sim(two_class_station(), seed=0)
    run_until(sim, 10.0)
    assert queue_length(sim, 1) == 0
    assert sim.events_processed == 4
    assert utilization(sim, 1) == pytest.approx(0.8)
    assert mean_queue_length(sim, 1) == pytest.approx(1.2)
    assert workload(sim, 1) == 0.0
    assert netput(sim, 1) == pytest.approx(-2.0)
    assert idleness(sim, 1) == pytest.approx(2.0)


# -------- preempt-resume --------

def test_preemptive_run():
    sim = new_sim(two_class_station(), seed=0, preemptive=True)
    run_until(sim, 2.5)
    # class 2 preempted class 1 at t=2 and departs at t=5
    assert queue_length(sim, 1) == 2
    assert workload(sim, 1) == pytest.approx(4.0 + 2.5)
    snap = snapshot_profiles(sim)
    assert snap.stations[1] == ((2, 9.5), (1, 98.5))
    run_until(sim, 6.0)
    # class 1 resumed at t=5 with 4 units left: departs at t=9
    assert queue_length(sim, 1) == 1
    assert workload(sim, 1) == pytest.approx(3.0)
    run_until(sim, 10.0)
    assert queue_length(sim, 1) == 0
    # the preempted job's stale departure event is popped and ignored
    assert sim.events_processed == 5
    assert idleness(sim, 1) == pytest.approx(2.0)
    stats = behind_frontier_stats(sim, 1)
    assert stats.time_avg_fraction == pytest.approx(3.0 / 11.0)


def test_preemptive_must_be_a_bool():
    """Only True and False choose a service discipline: a truthy string
    or number, None or a numpy bool raises a ValueError naming the
    value, where it used to switch preempt-resume on or off."""
    for flag in (False, True):
        sim = new_sim(two_class_station(), seed=0, preemptive=flag)
        run_until(sim, 10.0)
        assert sim.preemptive is flag and queue_length(sim, 1) == 0
    for bad in ("no", 0, 1, None, np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(f"preemptive must be True or "
                                                       f"False, got {bad!r}")):
            new_sim(two_class_station(), seed=0, preemptive=bad)


def test_preemption_requires_strictly_smaller_key():
    """An equal-deadline arrival must not preempt: the running job's
    earlier arrival index wins the tie."""
    spec = NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[1.0], services={1: [5.0]}, lead=11.0),
        scripted_class(2, (1,), gaps=[2.0], services={1: [5.0]}, lead=10.0),
    ))
    sim = new_sim(spec, seed=0, preemptive=True)
    run_until(sim, 3.0)
    # both deadlines are 12; class 1 keeps the server, departing at 6
    run_until(sim, 6.5)
    assert queue_length(sim, 1) == 1
    # class 2 took over at t=6 and departs at t=11
    assert workload(sim, 1) == pytest.approx(4.5)


# -------- deadline ties and simultaneous events --------

def test_equal_deadlines_break_by_arrival_order():
    spec = NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[1.0], services={1: [5.0]}, lead=11.0),
        scripted_class(2, (1,), gaps=[2.0], services={1: [4.0]}, lead=10.0),
        scripted_class(3, (1,), gaps=[0.5], services={1: [10.0]}, lead=1000.0),
    ))
    sim = new_sim(spec, seed=0)
    # class 3 works until t=10.5; classes 1 and 2 both carry deadline 12,
    # and class 1 arrived first, so it runs next (t=10.5..15.5)
    run_until(sim, 15.4)
    assert queue_length(sim, 1) == 2
    run_until(sim, 15.6)
    assert queue_length(sim, 1) == 1


@pytest.mark.parametrize("preemptive,starts", [
    (False, [(0.5, 3), (10.5, 2), (14.5, 1), (19.5, 2), (23.5, 1)]),
    (True, [(0.5, 3), (1.0, 2), (5.0, 1), (10.0, 2), (14.0, 1), (19.0, 3)]),
], ids=["nonpreemptive", "preemptive"])
def test_equal_deadlines_of_different_classes_start_in_arrival_order(preemptive, starts):
    """Classes 2 and 1 arrive in turn at t = 1, 2, 3, 4 with deadlines
    12, 12, 14, 14, behind a class-3 job (t = 0.5, 10 units, deadline
    1000.5).  Each equal-deadline pair starts in arrival order, class 2
    first, although class 1 has the smaller id; under preempt-resume
    the first class-2 customer displaces the class-3 job and no
    equal-deadline newcomer displaces the server."""
    spec = NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[2.0, 2.0], services={1: [5.0, 5.0]}, lead=10.0),
        scripted_class(2, (1,), gaps=[1.0, 2.0], services={1: [4.0, 4.0]}, lead=11.0),
        scripted_class(3, (1,), gaps=[0.5], services={1: [10.0]}, lead=1000.0),
    ))
    sim = new_sim(spec, seed=0, preemptive=preemptive)
    st = sim.stations[1]
    seen, token = [], st.token

    def record(s):
        nonlocal token
        if st.token != token:
            token = st.token
            seen.append((s.clock, st.serving.class_id))

    run_each(sim, 40.0, record)
    assert seen == starts
    assert queue_length(sim, 1) == 0


def test_departure_precedes_arrival_at_same_instant():
    """A transfer landing at the same instant as a fresh arrival is
    admitted first (departures sort before arrivals)."""
    spec = NetworkSpec(2, (
        scripted_class(1, (1, 2), gaps=[1.0], services={1: [4.0], 2: [2.0]},
                       lead=50.0),
        scripted_class(2, (2,), gaps=[5.0], services={2: [0.5]}, lead=1.0),
    ))
    sim = new_sim(spec, seed=0)
    run_until(sim, 6.0)
    assert queue_length(sim, 2) == 2
    # the transfer (deadline 51) was admitted at t=5, so the frontier
    # tracks it rather than the phantom 50
    assert station_frontier(sim, 2) == pytest.approx(51.0 - 6.0)
    stats = behind_frontier_stats(sim, 2)
    assert stats.count == 1  # the fresh deadline-6 customer waits behind


def test_transfers_are_instantaneous():
    spec = NetworkSpec(2, (
        scripted_class(1, (1, 2), gaps=[1.0], services={1: [2.0], 2: [3.0]},
                       lead=50.0),
    ))
    sim = new_sim(spec, seed=0)
    run_until(sim, 3.0)
    assert queue_length(sim, 1) == 0
    assert queue_length(sim, 2) == 1
    assert workload(sim, 2) == pytest.approx(3.0)


# -------- run_until semantics --------

def test_run_until_float_advances_clock_exactly():
    spec = single_class_station()
    sim = new_sim(spec, seed=0)
    n = run_until(sim, 2.5)
    assert n == 2 and sim.clock == 2.5
    with pytest.raises(ValueError):
        run_until(sim, 2.0)
    # a time that is not finite fails, naming it, before any event runs
    for bad, named in ((math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=rf"to {named} from 2\.5"):
            run_until(sim, bad)
        assert sim.clock == 2.5 and sim.events_processed == 2
    assert idleness(sim, 1) == 1.0


def test_advance_rejects_a_backwards_step():
    sim = new_sim(single_class_station(), seed=0)
    run_until(sim, 2.5)
    with pytest.raises(ValueError, match=r"to 1\.5 from 2\.5"):
        sim._advance(sim.clock - 1)
    assert sim.clock == 2.5
    sim._advance(sim.clock)
    assert sim.clock == 2.5


def test_run_until_on_empty_timeline():
    spec = NetworkSpec(1, (
        scripted_class(1, (1,), gaps=[], services={1: []}, lead=10.0),
    ))
    sim = new_sim(spec, seed=0)
    assert run_until(sim, 5.0) == 0
    assert sim.clock == 5.0
    assert class_frontier(sim, 1, 1) == pytest.approx(5.0)  # phantom decays
    assert workload(sim, 1) == 0.0
    assert netput(sim, 1) == pytest.approx(-5.0)
    assert idleness(sim, 1) == pytest.approx(5.0)
    assert utilization(sim, 1) == 0.0


# -------- workload identity and invariants on a random run --------

def crossing_spec(deadlines=(400.0, 300.0, 200.0, 100.0), lam=0.32):
    routes = [(1, 2), (2, 1), (1,), (2,)]
    classes = tuple(
        ClassSpec(id=i + 1, route=r, arrival_rate=lam,
                  lead_time=PointMass(float(d)))
        for i, (r, d) in enumerate(zip(routes, deadlines))
    )
    return NetworkSpec(2, classes)


def test_workload_identity_at_every_event():
    sim = new_sim(crossing_spec(), seed=42)

    def check(s):
        for j in (1, 2):
            assert workload(s, j) == pytest.approx(
                netput(s, j) + idleness(s, j), abs=1e-6)

    run_each(sim, 5000.0, check)
    check(sim)


class _Recount:
    """Called after every event: each station's pending heap holds flat
    (deadline, arrival index, customer) entries, its customers have
    distinct arrival indices, its running counters equal a recount from
    its pending heap and server, its frontier never moves back, its
    workload equals netput plus idleness, its workload and behind work
    are never negative and read exactly 0.0 when it holds nobody, or
    nobody behind, and its server holds the smallest (deadline, arrival
    index): since service started (non-preemptive) or right now
    (preempt-resume).  Counts the behind customers and the order checks
    it saw."""

    def __init__(self, sim):
        self.last_max = [-math.inf] * len(sim.stations)
        self.last_token = [st and st.token for st in sim.stations]
        self.behind_seen = self.order_checks = 0

    def __call__(self, s):
        for st in s.stations[1:]:
            held = [c for _, _, c in st.pending]
            assert st.pending == [(c.deadline, c.index, c) for c in held]
            behind = [c for c in held if c.deadline < st.max_admitted]
            present = held if st.serving is None else held + [st.serving]
            assert len({c.index for c in present}) == len(present)
            counts = [0] * len(st.class_counts)
            for c in present:
                counts[c.class_id] += 1
            assert st.pending_behind == len(behind)
            assert st.present == len(present)
            assert st.class_counts == counts
            assert st.serving_behind == (st.serving is not None and
                                         st.serving.deadline < st.max_admitted)
            assert st.max_admitted >= self.last_max[st.sid]
            self.last_max[st.sid] = st.max_admitted
            self.behind_seen += len(behind)

            j = st.sid
            work, stats = workload(s, j), behind_frontier_stats(s, j)
            # summed when read: exact, where a running sum would drift
            assert work >= 0.0 and stats.work >= 0.0
            assert present or work == 0.0
            assert stats.count or stats.work == 0.0
            drift = work - netput(s, j) - idleness(s, j)
            assert abs(drift) <= 1e-9 * max(1.0, s.clock)

            started = st.token != self.last_token[j]
            self.last_token[j] = st.token
            if st.serving is not None and (s.preemptive or started):
                first = (st.serving.deadline, st.serving.index)
                assert all(first < (c.deadline, c.index) for c in held)
                self.order_checks += bool(held)


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_station_counters_match_a_recount(random_network, preemptive):
    """The ``_Recount`` checks hold after every event of random runs."""
    rng = np.random.default_rng(2026 + preemptive)
    behind_seen = 0
    order_checks = 0
    for _ in range(6):
        sim = new_sim(random_network(rng), seed=int(rng.integers(0, 1000)),
                      preemptive=preemptive)
        recount = _Recount(sim)
        run_each(sim, 300.0, recount)
        behind_seen += recount.behind_seen
        order_checks += recount.order_checks
    assert behind_seen > 0  # the behind counters were exercised
    assert order_checks > 0  # and so was the order check


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_superseded_departures_are_counted_apart(random_network, preemptive):
    """``superseded`` counts the departures a preemption voided: none
    without preemption, and with it the events processed less those are
    the arrivals plus the completed services, recounted from every
    customer seen in a station after some event (a customer that has
    left has its route position at the route's end)."""
    rng = np.random.default_rng(7300 + preemptive)
    superseded = 0
    for _ in range(6):
        sim = new_sim(random_network(rng), seed=int(rng.integers(0, 1000)),
                      preemptive=preemptive)
        seen = {}

        def collect(s):
            for st in s.stations[1:]:
                for _, _, c in st.pending:
                    seen[id(c)] = c
                if st.serving is not None:
                    seen[id(st.serving)] = st.serving

        run_each(sim, 300.0, collect)
        served = sum(c.route_pos for c in seen.values())
        assert sim.events_processed - sim.superseded == len(seen) + served
        superseded += sim.superseded
    assert (superseded > 0) == preemptive


def _station_integrals(sim, j):
    """Station j's idle, present and behind integrals."""
    b = behind_frontier_stats(sim, j)
    return idleness(sim, j), b.present_count_integral, b.behind_count_integral


def _run_state(sim):
    return (sim.clock, sim.events_processed, snapshot_profiles(sim),
            tuple((workload(sim, j), class_counts(sim, j)) for j in sim.spec.stations))


def _integrals_agree(sim, ref):
    """Each station's lazily integrated idle, present and behind
    integrals equal the reference's to 1e-12 relative."""
    for j in sim.spec.stations:
        for lazy, want in zip(_station_integrals(sim, j), ref.integrals(j)):
            assert math.isclose(lazy, want, rel_tol=1e-12, abs_tol=0.0), \
                (j, sim.clock, lazy, want)


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_lazy_integrals_match_the_reference_integrator(random_network, preemptive):
    """The lazy integrals agree with the all-station reference
    integrator after every event and at each stop, and a run the
    reference follows is otherwise identical to a plain run."""
    rng = np.random.default_rng(4100 + preemptive)
    specs = [random_network(rng, max_stations=8, max_classes=8) for _ in range(6)]
    # the two overloaded 6-8 station networks of the golden streams
    specs += [_random_spec(np.random.default_rng(s), 8, 8) for s in (7, 10)]
    assert sum(spec.station_count >= 6 for spec in specs) >= 3
    assert {type(c.lead_time) for spec in specs for c in spec.classes} == {
        PointMass, Uniform, PiecewiseLinearCDF}
    for spec in specs:
        seed = int(rng.integers(0, 1000))
        followed = new_sim(spec, seed=seed, preemptive=preemptive)
        plain = new_sim(spec, seed=seed, preemptive=preemptive)
        ref = ReferenceIntegrator(followed)

        def follow(sim):
            ref(sim)
            _integrals_agree(sim, ref)

        for t in (80.0, 160.0, 240.0):
            run_each(followed, t, follow)
            ref(followed)
            run_until(plain, t)
            assert _run_state(followed) == _run_state(plain)
            _integrals_agree(plain, ref)


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_reading_stats_changes_nothing(preemptive):
    """Reading every accessor on every station after every event leaves
    the final values bit for bit those of a run read only at the end.
    An accessor that integrated a station up to the clock would split
    its sums into more intervals and change their rounding."""
    spec = _random_spec(np.random.default_rng(7), 8, 8)
    accessors = (idleness, utilization, mean_queue_length, behind_frontier_stats)

    def read_all(sim):
        return [[read(sim, j) for read in accessors] for j in sim.spec.stations]

    read = new_sim(spec, seed=7, preemptive=preemptive)
    run_each(read, 600.0, read_all)
    unread = new_sim(spec, seed=7, preemptive=preemptive)
    run_until(unread, 600.0)
    assert read.events_processed == unread.events_processed
    assert read_all(read) == read_all(unread)


def test_frontier_monotone_along_route_and_in_time():
    sim = new_sim(crossing_spec(), seed=3)
    last_abs = {}
    for t in range(50, 3001, 50):
        run_until(sim, float(t))
        # a class's downstream frontier can never pass its upstream one
        assert class_frontier(sim, 1, 1) >= class_frontier(sim, 1, 2) - 1e-9
        assert class_frontier(sim, 2, 2) >= class_frontier(sim, 2, 1) - 1e-9
        for key in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 2)]:
            absolute = class_frontier(sim, *key) + sim.clock
            assert absolute >= last_abs.get(key, -math.inf) - 1e-9
            last_abs[key] = absolute


def test_determinism_same_seed():
    a = new_sim(crossing_spec(), seed=11)
    b = new_sim(crossing_spec(), seed=11)
    run_until(a, 2000.0)
    run_until(b, 2000.0)
    assert a.events_processed == b.events_processed
    assert snapshot_profiles(a) == snapshot_profiles(b)
    for j in (1, 2):
        assert workload(a, j) == workload(b, j)
        assert station_frontier(a, j) == station_frontier(b, j)


def test_each_customer_carries_the_nth_draw_of_its_class_streams():
    """The n-th customer of class k arrives at the sum of the first n
    draws of stream (seed, 1, k, 0), its lead is the n-th draw of stream
    (seed, 2, k, 0), and at route station j its service is the n-th
    draw of stream (seed, 3, k, j): every stream is its own generator,
    read once per arrival of its class.  Class 1 visits stations 1 and
    2; over a thousand customers a class cross every seam of the
    growing blocks, the last at draw 1008, into the full blocks."""
    seed, block = 7, dists._BLOCK
    leads = {1: Uniform(50.0, 90.0),
             2: PiecewiseLinearCDF([(5.0, 0.2), (40.0, 0.7), (90.0, 1.0)])}
    spec = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.3, lead_time=leads[1],
                  service_rates={1: 2.0, 2: 3.0}),
        ClassSpec(id=2, route=(2,), arrival_rate=0.25, lead_time=leads[2],
                  service_rates=2.5),
    ))
    sim = new_sim(spec, seed=seed)
    seen = {}

    def collect(s):
        """Each customer's first sight, which is its arrival, and its
        remaining work at each station, which is the whole service
        draw: nothing preempts."""
        for st in s.stations[1:]:
            for c in [c for _, _, c in st.pending] + [st.serving]:
                if c is not None:
                    seen.setdefault(id(c), (s.clock, {}, c))[1][st.sid] = c.remaining

    run_each(sim, 4600.0, collect)

    def stream(purpose, k, j, draw_block):
        rng = np.random.default_rng(np.random.SeedSequence((seed, purpose, k, j)))
        return np.concatenate([draw_block(rng) for _ in range(2)]).tolist()

    for c in spec.classes:
        mine = sorted((v for v in seen.values() if v[2].class_id == c.id),
                      key=lambda v: v[2].index)
        assert block < len(mine) < 2 * block
        gaps = stream(1, c.id, 0, lambda rng: rng.exponential(1.0 / c.arrival_rate, block))
        lead = stream(2, c.id, 0, lambda rng: leads[c.id].sample(rng, block))
        service = {j: stream(3, c.id, j,
                             lambda rng: rng.exponential(1.0 / c.service_rate(j), block))
                   for j in c.route}
        t = 0.0
        for n, (arrival, services, customer) in enumerate(mine):
            t += gaps[n]
            assert arrival == t
            assert customer.deadline == t + lead[n]
            assert list(services) == list(c.route[:len(services)])
            assert services == {j: service[j][n] for j in services}
        assert sum(len(services) == len(c.route) for _, services, _ in mine) > block


def test_different_seeds_differ():
    a = new_sim(crossing_spec(), seed=11)
    b = new_sim(crossing_spec(), seed=12)
    run_until(a, 2000.0)
    run_until(b, 2000.0)
    assert (a.events_processed, workload(a, 1)) != (b.events_processed, workload(b, 1))


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_relabelling_permutes_the_run_and_nothing_else(preemptive):
    """Renaming stations by sigma and classes by tau permutes every
    per-station statistic and every class count, bit for bit.  Streams
    are keyed by class and station id, so the gaps and services are
    scripted and the leads are points; the scripted times are drawn
    once from a continuous law, so no two events tie and no tie-break
    by id can tell the two runs apart."""
    rng = np.random.default_rng(20261019)
    routes = {1: (1, 2, 3), 2: (2, 3), 3: (3, 1)}
    leads = {1: 30.0, 2: 20.0, 3: 10.0}
    scripts = {k: (rng.exponential(2.5, 400),
                   {j: rng.exponential(0.6, 400) for j in route})
               for k, route in routes.items()}
    sigma, tau = {1: 3, 2: 1, 3: 2}, {1: 2, 2: 3, 3: 1}

    def run(station, cls):
        spec = NetworkSpec(3, tuple(
            scripted_class(cls[k], tuple(station[j] for j in routes[k]), gaps=gaps,
                           services={station[j]: s for j, s in services.items()},
                           lead=leads[k], rate=0.4)
            for k, (gaps, services) in scripts.items()))
        sim = new_sim(spec, seed=0, preemptive=preemptive)
        run_until(sim, 400.0)
        return sim

    same = {1: 1, 2: 2, 3: 3}
    a, b = run(same, same), run(sigma, tau)
    assert a.events_processed == b.events_processed > 1000
    assert a.superseded == b.superseded and (a.superseded > 0) == preemptive
    for j in (1, 2, 3):
        s = sigma[j]
        assert behind_frontier_stats(a, j) == behind_frontier_stats(b, s)
        assert workload(a, j) == workload(b, s)
        assert idleness(a, j) == idleness(b, s)
        counts = class_counts(b, s)
        assert class_counts(a, j) == tuple(counts[tau[k] - 1] for k in (1, 2, 3))


def test_mm1_sanity():
    spec = NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(1.0)),
    ))
    sim = new_sim(spec, seed=5)
    run_until(sim, 2e4)
    assert utilization(sim, 1) == pytest.approx(0.5, abs=0.05)
    assert mean_queue_length(sim, 1) == pytest.approx(1.0, abs=0.35)


def test_deterministic_gaps_and_uniform_services():
    """Deterministic(2) arrivals at t = 2, 4, ... each bring one
    UniformLaw(0.5, 1.5) service, which ends before the next arrival:
    just after each arrival the workload is that customer's draw."""
    spec = NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(10.0),
                  interarrival=dists.Deterministic(2.0),
                  service_laws={1: dists.UniformLaw(0.5, 1.5)}),
    ))
    sim = new_sim(spec, seed=3)
    draws = []
    for k in range(1, 51):
        run_until(sim, 2.0 * k)
        assert queue_length(sim, 1) == 1
        draws.append(workload(sim, 1))
    assert all(0.5 <= d <= 1.5 for d in draws)
    assert len(set(draws)) == 50
    run_until(sim, 101.9)
    assert queue_length(sim, 1) == 0
    assert idleness(sim, 1) == pytest.approx(101.9 - sum(draws), abs=1e-9)


# -------- conditional sampling --------

def test_conditional_sample_exact_times_and_leads():
    sim = new_sim(single_class_station(), seed=0)
    res = conditional_sample(sim, TotalCounts({1: 2}),
                             threshold=0.5, count=3, horizon_cap=1e4)
    assert not res.exhausted
    assert [s.time for s in res.snapshots] == [2.5, 3.0, 11.5]
    assert res.snapshots[0].leads(1) == (98.5, 99.5)
    assert res.snapshots[1].leads(1) == (98.0, 99.0)  # state before the t=3 arrival
    assert res.snapshots[2].leads(1) == (90.5, 91.5)


def test_conditional_sample_multiple_hits_in_one_stretch():
    sim = new_sim(single_class_station(), seed=0)
    res = conditional_sample(sim, TotalCounts({1: 2}),
                             threshold=0.25, count=4, horizon_cap=1e4)
    assert [s.time for s in res.snapshots] == [2.25, 2.5, 2.75, 3.0]


def test_conditional_sample_local_time_persists_across_excursions():
    sim = new_sim(single_class_station(), seed=0)
    res = conditional_sample(sim, TotalCounts({1: 1}),
                             threshold=1.5, count=1, horizon_cap=1e4)
    # one unit accrues on [1, 2); the count reaches 1 again only at t=21
    assert [s.time for s in res.snapshots] == [21.5]
    assert res.snapshots[0].leads(1) == (81.5,)


def test_conditional_sample_horizon_partial():
    sim = new_sim(single_class_station(), seed=0)
    res = conditional_sample(sim, TotalCounts({1: 2}),
                             threshold=0.5, count=3, horizon_cap=2.7)
    assert res.exhausted
    assert [s.time for s in res.snapshots] == [2.5]
    assert sim.clock == 2.7


def test_conditional_sample_exact_vector_condition():
    sim = new_sim(two_class_station(), seed=0)
    res = conditional_sample(sim, ExactCounts({1: (1, 1)}),
                             threshold=1.0, count=2, horizon_cap=1e4)
    assert [s.time for s in res.snapshots] == [3.0, 4.0]
    assert res.snapshots[0].stations[1] == ((2, 9.0), (1, 98.0))


def test_conditional_sample_band_condition():
    sim = new_sim(single_class_station(), seed=0)
    res = conditional_sample(sim, CountBands({1: (1, 2)}),
                             threshold=2.5, count=1, horizon_cap=1e4)
    assert [s.time for s in res.snapshots] == [11.5]
    assert res.snapshots[0].leads(1) == (90.5, 91.5)


#: Bonferroni t bound: 7 degrees of freedom (8 seeds), 4 statistics,
#: family error 0.001 two-sided, so the 1 - 0.000125 quantile of t(7)
ORACLE_T_BOUND = 6.81


def test_conditional_sample_meets_the_exact_fifo_law():
    """Conditioned leads on an M/M/1 station against their exact law.

    The oracle covers one class with one point lead law only: that is
    the case where EDF is FIFO, so the n customers present are the last
    n arrivals and lead i is L - Gamma(i, mu) (``conftest.fifo_lead_cdf``).
    A random lead law or a second class lets EDF reorder customers.
    Here the mean lead is L - (n + 1) / (2 mu) = 24.5.  Four statistics
    (the mean lead and the CDF at 18, 20 and 22) are averaged per seed,
    and each seed-level batch mean must lie within a Bonferroni t bound
    of the exact value.  A newcomer never has the earlier deadline, so
    preemption never fires and both schedulers run the same events."""
    mu, lam, lead, n = 1.0, 0.9, 30.0, 10
    levels = (18.0, 20.0, 22.0)
    spec = NetworkSpec(1, (ClassSpec(id=1, route=(1,), arrival_rate=lam,
                                     lead_time=PointMass(lead), service_rates={1: mu}),))
    exact = np.array([lead - (n + 1) / (2 * mu), *fifo_lead_cdf(levels, n, mu, lead)])
    runs = {}
    for preemptive in (False, True):
        stats, streams = [], []
        for seed in range(1, 9):
            sim = new_sim(spec, seed=seed, preemptive=preemptive)
            res = conditional_sample(sim, TotalCounts({1: n}), threshold=5.0,
                                     count=200, horizon_cap=1e7)
            assert not res.exhausted
            leads = np.array([s.leads(1) for s in res.snapshots])
            stats.append([leads.mean(), *((leads <= y).mean() for y in levels)])
            streams.append((sim.events_processed, res.snapshots))
        stats = np.array(stats)
        t = (stats.mean(axis=0) - exact) / (stats.std(axis=0, ddof=1) / np.sqrt(len(stats)))
        assert np.all(np.abs(t) <= ORACLE_T_BOUND), t
        runs[preemptive] = streams
    assert runs[True] == runs[False]


def test_conditional_sample_validates_arguments():
    sim = new_sim(single_class_station(), seed=0)
    cond = TotalCounts({1: 2})
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=0.0, count=1, horizon_cap=10.0)
    # an infinite threshold would run every event up to horizon_cap
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            conditional_sample(sim, cond, threshold=bad, count=2, horizon_cap=5000.0)
    assert sim.events_processed == 0
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=1.0, count=0, horizon_cap=10.0)
    # a quota is a whole number of snapshots: 2.5 would have taken 3
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="count must be an integer"):
            conditional_sample(sim, cond, threshold=1.0, count=bad, horizon_cap=10.0)
    # a numpy integer is a whole number: the same quota as the int
    quotas = [conditional_sample(new_sim(single_class_station(), seed=0), cond, threshold=1.0,
                                 count=n, horizon_cap=1e4) for n in (2, np.int64(2))]
    assert quotas[0] == quotas[1] and len(quotas[0].snapshots) == 2
    with pytest.raises(ValueError, match=r"horizon_cap inf from 0\.0"):
        conditional_sample(sim, cond, threshold=1.0, count=1,
                           horizon_cap=math.inf)
    run_until(sim, 5.0)
    with pytest.raises(ValueError, match=r"horizon_cap 4\.0 from 5\.0"):
        conditional_sample(sim, cond, threshold=1.0, count=1, horizon_cap=4.0)
    assert sim.clock == 5.0 and sim.events_processed == 3


@pytest.mark.parametrize("build,problem", [
    (lambda: TotalCounts({1: -3}), "counts must be nonnegative"),
    (lambda: ExactCounts({1: (2, -1)}), "counts must be nonnegative"),
    (lambda: CountBands({1: (-1, 2)}), "bands must satisfy"),
    (lambda: CountBands({1: (3, 2)}), "bands must satisfy"),
    # int() would truncate these to a different condition
    (lambda: TotalCounts({1: 2.7}), r"count must be an integer, got 2\.7"),
    (lambda: TotalCounts({1.9: 2}), r"station id must be an integer, got 1\.9"),
    (lambda: ExactCounts({1: (2, 0.5)}), r"count must be an integer, got 0\.5"),
    (lambda: ExactCounts({np.float64(1.0): (2,)}), "station id must be an integer"),
    (lambda: CountBands({1: (1, "3")}), "count must be an integer, got '3'"),
    (lambda: CountBands({True: (1, 2)}), "station id must be an integer, got True"),
    # wrong shapes name the station and the value
    (lambda: CountBands({1: (1, 2, 3)}), r"^band at station 1 must be 2 counts, got \(1, 2, 3\)$"),
    (lambda: ExactCounts({1: 5}), r"^counts at station 1 must be a sequence, got 5$"),
    (lambda: TotalCounts([1, 2]), r"^a condition maps station ids to counts, got \[1, 2\]$"),
], ids=["total-negative", "exact-negative", "band-negative", "band-empty",
        "total-fraction", "total-fractional-station", "exact-fraction",
        "exact-float-station", "band-string", "band-bool-station",
        "band-triple", "exact-scalar", "total-list"])
def test_conditions_that_can_never_hold_are_rejected(build, problem):
    """Such a condition would run a sampler to its horizon for nothing."""
    with pytest.raises(ValueError, match=problem):
        build()


@pytest.mark.parametrize("condition,named", [
    (TotalCounts({2: 1}), "station 2"),
    (TotalCounts({0: 1}), "station 0"),
    (ExactCounts({1: (1, 1)}), "vector at station 1"),
    ("not a condition", "unsupported condition str"),
], ids=["station-above-J", "station-zero", "exact-length", "unsupported"])
def test_conditional_sample_checks_condition_against_network(condition, named):
    """One station and one class: each condition names something the
    network lacks and fails before any event is processed."""
    sim = new_sim(NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(1.0)),
    )), seed=1)
    with pytest.raises(ValidationError, match=named):
        conditional_sample(sim, condition, threshold=1.0, count=1, horizon_cap=100.0)
    assert sim.events_processed == 0


def test_total_counts_are_the_band_n_n():
    """A total of n is the band [n, n], read back as targets; it keeps
    its own repr and its own equality, and survives a pickle."""
    total = TotalCounts({np.int64(1): np.int64(2), 3: 0})
    assert isinstance(total, CountBands)
    assert total.bands == {1: (2, 2), 3: (0, 0)}
    assert total.targets == {1: 2, 3: 0}
    assert repr(total) == "TotalCounts(targets={1: 2, 3: 0})"
    assert total == TotalCounts({1: 2, 3: 0})
    assert total != CountBands({1: (2, 2), 3: (0, 0)})
    assert CountBands({1: (2, 2), 3: (0, 0)}) != total
    with pytest.raises(AttributeError):
        total.targets = {1: 5}
    with pytest.raises(dataclasses.FrozenInstanceError):
        total.x = 1
    total.targets[1] = 5  # changes a copy only
    assert total.targets == {1: 2, 3: 0}
    back = pickle.loads(pickle.dumps(total))
    assert type(back) is TotalCounts and back == total and repr(back) == repr(total)


def test_condition_totals():
    """The station totals a prediction inverts, as floats: vector sums,
    and band midpoints, which for a total of n is n itself."""
    cases = [
        (ExactCounts({1: (2, 3), 2: (0, 0)}), {1: 5.0, 2: 0.0}),
        (TotalCounts({1: 50, 2: 58}), {1: 50.0, 2: 58.0}),
        (CountBands({1: (5, 20), 2: (3, 4)}), {1: 12.5, 2: 3.5}),
    ]
    for condition, want in cases:
        got = condition.totals()
        assert got == want
        assert all(type(v) is float for v in got.values())


def _with_scripted_ties(spec, rng):
    """spec with whole-number scripted gaps and service times (some of
    them zero), so that several events often fall at one instant."""
    def script():
        return dists.Sequence(rng.integers(0, 4, size=12).astype(float),
                              float(rng.integers(1, 4)))
    return NetworkSpec(spec.station_count, tuple(
        dataclasses.replace(c, interarrival=script(),
                            service_laws={j: script() for j in c.route})
        for c in spec.classes))


def _conditions_met_by(sim, rng):
    """One condition of each kind that sim's present state meets, at a
    random nonempty set of its stations."""
    J = sim.spec.station_count
    listed = sorted(int(j) + 1 for j in
                    rng.choice(J, size=int(rng.integers(1, J + 1)), replace=False))
    totals = {j: queue_length(sim, j) for j in listed}
    return (ExactCounts({j: class_counts(sim, j) for j in listed}),
            TotalCounts(totals),
            CountBands({j: (max(0, n - 1), n + 1) for j, n in totals.items()}))


def _networks_and_conditions(random_network, rng, n, preemptive):
    """n (spec, seed, conditions) cases, every other one with scripted
    ties; the conditions are met by a probe run of the same network,
    so the run reaches them."""
    for i in range(n):
        spec = random_network(rng, max_stations=4, max_classes=4)
        if i % 2:
            spec = _with_scripted_ties(spec, rng)
        seed = int(rng.integers(0, 1000))
        probe = new_sim(spec, seed=seed + 1, preemptive=preemptive)
        run_until(probe, float(rng.uniform(5.0, 60.0)))
        yield spec, seed, _conditions_met_by(probe, rng)


def _holds(condition, sim):
    """The condition's predicate, written out."""
    if isinstance(condition, ExactCounts):
        return all(class_counts(sim, j) == vec for j, vec in condition.targets.items())
    if isinstance(condition, TotalCounts):
        return all(queue_length(sim, j) == n for j, n in condition.targets.items())
    return all(lo <= queue_length(sim, j) <= hi
               for j, (lo, hi) in condition.bands.items())


class _DistanceBound:
    """Called after every event: each condition's distance has moved by
    at most 2, the bound the batched sampler relies on, and it is 0
    exactly when the condition holds.  Counts the checks where it held
    and where it moved by exactly 2."""

    def __init__(self, sim, conditions):
        self.conditions = conditions
        self.last = [c.distance(sim) for c in conditions]
        self.held = self.moved_two = 0

    def __call__(self, s):
        for i, c in enumerate(self.conditions):
            d = c.distance(s)
            assert abs(d - self.last[i]) <= 2, (c, s.clock, self.last[i], d)
            assert (d == 0) == _holds(c, s)
            self.held += d == 0
            self.moved_two += abs(d - self.last[i]) == 2
            self.last[i] = d


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_condition_distance_moves_by_at_most_two(random_network, preemptive):
    """The ``_DistanceBound`` checks hold for each condition kind after
    every event of random runs."""
    rng = np.random.default_rng(6160 + preemptive)
    held = moved_two = 0
    for spec, seed, conditions in _networks_and_conditions(random_network, rng, 8,
                                                          preemptive):
        sim = new_sim(spec, seed=seed, preemptive=preemptive)
        bound = _DistanceBound(sim, conditions)
        run_each(sim, 200.0, bound)
        held += bound.held
        moved_two += bound.moved_two
    assert held > 0  # the equivalence was exercised both ways
    assert moved_two > 0  # and a bound of 1 would have been wrong


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_total_distance_is_the_band_distance(random_network, preemptive):
    """After every event of random runs, a total's distance, the
    distance of the band [n, n] and the L1 distance written out agree."""
    rng = np.random.default_rng(7270 + preemptive)
    seen = set()
    for spec, seed, (_, total, _) in _networks_and_conditions(random_network, rng, 6,
                                                              preemptive):
        band = CountBands({j: (n, n) for j, n in total.targets.items()})

        def check(s):
            want = sum(abs(queue_length(s, j) - n) for j, n in total.targets.items())
            assert total.distance(s) == band.distance(s) == want
            seen.add(want == 0)

        run_each(new_sim(spec, seed=seed, preemptive=preemptive), 200.0, check)
    assert seen == {False, True}


@pytest.mark.parametrize("lead", LEAD_KINDS)
@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
@given(net_seed=hs.integers(0, 2**32 - 1), seed=hs.integers(0, 999),
       ties=hs.booleans())
@settings(max_examples=6, deadline=None)
def test_invariants_at_every_event_on_generated_networks(preemptive, lead, net_seed,
                                                         seed, ties):
    """Every per-event check at once, on networks hypothesis draws
    (and shrinks, when one fails): the counter recount, the workload
    identity and EDF order (``_Recount``), the lazy integrals against
    the reference integrator, and the distance bound, with some runs on
    scripted whole-number times that tie."""
    rng = np.random.default_rng(net_seed)
    spec = valid_random_spec(rng, max_stations=4, max_classes=4, lead=lead)
    if ties:
        spec = _with_scripted_ties(spec, rng)
    probe = new_sim(spec, seed=seed + 1, preemptive=preemptive)
    run_until(probe, float(rng.uniform(5.0, 60.0)))
    sim = new_sim(spec, seed=seed, preemptive=preemptive)
    recount, ref = _Recount(sim), ReferenceIntegrator(sim)
    bound = _DistanceBound(sim, _conditions_met_by(probe, rng))

    def check(s):
        recount(s)
        ref(s)
        _integrals_agree(s, ref)
        bound(s)

    run_each(sim, 150.0, check)
    ref(sim)
    _integrals_agree(sim, ref)


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_batched_sampler_matches_a_check_after_every_event(random_network, preemptive):
    """conditional_sample, which runs ceil(d / 2) events between checks
    of its condition, gives the snapshots (bit for bit), clock, event
    count and exhausted flag of ``sample_every_event``, on random
    networks with and without scripted ties, for all condition kinds."""
    rng = np.random.default_rng(5150 + preemptive)
    outcomes = set()
    for spec, seed, conditions in _networks_and_conditions(random_network, rng, 12,
                                                          preemptive):
        for condition in conditions:
            args = dict(threshold=float(rng.uniform(0.05, 1.0)),
                        count=int(rng.integers(1, 30)), horizon_cap=500.0)
            batched = new_sim(spec, seed=seed, preemptive=preemptive)
            checked = new_sim(spec, seed=seed, preemptive=preemptive)
            got = conditional_sample(batched, condition, **args)
            want = sample_every_event(checked, condition, **args)
            assert repr(got) == repr(want)
            assert _run_state(batched) == _run_state(checked)
            outcomes.add((type(condition), got.exhausted, bool(got.snapshots)))
    # each kind both filled its quota and ran out with some snapshots
    for kind in (ExactCounts, TotalCounts, CountBands):
        assert {(kind, False, True), (kind, True, True)} <= outcomes


# -------- construction and lookups --------

def test_seed_validation():
    with pytest.raises(ValueError):
        new_sim(single_class_station(), seed=-1)
    with pytest.raises(ValueError):
        new_sim(single_class_station(), seed=1.5)
    # a bool is an int to isinstance, but True is not a seed
    for flag in (True, False):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            new_sim(single_class_station(), seed=flag)
    # a numpy integer is a whole number: stored as int, the same stream
    sims = [new_sim(single_class_station(), seed=seed) for seed in (3, np.int64(3))]
    assert type(sims[1].seed) is int
    for sim in sims:
        run_until(sim, 50.0)
    assert snapshot_profiles(sims[0]) == snapshot_profiles(sims[1])


def test_a_new_sim_holds_about_the_draws_it_reads():
    """A new simulation has read one gap per class, so its streams hold
    only their first, smallest blocks: on 64 one-station classes the
    live allocations made in dists.py stay under 256 KiB, where a full
    first block of gaps per class alone would take 64 x 8 KiB."""
    spec = NetworkSpec(1, tuple(
        ClassSpec(id=k, route=(1,), arrival_rate=0.01, lead_time=PointMass(5.0),
                  service_rates=1.0)
        for k in range(1, 65)))
    tracemalloc.start()
    try:
        sim = new_sim(spec, seed=1)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, dists.__file__)])
    finally:
        tracemalloc.stop()
    assert sim.clock == 0.0
    assert sum(s.size for s in held.statistics("filename")) < 256 * 1024


def test_frontier_lookup_validation():
    sim = new_sim(crossing_spec(), seed=0)
    with pytest.raises(ClassDoesNotVisitStation):
        class_frontier(sim, 3, 2)
    with pytest.raises(ValueError, match="station 5 is not in the network"):
        class_frontier(sim, 1, 5)


def class_1_frontier(sim, j):
    return class_frontier(sim, 1, j)


@pytest.mark.parametrize("j", [0, -1, 3])
@pytest.mark.parametrize("read", [
    workload, netput, idleness, utilization, queue_length, class_counts,
    mean_queue_length, station_frontier, behind_frontier_stats, class_1_frontier,
], ids=lambda read: read.__name__)
def test_station_accessors_reject_unknown_stations(read, j):
    """Stations are 1..J: a negative index must not wrap round to the
    last station, nor 0 or J + 1 fail some other way."""
    sim = new_sim(crossing_spec(), seed=0)
    run_until(sim, 500.0)
    with pytest.raises(ValueError, match=f"station {j} is not in the network"):
        read(sim, j)


def _predicted_mass(sim, j):
    model = count_model(sim.topology)
    return predict_profile(model, solve_frontiers(model, (50.0, 58.0)), j, 0.0)


def _theory_cdf(sim, j):
    model = count_model(sim.topology)
    return theory_cdf(model, solve_frontiers(model, (50.0, 58.0)), j, [0.0])


@pytest.mark.parametrize("bad", [True, 1.0, 2.0, np.float64(1.0), "1"], ids=repr)
@pytest.mark.parametrize("read", [
    workload, netput, idleness, utilization, queue_length, class_counts,
    mean_queue_length, station_frontier, behind_frontier_stats, class_1_frontier,
    lambda sim, k: class_frontier(sim, k, 1), _predicted_mass, _theory_cdf,
    lambda sim, j: traffic_intensity(sim.topology, j),
], ids=["workload", "netput", "idleness", "utilization", "queue_length",
        "class_counts", "mean_queue_length", "station_frontier",
        "behind_frontier_stats", "class_frontier-station", "class_frontier-class",
        "predict_profile", "theory_cdf", "traffic_intensity"])
def test_accessors_read_ids_as_integers(read, bad):
    """Station and class ids are integers: ``True == 1`` and ``2.0 == 2``
    must not pass for an id, nor a float index fail as a bare
    TypeError, so each raises a ValueError naming the value."""
    sim = new_sim(crossing_spec(), seed=0)
    run_until(sim, 500.0)
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(bad))}$"):
        read(sim, bad)
