"""Tests for the event-level simulator.

Most scenarios are fully scripted through ``dists.Sequence`` laws, so
arrival times, deadlines, and service times are known exactly and every
assertion is plain arithmetic done by hand.
"""

import math

import numpy as np
import pytest

from edfnet import (
    ClassDoesNotVisitStation,
    ClassSpec,
    CountBands,
    ExactCounts,
    NetworkSpec,
    PointMass,
    TotalCounts,
    ValidationError,
    behind_frontier_stats,
    class_counts,
    class_frontier,
    conditional_sample,
    dists,
    idleness,
    mean_queue_length,
    netput,
    new_sim,
    queue_length,
    run_until,
    snapshot_profiles,
    station_frontier,
    utilization,
    workload,
)


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
    # behind work: 3 units pending over [2, 6), then decaying 3..0 in service
    assert stats.behind_work_integral == pytest.approx(12.0 + 4.5)


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
    assert stats.behind_work_integral == pytest.approx(4.5)


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


def test_on_event_callback_sees_every_event():
    times = []
    sim = new_sim(single_class_station(), seed=0)
    run_until(sim, 12.0, on_event=lambda s: times.append(s.clock))
    assert times == [1.0, 2.0, 3.0, 11.0]


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

    run_until(sim, 5000.0, on_event=check)
    check(sim)


@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
def test_station_counters_match_a_recount(random_network, preemptive):
    """After every event, each station's running counters equal a
    recount from its pending heap and server, its frontier never moves
    back, its workload equals netput plus idleness, and its server holds
    the smallest key: since service started (non-preemptive) or right
    now (preempt-resume)."""
    rng = np.random.default_rng(2026 + preemptive)
    behind_seen = 0
    order_checks = 0
    for _ in range(6):
        sim = new_sim(random_network(rng), seed=int(rng.integers(0, 1000)),
                      preemptive=preemptive)
        last_max = [-math.inf] * len(sim.stations)
        last_token = [st and st.token for st in sim.stations]

        def recount(s):
            nonlocal behind_seen, order_checks
            for st in s.stations[1:]:
                held = [c for _, c in st.pending]
                behind = [c for c in held if c.deadline < st.max_admitted]
                present = held if st.serving is None else held + [st.serving]
                counts = [0] * len(st.class_counts)
                for c in present:
                    counts[c.class_id] += 1
                assert math.isclose(st.pending_work, sum(c.remaining for c in held),
                                    rel_tol=1e-9, abs_tol=1e-9)
                assert st.pending_behind == len(behind)
                assert math.isclose(st.pending_behind_work,
                                    sum(c.remaining for c in behind),
                                    rel_tol=1e-9, abs_tol=1e-9)
                assert st.present == len(present)
                assert st.class_counts == counts
                assert st.serving_behind == (st.serving is not None and
                                             st.serving.deadline < st.max_admitted)
                assert st.max_admitted >= last_max[st.sid]
                last_max[st.sid] = st.max_admitted
                behind_seen += len(behind)

                j = st.sid
                drift = workload(s, j) - netput(s, j) - idleness(s, j)
                assert abs(drift) <= 1e-9 * max(1.0, s.clock)

                started = st.token != last_token[j]
                last_token[j] = st.token
                if st.serving is not None and (preemptive or started):
                    assert all(st.serving.key <= c.key for c in held)
                    order_checks += bool(held)

        run_until(sim, 300.0, on_event=recount)
    assert behind_seen > 0  # the behind counters were exercised
    assert order_checks > 0  # and so was the order check


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


def test_different_seeds_differ():
    a = new_sim(crossing_spec(), seed=11)
    b = new_sim(crossing_spec(), seed=12)
    run_until(a, 2000.0)
    run_until(b, 2000.0)
    assert (a.events_processed, workload(a, 1)) != (b.events_processed, workload(b, 1))


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


def test_conditional_sample_validates_arguments():
    sim = new_sim(single_class_station(), seed=0)
    cond = TotalCounts({1: 2})
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=0.0, count=1, horizon_cap=10.0)
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=1.0, count=0, horizon_cap=10.0)
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=1.0, count=1,
                           horizon_cap=math.inf)
    run_until(sim, 5.0)
    with pytest.raises(ValueError):
        conditional_sample(sim, cond, threshold=1.0, count=1, horizon_cap=4.0)


@pytest.mark.parametrize("condition,named", [
    (TotalCounts({2: 1}), "station 2"),
    (TotalCounts({0: 1}), "station 0"),
    (ExactCounts({1: (1, 1)}), "vector at station 1"),
], ids=["station-above-J", "station-zero", "exact-length"])
def test_conditional_sample_checks_condition_against_network(condition, named):
    """One station and one class: each condition names something the
    network lacks and fails before any event is processed."""
    sim = new_sim(NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(1.0)),
    )), seed=1)
    with pytest.raises(ValidationError, match=named):
        conditional_sample(sim, condition, threshold=1.0, count=1, horizon_cap=100.0)
    assert sim.events_processed == 0


# -------- construction and lookups --------

def test_seed_validation():
    with pytest.raises(ValueError):
        new_sim(single_class_station(), seed=-1)
    with pytest.raises(ValueError):
        new_sim(single_class_station(), seed=1.5)


def test_frontier_lookup_validation():
    sim = new_sim(crossing_spec(), seed=0)
    with pytest.raises(ClassDoesNotVisitStation):
        class_frontier(sim, 3, 2)
    with pytest.raises(ClassDoesNotVisitStation):
        class_frontier(sim, 1, 5)
