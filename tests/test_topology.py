"""Tests for network validation and route combinatorics."""

import dataclasses
import itertools
import math
import re
from array import array

import numpy as np
import pytest

from edfnet import (
    ClassSpec,
    DisconnectedNetwork,
    EmptyStation,
    NetworkSpec,
    PiecewiseLinearCDF,
    PointMass,
    RouteRepeatsStation,
    TotalCounts,
    Uniform,
    WeightedModel,
    build_topology,
    conditional_sample,
    count_model,
    dists,
    new_sim,
    normalize_by_intensity,
    predict_profile,
    run_until,
    solve_frontiers,
    traffic_intensity,
    two_station_closed_form,
    work_model,
)
from edfnet.frontier import _in_crossing_domain
from conftest import admissible_permutations, in_piece, logged_solve, reaching


def crossing(deadlines=(400.0, 300.0, 200.0, 100.0), lam=0.32, mu=1.0):
    """Two stations; one class crossing each way plus one local class each."""
    routes = [(1, 2), (2, 1), (1,), (2,)]
    classes = tuple(
        ClassSpec(id=i + 1, route=r, arrival_rate=lam,
                  lead_time=PointMass(float(d)), service_rates=mu)
        for i, (r, d) in enumerate(zip(routes, deadlines))
    )
    return NetworkSpec(station_count=2, classes=classes)


def test_crossing_sets():
    topo = build_topology(crossing())
    assert topo.visiting[1] == frozenset({1, 2, 3})
    assert topo.visiting[2] == frozenset({1, 2, 4})


def test_reaching_empty_prefix():
    """Before any station is placed, each class waits at its route's
    first station, so the solver's first tables hold the classes that
    enter there."""
    model = count_model(build_topology(crossing()))
    for loads in ((50.0, 58.0), (100.0, 2.0)):
        _, _, tables = logged_solve(model, loads)
        assert tables[0] == {1: frozenset({1, 3}), 2: frozenset({2, 4})}


def test_reaching_after_first_station():
    """Placing one station moves on only the crossing class waiting
    there; the local class's route ends, and the class waiting at the
    other station stays."""
    model = count_model(build_topology(crossing()))
    sol, _, tables = logged_solve(model, (50.0, 58.0))
    assert sol.permutation == (1, 2)
    assert tables[1] == {2: frozenset({1, 2, 4})}
    sol, _, tables = logged_solve(model, (100.0, 2.0))
    assert sol.permutation == (2, 1)
    assert tables[1] == {1: frozenset({1, 2, 3})}


def test_reaching_matches_routes_on_random_networks(random_network):
    """At every stage of a solve, each unplaced station's table holds the
    classes that reach it through the placed stations, read from the
    routes, and each term's floor is the smallest placed value before
    its station on the class's route."""
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        topo = build_topology(random_network(rng))
        for model in (count_model(topo), work_model(topo)):
            for _ in range(3):
                sol, builds, tables = logged_solve(
                    model, rng.uniform(0.0, 40.0, topo.station_count))
                perm = sol.permutation
                for m, held in enumerate(tables):
                    assert held == {j: reaching(topo, j, perm[:m])
                                    for j in topo.spec.stations
                                    if j not in perm[:m] and reaching(topo, j, perm[:m])}
                for k, j, floor in builds:
                    route = topo.spec.class_by_id(k).route
                    assert floor == min((sol.frontiers[i - 1] for i in route[:route.index(j)]),
                                        default=math.inf)


def test_crossing_permutations():
    topo = build_topology(crossing())
    assert admissible_permutations(topo) == [(1, 2), (2, 1)]


def test_tandem_has_single_order():
    spec = NetworkSpec(3, (
        ClassSpec(id=1, route=(1, 2, 3), arrival_rate=0.5,
                  lead_time=PointMass(10.0)),
    ))
    topo = build_topology(spec)
    assert admissible_permutations(topo) == [(1, 2, 3)]


def test_fork_orders():
    """One entry station feeding two leaves: leaves in either order."""
    spec = NetworkSpec(3, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(10.0)),
        ClassSpec(id=2, route=(1, 3), arrival_rate=0.5, lead_time=PointMass(10.0)),
    ))
    topo = build_topology(spec)
    assert admissible_permutations(topo) == [(1, 2, 3), (1, 3, 2)]


def brute_force_orders(topo):
    """Admissibility checked directly from the routes, one prefix at a time."""
    routes = {c.id: c.route for c in topo.spec.classes}
    stations = list(topo.spec.stations)
    good = []
    for perm in itertools.permutations(stations):
        ok = True
        for m, j in enumerate(perm):
            placed = set(perm[:m])
            feeds = False
            for route in routes.values():
                if j in route:
                    before = route[: route.index(j)]
                    if set(before) <= placed:
                        feeds = True
                        break
            if not feeds:
                ok = False
                break
        if ok:
            good.append(perm)
    return good


def test_permutations_match_brute_force_on_random_networks(random_network):
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        spec = random_network(rng)
        topo = build_topology(spec)
        assert admissible_permutations(topo) == brute_force_orders(topo)


def test_route_repeat_rejected():
    spec = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2, 1), arrival_rate=0.5,
                  lead_time=PointMass(5.0)),
    ))
    with pytest.raises(RouteRepeatsStation):
        build_topology(spec)


def test_empty_station_rejected():
    spec = NetworkSpec(3, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(5.0)),
    ))
    with pytest.raises(EmptyStation):
        build_topology(spec)


def test_disconnected_network_rejected():
    spec = NetworkSpec(3, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(5.0)),
        ClassSpec(id=2, route=(3,), arrival_rate=0.5, lead_time=PointMass(5.0)),
    ))
    with pytest.raises(DisconnectedNetwork):
        build_topology(spec)


def test_route_out_of_range_rejected():
    spec = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(5.0)),
        ClassSpec(id=2, route=(2, 5), arrival_rate=0.5, lead_time=PointMass(5.0)),
    ))
    with pytest.raises(ValueError):
        build_topology(spec)


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec(id=0, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0))
    with pytest.raises(ValueError):
        ClassSpec(id=1, route=(), arrival_rate=0.5, lead_time=PointMass(5.0))
    with pytest.raises(ValueError, match="station ids must be positive"):
        ClassSpec(id=1, route=(1, 0), arrival_rate=0.5, lead_time=PointMass(5.0))
    with pytest.raises(ValueError):
        ClassSpec(id=1, route=(1,), arrival_rate=0.0, lead_time=PointMass(5.0))
    with pytest.raises(ValueError):
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0),
                  service_rates=-1.0)
    # per-station rates must cover the whole route
    with pytest.raises(ValueError):
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(5.0),
                  service_rates={1: 1.0})
    # integer fields name a value that is not a whole number, where
    # int() would have truncated it or range() failed without a name
    for make, named in [
        (lambda: one_class(route=(1.7,)), "station id must be an integer, got 1.7"),
        (lambda: one_class(route=("1",)), "station id must be an integer, got '1'"),
        (lambda: one_class(id=True), "class id must be an integer, got True"),
        (lambda: one_class(id=1.0), "class id must be an integer, got 1.0"),
        (lambda: one_class(service_rates={1.7: 2.0}), "station id must be an integer, got 1.7"),
        (lambda: one_class(service_rates={True: 2.0}), "station id must be an integer, got True"),
        (lambda: NetworkSpec(True, (one_class(),)), "station count must be an integer, got True"),
        (lambda: NetworkSpec(2.5, (one_class(),)), "station count must be an integer, got 2.5"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            make()
    # numpy integers are whole numbers, stored as int
    spec = NetworkSpec(np.int64(1), (one_class(id=np.int32(1), route=(np.int64(1),),
                                               service_rates={np.int64(1): 2.0}),))
    assert type(spec.station_count) is type(spec.classes[0].id) is int
    assert [type(j) for j in spec.classes[0].route] == [int]
    assert [type(j) for j in spec.classes[0].service_rates] == [int]


@pytest.mark.parametrize("make,field", [
    (lambda: one_class(arrival_rate=True), "class 1: arrival rate"),
    (lambda: one_class(arrival_rate="0.5"), "class 1: arrival rate"),
    (lambda: one_class(service_rates=True), "class 1: service rate"),
    (lambda: one_class(service_rates="2.5"), "class 1: service rate"),
    (lambda: one_class(service_rates={1: "3"}), "class 1: service rate"),
    (lambda: dists.Exponential(True), "rate"),
    (lambda: dists.Exponential("1"), "rate"),
    (lambda: dists.Deterministic(True), "value"),
    (lambda: dists.UniformLaw(0.0, "2"), "hi"),
    (lambda: dists.Sequence([1.0, True]), "value"),
    (lambda: dists.Sequence([1.0], then="2"), "then"),
    (lambda: PointMass(True), "point mass location"),
    (lambda: Uniform("0", 2.0), "uniform lo"),
    (lambda: PiecewiseLinearCDF([(0.0, 0.0), (1.0, True)]), "knot value"),
    (lambda: PiecewiseLinearCDF([("1", 1.0)]), "knot lead"),
])
def test_real_fields_reject_bools_and_strings(make, field):
    """Rates and law parameters are real numbers: ``float()`` would have
    read ``True`` as 1.0 and ``"2.5"`` as 2.5 without a word.  The
    error names the field and the value."""
    named = rf"^{re.escape(field)} must be a real number, got (True|'.*')$"
    with pytest.raises(ValueError, match=named):
        make()


def test_real_fields_store_floats():
    """Python and numpy reals are stored as floats."""
    cls = one_class(arrival_rate=np.float32(0.5), service_rates={1: np.int64(2)},
                    lead_time=Uniform(np.int64(0), 2),
                    interarrival=dists.Exponential(np.float32(0.5)))
    reals = [cls.arrival_rate, cls.service_rates[1], *cls.lead_time.knots[0],
             cls.interarrival.rate, PointMass(np.int64(3)).value,
             *dists.Sequence([1], then=2).values, dists.Sequence([1], then=2).then]
    assert [type(v) for v in reals] == [float] * len(reals)


def _crossing_model():
    return normalize_by_intensity(count_model(build_topology(crossing())))


def _sample(**limits):
    sim = new_sim(crossing(), seed=1)
    return conditional_sample(sim, TotalCounts({1: 1, 2: 1}), count=2,
                              **{"threshold": 1.0, "horizon_cap": 500.0, **limits})


def _run(until):
    sim = new_sim(crossing(), seed=1)
    return run_until(sim, until), sim.clock


_RATES, _DEADLINES = (0.32,) * 4, (400.0, 300.0, 200.0, 100.0)


# (argument as the error names it, a good value, the call with it replaced)
@pytest.mark.parametrize("what,good,call", [
    pytest.param("load at station 1", 50.0,
                 lambda v: solve_frontiers(_crossing_model(), (v, 58.0)),
                 id="solve_frontiers-loads"),
    pytest.param("frontier", 250.0,
                 lambda v: predict_profile(_crossing_model(), (v, 188.0), 1, 300.0),
                 id="predict_profile-frontiers"),
    pytest.param("rate of class 1", 0.32,
                 lambda v: two_station_closed_form((v, *_RATES[1:]), _DEADLINES, 50.0, 58.0),
                 id="closed_form-rates"),
    pytest.param("deadline of class 1", 400.0,
                 lambda v: two_station_closed_form(_RATES, (v, *_DEADLINES[1:]), 50.0, 58.0),
                 id="closed_form-deadlines"),
    pytest.param("load at station 1", 50.0,
                 lambda v: two_station_closed_form(_RATES, _DEADLINES, v, 58.0),
                 id="closed_form-loads"),
    pytest.param("weight for class 1 at station 1", 1.0,
                 lambda v: WeightedModel(_crossing_model().topology,
                                         {**_crossing_model().weights, (1, 1): v}),
                 id="WeightedModel-weight"),
    pytest.param("until", 200.0, _run, id="run_until-time"),
    pytest.param("threshold", 1.0, lambda v: _sample(threshold=v),
                 id="conditional_sample-threshold"),
    pytest.param("horizon_cap", 500.0, lambda v: _sample(horizon_cap=v),
                 id="conditional_sample-horizon_cap"),
])
@pytest.mark.parametrize("kind", ["string", "bool", "numpy"])
def test_call_arguments_read_like_spec_fields(what, good, call, kind):
    """A real call argument is read by ``errors._real`` as spec fields
    are: ``float()`` would have read ``"50.0"`` as 50.0 and ``True`` as
    1.0, so each raises ValueError naming the argument.  A numpy scalar
    gives the result of the float, bit for bit (repr shows each float's
    type and every digit)."""
    if kind == "numpy":
        assert repr(call(np.float64(good))) == repr(call(good))
        return
    bad = str(good) if kind == "string" else True
    named = rf"^{re.escape(what)} must be a real number, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=named):
        call(bad)


def test_class_spec_law_mean_must_match_rate():
    with pytest.raises(ValueError):
        ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0),
                  interarrival=dists.Deterministic(3.0))
    # matching mean is fine
    ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0),
              interarrival=dists.Deterministic(2.0))
    # scripted laws carry no mean and are accepted as-is
    ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0),
              interarrival=dists.Sequence([1.0, 2.0]))


@pytest.mark.parametrize("then", [0.0, -1.0, math.nan])
def test_sequence_tail_must_be_positive(then):
    """A zero tail would replay simultaneous events without end."""
    with pytest.raises(ValueError, match="then must be positive"):
        dists.Sequence([1.0], then)


def one_class(**fields):
    return ClassSpec(**{"id": 1, "route": (1,), "arrival_rate": 0.5,
                        "lead_time": PointMass(5.0), **fields})


@pytest.mark.parametrize("make", [
    pytest.param(lambda: dists.Exponential(0.0), id="exponential-zero"),
    pytest.param(lambda: dists.Exponential(-1.0), id="exponential-negative"),
    pytest.param(lambda: dists.Exponential(math.inf), id="exponential-inf"),
    pytest.param(lambda: dists.Exponential(math.nan), id="exponential-nan"),
    pytest.param(lambda: dists.Deterministic(0.0), id="deterministic-zero"),
    pytest.param(lambda: dists.Deterministic(math.inf), id="deterministic-inf"),
    pytest.param(lambda: dists.UniformLaw(-1.0, 1.0), id="uniform-negative"),
    pytest.param(lambda: dists.UniformLaw(2.0, 1.0), id="uniform-empty"),
    pytest.param(lambda: dists.UniformLaw(0.0, math.inf), id="uniform-inf"),
    pytest.param(lambda: dists.Sequence([1.0, -1.0]), id="sequence-negative"),
    pytest.param(lambda: dists.Sequence([1.0, math.nan]), id="sequence-nan"),
    pytest.param(lambda: one_class(arrival_rate=math.inf), id="arrival-inf"),
    pytest.param(lambda: one_class(arrival_rate=math.nan), id="arrival-nan"),
    pytest.param(lambda: one_class(service_rates=math.inf), id="service-inf"),
    pytest.param(lambda: one_class(service_rates={1: math.inf}), id="service-map-inf"),
    pytest.param(lambda: one_class(service_rates=math.nan), id="service-nan"),
])
def test_bad_law_parameters_rejected(make):
    """Rates are finite and positive, and scripted draws are >= 0 and
    not NaN: an infinite rate draws zero gaps forever, and a NaN time
    breaks the event order."""
    with pytest.raises(ValueError):
        make()


def test_sequence_infinite_draw_means_no_further_draw():
    draw = dists.Sequence([1.0, math.inf]).sampler(np.random.default_rng(0))
    assert [draw(), draw(), draw()] == [1.0, math.inf, math.inf]


_PIECEWISE = PiecewiseLinearCDF([(5.0, 0.2), (40.0, 0.7), (90.0, 1.0)])


@pytest.mark.parametrize("make_draw,block", [
    pytest.param(lambda rng: dists.Exponential(2.5).sampler(rng),
                 lambda rng, n: rng.exponential(1.0 / 2.5, n), id="exponential"),
    pytest.param(lambda rng: dists.UniformLaw(0.5, 3.0).sampler(rng),
                 lambda rng, n: rng.uniform(0.5, 3.0, n), id="uniform"),
    pytest.param(lambda rng: dists._blocks(lambda n: _PIECEWISE.sample(rng, n)).__next__,
                 _PIECEWISE.sample, id="piecewise"),
])
def test_block_sampler_draws_the_generator_blocks(make_draw, block):
    """A block sampler's draws are one large draw of the generator bit
    for bit, in order and across every seam of the growing blocks
    (after values 16, 48, 112, 240, 496, 1008, 2032 and 3056), each a
    Python float."""
    draw = make_draw(np.random.default_rng(11))
    want = block(np.random.default_rng(11), 4 * dists._BLOCK)
    got = [draw() for _ in range(len(want))]
    assert all(type(v) is float for v in got)
    assert array("d", got).tobytes() == want.tobytes()


def test_blocks_grow_from_the_first_read():
    """_blocks draws nothing until its first value is read, then asks
    for blocks of 16, 32, ..., 512 values and _BLOCK after that, each
    when the last runs out."""
    asked = []

    def draw_block(n):
        asked.append(n)
        return np.arange(n, dtype=np.float64)

    values = dists._blocks(draw_block)
    assert asked == []
    sizes = [16, 32, 64, 128, 256, 512, 1024, 1024]
    for i, size in enumerate(sizes):
        assert next(values) == 0.0
        assert asked == sizes[:i + 1]
        assert list(itertools.islice(values, size - 1)) == list(range(1, size))
    assert asked == sizes


def test_network_spec_requires_contiguous_ids():
    c1 = ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0))
    c3 = ClassSpec(id=3, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0))
    with pytest.raises(ValueError):
        NetworkSpec(1, (c1, c3))
    with pytest.raises(ValueError):
        NetworkSpec(0, ())


def test_class_by_id_lookup():
    c1 = ClassSpec(id=1, route=(1,), arrival_rate=0.5, lead_time=PointMass(5.0))
    c2 = ClassSpec(id=2, route=(1,), arrival_rate=0.3, lead_time=PointMass(7.0))
    spec = NetworkSpec(1, (c2, c1))
    assert spec.class_by_id(1) is c1 and spec.class_by_id(2) is c2
    with pytest.raises(KeyError):
        spec.class_by_id(3)
    # the lookup is not a field: equality, hashing and replace() ignore it
    assert spec == NetworkSpec(1, (c2, c1)) and hash(spec) == hash(NetworkSpec(1, (c2, c1)))
    assert dataclasses.replace(spec, classes=(c1,)).class_by_id(1) is c1
    assert [f.name for f in dataclasses.fields(spec)] == ["station_count", "classes"]


def _crossing_witness(topo, y):
    """The first domain piece of the crossing network that holds ``y``,
    or None, after checking that the closed form's piece test agrees."""
    d1, d2 = (c.lead_time.upper_support for c in topo.spec.classes[:2])
    want = next((pi for pi in ((1, 2), (2, 1)) if in_piece(topo, y, pi)), None)
    assert _in_crossing_domain(*y, d1, d2, 1e-9) == (want is not None), y
    return want


def test_domain_membership_crossing():
    topo = build_topology(crossing())
    assert _crossing_witness(topo, (400.0, 400.0)) == (1, 2)
    assert _crossing_witness(topo, (250.0, 188.0)) == (1, 2)
    assert _crossing_witness(topo, (100.0, 300.0)) == (2, 1)
    assert _crossing_witness(topo, (450.0, 100.0)) is None  # above every support
    # ordering violated in both directions is impossible for 2 stations,
    # but a value above the reachable bound for its stage is rejected:
    # along (2, 1) the first station's bound is max(300, 100) = 300
    assert _crossing_witness(topo, (100.0, 350.0)) is None


def test_domain_membership_tolerates_roundoff():
    topo = build_topology(crossing())
    assert _crossing_witness(topo, (200.0, 200.0 + 5e-10)) is not None
    assert _crossing_witness(topo, (400.0 + 5e-10, 100.0)) is not None


def test_traffic_intensity():
    topo = build_topology(crossing(lam=0.32, mu=1.0))
    assert traffic_intensity(topo, 1) == pytest.approx(0.96)
    assert traffic_intensity(topo, 2) == pytest.approx(0.96)
    mixed = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.4, lead_time=PointMass(9.0),
                  service_rates={1: 2.0, 2: 1.0}),
        ClassSpec(id=2, route=(2,), arrival_rate=0.3, lead_time=Uniform(1.0, 3.0),
                  service_rates=0.6),
    ))
    topo = build_topology(mixed)
    assert traffic_intensity(topo, 1) == pytest.approx(0.2)
    assert traffic_intensity(topo, 2) == pytest.approx(0.4 + 0.5)
    with pytest.raises(ValueError, match="station 2 is not in the network"):
        traffic_intensity(build_topology(NetworkSpec(1, (one_class(),))), 2)


def test_service_rate_lookup():
    c = ClassSpec(id=1, route=(1, 2), arrival_rate=0.4, lead_time=PointMass(9.0),
                  service_rates={1: 2.0, 2: 1.5})
    assert c.service_rate(1) == 2.0
    assert c.service_rate(2) == 1.5
    topo = build_topology(NetworkSpec(2, (c,)))
    assert topo.lead_dist(1) == PointMass(9.0)
