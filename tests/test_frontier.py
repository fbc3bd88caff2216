"""Tests for the frontier load map, its staged inversion, and the
two-station closed forms.

The numeric expectations here were derived by hand from the load
equations (integrated tails of point masses are just clipped linear
functions, so every case reduces to a small linear solve) and are
frozen as oracles.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edfnet import (
    ClassSpec,
    FrontierSolution,
    NegativeWorkload,
    NetworkSpec,
    NoConsistentRegion,
    PiecewiseLinearCDF,
    PointMass,
    SolverDivergence,
    Uniform,
    WeightedModel,
    ZeroIntensity,
    build_topology,
    count_model,
    normalize_by_intensity,
    parse_config,
    predict_profile,
    solve_frontiers,
    traffic_intensity,
    two_station_closed_form,
    work_model,
)
from edfnet import frontier
from edfnet.frontier import _stage_inverse, _Term
from edfnet.harness import prediction_model, theory_cdf
from conftest import (fifo_lead_cdf, in_piece, logged_solve, reaching, station_loads,
                      valid_random_spec)

THIRD = 1.0 / 3.0


def crossing_model(deadlines, lam=THIRD):
    routes = [(1, 2), (2, 1), (1,), (2,)]
    classes = tuple(
        ClassSpec(id=i + 1, route=r, arrival_rate=lam,
                  lead_time=PointMass(float(d)))
        for i, (r, d) in enumerate(zip(routes, deadlines))
    )
    return count_model(build_topology(NetworkSpec(2, classes)))


# -------- the load map --------

def test_load_map_hand_case():
    """Station loads at a fixed frontier vector, worked by hand:
    station 1 sees classes 1-3 clipped at y=80 against upstream 110,
    station 2 sees only class 2 (class 1's tail is fully upstream)."""
    model = crossing_model((200.0, 200.0, 110.0, 100.0))
    loads = station_loads(model, (80.0, 110.0))
    assert loads[0] == pytest.approx(60.0)
    assert loads[1] == pytest.approx(30.0)


def test_load_map_zero_above_supports():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    assert station_loads(model, (400.0, 400.0)) == pytest.approx([0.0, 0.0])


def test_load_map_rejects_wrong_length():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    with pytest.raises(ValueError):
        station_loads(model, (1.0,))


# -------- weighted models --------

def test_count_and_work_model_weights():
    spec = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.4, lead_time=PointMass(9.0),
                  service_rates={1: 2.0, 2: 0.5}),
        ClassSpec(id=2, route=(2,), arrival_rate=0.3, lead_time=PointMass(5.0)),
    ))
    topo = build_topology(spec)
    cm = count_model(topo)
    assert cm.weights[(1, 1)] == pytest.approx(0.4)
    assert cm.weights[(1, 2)] == pytest.approx(0.4)
    wm = work_model(topo)
    assert wm.weights[(1, 1)] == pytest.approx(0.2)
    assert wm.weights[(1, 2)] == pytest.approx(0.8)
    assert wm.weights[(2, 2)] == pytest.approx(0.3)


def test_normalize_by_intensity():
    model = crossing_model((400.0, 300.0, 200.0, 100.0), lam=0.32)
    normed = normalize_by_intensity(model)
    # each station's intensity is 3 * 0.32 = 0.96
    assert normed.weights[(1, 1)] == pytest.approx(THIRD)
    assert normed.weights[(4, 2)] == pytest.approx(THIRD)
    # positive rates whose ratio underflows leave the station no offered load
    tiny = NetworkSpec(1, (ClassSpec(id=1, route=(1,), arrival_rate=1e-200,
                                     lead_time=PointMass(5.0), service_rates=1e200),))
    with pytest.raises(ZeroIntensity, match="station 1 has zero offered load"):
        normalize_by_intensity(count_model(build_topology(tiny)))


def test_weighted_model_validation():
    topo = crossing_model((400.0, 300.0, 200.0, 100.0)).topology
    good = {(k, j): 1.0 for (k, j) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 2)]}
    WeightedModel(topo, good)
    with pytest.raises(ValueError):
        WeightedModel(topo, {kj: w for kj, w in good.items() if kj != (3, 1)})
    for weight in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ZeroIntensity, match="class 2 at station 2 must be positive"):
            WeightedModel(topo, {**good, (2, 2): weight})


# -------- staged inversion: frozen cases --------

def test_solve_case_a():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    sol = solve_frontiers(model, (50.0, 58.0))
    assert sol.frontiers[0] == pytest.approx(250.0, abs=1e-9)
    assert sol.frontiers[1] == pytest.approx(188.0, abs=1e-9)
    assert sol.permutation == (1, 2)
    assert sol.stage_bounds == pytest.approx((400.0, 300.0))
    assert sol.residual <= 1e-9 * 58.0
    assert sol.loads == (50.0, 58.0)
    back = station_loads(model, sol.frontiers)
    assert back == pytest.approx([50.0, 58.0], abs=1e-9)


def test_solve_case_b():
    model = crossing_model((200.0, 200.0, 110.0, 100.0))
    sol = solve_frontiers(model, (60.0, 30.0))
    assert sol.frontiers == pytest.approx((80.0, 110.0), abs=1e-9)
    assert sol.permutation == (2, 1)
    assert sol.stage_bounds == pytest.approx((200.0, 200.0))


def test_solve_case_c():
    model = crossing_model((500.0, 100.0, 100.0, 100.0))
    sol = solve_frontiers(model, (50.0, 50.0))
    assert sol.frontiers == pytest.approx((350.0, 200.0), abs=1e-9)
    assert sol.permutation == (1, 2)
    assert sol.stage_bounds == pytest.approx((500.0, 350.0))


def test_solve_zero_loads_sits_on_bounds():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    sol = solve_frontiers(model, (0.0, 0.0))
    assert sol.frontiers == (400.0, 400.0)
    assert sol.residual == 0.0


def test_solve_symmetric_ties_to_smallest_station():
    model = crossing_model((400.0, 400.0, 400.0, 400.0))
    sol = solve_frontiers(model, (30.0, 30.0))
    assert sol.permutation == (1, 2)
    assert sol.frontiers == pytest.approx((355.0, 355.0), abs=1e-9)


def test_solve_huge_loads_extends_linearly():
    """Below every breakpoint the stage function is linear, so any
    finite load has a (possibly negative) solution."""
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    sol = solve_frontiers(model, (1e6, 1e6))
    assert sol.frontiers[0] < 0.0 and sol.frontiers[1] < 0.0
    back = station_loads(model, sol.frontiers)
    assert back == pytest.approx([1e6, 1e6], rel=1e-9)


def test_solve_rejects_a_frontier_that_overflows():
    """At rates of 1e-300 a load of 1e10 puts the frontier below
    -1e300: it overflows to -inf, and no infinite frontier passes as a
    solution on an infinite roundoff allowance.  The closed form says so
    by name too: no candidate divides by a product of rate sums, which
    would underflow to 0 here."""
    deadlines = (400.0, 300.0, 200.0, 100.0)
    with pytest.raises(SolverDivergence):
        solve_frontiers(crossing_model(deadlines, lam=1e-300), (1e10, 1e10))
    with pytest.raises(NoConsistentRegion):
        two_station_closed_form((1e-300,) * 4, deadlines, 1e10, 1e10)


def test_solve_validates_loads():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    with pytest.raises(NegativeWorkload):
        solve_frontiers(model, (-1.0, 5.0))
    with pytest.raises(NegativeWorkload):
        solve_frontiers(model, (math.nan, 5.0))
    with pytest.raises(NegativeWorkload):
        solve_frontiers(model, (math.inf, 5.0))
    with pytest.raises(ValueError):
        solve_frontiers(model, (1.0, 2.0, 3.0))


def test_package_attribute_is_the_solver_module():
    """``edfnet.frontier`` is the module, not a re-exported function."""
    import edfnet.frontier as fr

    assert fr.solve_frontiers is solve_frontiers


@pytest.mark.parametrize("dist,roots", [
    (Uniform(0.0, 2.0), (-1.0, 0.25, 0.5, 1.0, 1.5, 1.75)),
    (PiecewiseLinearCDF([(0.0, 0.0), (2.0, 0.5), (3.0, 1.0)]),
     (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.75)),
], ids=["uniform", "piecewise"])
def test_stage_inverse_returns_dyadic_roots_exactly(dist, roots):
    """The stage solve reads its quadratic from the law, so a target
    whose root is a dyadic rational gives that root bit for bit, on
    either side of a piece's midpoint and below the first knot."""
    terms = [_Term(weight=1.0, dist=dist, cap=0.0, cut=dist.upper_support)]
    for y in roots:
        assert _stage_inverse(terms, dist.integrated_tail(y)) == (y, dist.upper_support)


def test_residual_check_catches_a_wrong_stage_slope(monkeypatch):
    """A law that reports twice its CDF slope sends the stage solve to
    the wrong root, and the solver's own residual check says so."""
    model = count_model(build_topology(NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=1.0, lead_time=Uniform(0.0, 2.0)),))))
    assert solve_frontiers(model, (0.25,)).frontiers == (1.0,)
    survival_below = PiecewiseLinearCDF.survival_below

    def doubled(self, y):
        surv, slope = survival_below(self, y)
        return surv, 2.0 * slope

    monkeypatch.setattr(PiecewiseLinearCDF, "survival_below", doubled)
    with pytest.raises(SolverDivergence, match=r"^inversion residual .* at station 1$"):
        solve_frontiers(model, (0.25,))


# -------- round trip on random networks --------

def test_round_trip_on_random_networks(random_network, domain_vector):
    rng = np.random.default_rng(987654)
    for i in range(25):
        spec = random_network(rng)
        topo = build_topology(spec)
        model = work_model(topo) if i % 2 else count_model(topo)
        if i % 3 == 0:
            model = normalize_by_intensity(model)
        for _ in range(8):
            y = domain_vector(topo, rng)
            loads = station_loads(model, y)
            sol = solve_frontiers(model, loads)
            scale = max(1.0, max(abs(v) for v in y))
            assert max(abs(a - b) for a, b in zip(sol.frontiers, y)) <= 1e-8 * scale
            assert in_piece(topo, sol.frontiers, sol.permutation)


def _distinct_stages(topo, perm):
    """The (station, reach set) pairs met by unplaced stations along perm."""
    return {(j, reaching(topo, j, perm[:m]))
            for m in range(len(perm)) for j in topo.spec.stations
            if j not in perm[:m] and reaching(topo, j, perm[:m])}


def test_each_stage_solved_once_per_reach_set(random_network, monkeypatch):
    """A station's stage is solved again only when its reach set has
    grown, so one solve runs one stage inverse per distinct (station,
    reach set) pair along its permutation, and builds each (class,
    station) term at most once.  Besides random networks, a 16-station
    chain with four classes forking off station 1 keeps five stations
    reachable for many stages."""
    calls = []

    def counting(terms, target):
        calls.append(target)
        return _stage_inverse(terms, target)

    monkeypatch.setattr(frontier, "_stage_inverse", counting)
    chain_fork = NetworkSpec(16, (
        ClassSpec(id=1, route=tuple(range(1, 17)), arrival_rate=0.3,
                  lead_time=Uniform(100.0, 300.0)),
        *(ClassSpec(id=k, route=(1, j), arrival_rate=0.2, lead_time=PointMass(60.0 * k))
          for k, j in ((2, 5), (3, 9), (4, 13), (5, 16)))))
    rng = np.random.default_rng(20261018)
    specs = [random_network(rng, max_stations=6, max_classes=8) for _ in range(30)]
    for spec in specs + [chain_fork]:
        topo = build_topology(spec)
        for model in (count_model(topo), normalize_by_intensity(work_model(topo))):
            calls.clear()
            sol, builds, _ = logged_solve(model, rng.uniform(0.0, 40.0, spec.station_count))
            assert len(calls) == len(_distinct_stages(topo, sol.permutation))
            assert len(builds) == len({(k, j) for k, j, _ in builds})


def test_solver_witnesses_its_own_domain_piece(random_network):
    """The stage loop checks its own order: the solver's output on
    random networks and loads lies in the piece of its permutation by
    the brute-force oracle."""
    assert solve_frontiers(crossing_model((400.0, 300.0, 200.0, 100.0)),
                           (50.0, 58.0)).frontiers == pytest.approx((250.0, 188.0))
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        topo = build_topology(random_network(rng, max_stations=6, max_classes=8))
        for model in (count_model(topo), normalize_by_intensity(work_model(topo))):
            sol = solve_frontiers(model, rng.uniform(0.0, 40.0, topo.station_count))
            assert in_piece(topo, sol.frontiers, sol.permutation)


def test_stage_loop_rejects_a_rising_value(monkeypatch):
    """On a two-station chain station 1 is placed first, at 60; a stage
    inverse that then puts station 2 above it fails by station."""
    model = count_model(build_topology(NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(100.0)),))))
    assert solve_frontiers(model, (20.0, 10.0)).frontiers == (60.0, 40.0)
    calls = []

    def rising(terms, target):
        value, bound = _stage_inverse(terms, target)
        calls.append(value)
        return (value + 50.0 if len(calls) > 1 else value), bound

    monkeypatch.setattr(frontier, "_stage_inverse", rising)
    with pytest.raises(SolverDivergence, match=r"^station 2 placed at 90\.0, above 60\.0$"):
        solve_frontiers(model, (20.0, 10.0))


# -------- profile prediction --------

def test_predict_profile_case_a():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    sol = solve_frontiers(model, (50.0, 58.0))
    # at the station frontier and below, prediction saturates at the load
    assert predict_profile(model, sol, 2, -math.inf) == pytest.approx(58.0, abs=1e-9)
    assert predict_profile(model, sol, 2, 188.0) == pytest.approx(58.0, abs=1e-9)
    # above it, only class 2's tail above 250 remains: (300 - 250) / 3
    assert predict_profile(model, sol, 2, 250.0) == pytest.approx(50.0 / 3.0, abs=1e-9)
    assert predict_profile(model, sol, 2, 300.0) == 0.0
    assert predict_profile(model, sol, 1, 400.0) == 0.0
    # a raw frontier sequence works in place of the solution object
    assert predict_profile(model, (250.0, 188.0), 1, -math.inf) == pytest.approx(50.0, abs=1e-9)


def test_predict_profile_is_nonincreasing_in_level():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    sol = solve_frontiers(model, (50.0, 58.0))
    for j in (1, 2):
        levels = np.linspace(-10.0, 420.0, 87)
        masses = [predict_profile(model, sol, j, float(y)) for y in levels]
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def _load_from_routes(model, fr, j):
    """Station j's load at frontier vector fr, written from the routes:
    over the visiting classes in ascending id, the weight times the
    class's integrated tail at fr[j] less its tail at its floor (the
    smallest frontier before j on its route), clipped at 0."""
    total = 0.0
    for c in sorted(model.topology.spec.classes, key=lambda c: c.id):
        if j not in c.route:
            continue
        k = c.id
        floor = min((fr[i - 1] for i in c.route[:c.route.index(j)]), default=math.inf)
        tail = c.lead_time.integrated_tail
        total += model.weights[(k, j)] * max(0.0, tail(fr[j - 1]) - tail(floor))
    return total


def test_load_map_and_prediction_share_one_sum(random_network):
    """The prediction at -inf is the load map written from the routes,
    bit for bit, the sequence form equals the scalar calls bit for bit,
    and theory_cdf is 1 - mass / total."""
    rng = np.random.default_rng(24680)
    levels = tuple(float(v) for v in np.linspace(-20.0, 620.0, 65))
    for _ in range(30):
        model = count_model(build_topology(random_network(rng, max_classes=12)))
        stations = model.topology.spec.stations
        sol = solve_frontiers(model, rng.uniform(0.0, 40.0, size=len(stations)))
        y = tuple(float(v) for v in rng.uniform(-50.0, 500.0, size=len(stations)))
        for fr in (sol.frontiers, y):
            loads = station_loads(model, fr)
            for j in stations:
                assert loads[j - 1] == _load_from_routes(model, fr, j)
        for j in stations:
            scalar = [predict_profile(model, sol, j, v) for v in levels]
            masses = predict_profile(model, sol, j, levels)
            assert isinstance(masses, np.ndarray) and len(masses) == len(levels)
            assert masses.tolist() == scalar
            total = predict_profile(model, sol, j, -math.inf)
            expected = [1.0 - m / total for m in scalar] if total > 0.0 else [1.0] * len(levels)
            assert theory_cdf(model, sol, j, levels).tolist() == expected


def test_station_sums_add_classes_in_ascending_id():
    """Station 2 is visited by classes {1, 3, 4, 8}, a set that iterates
    as 8, 1, 3, 4.  The rates and the frontier vector are chosen so that
    the two addition orders round differently, and both the offered load
    and the prediction at -inf add their terms in ascending class id,
    bit for bit."""
    assert list(frozenset({1, 3, 4, 8})) == [8, 1, 3, 4]
    routes = {1: (1, 2), 3: (2,), 4: (2,), 8: (2,)}
    rates = {1: 0.1, 3: 0.2, 4: 0.3, 8: 0.15}
    spec = NetworkSpec(2, tuple(
        ClassSpec(id=k, route=routes.get(k, (1,)), arrival_rate=rates.get(k, 0.1),
                  lead_time=PointMass(10.0 - k))
        for k in range(1, 9)))
    model = count_model(build_topology(spec))
    fr = (3.0, 0.5)

    def added(order, term):
        total = 0.0
        for k in order:
            total += term(k)
        return total

    def mass(k):
        floor = fr[0] if k == 1 else math.inf
        return rates[k] * (max(0.0, 10.0 - k - fr[1]) - max(0.0, 10.0 - k - floor))

    ascending, hashed = (1, 3, 4, 8), (8, 1, 3, 4)
    for term, got in ((rates.get, traffic_intensity(model.topology, 2)),
                      (mass, predict_profile(model, fr, 2, -math.inf))):
        assert added(ascending, term) != added(hashed, term)
        assert got == added(ascending, term)


@pytest.mark.parametrize("n", [10, 40, 160, 640])
def test_single_station_limit_rate(n):
    """The paper's limit as a rate on one M/M/1 station, with no
    simulation.  With one ``PointMass(L)`` class, L = 2n, and the
    normalised count model, the prediction at load n is uniform on
    [L - n / mu, L].  The exact finite-n law (``conftest.fifo_lead_cdf``)
    lies sup ~ 1 / sqrt(2 pi n) from it, so sqrt(n) times the sup gap
    on a 4001-point grid tends to 1 / sqrt(2 pi) = 0.39894."""
    mu, lead = 1.0, 2.0 * n
    spec = NetworkSpec(station_count=1, classes=(ClassSpec(
        id=1, route=(1,), arrival_rate=0.9, lead_time=PointMass(lead),
        service_rates={1: mu}),))
    model = normalize_by_intensity(count_model(build_topology(spec)))
    sol = solve_frontiers(model, [float(n)])
    grid = np.linspace(0.0, lead, 4001)
    theory = theory_cdf(model, sol, 1, grid)
    assert theory == pytest.approx(np.clip((grid - (lead - n / mu)) * mu / n, 0.0, 1.0))
    gap = np.max(np.abs(fifo_lead_cdf(grid, n, mu, lead) - theory))
    assert math.sqrt(n) * gap == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=0.005)


def _saturation_cases(random_network):
    """(model, frontiers, station, levels) on 40 random networks under
    the count and work models.  The levels cover -inf, below the station
    frontier, exactly at it and one ulp either side, live levels, every
    class cut, the top cut and one ulp either side, above it, +inf, 0.0
    and -0.0."""
    rng = np.random.default_rng(97531)
    for _ in range(40):
        topo = build_topology(random_network(rng, max_stations=5, max_classes=8))
        for model in (count_model(topo), work_model(topo)):
            fr = solve_frontiers(model, rng.uniform(0.0, 40.0, topo.station_count)).frontiers
            for j in topo.spec.stations:
                floor = fr[j - 1]
                vals = dict(zip(topo.spec.stations, fr))
                terms = frontier._terms(model, j, vals)
                top = max(t.cut for t in terms)
                levels = [-math.inf, floor - 25.0, math.nextafter(floor, -math.inf), floor,
                          math.nextafter(floor, math.inf), top, math.nextafter(top, -math.inf),
                          math.nextafter(top, math.inf), top + 25.0, math.inf, 0.0, -0.0]
                levels += [t.cut for t in terms]
                levels += [float(v) for v in rng.uniform(min(floor, top), max(floor, top), 6)]
                yield model, fr, j, levels, floor, top


def test_predict_profile_sequence_equals_one_level_bit_for_bit(random_network):
    """One level gives a float, bit for bit the sequence form's entry:
    the station total at or below the frontier, 0 at or above every cut,
    and the summed terms in between."""
    for model, fr, j, levels, _, _ in _saturation_cases(random_network):
        scalar = [predict_profile(model, fr, j, v) for v in levels]
        assert {type(v) for v in scalar} == {float}
        assert predict_profile(model, fr, j, levels).tobytes() == np.array(scalar).tobytes()


def test_predict_profile_sums_only_live_levels(random_network, monkeypatch):
    """A sequence of levels sums the terms once for the saturated total
    and once per level strictly between the frontier and the top cut."""
    calls = []
    mass_above = frontier._mass_above

    def counting(terms, y):
        calls.append(y)
        return mass_above(terms, y)

    monkeypatch.setattr(frontier, "_mass_above", counting)
    for model, fr, j, levels, floor, top in _saturation_cases(random_network):
        calls.clear()
        predict_profile(model, fr, j, levels)
        live = sum(floor < v < top for v in levels)
        assert len(calls) <= live + 1


@given(net_seed=st.integers(0, 2**32 - 1), work=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_predict_profile_matches_the_per_level_reference(net_seed, work, data):
    """On random networks and solutions, levels unsorted, repeated,
    infinite, on the frontier and on the cuts give, bit for bit, the
    per-level reference: the station total at or below the frontier, 0
    at or above the top cut, and the summed terms in between.  A list,
    a tuple and an array give the same array; a scalar or a 0-d array
    gives a float; a NaN anywhere raises."""
    rng = np.random.default_rng(net_seed)
    topo = build_topology(valid_random_spec(rng, max_stations=5, max_classes=8))
    model = work_model(topo) if work else count_model(topo)
    fr = solve_frontiers(model, rng.uniform(0.0, 40.0, topo.station_count)).frontiers
    j = data.draw(st.integers(1, topo.station_count), label="station")
    terms = frontier._terms(model, j, dict(zip(topo.spec.stations, fr)))
    floor, top = fr[j - 1], max(t.cut for t in terms)
    total = frontier._mass_above(terms, floor)
    marks = [floor, top, math.nextafter(floor, math.inf), math.nextafter(top, -math.inf),
             *(t.cut for t in terms), math.inf, -math.inf, 0.0, -0.0]
    level = st.one_of(st.sampled_from(marks),
                      st.floats(min(floor, top) - 50.0, max(floor, top) + 50.0))
    levels = data.draw(st.lists(level, max_size=30), label="levels")
    if levels:
        levels += data.draw(st.lists(st.sampled_from(levels), max_size=5), label="repeats")

    def reference(v):
        return total if v <= floor else 0.0 if v >= top else frontier._mass_above(terms, v)

    want = np.array([reference(v) for v in levels], dtype=float).tobytes()
    for form in (levels, tuple(levels), np.array(levels, dtype=float)):
        assert predict_profile(model, fr, j, form).tobytes() == want
    for v in levels[:4]:
        for form in (v, np.float64(v), np.array(v)):
            got = predict_profile(model, fr, j, form)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(reference(v)).tobytes()
    at = data.draw(st.integers(0, len(levels)), label="nan position")
    with pytest.raises(ValueError, match="NaN"):
        predict_profile(model, fr, j, levels[:at] + [math.nan] + levels[at:])


def test_predict_profile_validates_input():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    with pytest.raises(ValueError):
        predict_profile(model, (250.0, 188.0), 7, 0.0)
    with pytest.raises(ValueError):
        predict_profile(model, (250.0,), 1, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        predict_profile(model, (math.nan, 188.0), 1, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        predict_profile(model, (250.0, 188.0), 1, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        predict_profile(model, (250.0, 188.0), 1, (0.0, math.nan))
    with pytest.raises(ValueError, match="NaN"):
        station_loads(model, (math.nan, 1.0))
    # a bool among numbers too, at any depth, which np.asarray would have read as 1.0
    for levels in (["300"], "300", True, [True, False], (True, 300.0), [[True, 300.0]]):
        with pytest.raises(ValueError, match="levels must be real numbers"):
            predict_profile(model, (250.0, 188.0), 1, levels)


# -------- the solver's own tables --------

DESK = pathlib.Path(__file__).resolve().parent.parent / "configs" / "desk_experiment.yaml"


def _predictions(model, solution, levels):
    """Each station's prediction at ``levels``, as bytes."""
    return [predict_profile(model, solution, j, levels).tobytes()
            for j in model.topology.spec.stations]


def _reuse_cases(random_network):
    """(model, loads, levels): the desk's prediction model at the desk
    totals and at three drawn load vectors, then the count and work
    models of 20 random networks at drawn loads.  The levels hold -inf,
    +inf, every frontier and 40 drawn levels."""
    rng = np.random.default_rng(24680)
    cfg = parse_config(DESK)
    desk = prediction_model(cfg)
    for loads in [(50.0, 58.0), *rng.uniform(0.0, 120.0, (3, 2)).tolist()]:
        yield desk, loads, cfg.grid
    for _ in range(20):
        topo = build_topology(random_network(rng, max_stations=5, max_classes=8))
        loads = rng.uniform(0.0, 40.0, topo.station_count).tolist()
        for model in (count_model(topo), work_model(topo)):
            yield model, loads, rng.uniform(-50.0, 150.0, 40).tolist()


def _levels(levels, solution):
    return [-math.inf, math.inf, *solution.frontiers, *levels]


def test_prediction_from_the_solution_equals_the_tuple_path(random_network):
    """A solution predicts, bit for bit, what its bare frontier tuple
    predicts, whether the model is the one it was solved for, an equal
    model object or, for a solution of the count model, the work model."""
    for model, loads, levels in _reuse_cases(random_network):
        sol = solve_frontiers(model, loads)
        at = _levels(levels, sol)
        want = _predictions(model, sol.frontiers, at)
        assert _predictions(model, sol, at) == want
        assert _predictions(WeightedModel(model.topology, model.weights), sol, at) == want
        topo = model.topology
        work = work_model(topo)
        count_sol = solve_frontiers(count_model(topo), loads)
        at = _levels(levels, count_sol)
        assert _predictions(work, count_sol, at) == _predictions(work, count_sol.frontiers, at)


def test_replaced_solution_predicts_from_its_own_frontiers(random_network):
    """``dataclasses.replace`` gives a solution that predicts from its new
    frontiers, not from the tables kept for the old ones; the kept tables
    change neither equality nor repr."""
    for model, loads, levels in _reuse_cases(random_network):
        sol = solve_frontiers(model, loads)
        other = solve_frontiers(model, [2.0 * v + 1.0 for v in loads])
        moved = dataclasses.replace(sol, frontiers=other.frontiers)
        at = _levels(levels, sol) + _levels(levels, other)
        assert _predictions(model, moved, at) == _predictions(model, other.frontiers, at)
        assert _predictions(model, moved, at) != _predictions(model, sol, at)
        assert moved == dataclasses.replace(other, permutation=sol.permutation,
                                            stage_bounds=sol.stage_bounds,
                                            residual=sol.residual, loads=sol.loads)
        fields = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}
        assert sol == FrontierSolution(**fields)
        assert repr(sol) == repr(FrontierSolution(**fields))


def test_theory_cdf_on_the_solvers_model_builds_no_table(monkeypatch):
    """On the model it was solved for, ``theory_cdf`` builds no term and
    reads no frontier vector back; an equal model object builds each
    station's table, to the same curves."""
    cfg = parse_config(DESK)
    model = prediction_model(cfg)
    sol = solve_frontiers(model, (50.0, 58.0))
    built, read = [], []
    term, station_frontiers = frontier._term, frontier._station_frontiers
    monkeypatch.setattr(frontier, "_term", lambda *args: built.append(args) or term(*args))
    monkeypatch.setattr(frontier, "_station_frontiers",
                        lambda *args: read.append(args) or station_frontiers(*args))
    stations = model.topology.spec.stations
    curves = [theory_cdf(model, sol, j, cfg.grid).tobytes() for j in stations]
    assert built == [] and read == []
    other = WeightedModel(model.topology, model.weights)
    assert [theory_cdf(other, sol, j, cfg.grid).tobytes() for j in stations] == curves
    assert len(built) == sum(len(model.topology.visiting[j]) for j in stations)
    assert len(read) == len(stations)


# -------- two-station closed forms --------

CASE_A = ((THIRD,) * 4, (400.0, 300.0, 200.0, 100.0))
REGIONS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")


@pytest.mark.parametrize(
    "loads,region,frontiers",
    [
        ((2.0, 2.0), "I", (394.0, 388.0)),
        ((40.0, 2.0), "II", (287.0, 294.0)),
        ((2.0, 40.0), "III", (394.0, 287.0)),
        ((2.0, 200.0), "IV", (394.0, 194.0 / 3.0)),
        ((80.0, 40.0), "V", (180.0, 180.0)),
        ((80.0, 60.0), "VI", (180.0, 150.0)),
        ((160.0, 80.0), "VII", (200.0 / 3.0, 80.0)),
        ((80.0, 120.0), "VIII", (180.0, 220.0 / 3.0)),
    ],
)
def test_closed_form_regions(loads, region, frontiers, monkeypatch):
    """Each region's hand-solved frontiers, with one table per station
    built for each candidate tried, in order, up to the one returned."""
    rates, deadlines = CASE_A
    tables = []
    exact = frontier._terms
    monkeypatch.setattr(frontier, "_terms", lambda *args: tables.append(args[1]) or exact(*args))
    sol = two_station_closed_form(rates, deadlines, *loads)
    assert sol.region == region
    assert sol.frontiers == pytest.approx(frontiers, abs=1e-8)
    assert len(tables) == 2 * (REGIONS.index(region) + 1)


def test_closed_form_matches_oracle_cases():
    sol = two_station_closed_form(*CASE_A, 50.0, 58.0)
    assert sol.region == "III"
    assert sol.frontiers == pytest.approx((250.0, 188.0), abs=1e-9)
    sol = two_station_closed_form((THIRD,) * 4, (200.0, 200.0, 110.0, 100.0), 60.0, 30.0)
    assert sol.region == "V"
    assert sol.frontiers == pytest.approx((80.0, 110.0), abs=1e-9)
    sol = two_station_closed_form((THIRD,) * 4, (500.0, 100.0, 100.0, 100.0), 50.0, 50.0)
    assert sol.region == "I"
    assert sol.frontiers == pytest.approx((350.0, 200.0), abs=1e-9)


def test_closed_form_agrees_with_staged_solver():
    rng = np.random.default_rng(13579)
    configs = [
        CASE_A,
        ((0.5, 0.25, 0.25, 0.5), (400.0, 380.0, 100.0, 90.0)),
        ((0.2, 0.6, 0.3, 0.4), (300.0, 290.0, 280.0, 270.0)),
    ]
    for rates, deadlines in configs:
        model = crossing_model(deadlines, lam=1.0)
        model = WeightedModel(
            model.topology,
            {(k, j): rates[k - 1] for (k, j) in model.weights},
        )
        top = max(deadlines) * sum(rates)
        for _ in range(80):
            q1 = float(rng.uniform(0.0, 0.8 * top))
            q2 = float(rng.uniform(0.0, 0.8 * top))
            closed = two_station_closed_form(rates, deadlines, q1, q2)
            staged = solve_frontiers(model, (q1, q2))
            scale = max(1.0, q1, q2)
            assert max(abs(a - b) for a, b in
                       zip(closed.frontiers, staged.frontiers)) <= 1e-8 * scale


def test_closed_form_domain_is_the_crossing_pieces():
    """The closed form's piece test agrees with the brute-force piece
    oracle over both orders of the crossing network, on a grid that
    holds d1, d2 and points 0.5, 1 and 1.5 atol to either side.  The
    crossing cases and the roundoff slack are checked in test_topology."""
    inside = frontier._in_crossing_domain
    atol = 1e-9
    for deadlines in ((400.0, 300.0, 200.0, 100.0), (300.0, 300.0, 100.0, 100.0),
                      (250.0, 120.0, 120.0, 5.0)):
        topo = crossing_model(deadlines).topology
        d1, d2 = deadlines[:2]
        grid = {d + s * atol for d in (d1, d2) for s in (0, 0.5, 1, 1.5, -0.5, -1, -1.5)}
        grid |= {0.0, 0.5 * d2, 0.5 * (d1 + d2), 1.5 * d1}
        for a in grid:
            for b in grid:
                want = any(in_piece(topo, (a, b), pi, atol) for pi in ((1, 2), (2, 1)))
                assert inside(a, b, d1, d2, atol) == want, (deadlines, a, b)


def test_closed_form_validates_input():
    rates, deadlines = CASE_A
    with pytest.raises(ValueError):
        two_station_closed_form(rates[:3], deadlines, 1.0, 1.0)
    with pytest.raises(ValueError):
        two_station_closed_form(rates, (100.0, 200.0, 50.0, 10.0), 1.0, 1.0)
    with pytest.raises(ZeroIntensity):
        two_station_closed_form((0.0, THIRD, THIRD, THIRD), deadlines, 1.0, 1.0)
    with pytest.raises(NegativeWorkload):
        two_station_closed_form(rates, deadlines, -1.0, 1.0)
    with pytest.raises(NegativeWorkload, match="station 1"):
        two_station_closed_form(rates, deadlines, math.nan, 5.0)
    with pytest.raises(NegativeWorkload, match="station 2"):
        two_station_closed_form(rates, deadlines, 5.0, math.inf)


def test_closed_form_without_a_consistent_candidate(monkeypatch):
    """Every candidate is checked by the solvers' one fit check, so when
    no candidate reproduces the loads the closed form says so."""
    rates, deadlines = CASE_A
    exact = frontier._fit
    monkeypatch.setattr(frontier, "_fit", lambda model, y, loads: [
        (miss + 1.0, *rest) for miss, *rest in exact(model, y, loads)])
    with pytest.raises(NoConsistentRegion):
        two_station_closed_form(rates, deadlines, 50.0, 58.0)


@pytest.mark.parametrize("station", [1, 2])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_both_solvers_read_loads_alike(bad, station):
    """A bad load fails the same way in both solvers, naming its station."""
    rates, deadlines = CASE_A
    loads = [5.0, 5.0]
    loads[station - 1] = bad
    errors = []
    for solve in (lambda: solve_frontiers(crossing_model(deadlines), loads),
                  lambda: two_station_closed_form(rates, deadlines, *loads)):
        with pytest.raises(NegativeWorkload, match=f"station {station}") as info:
            solve()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_both_solvers_return_float_frontiers():
    """Loads given as numpy scalars come back as frontiers of type float."""
    rates, deadlines = CASE_A
    loads = (np.float64(50.0), 58.0)
    for frontiers in (solve_frontiers(crossing_model(deadlines), loads).frontiers,
                      two_station_closed_form(rates, deadlines, *loads).frontiers):
        assert [type(v) for v in frontiers] == [float, float]


# -------- roundoff at extreme magnitudes --------

def _log_uniform_crossing(rng):
    """One crossing-network input at extreme magnitudes, each value
    log-uniform: rates in [1e-6, 1e3], deadlines of magnitude
    [1e-3, 1e9] and either sign, sorted nonincreasing, and loads in
    [1e-12, 1e14]."""
    rates = tuple(float(v) for v in 10.0 ** rng.uniform(-6.0, 3.0, 4))
    signs = rng.choice((-1.0, 1.0), 4)
    deadlines = sorted((float(v) for v in signs * 10.0 ** rng.uniform(-3.0, 9.0, 4)),
                       reverse=True)
    loads = tuple(float(v) for v in 10.0 ** rng.uniform(-12.0, 14.0, 2))
    return rates, tuple(deadlines), loads


def _assert_reproduces(model, frontiers, loads):
    """Every station's load at ``frontiers`` is the requested one to
    within the roundoff allowance of the station's sum there."""
    vals = dict(zip(model.topology.spec.stations, frontiers))
    back = station_loads(model, frontiers)
    for j, y in vals.items():
        terms = frontier._terms(model, j, vals)
        assert abs(back[j - 1] - loads[j - 1]) <= frontier._roundoff(terms, y)[0], (j, vals)


def _solve_crossing_both_ways(rates, deadlines, loads):
    """Both solvers on one crossing input.  Each answers and reproduces
    both loads within the allowance, and the two agree to 64 ulps of the
    largest deadline or frontier.  Returns the closed form's answer."""
    model = count_model(build_topology(frontier._crossing_spec(rates, deadlines)))
    staged = solve_frontiers(model, loads).frontiers
    closed = two_station_closed_form(rates, deadlines, *loads)
    for y in (staged, closed.frontiers):
        _assert_reproduces(model, y, loads)
    scale = max(abs(v) for v in (*deadlines, *staged, *closed.frontiers))
    assert max(abs(a - b) for a, b in zip(staged, closed.frontiers)) <= frontier._ULPS * scale
    return closed


@pytest.mark.parametrize("rates,deadlines,loads", [
    # both solvers raised: station 2 sits 0.048 below 3.45e7, where one
    # ulp of level is 2.5e-6 of load
    ((666.1, 0.0436, 0.0490, 117.2), (3.45e7, 8.19e5, -131.8, -131.8), (0.0, 32.2)),
    # the closed form returned region V, whose station-2 load is 22 % off
    ((375.0, 4.84e-6, 0.132, 1.07e-6), (3499.0, 0.045, -545.0, -930.0), (7.83e13, 13516.0)),
    # the closed form returned region IV, whose station-1 load is 21,203,092
    ((2.934, 1.148e-4, 1.813e-3, 9.196), (3.532e-3, -0.0791, -1235.0, -6.498e5),
     (2.119e7, 1.677e13)),
], ids=["both-raised", "wrong-region-V", "wrong-region-IV"])
def test_solvers_at_extreme_magnitudes(rates, deadlines, loads):
    """Inputs whose roundoff the load-scaled tolerances misjudged."""
    _solve_crossing_both_ways(rates, deadlines, loads)


def _rescaled(spec, shift=0.0, time=1.0, rate=1.0):
    """``spec`` with every lead knot moved from y to time * y + shift and
    every arrival rate times ``rate``."""
    return NetworkSpec(spec.station_count, tuple(
        dataclasses.replace(c, arrival_rate=rate * c.arrival_rate, lead_time=PiecewiseLinearCDF(
            [(time * y + shift, g) for y, g in c.lead_time.knots]))
        for c in spec.classes))


EXTREME = settings(max_examples=12, deadline=None, derandomize=True)


@given(net_seed=st.integers(0, 2**32 - 1), sign=st.sampled_from((-1.0, 1.0)),
       log_shift=st.floats(0.0, 9.0), log_time=st.floats(-3.0, 6.0),
       log_rate=st.floats(-6.0, 3.0))
@EXTREME
def test_frontiers_follow_shifts_and_scalings(net_seed, sign, log_shift, log_time, log_rate):
    """On random networks with loads from 1e-12 to 1e6: shifting every
    deadline by c shifts the frontiers by c, scaling time by s (leads
    and loads) scales them by s, and scaling the rates by r with the
    loads leaves them unchanged, each to 64 ulps of the levels
    involved."""
    rng = np.random.default_rng(net_seed)
    spec = valid_random_spec(rng, max_stations=4, max_classes=5)
    loads = 10.0 ** rng.uniform(-12.0, 6.0, spec.station_count)
    c, s, r = sign * 10.0 ** log_shift, 10.0 ** log_time, 10.0 ** log_rate
    top = max(k.lead_time.upper_support for k in spec.classes)

    def solve(network, load_vector):
        return solve_frontiers(count_model(build_topology(network)), load_vector).frontiers

    # each case: the frontiers, the expected ones, and the largest lead
    base = solve(spec, loads)
    for got, want, lead in [
        (solve(_rescaled(spec, shift=c), loads), [y + c for y in base], top + abs(c)),
        (solve(_rescaled(spec, time=s), s * loads), [s * y for y in base], s * top),
        (solve(_rescaled(spec, rate=r), r * loads), base, top),
    ]:
        for a, b in zip(got, want):
            assert abs(a - b) <= frontier._ULPS * (abs(b) + lead), (a, b)


@given(seed=st.integers(0, 2**32 - 1))
@EXTREME
def test_closed_form_agrees_with_staged_solver_at_extreme_magnitudes(seed):
    _solve_crossing_both_ways(*_log_uniform_crossing(np.random.default_rng(seed)))


@pytest.mark.slow
def test_solvers_agree_on_a_log_uniform_sweep():
    """1,000 crossing inputs at extreme magnitudes, between them in all
    eight closed-form regions: neither solver fails and the two never
    disagree."""
    rng = np.random.default_rng(5)
    regions = {_solve_crossing_both_ways(*_log_uniform_crossing(rng)).region
               for _ in range(1000)}
    assert regions == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
