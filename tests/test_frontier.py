"""Tests for the frontier load map, its staged inversion, and the
two-station closed forms.

The numeric expectations here were derived by hand from the load
equations (integrated tails of point masses are just clipped linear
functions, so every case reduces to a small linear solve) and are
frozen as oracles.
"""

import math

import numpy as np
import pytest

from edfnet import (
    ClassSpec,
    NegativeWorkload,
    NetworkSpec,
    NoConsistentRegion,
    PointMass,
    SolverDivergence,
    Uniform,
    WeightedModel,
    ZeroIntensity,
    build_topology,
    count_model,
    frontier_loads,
    normalize_by_intensity,
    predict_profile,
    solve_frontiers,
    two_station_closed_form,
    work_model,
)
from edfnet import frontier
from edfnet.frontier import _stage_inverse, _Term
from edfnet.harness import theory_cdf
from conftest import fifo_lead_cdf, in_piece, reaching

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
    loads = frontier_loads(model, (80.0, 110.0))
    assert loads[0] == pytest.approx(60.0)
    assert loads[1] == pytest.approx(30.0)


def test_load_map_zero_above_supports():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    assert frontier_loads(model, (400.0, 400.0)) == pytest.approx([0.0, 0.0])


def test_load_map_rejects_wrong_length():
    model = crossing_model((400.0, 300.0, 200.0, 100.0))
    with pytest.raises(ValueError):
        frontier_loads(model, (1.0,))


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


def test_weighted_model_validation():
    topo = crossing_model((400.0, 300.0, 200.0, 100.0)).topology
    good = {(k, j): 1.0 for (k, j) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 2)]}
    WeightedModel(topo, good)
    with pytest.raises(ValueError):
        WeightedModel(topo, {kj: w for kj, w in good.items() if kj != (3, 1)})
    bad = dict(good)
    bad[(2, 2)] = 0.0
    with pytest.raises(ZeroIntensity):
        WeightedModel(topo, bad)


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
    back = frontier_loads(model, sol.frontiers)
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
    back = frontier_loads(model, sol.frontiers)
    assert back == pytest.approx([1e6, 1e6], rel=1e-9)


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


class _CubicTail:
    """A stub law whose integrated tail, (2 - y)^3 on its one piece
    [0, 2], is cubic where a piecewise-linear CDF's is quadratic."""

    def integrated_tail(self, y):
        return (2.0 - min(max(y, 0.0), 2.0)) ** 3

    def breakpoints(self):
        return (0.0, 2.0)


def test_stage_inverse_rejects_a_tail_it_cannot_solve_exactly():
    """The quadratic through the piece's ends and midpoint misses the
    cubic's root, and the stage solve says so instead of searching."""
    terms = [_Term(weight=1.0, dist=_CubicTail(), cap=0.0, cut=2.0)]
    with pytest.raises(SolverDivergence, match=r"\[0\.0, 2\.0\]"):
        _stage_inverse(terms, 4.0)


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
            loads = frontier_loads(model, y)
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
    reach set) pair along its permutation.  Besides random networks,
    a 16-station chain with four classes forking off station 1 keeps
    five stations reachable for many stages."""
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
            sol = solve_frontiers(model, rng.uniform(0.0, 40.0, spec.station_count))
            assert len(calls) == len(_distinct_stages(topo, sol.permutation))


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


def test_load_map_and_prediction_share_one_sum(random_network):
    """The load map is the prediction at -inf, the sequence form equals
    the scalar calls bit for bit, and theory_cdf is 1 - mass / total."""
    rng = np.random.default_rng(24680)
    levels = tuple(float(v) for v in np.linspace(-20.0, 620.0, 65))
    for _ in range(30):
        model = count_model(build_topology(random_network(rng, max_classes=12)))
        stations = model.topology.spec.stations
        sol = solve_frontiers(model, rng.uniform(0.0, 40.0, size=len(stations)))
        y = tuple(float(v) for v in rng.uniform(-50.0, 500.0, size=len(stations)))
        for fr in (sol.frontiers, y):
            loads = frontier_loads(model, fr)
            for j in stations:
                assert loads[j - 1] == predict_profile(model, fr, j, -math.inf)
        for j in stations:
            scalar = [predict_profile(model, sol, j, v) for v in levels]
            masses = predict_profile(model, sol, j, levels)
            assert isinstance(masses, np.ndarray) and len(masses) == len(levels)
            assert masses.tolist() == scalar
            total = predict_profile(model, sol, j, -math.inf)
            expected = [1.0 - m / total for m in scalar] if total > 0.0 else [1.0] * len(levels)
            assert theory_cdf(model, sol, j, levels).tolist() == expected


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
                terms = frontier._terms(model, j, topo.visiting[j], vals)
                top = max(t.cut for t in terms)
                levels = [-math.inf, floor - 25.0, math.nextafter(floor, -math.inf), floor,
                          math.nextafter(floor, math.inf), top, math.nextafter(top, -math.inf),
                          math.nextafter(top, math.inf), top + 25.0, math.inf, 0.0, -0.0]
                levels += [t.cut for t in terms]
                levels += [float(v) for v in rng.uniform(min(floor, top), max(floor, top), 6)]
                yield model, fr, j, levels, floor, top


def test_predict_profile_sequence_equals_one_level_bit_for_bit(random_network):
    """Saturated levels read the station total and levels above every
    cut read 0, bit for bit what the one-level form sums."""
    for model, fr, j, levels, _, _ in _saturation_cases(random_network):
        scalar = np.array([predict_profile(model, fr, j, v) for v in levels])
        assert predict_profile(model, fr, j, levels).tobytes() == scalar.tobytes()


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
        frontier_loads(model, (math.nan, 1.0))


# -------- two-station closed forms --------

CASE_A = ((THIRD,) * 4, (400.0, 300.0, 200.0, 100.0))


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
def test_closed_form_regions(loads, region, frontiers):
    rates, deadlines = CASE_A
    sol = two_station_closed_form(rates, deadlines, *loads)
    assert sol.region == region
    assert sol.frontiers == pytest.approx(frontiers, abs=1e-8)


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
    """Every candidate is checked against the exact load map, so when
    no candidate reproduces the loads the closed form says so."""
    rates, deadlines = CASE_A
    exact = frontier.frontier_loads
    monkeypatch.setattr(frontier, "frontier_loads", lambda model, y: exact(model, y) + 1.0)
    with pytest.raises(NoConsistentRegion):
        two_station_closed_form(rates, deadlines, 50.0, 58.0)
