"""Frontier equations: from observed loads to lead-time frontiers.

Under deadline-ordered service, the customers present at a station
stack up behind a moving *frontier*: the lead time of the most urgent
customer the station has ever served.  In a critically loaded network
the station's load pins the frontier vector down exactly: the load seen
at station j equals a weighted sum over visiting classes of integrated
lead-time tails, clipped between the station's own frontier and the
smallest frontier among the class's upstream stations.

That sum is written once: ``_term`` builds one class's term from its
row of the topology's visit table and its weight, ``_terms`` a
station's table of them, floors read from the rows' route prefixes,
and ``_mass_above`` evaluates a table at a lead level.
``solve_frontiers`` inverts it station by station, placing at each
stage the station whose stage-local inverse is largest and checking
that the values do not rise along the order it builds;
``predict_profile`` evaluates it above a level, giving the predicted
queue mass that the experiment harness compares against simulated
profiles (at -inf, the station load), and sums the terms only at
levels strictly between the frontier and the top cut.

All of this is exact piecewise-polynomial arithmetic: every lead-time
law is a piecewise-linear CDF, whose integrated tail is piecewise
quadratic, so a stage inverse is a breakpoint scan and the root of a
quadratic whose coefficients the laws give.  Its roundoff scales with
weight times level, not with the load.
Both solvers read loads by ``_read_loads`` and check a frontier vector
by ``_fit``: per station, one table gives the miss and its ``_roundoff``.
The staged solver keeps those final tables on its solution, and
``predict_profile`` reads them when given the model they were built
for, so a prediction from the solver's own model builds no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import (
    NegativeWorkload,
    NoConsistentRegion,
    SolverDivergence,
    ZeroIntensity,
    _echo,
    _positive,
    _real,
    _reals,
)
from .leadtime import LeadTimeDist, PointMass
from .topology import (
    ClassSpec,
    NetworkSpec,
    Topology,
    _station_id,
    build_topology,
    traffic_intensity,
)

__all__ = [
    "WeightedModel",
    "FrontierSolution",
    "TwoStationSolution",
    "count_model",
    "work_model",
    "normalize_by_intensity",
    "solve_frontiers",
    "predict_profile",
    "two_station_closed_form",
]


# -------- weighted models --------

@dataclass(frozen=True)
class WeightedModel:
    """A topology plus one positive weight per (class, station) visit.

    With weights equal to arrival rates the frontier map returns
    customer counts; with arrival rate over service rate it returns
    workloads.  Any other weights are stored as floats if positive and
    finite; others raise ZeroIntensity.
    """

    topology: Topology
    weights: Mapping[Tuple[int, int], float]

    def __post_init__(self):
        w = dict(self.weights)
        for j, row in self.topology.visiting.items():
            for k in row:
                if (k, j) not in w:
                    raise ValueError(f"missing weight for class {k} at station {j}")
                w[(k, j)] = _positive(w[(k, j)], f"weight for class {k} at station {j}",
                                      ZeroIntensity)
        object.__setattr__(self, "weights", w)


def count_model(topo: Topology) -> WeightedModel:
    """Weights = arrival rates: the map returns queue counts."""
    w = {(c.id, j): c.arrival_rate for c in topo.spec.classes for j in c.route}
    return WeightedModel(topo, w)


def work_model(topo: Topology) -> WeightedModel:
    """Weights = arrival rate / service rate: the map returns workloads."""
    w = {(c.id, j): c.arrival_rate / c.service_rate(j)
         for c in topo.spec.classes for j in c.route}
    return WeightedModel(topo, w)


def normalize_by_intensity(model: WeightedModel) -> WeightedModel:
    """Divide each station's weights by that station's offered load.

    At critical load the intensity is 1 and this is a no-op; below it,
    the division compensates for the gap so that predicted totals match
    observed ones.
    """
    topo = model.topology
    rho = {j: traffic_intensity(topo, j) for j in topo.spec.stations}
    for j, r in rho.items():
        if not r > 0.0:
            raise ZeroIntensity(f"station {j} has zero offered load")
    w = {(k, j): wv / rho[j] for (k, j), wv in model.weights.items()}
    return WeightedModel(topo, w)


# -------- mass above a level --------

class _Term(NamedTuple):
    weight: float
    dist: LeadTimeDist
    cap: float    # tail already drained by upstream stations
    cut: float    # lead level above which the term vanishes


def _term(model: WeightedModel, k: int, j: int, floor: float) -> _Term:
    """Class k's term at station j, clipped at ``floor``: the smallest
    frontier it clears before j, or +inf (tail zero) if it enters here."""
    dist = model.topology.visiting[j][k][0].lead_time
    return _Term(model.weights[(k, j)], dist, dist.integrated_tail(floor),
                 min(dist.upper_support, floor))


def _terms(model: WeightedModel, j: int, y: Mapping[int, float]) -> List[_Term]:
    """Terms at station j in ascending class id.  Each visiting class's
    floor is the smallest level ``y`` (station -> level) gives the
    stations before j on its route, the rule the stage loop walks."""
    return [_term(model, k, j, min((y[i] for i in before), default=math.inf))
            for k, (_, before) in model.topology.visiting[j].items()]


def _mass_above(terms: List[_Term], y: float) -> float:
    """Weighted tail mass above level y, each class clipped at its floor."""
    total = 0.0
    for w, dist, cap, cut in terms:
        if y < cut:
            total += w * (dist.integrated_tail(y) - cap)
    return total


_ULPS = 64 * 2.220446049250313e-16   # 64 ulps of 1.0


def _roundoff(terms: List[_Term], y: float) -> Tuple[float, float]:
    """How far ``_mass_above(terms, y)`` may stray from the exact sum by
    rounding alone, in load and in levels: 64 ulps of w * (|y| + |cut|
    + cap) summed over the terms active at y or whose cut lies within
    that term's allowance of y (a level that rounds onto a cut), and
    that over their summed weight.  Both are 0 where no term counts
    (the sum is exactly 0) or a level or cut is infinite (no answer
    lies within roundoff of an overflow)."""
    total = weight = 0.0
    for w, _, cap, cut in terms:
        size = abs(y) + abs(cut) + cap
        if y - cut <= _ULPS * size:
            total += w * size
            weight += w
    if weight == 0.0 or total == math.inf:
        return 0.0, 0.0
    return _ULPS * total, _ULPS * total / weight


def _fit(model: WeightedModel, y: Mapping[int, float],
         loads: Sequence[float]) -> List[Tuple[float, float, float, List[_Term]]]:
    """Per station, the miss |``_mass_above`` - load| of frontier vector y
    (station -> level), its ``_roundoff`` allowances, and the one table
    all three are read from."""
    tables = ((j, _terms(model, j, y)) for j in model.topology.spec.stations)
    return [(abs(_mass_above(t, y[j]) - loads[j - 1]), *_roundoff(t, y[j]), t)
            for j, t in tables]


def _read_loads(count: int, loads: Sequence[float]) -> List[float]:
    """``count`` station loads as floats, each finite and >= 0."""
    vec = [_real(v, f"load at station {j}") for j, v in enumerate(loads, start=1)]
    if len(vec) != count:
        raise ValueError(f"expected {count} loads, got {len(vec)}")
    for j, v in enumerate(vec, start=1):
        if not math.isfinite(v) or v < 0.0:
            raise NegativeWorkload(f"load at station {j} must be finite and >= 0, got {v}")
    return vec


def _station_frontiers(topo: Topology, y: Sequence[float]) -> Dict[int, float]:
    # read on every prediction, so the name is not formatted per value
    vals = [_real(v, "frontier") for v in y]
    if len(vals) != topo.station_count:
        raise ValueError(f"expected {topo.station_count} frontier values, got {len(vals)}")
    if any(math.isnan(v) for v in vals):
        raise ValueError(f"frontier values must not be NaN, got {_echo(tuple(vals))}")
    return dict(zip(topo.spec.stations, vals))


# -------- staged inversion --------

@dataclass(frozen=True)
class FrontierSolution:
    """Result of inverting the load map.

    frontiers     one value per station (position j-1 is station j)
    permutation   the station order the stages were solved in
    stage_bounds  the upper endpoint of each stage inverse's range;
                  the stage value equals the bound when its load is 0
    residual      max abs difference between the map at the solution
                  and the requested loads
    loads         the requested loads, echoed

    A solution ``solve_frontiers`` returns also keeps, outside its
    fields, the model it was solved for and each station's term table at
    its frontiers, from the closing residual check.  ``predict_profile``
    given that same model object reads those tables; any other model, a
    bare frontier tuple or a solution made by ``dataclasses.replace``
    builds them anew, to the same numbers.
    """

    frontiers: Tuple[float, ...]
    permutation: Tuple[int, ...]
    stage_bounds: Tuple[float, ...]
    residual: float
    loads: Tuple[float, ...]

    # not a field: (model, one table per station), set by solve_frontiers
    _tables = (None, ())


def _stage_inverse(terms: List[_Term], target: float) -> Tuple[float, float]:
    """Solve the stage equation for one station.

    The stage function is continuous, zero at the bound (the largest
    cut), and strictly increasing as the lead level moves down, so the
    preimage of any nonnegative target is a single point.  A scan down
    the breakpoints finds the piece [lo, hi] that brackets the target
    (below the lowest one, lo is -inf).  On it every active law's CDF is
    linear, so at y = hi - d the stage function is the exact quadratic
    val_hi + surv * d + slope * d**2 / 2, whose coefficients sum the
    active laws' ``survival_below(hi)``.  The root is the distance from
    the end whose value lies nearer the target over the mean of the
    stage function's slopes at that end and at the root, the stable
    form; the slope at the root is positive, so nothing divides by
    zero.  Returns (solution, bound); ``solve_frontiers`` checks the
    solution's order and residual.
    """
    bound = max(t.cut for t in terms)
    if target == 0.0:
        return bound, bound

    points = {bound}
    for t in terms:
        points.add(t.cut)
        points.update(b for b in t.dist.breakpoints() if b < t.cut)
    hi, val_hi = bound, 0.0
    lo, val_lo = -math.inf, math.inf
    for x in sorted(points, reverse=True)[1:]:
        val = _mass_above(terms, x)
        if val >= target:
            lo, val_lo = x, val
            break
        hi, val_hi = x, val

    surv = slope = 0.0
    for w, dist, _, cut in terms:
        if hi <= cut:   # active on the piece
            s, g = dist.survival_below(hi)
            surv += w * s
            slope += w * g
    rise = target - val_hi
    # the slope at the root, sqrt(surv^2 + 2 * slope * rise), through no
    # product that could underflow to 0
    root = math.hypot(surv, math.sqrt(2.0 * slope) * math.sqrt(rise))
    if rise <= val_lo - target:
        return hi - 2.0 * (rise / (surv + root)), bound
    return lo + 2.0 * ((val_lo - target) / (surv + slope * (hi - lo) + root)), bound


def solve_frontiers(model: WeightedModel, loads: Sequence[float]) -> FrontierSolution:
    """Invert the load map: find the frontier vector producing ``loads``.

    Stations are placed one stage at a time.  A class waits at the first
    unplaced station on its route, its floor there the smallest value
    placed before it on the route.  Each station some class waits at has
    a stage-local inverse of its own load over its waiting classes, and
    the largest value (ties to the smallest station id) is placed next.
    Only the classes waiting there move on, so each (class, station)
    term is built once, on arrival, and a stage is solved again only
    when a class arrives.  Values must not rise along the order
    (SolverDivergence otherwise), so the vector lies in the order's
    domain piece, reproduces the loads (checked by ``_fit``, as in the
    closed form) and is the componentwise smallest such vector, each to
    the roundoff allowance (``_roundoff``) of the sums involved.
    """
    topo = model.topology
    vec = _read_loads(topo.station_count, loads)

    assigned: Dict[int, float] = {}   # placed stations in placing order
    bounds: List[float] = []
    # unplaced station -> its waiting classes as (class id, route, position,
    # floor, term); sorted by class id, every sum adds its terms in one order
    waiting: Dict[int, list] = {j: [] for j in topo.spec.stations}
    stages: Dict[int, Tuple[List[_Term], float, float]] = {}   # -> (terms, value, bound)
    moving = [(c.id, c.route, 0, math.inf, None) for c in topo.spec.classes]
    last = math.inf
    for _ in range(topo.station_count):
        arrived = set()
        for k, route, at, floor, _ in moving:
            while at < len(route) and route[at] in assigned:
                floor = min(floor, assigned[route[at]])
                at += 1
            if at < len(route):
                j = route[at]
                waiting[j].append((k, route, at, floor, _term(model, k, j, floor)))
                arrived.add(j)
        for j in arrived:
            terms = [entry[4] for entry in sorted(waiting[j])]
            stages[j] = (terms, *_stage_inverse(terms, vec[j - 1]))
        # never empty: a class waits at the first unplaced station on a
        # route.  max keeps the first of tied values: ties to the smallest id
        j = max(sorted(stages), key=lambda i: stages[i][1])
        terms, value, b_j = stages.pop(j)
        # every stage has waiting classes and a value within its bound, so
        # of the domain piece's conditions only order needs a check
        if value > last + _roundoff(terms, value)[1]:
            raise SolverDivergence(f"station {j} placed at {value}, above {last}")
        assigned[j] = last = value
        bounds.append(b_j)
        moving = waiting.pop(j)

    fit = _fit(model, assigned, vec)
    for j, (miss, allowed, _, _) in zip(topo.spec.stations, fit):
        if miss > allowed:
            raise SolverDivergence(f"inversion residual {miss} at station {j}")
    sol = FrontierSolution(
        frontiers=tuple(assigned[j] for j in topo.spec.stations),
        permutation=tuple(assigned),
        stage_bounds=tuple(bounds),
        residual=max(miss for miss, _, _, _ in fit),
        loads=tuple(vec),
    )
    object.__setattr__(sol, "_tables", (model, [table for *_, table in fit]))
    return sol


# -------- profile prediction --------

def predict_profile(
    model: WeightedModel,
    solution: Union[FrontierSolution, Sequence[float]],
    j: int,
    y: Union[float, Sequence[float]],
) -> Union[float, np.ndarray]:
    """Predicted queue mass at station j with lead time above y.

    Below the station frontier the prediction saturates at the station
    total, so evaluating at -inf (or anything at most the frontier)
    gives the predicted station load; at or above every class cut it
    is 0.  ``y`` is one level, which gives a float, or a sequence of
    levels, which gives an ndarray of the same length.  Either way the
    per-class terms are built and the saturated total computed once,
    and the saturated levels and those at or above every cut are filled
    in one array pass, so only the levels in between sum the terms.
    Given the solution ``solve_frontiers`` returned for this same model
    object, the terms are the solver's own table at its frontiers.
    """
    topo = model.topology
    fr = solution.frontiers if isinstance(solution, FrontierSolution) else solution
    j = _station_id(topo, j)
    own, tables = getattr(solution, "_tables", (None, ()))
    if own is model:
        terms, floor = tables[j - 1], fr[j - 1]
    else:
        vals = _station_frontiers(topo, fr)
        terms, floor = _terms(model, j, vals), vals[j]
    levels = _reals(y, "levels")
    if np.isnan(levels).any():
        raise ValueError(f"levels must not be NaN, got {_echo(y)}")
    top = max(t.cut for t in terms)
    out = np.where(levels <= floor, _mass_above(terms, floor), 0.0)
    live = np.flatnonzero((levels > floor) & (levels < top))
    out.flat[live] = [_mass_above(terms, v) for v in levels.flat[live].tolist()]
    return float(out) if out.ndim == 0 else out


# -------- two-station closed forms --------

class TwoStationSolution(NamedTuple):
    region: str
    frontiers: Tuple[float, float]


def _crossing_spec(rates: Sequence[float], tops: Sequence[float]) -> NetworkSpec:
    routes = [(1, 2), (2, 1), (1,), (2,)]
    classes = tuple(
        ClassSpec(id=i + 1, route=routes[i], arrival_rate=rates[i],
                  lead_time=PointMass(tops[i]))
        for i in range(4)
    )
    return NetworkSpec(station_count=2, classes=classes)


def _in_crossing_domain(a: float, b: float, d1: float, d2: float, atol: float) -> bool:
    """Whether frontiers (a, b) lie, within ``atol``, in the domain piece
    of order (1, 2), b <= a <= d1, or of order (2, 1), a <= b <= d2 and
    a <= d1: with nonincreasing deadlines a stage's bound is d1, except
    station 2's when it is placed first, which is d2."""
    return a <= d1 + atol and ((b - atol <= a and b <= d1 + atol)
                               or (a - atol <= b and b <= d2 + atol))


def two_station_closed_form(
    rates: Sequence[float],
    deadlines: Sequence[float],
    q1: float,
    q2: float,
) -> TwoStationSolution:
    """Closed-form frontiers for the two-station crossing network.

    The network has four classes: class 1 runs station 1 then 2,
    class 2 runs station 2 then 1, and classes 3 and 4 visit only
    stations 1 and 2 respectively.  Each class k has a fixed deadline
    ``deadlines[k-1]``; the values must be nonincreasing in k.  A rate
    that is not positive and finite raises ZeroIntensity.

    Depending on where the frontier pair falls relative to the four
    deadlines and to its own ordering, different clip terms in the
    load equations are active, and each activity pattern linearizes
    the equations.  The eight resulting candidate solutions are
    labelled I..VIII.  Each is checked by ``_fit``, as ``solve_frontiers``
    checks its answer: it must land in the domain's two pieces and
    reproduce (q1, q2), each to the ``_roundoff`` allowance of its sums;
    the first that does is returned, else NoConsistentRegion is raised.
    """
    if len(rates) != 4 or len(deadlines) != 4:
        raise ValueError("need exactly four rates and four deadlines")
    l1, l2, l3, l4 = (_positive(v, f"rate of class {i}", ZeroIntensity)
                      for i, v in enumerate(rates, start=1))
    d1, d2, d3, d4 = (_real(v, f"deadline of class {i}")
                      for i, v in enumerate(deadlines, start=1))
    if not (d1 >= d2 >= d3 >= d4):
        raise ValueError(f"deadlines must be nonincreasing by class, got {_echo(deadlines)}")
    q1, q2 = _read_loads(2, (q1, q2))

    # each station's frontier with its own classes alone, for the chained ones
    w1 = (l1 * d1 + l3 * d3 - q1) / (l1 + l3)
    w2 = (l2 * d2 + l4 * d4 - q2) / (l2 + l4)
    f1 = {
        "top_only": d1 - q1 / l1,
        "with_crossing": (l1 * d1 + l2 * d2 - q2 - q1) / (l1 + l2),
        "with_local": w1,
        "all_three": (l1 * d1 + l2 * d2 + l3 * d3 - q1 - q2) / (l1 + l2 + l3),
        "chained": (l1 * d1 + l3 * d3 - q1 + l2 * w2) / (l1 + l2 + l3),
    }
    f2 = {
        "top_only": d2 - q2 / l2,
        "handoff": (l1 * d1 - q2 - q1) / l1,
        "with_local": w2,
        "shared": (l1 * d1 + l2 * d2 - q2 - q1) / (l1 + l2),
        "shared_local": (l1 * d1 + l2 * d2 + l4 * d4 - q2 - q1) / (l1 + l2 + l4),
        "chained": (l1 * w1 + l2 * d2 - q2) / (l1 + l2),
        "chained_local": (l1 * w1 + l2 * d2 + l4 * d4 - q2) / (l1 + l2 + l4),
    }
    candidates = [
        ("I", f1["top_only"], f2["handoff"]),
        ("II", f1["with_crossing"], f2["top_only"]),
        ("III", f1["top_only"], f2["shared"]),
        ("IV", f1["top_only"], f2["shared_local"]),
        ("V", f1["all_three"], f2["top_only"]),
        ("VI", f1["with_local"], f2["chained"]),
        ("VII", f1["chained"], f2["with_local"]),
        ("VIII", f1["with_local"], f2["chained_local"]),
    ]

    model = count_model(build_topology(_crossing_spec((l1, l2, l3, l4),
                                                      (d1, d2, d3, d4))))
    for region, a, b in candidates:
        (miss1, load1, level1, _), (miss2, load2, level2, _) = _fit(model, {1: a, 2: b},
                                                                    (q1, q2))
        if (_in_crossing_domain(a, b, d1, d2, max(level1, level2))
                and miss1 <= load1 and miss2 <= load2):
            return TwoStationSolution(region, (a, b))
    raise NoConsistentRegion(
        f"no closed-form region reproduces loads ({q1}, {q2})")
