"""Frontier equations: from observed loads to lead-time frontiers.

Under deadline-ordered service, the customers present at a station
stack up behind a moving *frontier*: the lead time of the most urgent
customer the station has ever served.  In a critically loaded network
the station's load pins the frontier vector down exactly: the load seen
at station j equals a weighted sum over visiting classes of integrated
lead-time tails, clipped between the station's own frontier and the
smallest frontier among the class's upstream stations.

That sum is written once: ``_terms`` builds a station's per-class
table and ``_mass_above`` evaluates it at a lead level.
``frontier_loads`` evaluates it at each station's own frontier;
``solve_frontiers`` inverts it station by station, placing at each stage
the station whose stage-local inverse is largest and checking that the
values do not rise along the order it builds; ``predict_profile``
evaluates it above a level, giving the predicted queue mass that the
experiment harness compares against simulated profiles.  On a grid of
levels it computes the saturated level (the station total, read at and
below the frontier) once and reads 0 above every class cut, so only
the levels in between sum the terms.

All of this is exact piecewise-polynomial arithmetic: every lead-time
law is a piecewise-linear CDF, whose integrated tail is piecewise
quadratic, so each stage inverse is a breakpoint scan plus a
closed-form quadratic solve on the bracketing piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import (
    NegativeWorkload,
    NoConsistentRegion,
    SolverDivergence,
    ZeroIntensity,
)
from .leadtime import LeadTimeDist, PointMass
from .topology import (
    ClassSpec,
    NetworkSpec,
    Topology,
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
    "frontier_loads",
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
    workloads.  Any other positive weights are accepted as well.
    """

    topology: Topology
    weights: Mapping[Tuple[int, int], float]

    def __post_init__(self):
        topo = self.topology
        w = dict(self.weights)
        for j in topo.spec.stations:
            for k in topo.visiting[j]:
                if (k, j) not in w:
                    raise ValueError(f"missing weight for class {k} at station {j}")
                if not w[(k, j)] > 0.0:
                    raise ZeroIntensity(
                        f"weight for class {k} at station {j} must be positive, "
                        f"got {w[(k, j)]!r}")
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


def _terms(model: WeightedModel, j: int, classes: FrozenSet[int],
           floors: Mapping[int, float]) -> List[_Term]:
    """Per-class terms at station j in ascending class id.  A class's
    floor is the smallest of ``floors`` (station -> frontier) over the
    stations it clears before j, or +inf (tail zero) if it enters here."""
    topo = model.topology
    terms = []
    for k in sorted(classes):
        dist = topo.lead_dist(k)
        ups = topo.upstream[(k, j)]
        floor = min(floors[i] for i in ups) if ups else math.inf
        terms.append(_Term(
            weight=model.weights[(k, j)],
            dist=dist,
            cap=dist.integrated_tail(floor),
            cut=min(dist.upper_support, floor),
        ))
    return terms


def _mass_above(terms: List[_Term], y: float) -> float:
    """Weighted tail mass above level y, each class clipped at its floor."""
    total = 0.0
    for w, dist, cap, cut in terms:
        if y < cut:
            total += w * (dist.integrated_tail(y) - cap)
    return total


def _station_frontiers(topo: Topology, y: Sequence[float]) -> Dict[int, float]:
    vals = [float(v) for v in y]
    if len(vals) != topo.station_count:
        raise ValueError(f"expected {topo.station_count} frontier values, got {len(vals)}")
    if any(math.isnan(v) for v in vals):
        raise ValueError(f"frontier values must not be NaN, got {tuple(vals)}")
    return dict(zip(topo.spec.stations, vals))


def frontier_loads(model: WeightedModel, y: Sequence[float]) -> np.ndarray:
    """Station loads produced by a frontier vector.

    Entry j-1 of the result is the weighted tail mass at station j:
    each visiting class contributes its integrated tail at the
    station's frontier minus the tail at the class's upstream floor,
    clipped at zero (work the class has already carried past its
    upstream stations cannot sit here).
    """
    topo = model.topology
    vals = _station_frontiers(topo, y)
    return np.array([_mass_above(_terms(model, j, topo.visiting[j], vals), vals[j])
                     for j in topo.spec.stations])


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
    """

    frontiers: Tuple[float, ...]
    permutation: Tuple[int, ...]
    stage_bounds: Tuple[float, ...]
    residual: float
    loads: Tuple[float, ...]


def _stage_inverse(terms: List[_Term], target: float) -> Tuple[float, float]:
    """Solve the stage equation for one station.

    The stage function is continuous, zero at the bound (the largest
    cut), and strictly increasing as the lead level moves down, so the
    preimage of any nonnegative target is a single point.  Between
    neighbouring breakpoints it is an exact quadratic: a scan down the
    breakpoints finds the piece that brackets the target, and the
    quadratic through the piece's ends and midpoint is solved in closed
    form.  Returns (solution, bound).  Raises SolverDivergence when no
    root of that quadratic reproduces the target, as for a law whose
    integrated tail is not quadratic between its breakpoints.
    """
    bound = max(t.cut for t in terms)
    if target == 0.0:
        return bound, bound

    points = {bound}
    for t in terms:
        points.add(t.cut)
        for b in t.dist.breakpoints():
            if b < t.cut:
                points.add(b)
    points = sorted(points)

    hi, val_hi = bound, 0.0
    for lo in reversed(points[:-1]):
        val_lo = _mass_above(terms, lo)
        if val_lo >= target:
            break
        hi, val_hi = lo, val_lo
    else:
        # below the lowest breakpoint every term is active and every
        # integrated tail has slope -1, so the stage function is linear
        slope = sum(t.weight for t in terms)
        return hi - (target - val_hi) / slope, bound

    # the scan stopped at the piece [lo, hi] with val_hi < target <= val_lo
    if val_lo == target:
        return lo, bound
    width = hi - lo
    if width <= 1e-12:
        return (hi if abs(val_hi - target) <= abs(val_lo - target) else lo), bound

    mid = 0.5 * (lo + hi)
    val_mid = _mass_above(terms, mid)
    d1 = (val_mid - val_lo) / (mid - lo)
    d2 = ((val_hi - val_mid) / (hi - mid) - d1) / (hi - lo)
    # quadratic in d = y - lo:  d2*d^2 + (d1 - d2*(mid-lo))*d + (val_lo - target)
    a = d2
    b = d1 - d2 * (mid - lo)
    c = val_lo - target

    candidates = []
    if a == 0.0:
        if b != 0.0:
            candidates.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        root = math.sqrt(max(disc, 0.0))
        q = -0.5 * (b + math.copysign(root, b))
        candidates.append(q / a)
        if q != 0.0:
            candidates.append(c / q)

    slack = 1e-9 * max(width, 1.0)
    best = None
    for d in candidates:
        if -slack <= d <= width + slack:
            y = min(max(lo + d, lo), hi)
            err = abs(_mass_above(terms, y) - target)
            if best is None or err < best[0]:
                best = (err, y)
    if best is not None and best[0] <= 1e-9 * max(1.0, abs(target)):
        return best[1], bound
    raise SolverDivergence(f"stage solve failed on [{lo}, {hi}] for target {target}")


def solve_frontiers(model: WeightedModel, loads: Sequence[float]) -> FrontierSolution:
    """Invert the load map: find the frontier vector producing ``loads``.

    Stations are placed one stage at a time.  At each stage every
    still-unplaced station that some class reaches through the placed
    ones gets a stage-local inverse of its own load; the station with
    the largest value (ties to the smallest station id) is placed next.
    A station's stage is solved once per reach set, not once per stage.
    Values must not rise along the order (SolverDivergence otherwise),
    so the vector lies in the order's domain piece, reproduces the
    loads, and is the componentwise smallest such vector.
    """
    topo = model.topology
    vec = [float(v) for v in loads]
    if len(vec) != topo.station_count:
        raise ValueError(f"expected {topo.station_count} loads, got {len(vec)}")
    for j, v in enumerate(vec, start=1):
        if not math.isfinite(v) or v < 0.0:
            raise NegativeWorkload(f"load at station {j} must be finite and >= 0, got {v}")

    assigned: Dict[int, float] = {}   # placed stations in placing order
    bounds: List[float] = []
    # unplaced station -> (reach set, stage value, bound).  A stage reads
    # only its reach set and the values of placed stations, which never
    # change, so it is solved again only when its reach set has grown
    stages: Dict[int, Tuple[FrozenSet[int], float, float]] = {}
    last = math.inf
    for _ in range(topo.station_count):
        for j in set(topo.spec.stations).difference(assigned):
            reach = topo.reaching(j, assigned.keys())
            if reach and (j not in stages or stages[j][0] != reach):
                stages[j] = (reach, *_stage_inverse(_terms(model, j, reach, assigned),
                                                    vec[j - 1]))
        # never empty: every station is on a route, and the first
        # unplaced station on a route is reachable.  max keeps the
        # first of tied values, so ties go to the smallest id
        j = max(sorted(stages), key=lambda i: stages[i][1])
        _, value, b_j = stages.pop(j)
        # stages holds only reached stations and no stage value exceeds its
        # bound, so of the domain piece's conditions only order needs a check
        if value > last + 1e-9:
            raise SolverDivergence(f"station {j} placed at {value}, above {last}")
        assigned[j] = last = value
        bounds.append(b_j)

    y = tuple(assigned[j] for j in topo.spec.stations)
    residual = float(np.max(np.abs(frontier_loads(model, y) - np.array(vec))))
    scale = max(1.0, max(vec, default=1.0))
    if residual > 1e-6 * scale:
        raise SolverDivergence(f"inversion residual {residual} for loads {vec}")
    return FrontierSolution(
        frontiers=y,
        permutation=tuple(assigned),
        stage_bounds=tuple(bounds),
        residual=residual,
        loads=tuple(vec),
    )


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
    levels, which gives an ndarray of the same length; the per-class
    terms are built once either way.  A sequence computes the saturated
    total once and reads 0 above every cut, so only the levels in
    between sum the terms, each to the float the one-level form gives.
    """
    topo = model.topology
    fr = solution.frontiers if isinstance(solution, FrontierSolution) else solution
    vals = _station_frontiers(topo, fr)
    if j not in topo.visiting:
        raise ValueError(f"station {j} is not in the network")
    if np.isnan(y).any():
        raise ValueError(f"levels must not be NaN, got {y!r}")
    terms = _terms(model, j, topo.visiting[j], vals)
    floor = vals[j]
    if np.ndim(y) == 0:
        return _mass_above(terms, max(float(y), floor))
    total = _mass_above(terms, floor)
    top = max(t.cut for t in terms)
    out = np.empty(len(y))
    for i, v in enumerate(y):
        v = float(v)
        out[i] = total if v <= floor else 0.0 if v >= top else _mass_above(terms, v)
    return out


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
    ``deadlines[k-1]``; the values must be nonincreasing in k.

    Depending on where the frontier pair falls relative to the four
    deadlines and to its own ordering, different clip terms in the
    load equations are active, and each activity pattern linearizes
    the equations.  The eight resulting candidate solutions are
    labelled I..VIII.  Every candidate is checked for self-consistency
    (it must land in the domain's two pieces and reproduce (q1, q2)
    through the exact load map, within 1e-8 * max(1, q1, q2)); the
    first consistent one is returned.  Raises NoConsistentRegion if
    none survives, which for valid inputs indicates a numerical
    tolerance problem rather than a modelling one.
    """
    if len(rates) != 4 or len(deadlines) != 4:
        raise ValueError("need exactly four rates and four deadlines")
    l1, l2, l3, l4 = (float(v) for v in rates)
    d1, d2, d3, d4 = (float(v) for v in deadlines)
    for i, lv in enumerate((l1, l2, l3, l4), start=1):
        if not lv > 0.0:
            raise ZeroIntensity(f"rate of class {i} must be positive, got {lv!r}")
    if not (d1 >= d2 >= d3 >= d4):
        raise ValueError(f"deadlines must be nonincreasing by class, got {deadlines!r}")
    for j, q in ((1, q1), (2, q2)):
        if not math.isfinite(q) or q < 0.0:
            raise NegativeWorkload(f"load at station {j} must be finite and >= 0, got {q}")

    f1 = {
        "top_only": d1 - q1 / l1,
        "with_crossing": (l1 * d1 + l2 * d2 - q2 - q1) / (l1 + l2),
        "with_local": (l1 * d1 + l3 * d3 - q1) / (l1 + l3),
        "all_three": (l1 * d1 + l2 * d2 + l3 * d3 - q1 - q2) / (l1 + l2 + l3),
        "chained": (l1 * d1 + l3 * d3 - q1) / (l1 + l2 + l3)
        + l2 * (l2 * d2 + l4 * d4 - q2) / ((l1 + l2 + l3) * (l2 + l4)),
    }
    f2 = {
        "top_only": d2 - q2 / l2,
        "handoff": (l1 * d1 - q2 - q1) / l1,
        "with_local": (l2 * d2 + l4 * d4 - q2) / (l2 + l4),
        "shared": (l1 * d1 + l2 * d2 - q2 - q1) / (l1 + l2),
        "shared_local": (l1 * d1 + l2 * d2 + l4 * d4 - q2 - q1) / (l1 + l2 + l4),
        "chained": l1 * (l1 * d1 + l3 * d3 - q1) / ((l1 + l2) * (l1 + l3))
        + (l2 * d2 - q2) / (l1 + l2),
        "chained_local": l1 * (l1 * d1 + l3 * d3 - q1) / ((l1 + l3) * (l1 + l2 + l4))
        + (l2 * d2 + l4 * d4 - q2) / (l1 + l2 + l4),
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
    atol = 1e-8 * max(1.0, q1, q2)
    for region, a, b in candidates:
        if not _in_crossing_domain(a, b, d1, d2, atol):
            continue
        back = frontier_loads(model, (a, b))
        if abs(back[0] - q1) <= atol and abs(back[1] - q2) <= atol:
            return TwoStationSolution(region, (a, b))
    raise NoConsistentRegion(
        f"no closed-form region reproduces loads ({q1}, {q2})")
