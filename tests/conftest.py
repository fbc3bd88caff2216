"""Shared fixtures: random network generation, the route-based reach
rule and the exhaustive admissible-order oracle built on it, the
station loads of a frontier vector, a staged solve with its stage
tables read out, the all-station reference integrator, the sampler
that checks its condition after every event, the exact lead law of a
FIFO M/M/1 station conditioned on its count, and acceptance
reporting."""

import math

import numpy as np
import pytest

from edfnet import (
    ClassSpec,
    NetworkSpec,
    PiecewiseLinearCDF,
    PointMass,
    SampleResult,
    Uniform,
    build_topology,
    frontier,
    predict_profile,
    snapshot_profiles,
)


LEAD_KINDS = ("point", "uniform", "piecewise")


def _random_lead(rng, kind=None):
    """A random lead-time law, of the named kind or of one drawn from rng."""
    kind = int(rng.integers(0, 3)) if kind is None else LEAD_KINDS.index(kind)
    if kind == 0:
        return PointMass(float(rng.uniform(50.0, 400.0)))
    if kind == 1:
        lo = float(rng.uniform(0.0, 200.0))
        return Uniform(lo, lo + float(rng.uniform(10.0, 200.0)))
    ys = np.cumsum(rng.uniform(5.0, 150.0, size=3))
    g1 = float(rng.uniform(0.0, 0.5))
    g2 = float(rng.uniform(g1, 0.9))
    return PiecewiseLinearCDF([(float(ys[0]), g1), (float(ys[1]), g2),
                               (float(ys[2]), 1.0)])


def _random_spec(rng, max_stations, max_classes, lead=None):
    J = int(rng.integers(1, max_stations + 1))
    K = int(rng.integers(1, max_classes + 1))
    classes = []
    for k in range(1, K + 1):
        if k == 1:
            # a spanning route keeps every station visited and connected
            route = tuple(int(j) for j in rng.permutation(J) + 1)
        else:
            length = int(rng.integers(1, J + 1))
            route = tuple(int(j) for j in (rng.permutation(J) + 1)[:length])
        if rng.random() < 0.3:
            rates = {j: float(rng.uniform(0.8, 2.5)) for j in route}
        else:
            rates = float(rng.uniform(0.8, 2.5))
        classes.append(ClassSpec(
            id=k,
            route=route,
            arrival_rate=float(rng.uniform(0.1, 0.8)),
            lead_time=_random_lead(rng, lead),
            service_rates=rates,
        ))
    return NetworkSpec(station_count=J, classes=tuple(classes))


def valid_random_spec(rng, max_stations=5, max_classes=6, lead=None):
    """A random network that ``build_topology`` accepts, driven by rng;
    ``lead`` names one lead-time kind for every class."""
    for _ in range(100):
        spec = _random_spec(rng, max_stations, max_classes, lead)
        try:
            build_topology(spec)
        except Exception:
            continue
        return spec
    raise RuntimeError("random network generation kept failing")


@pytest.fixture
def random_network():
    """Factory for valid random acyclic networks, driven by a caller rng."""
    return valid_random_spec


def reaching(topo, j, placed):
    """Classes whose route reaches station j through ``placed`` stations
    only, read from the routes themselves: the oracle for the classes
    the staged solver has waiting at an unplaced station."""
    return frozenset(c.id for c in topo.spec.classes
                     if j in c.route and set(c.route[:c.route.index(j)]) <= set(placed))


def station_loads(model, y):
    """The load map: each station's load at frontier vector y, as an
    array in station order, read as the prediction at level -inf."""
    return np.array([predict_profile(model, y, j, -math.inf)
                     for j in model.topology.spec.stations])


def logged_solve(model, loads):
    """``solve_frontiers`` with its stage bookkeeping read out.

    Returns the solution, every stage term the stage loop built as
    (class, station, floor) in build order, and per stage m the classes
    in each unplaced station's table when the m-th station was picked
    (stations with an empty table left out).  The stage loop checks
    each pick's order by one ``_roundoff`` call, which marks the picks;
    the terms and allowances of the final ``_fit`` are not logged."""
    log, fitting = [], []
    term, roundoff, fit = frontier._term, frontier._roundoff, frontier._fit

    def logged_term(model, k, j, floor):
        if not fitting:
            log.append((k, j, floor))
        return term(model, k, j, floor)

    def logged_roundoff(terms, y):
        if not fitting:
            log.append(None)
        return roundoff(terms, y)

    def logged_fit(*args):
        fitting.append(True)
        return fit(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier, "_term", logged_term)
        mp.setattr(frontier, "_roundoff", logged_roundoff)
        mp.setattr(frontier, "_fit", logged_fit)
        sol = frontier.solve_frontiers(model, loads)
    tables, held = [], {}
    for entry in log:
        if entry is None:
            tables.append({j: frozenset(ks) for j, ks in held.items()})
            held.pop(sol.permutation[len(tables) - 1], None)
        else:
            held.setdefault(entry[1], set()).add(entry[0])
    return sol, [entry for entry in log if entry is not None], tables


def admissible_permutations(topo):
    """All station orders the staged solver could produce, in
    lexicographic order.

    A permutation is admissible when every position is reached given
    the stations placed before it.  The enumeration is exhaustive and
    factorial in the worst case; it is the reference for the orders a
    random domain vector is drawn in.
    """
    J = topo.station_count
    out = []

    def extend(prefix):
        if len(prefix) == J:
            out.append(tuple(prefix))
            return
        for j in topo.spec.stations:
            if j not in prefix and reaching(topo, j, prefix):
                prefix.append(j)
                extend(prefix)
                prefix.pop()

    extend([])
    return out


def _stage_bound(topo, j, placed):
    return max(c.lead_time.upper_support for c in topo.spec.classes
               if c.id in reaching(topo, j, placed))


def in_piece(topo, y, pi, atol=1e-9):
    """Whether ``y`` lies in the domain piece of the admissible order pi:
    nonincreasing along pi and each value within its stage's bound."""
    vals = [y[j - 1] for j in pi]
    if any(a < b - atol for a, b in zip(vals, vals[1:])):
        return False
    for m, j in enumerate(pi):
        if not reaching(topo, j, pi[:m]) or y[j - 1] > _stage_bound(topo, j, pi[:m]) + atol:
            return False
    return True


def _random_domain_vector(topo, rng, orders):
    """A frontier vector strictly inside one admissible piece; orders
    are ``admissible_permutations(topo)``."""
    pi = orders[int(rng.integers(0, len(orders)))]
    vals = {}
    prev = math.inf
    for m, j in enumerate(pi):
        vals[j] = min(_stage_bound(topo, j, pi[:m]), prev) * float(rng.uniform(0.3, 0.98))
        prev = vals[j]
    return tuple(vals[j] for j in topo.spec.stations)


@pytest.fixture
def domain_vector():
    """Factory for random vectors inside the solvable frontier domain.

    Each topology's admissible orders are enumerated once per test; the
    cache holds the topology too, so its id cannot be reused."""
    cache = {}

    def draw(topo, rng):
        if id(topo) not in cache:
            cache[id(topo)] = (topo, admissible_permutations(topo))
        return _random_domain_vector(topo, rng, cache[id(topo)][1])

    return draw


class ReferenceIntegrator:
    """The simulator's time integrals, summed at every event: every
    station adds the time since the previous event, weighted by the
    state it held in between.  The simulator integrates each station
    only when that station changes; this is the reference it is checked
    against.

    Pass it to ``run_each`` and call it once more after ``run_each``
    returns, for the stretch up to the final clock.  It reads station
    state only, so it changes nothing in the run.
    ``integrals(j)`` gives station j's (idle, present, behind)
    integrals up to the last call.
    """

    def __init__(self, sim):
        self.clock = sim.clock
        self._sums = {st.sid: [0.0, 0.0, 0.0] for st in sim.stations[1:]}
        self._read(sim)

    def _read(self, sim):
        self._held = [(st.sid, st.serving is None, st.present,
                       st.pending_behind + st.serving_behind)
                      for st in sim.stations[1:]]

    def __call__(self, sim):
        dt = sim.clock - self.clock
        if dt > 0.0:
            for sid, idle, present, behind in self._held:
                sums = self._sums[sid]
                if idle:
                    sums[0] += dt
                    continue
                sums[1] += present * dt
                sums[2] += behind * dt
            self.clock = sim.clock
        self._read(sim)

    def integrals(self, j):
        return tuple(self._sums[j])


def run_each(sim, until, fn):
    """``run_until`` one event at a time, calling ``fn(sim)`` after each."""
    while sim._run(until, 1):
        fn(sim)
    sim._advance(until)


def sample_every_event(sim, condition, *, threshold, count, horizon_cap):
    """``conditional_sample`` without its batching: the condition is
    checked after every event.  This is the reference the batched
    sampler is checked against; the arguments are taken as valid."""
    snaps = []
    acc = 0.0
    while True:
        t_next = sim._heap[0][0] if sim._heap else math.inf
        boundary = min(t_next, horizon_cap)
        if boundary > sim.clock and condition.distance(sim) == 0:
            while len(snaps) < count:
                t_hit = sim.clock + (threshold - acc)
                if t_hit <= boundary:
                    sim._advance(t_hit)
                    acc = 0.0
                    snaps.append(snapshot_profiles(sim))
                else:
                    acc += boundary - sim.clock
                    break
            if len(snaps) >= count:
                return SampleResult(tuple(snaps), False)
        if not sim._run(horizon_cap, 1):
            sim._advance(horizon_cap)
            return SampleResult(tuple(snaps), len(snaps) < count)


def fifo_lead_cdf(y, n, mu, lead):
    """Expected empirical lead-time CDF at the levels ``y`` of an M/M/1
    station (service rate ``mu``) whose one class has the point lead law
    ``lead``, conditioned on n customers present.

    EDF is FIFO here, and by reversibility the ages of the n customers
    present are the first n epochs of a Poisson(mu) process, so lead i
    is ``lead - Gamma(i, mu)`` whatever the arrival rate.  The CDF at y
    is (1/n) sum over i = 1..n of P(Poisson(mu (lead - y)) <= i - 1),
    which is (1/n) sum over k < n of (n - k) P(Poisson = k).  The
    Poisson terms are taken in log space: exp(-x) underflows past
    x of about 745."""
    x = mu * (lead - np.asarray(y, dtype=float))
    k = np.arange(n)
    log_fact = np.array([math.lgamma(i + 1.0) for i in k])
    out = np.ones(x.shape)
    below = x > 0.0
    xs = x[below][:, None]
    out[below] = (np.exp(k * np.log(xs) - xs - log_fact) * (n - k)).sum(axis=1) / n
    return out


_ACCEPTANCE = {}
_ACCEPTANCE_NOTES = []


@pytest.fixture
def acceptance_note():
    """Record a measured level for the acceptance summary block."""
    return _ACCEPTANCE_NOTES.append


def pytest_runtest_logreport(report):
    nodeid = report.nodeid
    if "test_acceptance.py::" not in nodeid:
        return
    name = nodeid.split("::", 1)[1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"ACCEPTANCE {name}: {_ACCEPTANCE[name]}")
    for line in _ACCEPTANCE_NOTES:
        terminalreporter.write_line(f"  {line}")
