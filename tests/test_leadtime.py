"""Tests for lead-time distributions and their integrated tails.

The integrated tail implementations are closed-form.  As an independent
oracle we integrate the survival function numerically: between
consecutive breakpoints the survival curve is continuous, so a midpoint
rule with many panels converges and never straddles a CDF jump (jumps
sit exactly on breakpoints).

The tail's inverse is the solver's: on one station visited by one class
at arrival rate 1, the count model's load at frontier y is the
integrated tail at y, so ``solve_frontiers`` returns its inverse.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edfnet import (
    ClassSpec,
    NegativeWorkload,
    NetworkSpec,
    PiecewiseLinearCDF,
    PointMass,
    Uniform,
    build_topology,
    count_model,
    solve_frontiers,
)


def quadrature_tail(dist, y, panels=4096):
    """Numerically integrate 1 - cdf over (y, infinity)."""
    top = dist.upper_support
    if y >= top:
        return 0.0
    total = 0.0
    cuts = [y] + [b for b in dist.breakpoints() if y < b < top] + [top]
    for a, b in zip(cuts, cuts[1:]):
        xs = a + (b - a) * (np.arange(panels) + 0.5) / panels
        total += (b - a) / panels * sum(1.0 - dist.cdf(x) for x in xs)
    return total


def tail_inverse(dist, h):
    """The lead level whose integrated tail is ``h``, by the solver."""
    spec = NetworkSpec(1, (ClassSpec(id=1, route=(1,), arrival_rate=1.0,
                                     lead_time=dist),))
    return solve_frontiers(count_model(build_topology(spec)), [h]).frontiers[0]


def law_id(dist):
    """A law's test id: its repr, with a plain law's knots as a list."""
    if type(dist) is PiecewiseLinearCDF:
        return f"PiecewiseLinearCDF({list(dist.knots)!r})"
    return repr(dist)


DISTS = [
    PointMass(400.0),
    PointMass(2.5),
    Uniform(0.0, 2.0),
    Uniform(100.0, 300.0),
    PiecewiseLinearCDF([(0.0, 0.0), (1.0, 0.25), (3.0, 1.0)]),
    PiecewiseLinearCDF([(1.0, 0.4), (2.0, 0.6), (5.0, 1.0)]),
    PiecewiseLinearCDF([(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (4.0, 1.0)]),
]


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_integrated_tail_matches_quadrature(dist):
    top = dist.upper_support
    lo = min(dist.breakpoints()) - 2.0
    for y in np.linspace(lo, top + 1.0, 23):
        want = quadrature_tail(dist, float(y))
        got = dist.integrated_tail(float(y))
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_tail_shape(dist):
    """Nonincreasing, convex, slope -1 far left, zero above support."""
    top = dist.upper_support
    lo = min(dist.breakpoints())
    ys = np.linspace(lo - 3.0, top + 2.0, 41)
    hs = [dist.integrated_tail(float(y)) for y in ys]
    assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))
    for a, m, b in zip(hs, hs[1:], hs[2:]):
        assert m <= 0.5 * (a + b) + 1e-9
    assert dist.integrated_tail(top) == 0.0
    assert dist.integrated_tail(top + 123.0) == 0.0
    assert dist.integrated_tail(lo - 5.0) - dist.integrated_tail(lo - 2.0) == pytest.approx(3.0)


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_inverse_round_trip(dist):
    """Levels from below the first knot up to the support come back
    from their tails, and load 0 maps to the support itself."""
    top = dist.upper_support
    for y in np.linspace(min(dist.breakpoints()) - 2.0, top, 17):
        h = dist.integrated_tail(float(y))
        assert tail_inverse(dist, h) == pytest.approx(float(y), abs=1e-8)
    assert tail_inverse(dist, 0.0) == top
    for h in np.linspace(0.0, dist.integrated_tail(min(dist.breakpoints())) + 4.0, 17):
        y = tail_inverse(dist, float(h))
        assert dist.integrated_tail(y) == pytest.approx(float(h), abs=1e-8)


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_survival_below_gives_the_tail_on_the_stretch_below(dist):
    """Just below a level y the integrated tail falls at rate 1 - cdf
    and that rate falls at the CDF's slope, so a step h down the stretch
    below y adds h * (1 - cdf) + h**2 * slope / 2 to the tail: (1, 0)
    up to the first knot, (0, 0) past the last."""
    knots = dist.breakpoints()
    assert dist.survival_below(knots[0]) == (1.0, 0.0)
    assert dist.survival_below(dist.upper_support + 1.0) == (0.0, 0.0)
    for y in np.linspace(knots[0] - 2.0, dist.upper_support, 23):
        y = float(y)
        surv, slope = dist.survival_below(y)
        h = 0.5 * (y - max([b for b in knots if b < y], default=y - 1.0))
        rise = dist.integrated_tail(y - h) - dist.integrated_tail(y)
        assert rise == pytest.approx(h * surv + 0.5 * slope * h * h, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_breakpoints_ascending(dist):
    bps = dist.breakpoints()
    assert list(bps) == sorted(bps)


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_negative_tail_rejected(dist):
    with pytest.raises(NegativeWorkload):
        tail_inverse(dist, -1e-9)


def test_point_mass_values():
    d = PointMass(400.0)
    assert d.upper_support == 400.0
    assert d.integrated_tail(100.0) == 300.0
    assert d.integrated_tail(400.0) == 0.0
    assert tail_inverse(d, 150.0) == 250.0
    assert d.cdf(399.999) == 0.0
    assert d.cdf(400.0) == 1.0  # right-continuous at the atom


def test_uniform_values():
    d = Uniform(0.0, 2.0)
    assert d.integrated_tail(0.0) == pytest.approx(1.0)
    assert d.integrated_tail(1.0) == pytest.approx(0.25)
    assert d.integrated_tail(-3.0) == pytest.approx(4.0)
    assert tail_inverse(d, 0.25) == pytest.approx(1.0)
    assert tail_inverse(d, 1.0) == pytest.approx(0.0)
    assert d.cdf(0.5) == 0.25


def test_piecewise_values():
    d = PiecewiseLinearCDF([(0.0, 0.0), (1.0, 0.25), (3.0, 1.0)])
    assert d.upper_support == 3.0
    # trapezoids of the survival: (1 + 0.75)/2 + 2 * (0.75 + 0)/2
    assert d.integrated_tail(0.0) == pytest.approx(1.625)
    assert d.integrated_tail(1.0) == pytest.approx(0.75)
    assert d.cdf(2.0) == pytest.approx(0.625)
    y = tail_inverse(d, 0.7)
    assert d.integrated_tail(y) == pytest.approx(0.7)


def test_piecewise_atom_at_first_knot():
    d = PiecewiseLinearCDF([(1.0, 0.4), (2.0, 0.6), (5.0, 1.0)])
    assert d.cdf(0.999) == 0.0
    assert d.cdf(1.0) == 0.4
    assert d.integrated_tail(1.0) == pytest.approx(0.5 * (0.6 + 0.4) + 3.0 * 0.5 * 0.4)


def test_piecewise_truncates_after_cdf_reaches_one():
    d = PiecewiseLinearCDF([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    assert d.upper_support == 1.0
    assert d.knots == ((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "knots",
    [
        [],
        [(0.0, 0.0), (0.0, 1.0)],  # leads not strictly increasing
        [(0.0, 0.5), (1.0, 0.25)],  # values decreasing
        [(0.0, 0.0), (1.0, 0.8)],  # never reaches 1
        [(0.0, -0.1), (1.0, 1.0)],  # negative value
        [(0.0, 0.0), (float("nan"), 1.0)],
    ],
)
def test_piecewise_rejects_bad_knots(knots):
    with pytest.raises(ValueError):
        PiecewiseLinearCDF(knots)


def test_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Uniform(2.0, 2.0)
    with pytest.raises(ValueError):
        Uniform(0.0, float("inf"))


def test_point_mass_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointMass(float("inf"))


NAMED = [
    (PointMass(400.0), [(400.0, 1.0)]),
    (PointMass(2.5), [(2.5, 1.0)]),
    (Uniform(0.0, 2.0), [(0.0, 0.0), (2.0, 1.0)]),
    (Uniform(100.0, 300.0), [(100.0, 0.0), (300.0, 1.0)]),
]


@pytest.mark.parametrize("dist,knots", NAMED, ids=[repr(d) for d, _ in NAMED])
def test_named_laws_are_their_knots(dist, knots):
    """A point mass is one knot and a uniform law two: every evaluation
    equals the plain piecewise law's, yet the two compare unequal."""
    plain = PiecewiseLinearCDF(knots)
    assert dist.upper_support == plain.upper_support
    assert dist.breakpoints() == plain.breakpoints()
    lo = plain.breakpoints()[0]
    for y in np.linspace(lo - 3.0, plain.upper_support + 1.0, 37):
        assert dist.cdf(float(y)) == plain.cdf(float(y))
        assert dist.integrated_tail(float(y)) == plain.integrated_tail(float(y))
    assert dist != plain and plain != dist


@pytest.mark.parametrize("lo,hi", [(0.0, 2.0), (100.0, 300.0), (-7.25, 1e-3)])
def test_uniform_draws_equal_rng_uniform(lo, hi):
    draws = Uniform(lo, hi).sample(np.random.default_rng(11), 4096)
    want = np.random.default_rng(11).uniform(lo, hi, 4096)
    assert draws.tobytes() == want.tobytes()


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_pickle_round_trip(dist):
    back = pickle.loads(pickle.dumps(dist))
    assert type(back) is type(dist) and back == dist and repr(back) == repr(dist)


def test_named_parameters_are_read_only_floats():
    d = PointMass(400)
    assert d.value == 400.0 and isinstance(d.value, float)
    assert repr(Uniform(0, 2)) == "Uniform(lo=0.0, hi=2.0)"
    with pytest.raises(AttributeError):
        d.value = 1.0
    # as frozen as their parent: no attribute can be added either
    for law in (d, Uniform(0, 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            law.y = 2


def test_piecewise_equality_and_hash():
    a = PiecewiseLinearCDF([(0.0, 0.0), (2.0, 1.0)])
    b = PiecewiseLinearCDF([(0.0, 0.0), (2.0, 1.0)])
    c = PiecewiseLinearCDF([(0.0, 0.0), (3.0, 1.0)])
    assert a == b and hash(a) == hash(b)
    assert a != c


@pytest.mark.parametrize("dist", DISTS, ids=law_id)
def test_sampling_is_deterministic_and_in_support(dist):
    draws = dist.sample(np.random.default_rng(7), size=200)
    again = dist.sample(np.random.default_rng(7), size=200)
    assert np.array_equal(draws, again)
    assert np.all(draws <= dist.upper_support + 1e-12)
    assert np.all(draws >= min(dist.breakpoints()) - 1e-12)


def test_piecewise_quantile_matches_cdf():
    d = PiecewiseLinearCDF([(1.0, 0.4), (2.0, 0.6), (5.0, 1.0)])
    rng = np.random.default_rng(3)
    draws = d.sample(rng, size=4000)
    # empirical CDF should track the analytic one away from the atom
    for y in (1.5, 2.5, 4.0):
        frac = float(np.mean(draws <= y))
        assert frac == pytest.approx(d.cdf(y), abs=0.03)


@given(
    y=st.floats(min_value=-50.0, max_value=450.0),
    d=st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=150, deadline=None)
def test_tail_monotone_decrement_bounded(y, d):
    """H(y) - H(y + d) is between 0 and d for every distribution."""
    for dist in DISTS:
        drop = dist.integrated_tail(y) - dist.integrated_tail(y + d)
        assert -1e-12 <= drop <= d + 1e-9


@given(h=st.floats(min_value=0.0, max_value=500.0))
@example(h=5e-324)   # underflows 2 * slope * h on a law's last segment
@settings(max_examples=150, deadline=None)
def test_inverse_is_right_inverse_everywhere(h):
    for dist in DISTS:
        y = tail_inverse(dist, h)
        assert dist.integrated_tail(y) == pytest.approx(h, abs=1e-8, rel=1e-8)
        assert y <= dist.upper_support
