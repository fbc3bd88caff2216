"""Acceptance gate: one test per shipped guarantee.

Each test pins a headline behaviour of the package end to end: the
three hand-solved crossing-network cases, bulk round-trip and
closed-form equivalence sweeps, the conditional-sampling experiment
against the predicted profiles, load monotonicity of the
behind-frontier residual, an M/M/1 sanity bound, and byte-level
report determinism.  The terminal summary prints one PASS/FAIL line
per test here (see conftest), followed by the measured levels.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from edfnet import (
    ClassSpec,
    CountBands,
    ExperimentConfig,
    NetworkSpec,
    PointMass,
    TotalCounts,
    behind_frontier_stats,
    build_topology,
    count_model,
    mean_queue_length,
    new_sim,
    normalize_by_intensity,
    parse_config,
    run_experiment,
    run_until,
    solve_frontiers,
    two_station_closed_form,
    work_model,
)
from edfnet.harness import render_report_csv, render_report_yaml, report_to_dict
from conftest import in_piece, station_loads

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

THIRD = 1.0 / 3.0
RATES = (THIRD,) * 4
CROSSING_ROUTES = ((1, 2), (2, 1), (1,), (2,))

# deadline vectors for the three hand-solved cases
CASE_A = (400.0, 300.0, 200.0, 100.0)
CASE_B = (200.0, 200.0, 110.0, 100.0)
CASE_C = (500.0, 100.0, 100.0, 100.0)

ALL_REGIONS = {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}


def crossing_spec(deadlines, lam):
    classes = tuple(
        ClassSpec(id=i + 1, route=route, arrival_rate=lam,
                  lead_time=PointMass(float(top)))
        for i, (route, top) in enumerate(zip(CROSSING_ROUTES, deadlines))
    )
    return NetworkSpec(station_count=2, classes=classes)


def crossing_model(deadlines, lam=THIRD):
    return count_model(build_topology(crossing_spec(deadlines, lam)))


def check_hand_case(deadlines, loads, frontiers, permutation, region):
    """Solve one crossing case three ways and pin the known answer."""
    model = crossing_model(deadlines)
    sol = solve_frontiers(model, loads)
    assert sol.frontiers == pytest.approx(frontiers, abs=1e-9)
    assert sol.permutation == permutation

    closed = two_station_closed_form(RATES, deadlines, *loads)
    assert closed.region == region
    assert closed.frontiers == pytest.approx(sol.frontiers, abs=1e-9)

    # the forward map reproduces the observed loads
    assert station_loads(model, sol.frontiers) == pytest.approx(loads, abs=1e-9)

    # the near-saturation parameterization, with weights normalized by
    # station intensity, solves to the same frontiers
    scaled = normalize_by_intensity(
        count_model(build_topology(crossing_spec(deadlines, 0.32))))
    assert solve_frontiers(scaled, loads).frontiers == pytest.approx(
        frontiers, abs=1e-9)


def test_criterion_1_case_a_inversion():
    start = time.perf_counter()
    check_hand_case(CASE_A, (50.0, 58.0), (250.0, 188.0), (1, 2), "III")
    assert time.perf_counter() - start < 1.0


def test_criterion_2_case_b_inversion():
    check_hand_case(CASE_B, (60.0, 30.0), (80.0, 110.0), (2, 1), "V")


def test_criterion_3_case_c_inversion():
    check_hand_case(CASE_C, (50.0, 50.0), (350.0, 200.0), (1, 2), "I")


def test_criterion_4_round_trip_random_networks(
        random_network, domain_vector, acceptance_note):
    start = time.perf_counter()
    rng = np.random.default_rng(20260301)
    worst = 0.0
    checked = 0
    for i in range(50):
        spec = random_network(rng)
        topo = build_topology(spec)
        model = work_model(topo)
        if i % 3 == 0:
            model = normalize_by_intensity(model)
        for _ in range(20):
            y = domain_vector(topo, rng)
            loads = station_loads(model, y)
            sol = solve_frontiers(model, loads)
            back = station_loads(model, sol.frontiers)
            err = max(abs(a - b) for a, b in zip(back, loads))
            worst = max(worst, err)
            assert err <= 1e-8
            assert in_piece(topo, sol.frontiers, sol.permutation)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 30.0
    acceptance_note(f"round trip: {checked} vectors, worst residual "
                    f"{worst:.3g}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_closed_form_matches_staged_solver(acceptance_note):
    rng = np.random.default_rng(20260302)
    seen = set()
    worst = 0.0
    total = 0
    for deadlines in (CASE_A, CASE_B, CASE_C):
        model = crossing_model(deadlines)
        for _ in range(3334):
            q1 = float(rng.uniform(0.0, 200.0))
            q2 = float(rng.uniform(0.0, 200.0))
            closed = two_station_closed_form(RATES, deadlines, q1, q2)
            staged = solve_frontiers(model, (q1, q2))
            diff = max(abs(a - b)
                       for a, b in zip(closed.frontiers, staged.frontiers))
            worst = max(worst, diff)
            assert diff <= 1e-8
            # each region's formula pair must solve the frontier
            # equations it claims to: back-substitution closes the loop
            back = station_loads(model, closed.frontiers)
            assert back == pytest.approx((q1, q2), abs=1e-8)
            seen.add(closed.region)
            total += 1
    assert total >= 10_000
    assert seen == ALL_REGIONS
    acceptance_note(f"closed form: {total} load pairs, all 8 regions hit, "
                    f"worst gap {worst:.3g}")


@pytest.mark.slow
def test_criterion_6_experiment_matches_prediction(acceptance_note):
    start = time.perf_counter()
    cfg = parse_config(str(CONFIG_DIR / "desk_experiment.yaml"))
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    assert not report.partial
    assert report.snapshot_count == 50
    assert report.frontiers == pytest.approx((265.0, 217.0), abs=1e-6)
    for prof in report.stations:
        assert prof.sup_distance <= 0.10
    assert elapsed < 600.0
    levels = ", ".join(
        f"station {p.station}: sup={p.sup_distance:.3f} l1={p.l1_distance:.4f} "
        f"behind={p.behind_fraction_mean:.3f}" for p in report.stations)
    acceptance_note(f"experiment: {levels}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_behind_fraction_shrinks_with_load(acceptance_note):
    levels = {}
    for rho in (0.80, 0.90, 0.96):
        spec = crossing_spec(CASE_A, rho / 3.0)
        fractions = {1: [], 2: []}
        for seed in range(1, 6):
            sim = new_sim(spec, seed=seed)
            run_until(sim, 1.0e5)
            for j in (1, 2):
                fractions[j].append(behind_frontier_stats(sim, j).time_avg_fraction)
        levels[rho] = tuple(float(np.mean(fractions[j])) for j in (1, 2))
        acceptance_note(
            f"behind fraction at rho={rho:.2f}: "
            f"station 1: {levels[rho][0]:.4f}, station 2: {levels[rho][1]:.4f}")
    for j in (0, 1):
        seq = [levels[rho][j] for rho in (0.80, 0.90, 0.96)]
        assert seq[0] > seq[1] > seq[2]


def test_criterion_8_mm1_mean_queue(acceptance_note):
    spec = NetworkSpec(station_count=1, classes=(
        ClassSpec(id=1, route=(1,), arrival_rate=0.5,
                  lead_time=PointMass(1.0)),
    ))
    samples = []
    for seed in range(1, 11):
        sim = new_sim(spec, seed=seed)
        run_until(sim, 1.0e5)
        samples.append(mean_queue_length(sim, 1))
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    acceptance_note(f"M/M/1 mean queue: {mean:.4f} +- {stderr:.4f} "
                    f"(stationary value 1.0)")
    assert abs(mean - 1.0) <= 3.0 * stderr


def test_criterion_9_reports_are_byte_identical():
    cfg = ExperimentConfig(
        network=crossing_spec((400.0, 300.0, 280.0, 260.0), 0.32),
        seeds=(1, 2),
        condition=CountBands({1: (5, 20), 2: (5, 20)}),
        threshold=1.0,
        snapshot_count=6,
        horizon_cap=1.0e6,
        preemptive=False,
        weight_kind="count",
        normalize=True,
        grid=tuple(np.linspace(0.0, 420.0, 211)),
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert report_to_dict(first) == report_to_dict(second)
    assert render_report_csv(first) == render_report_csv(second)
    assert render_report_yaml(first) == render_report_yaml(second)
