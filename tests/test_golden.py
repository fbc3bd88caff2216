"""Golden digests: config hashes, report bytes, the simulator stream
and frontier predictions.

Each value below was recorded from the code as it stood before the
rewrite it guards.  The config, report and stream digests predate the
config/report codec and the lead-time sampler rewrite; the prediction
digests predate the merge of the load map, the staged solver and
profile prediction into one mass-above-a-level routine.  The scripted
tie stream and the 6-8 station streams predate the simulator's
per-class rows and its single queue/vacate path: they pin the order of
simultaneous events (event sequence numbers), the preemption path and
the pending and behind-frontier accounting, the scripted one event by
event.  A refactor that changes a config digest, one byte of a
rendered report, the layout of a random stream, the order of
simultaneous events or one bit of a solved frontier or predicted CDF
fails here, even when the new output is self-consistent from run to
run (which is all criterion 9 checks).

The four 6-8 station stream digests were re-recorded when each station
began to integrate lazily, from its own last change, instead of at
every event: an integral summed over merged intervals rounds
differently from the per-event sum, so the behind-frontier integrals
and time-averaged fractions they hash moved in their last bits (at
most 1.3e-14 relative).  Clock, event count, snapshots and workloads
did not move, and ``test_simulator.py`` checks the integrals against
the per-event reference integrator in ``conftest.py``.

The scripted tie stream digests and those four were re-recorded again
when the simulator stopped keeping running sums of pending and behind
work.  ``workload`` and ``BehindStats.work`` are now summed over the
queue when read, so they are exact where the running sums had drifted
(an empty station read as much as 4e-14 instead of 0.0, and some
readings were negative); they moved by at most 1.3e-12 relative
(``work``) and 4.7e-14 relative (``workload``) where they exceed 1e-9.
``BehindStats`` also lost its behind-work integral, which changes the
repr the digests hash.  Over the six runs, clock, event counts,
snapshots, behind counts and fractions, and the behind and present
count integrals hashed the same before and after, bit for bit.

The crossing_base ``edfnet predict`` digest was re-recorded when the
default grid began to hold Python floats instead of numpy float64s:
its ``y`` column had printed as ``np.float64(2.0)``, which ``float()``
cannot read back, and now prints as ``2.0``.  Every ``y`` value and
every ``theory`` field is unchanged.

The solver sweep digest and the seed-13 prediction digest were
re-recorded when the stage solve began to fit its piece quadratic from
the end whose value lies nearer the target, instead of always from the
piece's lower end: the root then carries the roundoff of the nearer end.
Solve by solve, no permutation and no error outcome moved; 185 of the
1,200 sweep solves moved a frontier, by at most 48 ulps, and a stage
bound moved only where it is a placed frontier (a class's floor) that
moved with it.  Seed 13 moved one frontier by 1 ulp.  With the fit
anchored at the lower end as before, every digest holds bit for bit.

The solver sweep digest was re-recorded once more when the stage solve
stopped fitting a quadratic through three of its piece's points and
began to read the exact quadratic from the laws (each one's 1 - cdf and
CDF slope just below the piece's top).  Solve by solve, no permutation
and no error outcome moved; 145 of the 1,200 solves moved a frontier,
by a median of 1 ulp and at most 256 ulps of the frontier itself, which
is at most 2 ulps of the solve's largest frontier or stage bound, and a
stage bound moved only where it is a frontier that moved with it.  The
largest miss over the sweep stays 0.027 of its ``_roundoff`` allowance,
before and after.  Every other digest here held bit for bit.
"""

import contextlib
import dataclasses
import hashlib
import io
import pathlib

import numpy as np
import pytest
import yaml

from conftest import _random_spec, run_each
from edfnet import (
    ClassSpec,
    NetworkSpec,
    PiecewiseLinearCDF,
    PointMass,
    Uniform,
    behind_frontier_stats,
    build_topology,
    count_model,
    dists,
    new_sim,
    normalize_by_intensity,
    parse_config,
    run_experiment,
    run_until,
    snapshot_profiles,
    solve_frontiers,
    work_model,
    workload,
)
from edfnet.cli import main
from edfnet.harness import (
    config_from_dict,
    config_hash,
    render_report_csv,
    render_report_yaml,
    theory_cdf,
)
from edfnet.simulator import TotalCounts
from test_harness import scripted_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


MM1 = "d9c3ee08f1c73c98560e4add89e9e2de9e11b87404c42ecee8fe367e71f80e8b"


@pytest.mark.parametrize("name,digest", [
    ("crossing_base", "f1eaed149b76a249320917350e2544dd73dde277693353b748a06e6d0b8f0f18"),
    ("desk_experiment", "f09707816b0510e9a809b98747b218151c42e67f8651f88f2e067926947cce73"),
    ("mm1", MM1),
])
def test_config_digest(name, digest):
    assert config_hash(parse_config(CONFIGS / f"{name}.yaml")) == digest


@pytest.mark.parametrize("changes,digest", [
    ({"service_rates": 1}, MM1),
    ({"service_rates": {1: 1}},
     "b17a6e5dc13e3d69ee0a0b3dc71eb44a5955cd177a065205175f2b388810915d"),
    ({"lead_time": PointMass(1)}, MM1),
], ids=["scalar", "mapping", "integer-lead"])
def test_config_digest_of_code_built_values(changes, digest):
    """Integer rates and leads and numpy condition counts hash as their
    float and int forms."""
    cfg = parse_config(CONFIGS / "mm1.yaml")
    cls = dataclasses.replace(cfg.network.classes[0], **changes)
    cfg = dataclasses.replace(
        cfg, network=dataclasses.replace(cfg.network, classes=(cls,)),
        condition=TotalCounts({np.int64(1): np.int64(2)}))
    assert config_hash(cfg) == digest


def test_config_digest_null_grid():
    raw = yaml.safe_load((CONFIGS / "mm1.yaml").read_text())
    raw["prediction"]["grid"] = None
    assert config_hash(config_from_dict(raw)) == MM1


@pytest.mark.parametrize("make_cfg,csv_digest,yaml_digest", [
    (scripted_config,
     "183aa51e0efc655285be7612b11af1d4d311f52735058f4bbea05f55444bba00",
     "7a47a73dc024c66f75336b3f3a901ed6133a907a3d66b8c270b2451efc3df7a2"),
    (lambda: parse_config(CONFIGS / "mm1.yaml"),
     "d1ae07a266b02650ed23bc6555fce5d7c5410f9e35b5181be71935dd6611615d",
     "6e245c8cc0f49342f7a81a7ec33b259bcad5773d28a9a17cf5cedc9aedbd93e0"),
], ids=["scripted", "mm1"])
def test_report_bytes(make_cfg, csv_digest, yaml_digest):
    report = run_experiment(make_cfg())
    assert sha256(render_report_csv(report)) == csv_digest
    assert sha256(render_report_yaml(report)) == yaml_digest


# Random networks from conftest's generator; between them they carry
# point, uniform and piecewise lead times.  By time 2400 the busier
# classes have drawn more than 1024 lead and service times, so every
# block sampler has refilled at least once.
@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
@pytest.mark.parametrize("net_seed,digests", [
    (1, ("9dacc2194c44199475ae197cbe0f2baae42c827bcd1d3bb60f0201deb9e6f8c7",
         "500456c9cbc90e870af6cd60ec791bbc4922c005367b055bf80b309c1c459d84")),
    (10, ("1328eaef9406831283bb7fbdaa6fdbec6aa65c6bc36e66c63cdd718f66519284",
          "8b10a46ec188a8b6fd09e8f644b10bc04f98b8d01aa9c0a634ccf7618db1d91f")),
    (13, ("3b50bbbc98c38ae4caa23d4e9d9c5b21ac19abe4df1316052bcc43998a494e41",
          "253d1259314412caebff73316a993ab80c0e8be76e65821af1c0c09b411b6182")),
])
def test_simulator_stream(net_seed, digests, preemptive):
    spec = _random_spec(np.random.default_rng(net_seed), 4, 4)
    sim = new_sim(spec, seed=net_seed, preemptive=preemptive)
    h = hashlib.sha256()
    for t in range(300, 2401, 300):
        run_until(sim, float(t))
        h.update(repr((sim.events_processed, snapshot_profiles(sim))).encode())
    assert h.hexdigest() == digests[preemptive]


def _station_state(sim):
    """Snapshot plus each station's residual and behind-frontier work."""
    return (sim.clock, sim.events_processed, snapshot_profiles(sim),
            tuple((workload(sim, j), behind_frontier_stats(sim, j))
                  for j in sim.spec.stations))


def _scripted_ties():
    """Three scripted classes, listed as ids 3, 1, 2.

    At t=1 classes 3 and 1 both arrive at station 1 (class 3 is pushed
    first, so it is served first unless class 1 preempts it) and class
    2 arrives at station 2.  Class 2's departure from station 2 at t=4
    coincides with its own next arrival there, and class 3's departure
    from station 1 at t=5 (non-preemptive) with class 1's next arrival.
    Under preempt-resume, class 1 suspends class 3 at t=1, and the
    departure that suspension superseded still counts as an event.
    """
    def scripted(cid, route, gaps, services, lead):
        return ClassSpec(
            id=cid, route=route, arrival_rate=1.0, lead_time=PointMass(lead),
            interarrival=dists.Sequence(gaps),
            service_laws={j: dists.Sequence(seq) for j, seq in services.items()})

    return NetworkSpec(2, (
        scripted(3, (1, 2), [1.0, 2.0, 3.0, 1.0],
                 {1: [4.0, 1.0, 2.0, 0.5], 2: [2.0, 3.0, 1.0, 1.0]}, 30.0),
        scripted(1, (1,), [1.0, 4.0, 0.5, 2.5], {1: [2.0, 1.5, 1.0, 3.0]}, 8.0),
        scripted(2, (2, 1), [1.0, 3.0, 2.0], {2: [3.0, 1.0, 2.0], 1: [1.0, 2.0, 1.5]}, 12.0),
    ))


@pytest.mark.parametrize("preemptive,digest", [
    (False, "ff794c00b90e7a2b93ade903ed0289a3cd96ffddc7aaf7bbb8e6b55ab5eaa3c8"),
    (True, "a11e12e5d6a69efae5f80a24975074d92f35720d4ec9def41220db068450ce6a"),
], ids=["nonpreemptive", "preemptive"])
def test_scripted_tie_stream(preemptive, digest):
    sim = new_sim(_scripted_ties(), seed=0, preemptive=preemptive)
    h = hashlib.sha256()
    record = lambda s: h.update(repr(_station_state(s)).encode())
    record(sim)
    run_each(sim, 30.0, record)
    record(sim)
    assert h.hexdigest() == digest


# Random networks with 6-8 stations and 6-8 classes, each carrying
# point, uniform and piecewise lead times.  Both are overloaded, so
# queues grow long and many customers sit behind the frontiers.
@pytest.mark.parametrize("preemptive", [False, True], ids=["nonpreemptive", "preemptive"])
@pytest.mark.parametrize("net_seed,digests", [
    (7, ("ee998693fd0c69c3f03d984a0f015771ace4f1acb6fb97e82eaf35ef2f287e47",
         "de3f3776df3256e94986217b175474a07d5ba69908d2a1fdaaff33d0535ddbd2")),
    (10, ("08306f49eeaae7ad0c4d67d8843b6fcab0a02dc2801e75e859d59f388079a4fd",
          "f2528ce7169359d433f0aaf56c1341d0e663e42f1506530b8d05b6245bbaafe4")),
])
def test_large_network_stream(net_seed, digests, preemptive):
    spec = _random_spec(np.random.default_rng(net_seed), 8, 8)
    assert 6 <= spec.station_count <= 8 and 6 <= len(spec.classes) <= 8
    sim = new_sim(spec, seed=net_seed, preemptive=preemptive)
    h = hashlib.sha256()
    for t in range(200, 1601, 200):
        run_until(sim, float(t))
        h.update(repr(_station_state(sim)).encode())
    assert h.hexdigest() == digests[preemptive]


# Random networks with at most 7 classes: the per-class sums then run in
# ascending class id whether they iterate a frozenset or a sorted list,
# so the digests pin the arithmetic bit for bit.  Each network carries
# point, uniform and piecewise lead times.
PREDICTION_GRID = tuple(float(v) for v in np.linspace(-20.0, 620.0, 161))


@pytest.mark.parametrize("net_seed,digest", [
    (4, "e188bda430cdcaadd59791c9bd113c2b6fb7cb8d65eebda1b431b661abdd1f3f"),
    (10, "4ff9642401e49e8e851834ae77c8d81d75000062d687360f132dada4a06a53be"),
    (13, "803b8a5efe0c76c7e5d79942971f82347e7c2b27da6373d1ae53db512692bec4"),
])
def test_prediction_digest(net_seed, digest):
    rng = np.random.default_rng(net_seed)
    spec = _random_spec(rng, 4, 7)
    assert {type(c.lead_time) for c in spec.classes} == {PointMass, Uniform, PiecewiseLinearCDF}
    model = count_model(build_topology(spec))
    sol = solve_frontiers(model, rng.uniform(0.0, 40.0, size=spec.station_count))
    h = hashlib.sha256(repr(sol.frontiers).encode())
    for j in spec.stations:
        h.update(theory_cdf(model, sol, j, PREDICTION_GRID).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name,digest", [
    ("crossing_base", "6c8a4b8ca7e25723b0a9e7894d3f2a6c3b8323b82a3eff5edf4b3d563c80052a"),
    ("desk_experiment", "dbebf2f54c13ac9aa36008df3be4bb1d723d7ae0ff85916730b85931b4b26327"),
])
def test_predict_csv_digest(name, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", "-c", str(CONFIGS / f"{name}.yaml"), "--loads", "50,58"]) == 0
    assert sha256(out.getvalue()) == digest


def _solve_outcome(model, loads):
    try:
        sol = solve_frontiers(model, loads)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return (sol.frontiers, sol.permutation, sol.stage_bounds)


def test_solver_sweep_digest():
    """1,200 solves on random networks of up to 6 stations and 8
    classes, under the normalised count and work models, at zero loads,
    moderate loads with some stations empty, and loads large enough to
    push frontiers far below zero.  Each solve hashes its frontiers,
    permutation and stage bounds, or the name and message of the error
    it raised.  Recorded before the solver began to solve each station's
    stage once per reach set instead of once per stage, again when the
    stage solve began to fit from the nearer end of its piece, again
    when it began to read each piece's quadratic from the laws, and
    again when ``traffic_intensity`` began to add its terms in ascending
    class id instead of a set's hash order: on the one network whose
    visiting sets iterate out of order ({1, 3, 4, 8} as 8, 1, 3, 4), the
    normalised work model's weights moved, and so did one frontier of
    each of two solves, by 1 ulp."""
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    solves = 0
    while solves < 1200:
        spec = _random_spec(rng, 6, 8)
        try:
            topo = build_topology(spec)
        except Exception:
            continue
        J = spec.station_count
        sparse = rng.uniform(0.0, 40.0, J) * (rng.random(J) < 0.6)
        cases = (np.zeros(J), rng.uniform(0.0, 40.0, J), sparse, rng.uniform(1e5, 1e8, J))
        for model in (normalize_by_intensity(count_model(topo)),
                      normalize_by_intensity(work_model(topo))):
            for loads in cases:
                h.update(repr(_solve_outcome(model, loads)).encode())
                solves += 1
    assert h.hexdigest() == "d42f5d4a70d0d1ed31f8f0e61e25bf6d5951ae873809694a7349a5a947ef0e23"
