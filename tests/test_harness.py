"""Tests for the experiment harness: config handling, bands, reports."""

import dataclasses
import math
import pathlib
import re
import textwrap

import numpy as np
import pytest
import yaml

from edfnet import (
    ClassSpec,
    CountBands,
    ExactCounts,
    GridMismatch,
    NetworkSpec,
    NoSnapshots,
    ParseError,
    PointMass,
    Snapshot,
    TotalCounts,
    Uniform,
    ValidationError,
    compare_profiles,
    config_from_dict,
    config_to_dict,
    dists,
    empirical_bands,
    export_report,
    parse_config,
    parse_report,
    read_profile_csv,
    run_experiment,
)
from edfnet import harness
from edfnet.harness import (
    config_hash,
    render_report_csv,
    render_report_yaml,
    report_from_dict,
    report_to_dict,
)

FULL_CONFIG = """
network:
  stations: 2
  classes:
    - id: 1
      route: [1, 2]
      arrival_rate: 0.32
      lead_time: {kind: point, value: 400.0}
    - id: 2
      route: [2, 1]
      arrival_rate: 0.32
      lead_time: {kind: uniform, lo: 200.0, hi: 300.0}
      service_rates: {1: 1.5, 2: 1.0}
    - id: 3
      route: [1]
      arrival_rate: 0.32
      lead_time: {kind: piecewise, knots: [[0.0, 0.0], [200.0, 1.0]]}
      interarrival: {kind: exponential, rate: 0.32}
    - id: 4
      route: [2]
      arrival_rate: 0.32
      lead_time: {kind: point, value: 100.0}
      service_laws:
        2: {kind: deterministic, value: 1.0}
experiment:
  seeds: [1, 2, 3]
  condition: {kind: total, targets: {1: 10, 2: 10}}
  threshold: 1.0
  snapshots: 12
  horizon_cap: 50000.0
  preemptive: false
prediction:
  weights: count
  normalize: true
  grid: {lo: 0.0, hi: 420.0, points: 22}
"""


def write_config(tmp_path, text=FULL_CONFIG, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def scripted_network():
    """Arrivals at t=1,2,3 with 10 units of work each; deadline 100."""
    from edfnet import ClassSpec, NetworkSpec

    return NetworkSpec(1, (
        ClassSpec(id=1, route=(1,), arrival_rate=1.0,
                  lead_time=PointMass(100.0),
                  interarrival=dists.Sequence([1.0, 1.0, 1.0]),
                  service_laws={1: dists.Sequence([10.0, 10.0, 10.0])}),
    ))


def scripted_config(**overrides):
    from edfnet import ExperimentConfig

    base = dict(
        network=scripted_network(),
        seeds=(0,),
        condition=TotalCounts({1: 2}),
        threshold=0.5,
        snapshot_count=3,
        horizon_cap=100.0,
        preemptive=False,
        weight_kind="count",
        normalize=True,
        grid=tuple(np.linspace(0.0, 105.0, 211)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -------- config parsing --------

def test_parse_full_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.network.station_count == 2
    assert [c.route for c in cfg.network.classes] == [(1, 2), (2, 1), (1,), (2,)]
    assert cfg.network.classes[1].lead_time == Uniform(200.0, 300.0)
    assert cfg.network.classes[1].service_rates == {1: 1.5, 2: 1.0}
    assert cfg.network.classes[2].interarrival == dists.Exponential(0.32)
    assert cfg.network.classes[3].service_laws == {2: dists.Deterministic(1.0)}
    assert cfg.seeds == (1, 2, 3)
    assert cfg.condition == TotalCounts({1: 10, 2: 10})
    assert cfg.threshold == 1.0
    assert cfg.snapshot_count == 12
    assert cfg.horizon_cap == 50000.0
    assert cfg.preemptive is False
    assert cfg.weight_kind == "count"
    assert cfg.normalize is True
    assert len(cfg.grid) == 22 and cfg.grid[0] == 0.0 and cfg.grid[-1] == 420.0


def test_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_defaults():
    raw = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    cfg = config_from_dict(raw)
    assert cfg.seeds == (0,)
    assert cfg.condition is None
    assert cfg.threshold == 1.0
    assert cfg.snapshot_count == 50
    assert cfg.horizon_cap == 1e6
    assert cfg.preemptive is False
    assert cfg.weight_kind == "count" and cfg.normalize is True
    assert len(cfg.grid) == 211
    assert cfg.grid[0] == 0.0
    assert cfg.grid[-1] == pytest.approx(10.5)


def test_seed_env_is_not_read(monkeypatch):
    """A config without seeds runs seed 0 whatever the environment
    holds: the config and the call arguments alone define a run."""
    raw = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    monkeypatch.setenv("EDFNET_SEED", "7")
    cfg = config_from_dict(raw)
    assert cfg.seeds == (0,)
    assert config_to_dict(cfg)["experiment"]["seeds"] == [0]


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("network:\n  stations: [1, 2\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(path))
    assert "line" in str(err.value)


def test_libyaml_reader_parses_like_the_python_one(tmp_path):
    """Every shipped config and a rendered report load to the same dict
    through the reader as through PyYAML's pure-Python SafeLoader."""
    if yaml.__with_libyaml__:
        assert harness._LOADER is yaml.CSafeLoader
    report = tmp_path / "report.yaml"
    report.write_text(render_report_yaml(run_experiment(scripted_config())))
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(configs.glob("*.yaml")) + [report]
    assert len(paths) > 1
    for path in paths:
        expected = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert harness._load_yaml(path) == expected


def test_top_level_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValidationError):
        parse_config(str(path))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update({"bogus": 1}),
        lambda raw: raw["network"].update({"extra": 1}),
        lambda raw: raw["network"]["classes"][0].update({"color": "red"}),
        lambda raw: raw["experiment"].update({"speed": 9}),
        lambda raw: raw["prediction"].update({"mode": "x"}),
        lambda raw: raw["network"]["classes"][0]["lead_time"].update({"skew": 1}),
    ],
)
def test_unknown_fields_rejected(mutate):
    raw = {
        "network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0}}]},
        "experiment": {},
        "prediction": {},
    }
    mutate(raw)
    with pytest.raises(ValidationError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"experiment": {"threshold": True}}, "threshold"),
        ({"experiment": {"threshold": -1.0}}, "threshold"),
        ({"experiment": {"snapshots": 0}}, "snapshots"),
        ({"experiment": {"horizon_cap": math.inf}}, "horizon_cap"),
        ({"experiment": {"seeds": []}}, "seeds"),
        ({"experiment": {"seeds": [1.5]}}, "seeds"),
        ({"experiment": {"preemptive": "yes please"}}, "preemptive"),
        ({"experiment": {"condition": {"kind": "sometimes"}}}, "condition"),
        ({"experiment": {"condition": {"kind": "band", "bands": {1: [3, 2]}}}}, "band"),
        ({"prediction": {"weights": "volume"}}, "weights"),
        ({"prediction": {"normalize": 1}}, "normalize"),
        ({"prediction": {"grid": [1.0]}}, "grid"),
        ({"prediction": {"grid": [2.0, 1.0]}}, "grid"),
        ({"prediction": {"grid": {"lo": 0.0, "hi": 1.0, "points": 1}}}, "grid"),
        # wrongly shaped values: scalars for lists or mappings, a
        # non-integer station id, a band that is not [lo, hi]
        ({"experiment": {"seeds": 5}}, "experiment.seeds"),
        ({"experiment": {"condition": {"kind": "total", "targets": [1, 2]}}},
         "experiment.condition.targets"),
        ({"experiment": {"condition": {"kind": "exact", "targets": {1: 3}}}},
         "experiment.condition.targets[1]"),
        ({"experiment": {"condition": {"kind": "band", "bands": {1: [1, 2, 3]}}}},
         "experiment.condition.bands[1]"),
        ({"experiment": {"condition": {"kind": "band", "bands": 4}}},
         "experiment.condition.bands"),
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1.7], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0}}]}},
         "network.classes[0].route"),
        # a seed new_sim would refuse fails where it is written
        ({"experiment": {"seeds": [-3]}}, "experiment.seeds[0]"),
        # a zero tail would replay simultaneous arrivals without end
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0},
             "interarrival": {"kind": "sequence", "values": [1.0], "then": 0.0}}]}},
         "network.classes[0].interarrival"),
        # rates are finite, and a NaN draw would break the event order
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": math.inf,
             "lead_time": {"kind": "point", "value": 10.0}}]}},
         "network.classes[0]: class 1: arrival rate"),
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5, "service_rates": math.inf,
             "lead_time": {"kind": "point", "value": 10.0}}]}},
         "network.classes[0]: class 1: service rate"),
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0},
             "interarrival": {"kind": "exponential", "rate": math.inf}}]}},
         "network.classes[0].interarrival"),
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0},
             "service_laws": {1: {"kind": "sequence", "values": [math.nan]}}}]}},
         "network.classes[0].service_laws[1]"),
        # a condition that can never hold would run every seed to horizon_cap
        ({"experiment": {"condition": {"kind": "total", "targets": {1: -3}}}},
         "experiment.condition: counts must be nonnegative"),
        ({"experiment": {"condition": {"kind": "exact", "targets": {1: [-1]}}}},
         "experiment.condition: counts must be nonnegative"),
        ({"experiment": {"condition": {"kind": "band", "bands": {1: [-2, 1]}}}},
         "experiment.condition: bands must satisfy 0 <= lo <= hi"),
        # a NaN level compares false both ways, so it must fail by name
        ({"prediction": {"grid": [0.0, math.nan, 1.0]}}, "prediction.grid"),
        # every seed would run to horizon_cap without filling a quota
        ({"experiment": {"threshold": math.inf}},
         "experiment.threshold: must be positive and finite"),
        # an infinite level would put NaN into the curves and the distances
        ({"prediction": {"grid": [0.0, math.inf]}}, "prediction.grid[1]: must be finite"),
        ({"prediction": {"grid": [-math.inf, 0.0]}}, "prediction.grid[0]: must be finite"),
        ({"prediction": {"grid": {"lo": 0.0, "hi": math.inf, "points": 5}}},
         "prediction.grid.hi: must be finite"),
        ({"network": {"stations": 1, "classes": [
            {"id": 1, "route": [1], "arrival_rate": 0.5, "lead_time": {"value": 10.0}}]}},
         "network.classes[0].lead_time: missing required field 'kind'"),
        ({"prediction": {"weights": 1}}, "prediction.weights: expected a string, got 1"),
    ],
)
def test_invalid_fields_rejected(patch, field):
    raw = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    raw.update(patch)
    with pytest.raises(ValidationError, match=re.escape(field)):
        config_from_dict(raw)


def test_config_requires_network():
    with pytest.raises(ValidationError, match="config: missing required field 'network'"):
        config_from_dict({"experiment": {"seeds": [1]}})


def _numeric_raw(whole, real):
    """A config dict whose integers pass through ``whole`` and whose
    reals pass through ``real``."""
    return {
        "network": {"stations": whole(1), "classes": [
            {"id": whole(1), "route": [whole(1)], "arrival_rate": real(0.5),
             "service_rates": {whole(1): real(1.0)},
             "lead_time": {"kind": "piecewise", "knots": [[real(0.0), real(0.0)],
                                                          [real(8.0), real(1.0)]]}}]},
        "experiment": {"seeds": [whole(1), whole(2)], "threshold": real(0.75),
                       "snapshots": whole(4), "horizon_cap": real(1e4),
                       "condition": {"kind": "total", "targets": {whole(1): whole(2)}}},
        "prediction": {"grid": {"lo": real(0.0), "hi": real(8.0), "points": whole(5)}},
    }


@pytest.mark.parametrize("whole,real", [(np.int64, np.float32), (np.int32, np.float64),
                                        (np.uint16, np.float16)],
                         ids=["int64-float32", "int32-float64", "uint16-float16"])
def test_numpy_scalars_read_as_python_values(whole, real):
    """The codec reads numbers as the specs do: a numpy integer is an
    integer and any numpy real a number, each stored as its Python
    value, so the config and its digest equal the plain one's."""
    plain = config_from_dict(_numeric_raw(int, float))
    cfg = config_from_dict(_numeric_raw(whole, real))
    assert cfg == plain and config_hash(cfg) == config_hash(plain)
    assert type(cfg.seeds[0]) is int and type(cfg.threshold) is float


@pytest.mark.parametrize("patch,message", [
    ({"experiment": {"seeds": [np.float64(1.0)]}},
     "experiment.seeds[0]: expected an integer, got np.float64(1.0)"),
    ({"experiment": {"seeds": [np.bool_(True)]}},
     "experiment.seeds[0]: expected an integer, got np.True_"),
    ({"experiment": {"threshold": np.str_("1")}},
     "experiment.threshold: expected a number, got np.str_('1')"),
    ({"experiment": {"threshold": np.bool_(False)}},
     "experiment.threshold: expected a number, got np.False_"),
], ids=["float-seed", "bool-seed", "str-threshold", "bool-threshold"])
def test_numpy_scalars_of_the_wrong_kind_rejected(patch, message):
    raw = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    raw.update(patch)
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        config_from_dict(raw)


def test_embedded_class_errors_become_validation_errors():
    raw = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": -0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    with pytest.raises(ValidationError):
        config_from_dict(raw)
    raw = {"network": {"stations": 1, "classes": [
        {"id": 2, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    with pytest.raises(ValidationError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "stations, routes, fault",
    [
        (2, [[1, 2], [3]], "visits station 3"),
        (2, [[1, 1], [2, 1]], "repeats a station"),
        (3, [[1, 2], [2, 1]], "station 3 is visited by no class"),
        (2, [[1], [2]], "not connected to station 1"),
    ],
    ids=["outside", "repeat", "empty", "disconnected"],
)
def test_network_faults_name_the_network(stations, routes, fault):
    """Every fault build_topology finds in a parsed network fails as a
    ValidationError under the ``network`` path, chained to its cause."""
    raw = {"network": {"stations": stations, "classes": [
        {"id": k, "route": route, "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}
        for k, route in enumerate(routes, start=1)]}}
    with pytest.raises(ValidationError, match="^network: .*" + re.escape(fault)) as info:
        config_from_dict(raw)
    assert info.value.__cause__ is not None


def test_condition_kinds_parse():
    base = {"network": {"stations": 1, "classes": [
        {"id": 1, "route": [1], "arrival_rate": 0.5,
         "lead_time": {"kind": "point", "value": 10.0}}]}}
    raw = dict(base, experiment={"condition": {
        "kind": "exact", "targets": {1: [2]}}})
    assert config_from_dict(raw).condition == ExactCounts({1: (2,)})
    raw = dict(base, experiment={"condition": {
        "kind": "band", "bands": {1: [2, 5]}}})
    assert config_from_dict(raw).condition == CountBands({1: (2, 5)})


def test_law_kinds_parse():
    entry = {"id": 1, "route": [1], "arrival_rate": 0.5,
             "lead_time": {"kind": "point", "value": 10.0},
             "interarrival": {"kind": "sequence", "values": [1.0, 2.0], "then": 9.0}}
    raw = {"network": {"stations": 1, "classes": [entry]}}
    cfg = config_from_dict(raw)
    assert cfg.network.classes[0].interarrival == dists.Sequence((1.0, 2.0), 9.0)
    entry["interarrival"] = {"kind": "uniform", "lo": 1.0, "hi": 3.0}
    cfg = config_from_dict(raw)
    assert cfg.network.classes[0].interarrival == dists.UniformLaw(1.0, 3.0)


def documented_kinds(heading):
    """Kinds listed in the first column of a table in config_schema.md."""
    doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "config_schema.md"
    section = doc.read_text().split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)`", section, re.MULTILINE))


@pytest.mark.parametrize("heading,table", [
    ("Lead-time distributions", harness._LEAD_TIMES),
    ("Sampling laws", harness._LAWS),
    ("Conditioning", harness._CONDITIONS),
])
def test_schema_doc_lists_every_kind(heading, table):
    assert documented_kinds(heading) == set(table)


def test_config_hash_distinguishes():
    cfg = scripted_config()
    other = scripted_config(threshold=0.75)
    assert config_hash(cfg) != config_hash(other)


def test_int_and_float_built_configs_hash_equal():
    """Every real field of a network built in code is stored as a float,
    so integer rates and law parameters hash as their float forms."""
    def network(*reals):
        rate, mu, lo, hi, gap, top = reals
        return NetworkSpec(1, (ClassSpec(
            id=1, route=(1,), arrival_rate=rate, lead_time=Uniform(lo, hi),
            service_rates={1: mu}, interarrival=dists.Exponential(rate),
            service_laws={1: dists.UniformLaw(gap, top)}),))

    ints = scripted_config(network=network(1, 2, 0, 2, 0, 1))
    floats = scripted_config(network=network(1.0, 2.0, 0.0, 2.0, 0.0, 1.0))
    assert config_hash(ints) == config_hash(floats)


# -------- empirical bands and comparison --------

def snap(leads, j=1, time=0.0):
    return Snapshot(time=time, stations={j: tuple((1, v) for v in leads)})


def test_empirical_bands_hand_case():
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    lo, mean, hi = empirical_bands([snap((1.0, 3.0)), snap((2.0,))], 1, grid)
    assert lo == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0])
    assert mean == pytest.approx([0.0, 0.25, 0.75, 1.0, 1.0])
    assert hi == pytest.approx([0.0, 0.5, 1.0, 1.0, 1.0])


def test_empirical_bands_empty_station_is_cdf_one():
    grid = [0.0, 1.0]
    lo, mean, hi = empirical_bands([snap(()), snap((0.5,))], 1, grid)
    assert hi == pytest.approx([1.0, 1.0])
    assert mean == pytest.approx([0.5, 1.0])


def test_empirical_bands_need_snapshots():
    with pytest.raises(NoSnapshots):
        empirical_bands([], 1, [0.0, 1.0])


def test_empirical_bands_name_a_station_the_snapshots_lack():
    """A station some snapshot does not hold fails by name, where it
    raised a bare KeyError; so does a grid of strings or bools, which
    ``np.asarray(grid, dtype=float)`` would have read."""
    with pytest.raises(ValueError, match="station 2 is not held by every snapshot"):
        empirical_bands([snap((1.0,))], 2, [0.0, 1.0])
    with pytest.raises(ValueError, match="station 2 is not held by every snapshot"):
        empirical_bands([snap((1.0,), j=2), snap((1.0,))], 2, [0.0, 1.0])
    with pytest.raises(ValueError, match="station 2 is not in the snapshot"):
        snap((1.0,)).leads(2)
    for grid in (["0", "1"], [False, True]):
        with pytest.raises(ValueError, match="grid must be real numbers"):
            empirical_bands([snap((1.0,))], 1, grid)


def test_compare_profiles_hand_case():
    sup, l1 = compare_profiles([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    assert sup == pytest.approx(1.0)
    assert l1 == pytest.approx(0.5)


def test_compare_profiles_mismatch():
    with pytest.raises(GridMismatch):
        compare_profiles([0.0, 1.0], [0.0], [0.0, 0.0])
    with pytest.raises(GridMismatch):
        compare_profiles([0.0], [0.0], [0.0])
    # a grid that runs backwards or repeats a point, and a value that is
    # not finite, would give distances that mean nothing
    with pytest.raises(GridMismatch, match="strictly increase"):
        compare_profiles([2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    with pytest.raises(GridMismatch, match="strictly increase"):
        compare_profiles([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    with pytest.raises(GridMismatch, match="finite"):
        compare_profiles([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, math.nan, 0.0])
    with pytest.raises(GridMismatch, match="finite"):
        compare_profiles([0.0, 1.0, math.inf], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    # strings and bools, which np.asarray(..., dtype=float) would have read
    with pytest.raises(GridMismatch, match="curve must be real numbers"):
        compare_profiles([0, 1], ["0", "1"], [0, 1])
    with pytest.raises(GridMismatch, match="grid must be real numbers"):
        compare_profiles([False, True], [0, 1], [0, 1])


# -------- running experiments --------

def test_run_experiment_scripted():
    report = run_experiment(scripted_config())
    assert report.loads == (2.0,)
    assert report.frontiers == (98.0,)
    assert report.permutation == (1,)
    assert report.snapshot_count == 3
    assert not report.partial
    assert report.sim_time == pytest.approx(11.5)
    sp = report.station(1)
    with pytest.raises(ValueError, match="station 2 is not in the report"):
        report.station(2)
    assert len(sp.emp_mean) == len(report.grid)
    assert all(0.0 <= v <= 1.0 for v in sp.emp_mean)
    assert all(b >= a - 1e-12 for a, b in zip(sp.emp_mean, sp.emp_mean[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(sp.theory, sp.theory[1:]))
    sup, l1 = compare_profiles(report.grid, sp.emp_mean, sp.theory)
    assert sp.sup_distance == pytest.approx(sup)
    assert sp.l1_distance == pytest.approx(l1)
    assert len(sp.behind_fraction_by_seed) == 1
    assert report.config_digest == config_hash(scripted_config())


def test_run_experiment_pools_seeds():
    report = run_experiment(scripted_config(seeds=(0, 1), snapshot_count=3))
    # ceil(3/2) = 2 snapshots per seed; scripted laws make them identical
    assert report.snapshot_count == 4
    assert report.seeds == (0, 1)
    assert report.sim_time == pytest.approx(6.0)
    assert len(report.station(1).behind_fraction_by_seed) == 2


def test_run_experiment_partial_flag():
    report = run_experiment(scripted_config(horizon_cap=2.7))
    assert report.partial
    assert report.snapshot_count == 1
    assert render_report_csv(report).splitlines()[0] == "# partial=true"


def test_run_experiment_requires_condition():
    with pytest.raises(ValidationError):
        run_experiment(scripted_config(condition=None))


def test_run_experiment_rejects_a_non_condition(monkeypatch):
    """A condition built in code that is not a condition object fails by
    name before any seed runs."""
    monkeypatch.setattr(harness, "new_sim", lambda *a, **k: pytest.fail("a seed ran"))
    with pytest.raises(ValidationError,
                       match=r"^experiment\.condition: unsupported condition str$"):
        run_experiment(scripted_config(condition="total"))


def test_run_experiment_condition_must_cover_stations():
    from edfnet import ClassSpec, NetworkSpec

    net = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5,
                  lead_time=PointMass(10.0)),
    ))
    cfg = scripted_config(network=net, condition=TotalCounts({1: 2}))
    with pytest.raises(ValidationError):
        run_experiment(cfg)


@pytest.mark.parametrize("condition,named", [
    (TotalCounts({2: 1}), "station 2"),
    (ExactCounts({1: (1, 0)}), "vector at station 1"),
], ids=["station-above-J", "exact-length"])
def test_run_experiment_condition_must_fit_network(monkeypatch, condition, named):
    """A config built in code skips the parser's fit check, so the run
    makes it itself and names the misfit, not a missing station."""
    monkeypatch.setattr(harness, "new_sim", lambda *a, **k: pytest.fail("a seed ran"))
    with pytest.raises(ValidationError, match=rf"experiment\.condition: .*{named}"):
        run_experiment(scripted_config(condition=condition))


def test_conditioning_loads_are_the_condition_totals():
    from edfnet import ClassSpec, NetworkSpec

    net = NetworkSpec(2, (
        ClassSpec(id=1, route=(1, 2), arrival_rate=0.5, lead_time=PointMass(10.0)),
        ClassSpec(id=2, route=(2,), arrival_rate=0.5, lead_time=PointMass(10.0)),
    ))
    assert harness._conditioning_loads(TotalCounts({1: 50, 2: 58}), net) == [50.0, 58.0]
    assert harness._conditioning_loads(CountBands({2: (5, 20), 1: (3, 4)}), net) == [3.5, 12.5]


def test_run_experiment_requires_count_weights(monkeypatch):
    """Every condition fixes customer counts, so work weights would
    invert counts as units of work; the run fails before any seed."""
    monkeypatch.setattr(harness, "new_sim", lambda *a, **k: pytest.fail("a seed ran"))
    with pytest.raises(ValidationError, match=r"prediction\.weights"):
        run_experiment(scripted_config(weight_kind="work"))


def test_run_experiment_exact_condition():
    """With one class, the exact vector (2,) fixes the same station
    total as TotalCounts({1: 2}), so only the config digest differs."""
    exact = run_experiment(scripted_config(condition=ExactCounts({1: (2,)})))
    total = run_experiment(scripted_config())
    assert exact.loads == (2.0,)
    assert exact.config_digest != total.config_digest
    assert dataclasses.replace(exact, config_digest=total.config_digest) == total


def test_run_experiment_no_snapshots():
    cfg = scripted_config(condition=TotalCounts({1: 5}), horizon_cap=50.0)
    with pytest.raises(NoSnapshots):
        run_experiment(cfg)


# -------- report export / import --------

def test_report_yaml_round_trip(tmp_path):
    report = run_experiment(scripted_config())
    path = str(tmp_path / "report.yaml")
    export_report(report, yaml_path=path)
    assert parse_report(path) == report


def test_report_renders_are_byte_identical(tmp_path):
    a = run_experiment(scripted_config())
    b = run_experiment(scripted_config())
    assert render_report_csv(a) == render_report_csv(b)
    pa, pb = str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml")
    export_report(a, yaml_path=pa)
    export_report(b, yaml_path=pb)
    assert (tmp_path / "a.yaml").read_bytes() == (tmp_path / "b.yaml").read_bytes()


def test_report_csv_round_trip(tmp_path):
    report = run_experiment(scripted_config())
    path = str(tmp_path / "report.csv")
    export_report(report, csv_path=path)
    stations, partial = read_profile_csv(path)
    assert not partial
    assert set(stations) == {1}
    cols = stations[1]
    assert cols["y"] == pytest.approx(list(report.grid))
    assert cols["emp_mean"] == pytest.approx(list(report.station(1).emp_mean))
    assert cols["theory"] == pytest.approx(list(report.station(1).theory))


def test_report_csv_partial_round_trip(tmp_path):
    report = run_experiment(scripted_config(horizon_cap=2.7))
    path = str(tmp_path / "report.csv")
    export_report(report, csv_path=path)
    _, partial = read_profile_csv(path)
    assert partial


def test_parse_report_rejects_malformed(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("grid: [0.0, 1.0]\n")  # missing everything else
    with pytest.raises(ValidationError):
        parse_report(str(path))
    path.write_text("grid: [0.0, 1.0\n")
    with pytest.raises(ParseError):
        parse_report(str(path))


def test_report_from_dict_names_the_bad_field():
    raw = report_to_dict(run_experiment(scripted_config()))
    raw["stations"][0]["theory"][3] = "x"
    with pytest.raises(ValidationError, match=re.escape("report.stations[0].theory[3]")):
        report_from_dict(raw)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "wrong,header\n1,2\n",
        "station,y,emp_min,emp_mean,emp_max,theory\n",
        "station,y,emp_min,emp_mean,emp_max,theory\n1,not_a_number,0,0,0,0\n",
        "station,y,emp_min,emp_mean,emp_max,theory\n1,0.0,0.0\n",
    ],
)
def test_read_profile_csv_rejects(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_profile_csv(str(path))
