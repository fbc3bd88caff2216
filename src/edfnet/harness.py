"""Experiment harness: configs, reports, and profile comparison.

A config file (YAML, schema in docs/config_schema.md) describes a
network, a conditioning protocol for the simulator, and prediction
options.  ``run_experiment`` runs one simulation per seed, pools
conditioned snapshots, builds empirical lead-time profile bands per
station, solves the frontier equations for the conditioning totals,
and lays the predicted profile over the empirical ones.

Reports are pure functions of (config, seeds): nothing time- or
machine-dependent enters them, so repeated runs export byte-identical
files.  The CSV flavour holds the per-station curves in the fixed
column order ``station,y,emp_min,emp_mean,emp_max,theory``; the YAML
flavour holds the full report and parses back to an equal object.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from . import dists
from .errors import (
    DisconnectedNetwork,
    EmptyStation,
    GridMismatch,
    NoSnapshots,
    ParseError,
    RouteRepeatsStation,
    ValidationError,
    _flag,
    _real,
    _reals,
    _whole,
)
from .frontier import (
    FrontierSolution,
    WeightedModel,
    count_model,
    normalize_by_intensity,
    predict_profile,
    solve_frontiers,
    work_model,
)
from .leadtime import PiecewiseLinearCDF, PointMass, Uniform
from .simulator import (
    Condition,
    CountBands,
    ExactCounts,
    Snapshot,
    TotalCounts,
    _check_condition,
    behind_frontier_stats,
    conditional_sample,
    new_sim,
)
from .topology import ClassSpec, NetworkSpec, build_topology

__all__ = [
    "ExperimentConfig",
    "StationProfile",
    "ProfileReport",
    "CSV_HEADER",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "run_experiment",
    "empirical_bands",
    "compare_profiles",
    "export_report",
    "parse_report",
    "read_profile_csv",
]

CSV_HEADER = ("station", "y", "emp_min", "emp_mean", "emp_max", "theory")


# -------- configuration --------

@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    seeds: Tuple[int, ...]
    condition: Optional[Condition]
    threshold: float
    snapshot_count: int
    horizon_cap: float
    preemptive: bool
    weight_kind: str         # "count" or "work"
    normalize: bool
    grid: Tuple[float, ...]


# libyaml's scanner and parser when PyYAML was built with them, else the
# pure-Python ones.  Both feed PyYAML's Python SafeConstructor and
# resolver, so a file parses to the same dict either way; libyaml only
# makes the read several times faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path) -> Dict:
    with open(path, "r") as handle:
        text = handle.read()
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ParseError(f"{path}: invalid YAML{where}: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top level must be a mapping")
    return raw


def parse_config(path: Union[str, os.PathLike[str]]) -> ExperimentConfig:
    """Load and validate a config file.  ParseError carries the YAML
    location on malformed input; ValidationError names the offending
    field on schema violations."""
    return config_from_dict(_load_yaml(path))


# -------- codec --------
#
# A parser is a function (value, where) -> value that raises
# ValidationError naming the path ``where`` when the value has the
# wrong shape.  A record is read through rows (YAML key, attribute,
# parser, default); MISSING as the default makes the key required.

def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _reject_unknown(mapping: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {unknown}")


def _as(reader, expected: str):
    """Parser reading a value with one of the ``errors`` readers; its
    ValueError becomes ValidationError("{where}: expected ...")."""
    def parse(value, where):
        try:
            return reader(value, where)
        except ValueError as exc:
            raise ValidationError(f"{where}: expected {expected}, got {value!r}") from exc
    return parse


_as_float = _as(_real, "a number")
_as_int = _as(_whole, "an integer")
_as_bool = _as(_flag, "true/false")


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where}: expected a string, got {value!r}")
    return value


def _as_mapping(value, where: str) -> Dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {value!r}")
    return value


def _list_of(item, length: Optional[int] = None):
    """Parser for a list (a tuple once read), checking every item."""
    def parse(value, where):
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            shape = "a list" if length is None else f"a list of {length}"
            raise ValidationError(f"{where}: expected {shape}, got {value!r}")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return parse


def _mapping_of(key, item):
    def parse(value, where):
        return {key(k, where): item(v, f"{where}[{k}]")
                for k, v in _as_mapping(value, where).items()}
    return parse


def _checked(parse, ok, problem: str):
    """``parse``, then fail with ``problem`` unless ``ok`` holds."""
    def run(value, where):
        out = parse(value, where)
        if not ok(out):
            raise ValidationError(f"{where}: {problem}, got {value!r}")
        return out
    return run


def _rows(cls, fields) -> Tuple:
    """Rows for a dataclass whose YAML keys are its field names; a
    field default makes that field optional."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return tuple((name, name, parse, defaults.get(name, MISSING))
                 for name, parse in fields)


def _read_fields(node, rows, where: str, extra: Sequence[str] = ()) -> Dict:
    """{attribute: value} for a mapping read through ``rows``."""
    node = _as_mapping(node, where)
    _reject_unknown(node, [key for key, *_ in rows] + list(extra), where)
    out = {}
    for key, attr, parse, default in rows:
        if key in node:
            out[attr] = parse(node[key], f"{where}.{key}")
        elif default is MISSING:
            raise ValidationError(f"{where}: missing required field '{key}'")
        else:
            out[attr] = default
    return out


def _build(cls, fields: Dict, where: str):
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}")


def _record(cls, rows):
    return lambda node, where: _build(cls, _read_fields(node, rows, where), where)


def _write_fields(obj, rows) -> Dict:
    """Inverse of _read_fields: every field that is not None."""
    out = {}
    for key, attr, _, _ in rows:
        value = getattr(obj, attr)
        if value is not None:
            out[key] = _plain(value)
    return out


def _plain(value):
    """YAML/JSON form of a value: kind-tagged objects as mappings that
    leave out fields still at their defaults, other dataclasses as
    mappings of every field, tuples as lists, and mappings in key order."""
    if isinstance(value, (str, int, float)):
        return value
    if type(value) in _TAGGED:
        kind, rows = _TAGGED[type(value)]
        out = {"kind": kind}
        for key, attr, _, default in rows:
            field = getattr(value, attr)
            if field != default:
                out[key] = _plain(field)
        return out
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in sorted(dataclasses.fields(value), key=lambda f: f.name)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


def _kind_of(table: Mapping, what: str):
    """Parser for one kind-tagged family."""
    def parse(node, where):
        kind = _require(_as_mapping(node, where), "kind", where)
        if not isinstance(kind, str) or kind not in table:
            raise ValidationError(f"{where}: unknown {what} kind {kind!r}")
        cls = table[kind][0]
        return _build(cls, _read_fields(node, _TAGGED[cls][1], where, ("kind",)), where)
    return parse


_as_seed = _checked(_as_int, lambda v: v >= 0, "must be nonnegative")
_as_finite = _checked(_as_float, math.isfinite, "must be finite")
_as_positive = _checked(_as_float, lambda v: 0 < v < math.inf, "must be positive and finite")

# kind -> (class, ((field, parser), ...)) for each kind-tagged family
_LEAD_TIMES = {
    "point": (PointMass, (("value", _as_float),)),
    "uniform": (Uniform, (("lo", _as_float), ("hi", _as_float))),
    "piecewise": (PiecewiseLinearCDF, (("knots", _list_of(_list_of(_as_float, 2))),)),
}
_LAWS = {
    "exponential": (dists.Exponential, (("rate", _as_float),)),
    "deterministic": (dists.Deterministic, (("value", _as_float),)),
    "uniform": (dists.UniformLaw, (("lo", _as_float), ("hi", _as_float))),
    "sequence": (dists.Sequence, (("values", _list_of(_as_float)), ("then", _as_float))),
}
_CONDITIONS = {
    "exact": (ExactCounts, (("targets", _mapping_of(_as_int, _list_of(_as_int))),)),
    "total": (TotalCounts, (("targets", _mapping_of(_as_int, _as_int)),)),
    "band": (CountBands, (("bands", _mapping_of(_as_int, _list_of(_as_int, 2))),)),
}
_TAGGED = {cls: (kind, _rows(cls, fields))
           for table in (_LEAD_TIMES, _LAWS, _CONDITIONS)
           for kind, (cls, fields) in table.items()}

_law = _kind_of(_LAWS, "sampling-law")


def _service_rates(value, where: str):
    if isinstance(value, dict):
        return _mapping_of(_as_int, _as_float)(value, where)
    return _as_float(value, where)


_CLASS_ROWS = _rows(ClassSpec, (
    ("id", _as_int),
    ("route", _list_of(_as_int)),
    ("arrival_rate", _as_float),
    ("lead_time", _kind_of(_LEAD_TIMES, "lead-time")),
    ("service_rates", _service_rates),
    ("interarrival", _law),
    ("service_laws", _mapping_of(_as_int, _law)),
))
_network = _record(NetworkSpec, (
    ("stations", "station_count", _as_int, MISSING),
    ("classes", "classes",
     _checked(_list_of(_record(ClassSpec, _CLASS_ROWS)), len, "expected a nonempty list"),
     MISSING),
))


def _grid(value, where: str) -> Optional[Tuple[float, ...]]:
    if value is None:
        return None
    if isinstance(value, dict):
        span = _read_fields(value, (("lo", "lo", _as_finite, MISSING),
                                    ("hi", "hi", _as_finite, MISSING),
                                    ("points", "points", _as_int, MISSING)), where)
        if span["points"] < 2 or not span["lo"] < span["hi"]:
            raise ValidationError(f"{where}: need lo < hi and points >= 2")
        grid = tuple(float(v) for v in np.linspace(span["lo"], span["hi"], span["points"]))
    else:
        grid = _list_of(_as_finite)(value, where)
    if len(grid) < 2 or not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"{where}: grid must be strictly increasing, length >= 2")
    return grid


# (YAML key, ExperimentConfig field, parser, default); config_from_dict
# fills in a grid default of None (a null grid counts as absent)
_EXPERIMENT_ROWS = (
    ("seeds", "seeds", _checked(_list_of(_as_seed), len, "must not be empty"), (0,)),
    ("condition", "condition", _kind_of(_CONDITIONS, "condition"), None),
    ("threshold", "threshold", _as_positive, 1.0),
    ("snapshots", "snapshot_count",
     _checked(_as_int, lambda v: v >= 1, "must be at least 1"), 50),
    ("horizon_cap", "horizon_cap", _as_positive, 1e6),
    ("preemptive", "preemptive", _as_bool, False),
)
_PREDICTION_ROWS = (
    ("weights", "weight_kind",
     _checked(_as_str, lambda v: v in ("count", "work"), "expected 'count' or 'work'"),
     "count"),
    ("normalize", "normalize", _as_bool, True),
    ("grid", "grid", _grid, None),
)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    raw = _as_mapping(raw, "config")
    _reject_unknown(raw, ("network", "experiment", "prediction"), "config")
    net = _network(_require(raw, "network", "config"), "network")
    try:
        build_topology(net)
    except (ValueError, RouteRepeatsStation, EmptyStation, DisconnectedNetwork) as exc:
        raise ValidationError(f"network: {exc}") from exc
    fields = _read_fields(raw.get("experiment") or {}, _EXPERIMENT_ROWS, "experiment")
    if fields["condition"] is not None:
        _fit_condition(fields["condition"], net)
    fields.update(_read_fields(raw.get("prediction") or {}, _PREDICTION_ROWS, "prediction"))
    if fields["grid"] is None:
        hi = max(c.lead_time.upper_support for c in net.classes)
        fields["grid"] = tuple(float(v) for v in np.linspace(0.0, 1.05 * hi, 211))
    return ExperimentConfig(network=net, **fields)


def _fit_condition(condition: Condition, network: NetworkSpec) -> None:
    """The sampler's check that a condition fits the network, its
    message placed under ``experiment.condition``."""
    try:
        _check_condition(condition, network)
    except ValidationError as exc:
        raise ValidationError(f"experiment.condition: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> Dict:
    net = cfg.network
    return {
        "network": {"stations": net.station_count,
                    "classes": [_write_fields(c, _CLASS_ROWS) for c in net.classes]},
        "experiment": _write_fields(cfg, _EXPERIMENT_ROWS),
        "prediction": _write_fields(cfg, _PREDICTION_ROWS),
    }


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# -------- empirical bands and comparison --------

def empirical_bands(
    snapshots: Sequence[Snapshot], j: int, grid: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise min/mean/max of the per-snapshot lead-time CDFs.

    Each snapshot's station content defines one empirical CDF on the
    grid; a snapshot with nothing at the station counts as the
    constant CDF 1 (all of nothing is below every level).  ValueError
    when a snapshot lacks station j or a grid value is not a real.
    """
    if len(snapshots) == 0:
        raise NoSnapshots(f"no snapshots to build bands for station {j}")
    if any(j not in snap.stations for snap in snapshots):
        raise ValueError(f"station {j} is not held by every snapshot")
    pts = _reals(grid, "grid")
    curves = np.empty((len(snapshots), len(pts)))
    for i, snap in enumerate(snapshots):
        leads = np.sort(np.asarray(snap.leads(j), dtype=float))
        if len(leads) == 0:
            curves[i] = 1.0
        else:
            curves[i] = np.searchsorted(leads, pts, side="right") / len(leads)
    return curves.min(axis=0), curves.mean(axis=0), curves.max(axis=0)


def compare_profiles(
    grid: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """(sup distance, span-normalized L1 distance) between two curves.

    The L1 part is the trapezoidal integral of |a - b| over the grid
    divided by the grid span, so both numbers are scale-free and
    comparable.  GridMismatch when the lengths disagree, the grid has
    fewer than two points or does not strictly increase, or a value is
    not a finite real number.
    """
    pts = _reals(grid, "grid", GridMismatch)
    av = _reals(a, "curve", GridMismatch)
    bv = _reals(b, "curve", GridMismatch)
    if len(av) != len(pts) or len(bv) != len(pts):
        raise GridMismatch(f"curve lengths {len(av)}, {len(bv)} do not match "
                           f"grid length {len(pts)}")
    if len(pts) < 2:
        raise GridMismatch("need at least two grid points")
    if not (np.isfinite(pts).all() and np.isfinite(av).all() and np.isfinite(bv).all()):
        raise GridMismatch("grid and curve values must be finite")
    steps = np.diff(pts)
    if not (steps > 0.0).all():
        raise GridMismatch("grid must strictly increase")
    diff = np.abs(av - bv)
    sup = float(diff.max())
    area = float(np.sum(0.5 * (diff[1:] + diff[:-1]) * steps))
    return sup, area / float(pts[-1] - pts[0])


# -------- reports --------

@dataclass(frozen=True)
class StationProfile:
    station: int
    emp_min: Tuple[float, ...]
    emp_mean: Tuple[float, ...]
    emp_max: Tuple[float, ...]
    theory: Tuple[float, ...]
    sup_distance: float
    l1_distance: float
    behind_fraction_by_seed: Tuple[float, ...]
    behind_fraction_mean: float


@dataclass(frozen=True)
class ProfileReport:
    grid: Tuple[float, ...]
    stations: Tuple[StationProfile, ...]
    loads: Tuple[float, ...]
    frontiers: Tuple[float, ...]
    permutation: Tuple[int, ...]
    weight_kind: str
    normalized: bool
    seeds: Tuple[int, ...]
    snapshot_count: int
    partial: bool
    sim_time: float          # total simulated duration, summed over seeds
    config_digest: str

    def station(self, j: int) -> StationProfile:
        for sp in self.stations:
            if sp.station == j:
                return sp
        raise ValueError(f"station {j!r} is not in the report")


def _conditioning_loads(condition: Condition, network: NetworkSpec) -> List[float]:
    """The loads a prediction inverts: the condition's station totals
    (``condition.totals()``) in station order.  Every station must be
    covered; ``_fit_condition`` checks the rest of the fit."""
    totals = condition.totals()
    station_count = network.station_count
    missing = [j for j in range(1, station_count + 1) if j not in totals]
    if missing:
        raise ValidationError(
            f"condition must cover every station for prediction; missing {missing}")
    return [totals[j] for j in range(1, station_count + 1)]


def prediction_model(cfg: ExperimentConfig) -> WeightedModel:
    topo = build_topology(cfg.network)
    model = count_model(topo) if cfg.weight_kind == "count" else work_model(topo)
    if cfg.normalize:
        model = normalize_by_intensity(model)
    return model


def theory_cdf(model: WeightedModel, solution: FrontierSolution, j: int,
               grid: Sequence[float]) -> np.ndarray:
    """Predicted lead-time CDF at a station on a grid.

    The predicted mass above level y, divided by the predicted station
    total, gives the complementary CDF; a station predicted empty gets
    the constant CDF 1, mirroring the empirical convention.
    """
    masses = predict_profile(model, solution, j, (-math.inf, *grid))
    if masses[0] <= 0.0:
        return np.ones(len(grid))
    return 1.0 - masses[1:] / masses[0]


def run_experiment(cfg: ExperimentConfig) -> ProfileReport:
    """Simulate, pool conditioned snapshots, and score the prediction.

    Each seed contributes an equal share of the snapshot quota
    (rounded up).  Seeds whose horizon expires early leave the report
    flagged partial; with no snapshots at all the bands are undefined
    and NoSnapshots is raised.  Every condition fixes customer counts,
    so the prediction must weigh customers (``prediction.weights:
    count``); a config without a condition, with a condition that does
    not fit the network, or with work weights, raises ValidationError
    before any seed runs.
    """
    if cfg.condition is None:
        raise ValidationError("experiment.condition is required to run an experiment")
    _fit_condition(cfg.condition, cfg.network)
    if cfg.weight_kind != "count":
        raise ValidationError(
            f"prediction.weights: an experiment conditions on customer counts, "
            f"so it needs 'count', got {cfg.weight_kind!r}")
    J = cfg.network.station_count
    loads = _conditioning_loads(cfg.condition, cfg.network)
    quota = -(-cfg.snapshot_count // len(cfg.seeds))  # ceil division

    pool: List[Snapshot] = []
    behind: Dict[int, List[float]] = {j: [] for j in range(1, J + 1)}
    partial = False
    sim_time = 0.0
    for seed in cfg.seeds:
        sim = new_sim(cfg.network, seed=seed, preemptive=cfg.preemptive)
        result = conditional_sample(
            sim, cfg.condition, threshold=cfg.threshold,
            count=quota, horizon_cap=cfg.horizon_cap)
        pool.extend(result.snapshots)
        partial = partial or result.exhausted
        sim_time += sim.clock
        for j in range(1, J + 1):
            behind[j].append(behind_frontier_stats(sim, j).time_avg_fraction)
    if not pool:
        raise NoSnapshots("horizon expired before any snapshot was taken")

    model = prediction_model(cfg)
    solution = solve_frontiers(model, loads)
    stations = []
    for j in range(1, J + 1):
        lo, mean, hi = empirical_bands(pool, j, cfg.grid)
        theory = theory_cdf(model, solution, j, cfg.grid)
        sup, l1 = compare_profiles(cfg.grid, mean, theory)
        stations.append(StationProfile(
            station=j,
            emp_min=tuple(float(v) for v in lo),
            emp_mean=tuple(float(v) for v in mean),
            emp_max=tuple(float(v) for v in hi),
            theory=tuple(float(v) for v in theory),
            sup_distance=float(sup),
            l1_distance=float(l1),
            behind_fraction_by_seed=tuple(float(v) for v in behind[j]),
            behind_fraction_mean=float(np.mean(behind[j])),
        ))
    return ProfileReport(
        grid=tuple(float(v) for v in cfg.grid),
        stations=tuple(stations),
        loads=tuple(float(v) for v in loads),
        frontiers=tuple(float(v) for v in solution.frontiers),
        permutation=solution.permutation,
        weight_kind=cfg.weight_kind,
        normalized=cfg.normalize,
        seeds=cfg.seeds,
        snapshot_count=len(pool),
        partial=partial,
        sim_time=float(sim_time),
        config_digest=config_hash(cfg),
    )


# -------- export / import --------

def report_to_dict(report: ProfileReport) -> Dict:
    return _plain(report)


# report field annotation -> parser
_REPORT_TYPES = {
    "int": _as_int,
    "float": _as_float,
    "bool": _as_bool,
    "str": _as_str,
    "Tuple[int, ...]": _list_of(_as_int),
    "Tuple[float, ...]": _list_of(_as_float),
}


def _report_record(cls):
    return _record(cls, _rows(cls, [(f.name, _REPORT_TYPES[f.type])
                                    for f in dataclasses.fields(cls)]))


_REPORT_TYPES["Tuple[StationProfile, ...]"] = _list_of(_report_record(StationProfile))
_read_report = _report_record(ProfileReport)


def report_from_dict(raw: Mapping) -> ProfileReport:
    return _read_report(raw, "report")


def render_report_csv(report: ProfileReport) -> str:
    """CSV text for a report; formatting is repr-exact and stable."""
    lines = []
    if report.partial:
        lines.append("# partial=true")
    lines.append(",".join(CSV_HEADER))
    for sp in report.stations:
        for y, a, b, c, t in zip(report.grid, sp.emp_min, sp.emp_mean,
                                 sp.emp_max, sp.theory):
            lines.append(f"{sp.station},{y!r},{a!r},{b!r},{c!r},{t!r}")
    return "\n".join(lines) + "\n"


def render_report_yaml(report: ProfileReport) -> str:
    return yaml.safe_dump(report_to_dict(report), sort_keys=True,
                          default_flow_style=False)


def export_report(
    report: ProfileReport,
    csv_path: Optional[str] = None,
    yaml_path: Optional[str] = None,
) -> None:
    """Write the CSV and/or YAML renderings; byte-identical for equal
    reports.  A partial report carries a '# partial=true' comment line
    above the CSV header and a partial flag in the YAML."""
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            handle.write(render_report_csv(report))
    if yaml_path is not None:
        with open(yaml_path, "w") as handle:
            handle.write(render_report_yaml(report))


def parse_report(yaml_path: str) -> ProfileReport:
    return report_from_dict(_load_yaml(yaml_path))


def read_profile_csv(path: str) -> Tuple[Dict[int, Dict[str, List[float]]], bool]:
    """Read an exported profile CSV back into per-station columns.

    Returns (stations, partial) where stations[j] maps each column
    name (y, emp_min, emp_mean, emp_max, theory) to its values in file
    order.  The header must match the export format exactly.
    """
    stations: Dict[int, Dict[str, List[float]]] = {}
    partial = False
    with open(path, "r", newline="") as handle:
        rows = []
        for line in handle:
            if line.startswith("#"):
                if "partial=true" in line:
                    partial = True
                continue
            rows.append(line)
    reader = csv.reader(rows)
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError(f"{path}: empty file")
    if header != CSV_HEADER:
        raise ParseError(f"{path}: header {header} does not match {CSV_HEADER}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"{path}: line {lineno}: expected "
                             f"{len(CSV_HEADER)} fields, got {len(row)}")
        try:
            j = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}")
        cols = stations.setdefault(j, {name: [] for name in CSV_HEADER[1:]})
        for name, v in zip(CSV_HEADER[1:], values):
            cols[name].append(v)
    if not stations:
        raise ParseError(f"{path}: no data rows")
    return stations, partial
