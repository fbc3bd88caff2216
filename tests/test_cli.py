"""Command-line interface tests.

Most cases call main() in-process and inspect captured output; one
subprocess run verifies the installed module entry point.
"""

import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings

import pytest

from edfnet import ParseError, ValidationError, parse_config, parse_report, read_profile_csv
from edfnet.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"

CROSSING_CONFIG = """
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
      lead_time: {kind: point, value: 300.0}
    - id: 3
      route: [1]
      arrival_rate: 0.32
      lead_time: {kind: point, value: 200.0}
    - id: 4
      route: [2]
      arrival_rate: 0.32
      lead_time: {kind: point, value: 100.0}
experiment:
  seeds: [1]
"""

SCRIPTED_CONFIG = """
network:
  stations: 1
  classes:
    - id: 1
      route: [1]
      arrival_rate: 1.0
      lead_time: {kind: point, value: 100.0}
      interarrival: {kind: sequence, values: [1.0, 1.0, 1.0]}
      service_laws:
        1: {kind: sequence, values: [10.0, 10.0, 10.0]}
experiment:
  seeds: [0]
  condition: {kind: total, targets: {1: 2}}
  threshold: 0.5
  snapshots: 3
  horizon_cap: 100.0
"""


@pytest.fixture
def crossing_cfg(tmp_path):
    path = tmp_path / "crossing.yaml"
    path.write_text(textwrap.dedent(CROSSING_CONFIG))
    return str(path)


@pytest.fixture
def scripted_cfg(tmp_path):
    path = tmp_path / "scripted.yaml"
    path.write_text(textwrap.dedent(SCRIPTED_CONFIG))
    return str(path)


def printed_frontiers(out):
    return [float(m.group(1)) for m in
            re.finditer(r"station \d+: frontier ([-\d.e+]+)", out)]


def test_solve(crossing_cfg, capsys):
    assert main(["solve", "-c", crossing_cfg, "--loads", "50,58"]) == 0
    out = capsys.readouterr().out
    assert printed_frontiers(out) == pytest.approx([250.0, 188.0], abs=1e-9)
    assert "order: 1 2" in out


def test_solve_no_normalize(tmp_path, capsys):
    """Raw count weights 0.32 instead of the intensity-normalized 1/3,
    set by the config's prediction section."""
    path = tmp_path / "raw.yaml"
    path.write_text(textwrap.dedent(CROSSING_CONFIG) + "prediction:\n  normalize: false\n")
    assert main(["solve", "-c", str(path), "--loads", "50,58"]) == 0
    out = capsys.readouterr().out
    assert printed_frontiers(out)[0] == pytest.approx(400.0 - 50.0 / 0.32, abs=1e-9)


def test_solve_bad_loads(crossing_cfg, capsys):
    assert main(["solve", "-c", crossing_cfg, "--loads", "50,oops"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # one load for two stations
    for command in ("solve", "predict"):
        assert main([command, "-c", crossing_cfg, "--loads", "50"]) == 2
        assert capsys.readouterr().err.startswith("error: --loads: expected 2 values")


@pytest.mark.parametrize("loads", ["50,,58", ",50,58", "50,58,"])
def test_loads_skip_no_empty_field(crossing_cfg, capsys, loads):
    """An empty --loads field is an error, not a field to skip: it used to
    solve as (50, 58)."""
    for command in ("solve", "predict"):
        assert main([command, "-c", crossing_cfg, "--loads", loads]) == 2
        assert capsys.readouterr().err == "error: --loads: expected a number, got ''\n"


def test_solve_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(textwrap.dedent(CROSSING_CONFIG).replace("seeds: [1]", "seeds: 5"))
    assert main(["solve", "-c", str(path), "--loads", "1"]) == 2
    assert "experiment.seeds" in capsys.readouterr().err


def test_solve_config_integer_past_the_conversion_limit(tmp_path, capsys):
    """An integer longer than Python's 4,300-digit conversion limit fails
    in PyYAML's int constructor; it exits 2 naming the file, not with a
    traceback."""
    path = tmp_path / "huge.yaml"
    path.write_text(textwrap.dedent(CROSSING_CONFIG) + "  threshold: 1" + "0" * 5000 + "\n")
    assert main(["solve", "-c", str(path), "--loads", "50,58"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid YAML") and len(err) < 400


def _with_threshold(tmp_path, threshold):
    path = tmp_path / "threshold.yaml"
    path.write_text(textwrap.dedent(CROSSING_CONFIG) + f"  threshold: {threshold}\n")
    return path


def test_config_nested_too_deep_is_a_parse_error(tmp_path):
    """Nesting past 100 levels fails with a ParseError naming the file
    and the line, before anything is composed: at 10,000 levels the
    codec's echo of the loaded value overflowed Python's recursion limit.
    An alias counts as deep as the value its anchor names, so a chain of
    anchors cannot build the same depth.  The threshold sits two levels
    down, so 98 brackets are the deepest that still reach the codec."""
    path = _with_threshold(tmp_path, "[" * 98 + "]" * 98)
    with pytest.raises(ValidationError, match=r"^experiment\.threshold: expected a number"):
        parse_config(path)
    chain = ", ".join(f"&a{i} " + "[" * 90 + (f"*a{i - 1}" if i else "0") + "]" * 90
                      for i in range(12))
    for threshold in ("[" * 99 + "]" * 99, "[" * 10_000 + "]" * 10_000, f"[{chain}]"):
        path = _with_threshold(tmp_path, threshold)
        line = path.read_text().count("\n")   # the threshold's, the last
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: YAML nested more than 100 levels deep at line {line}")):
            parse_config(path)


def test_config_nested_past_the_composer_exits_2(tmp_path):
    """At 30,000 levels libyaml's composer crashed the process (SIGSEGV);
    the depth check stops the read first, so the command exits 2."""
    path = _with_threshold(tmp_path, "[" * 30_000 + "]" * 30_000)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "edfnet", "solve", "-c", str(path),
                           "--loads", "50,58"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    line = path.read_text().count("\n")
    assert proc.stderr == f"error: {path}: YAML nested more than 100 levels deep at line {line}\n"


def test_huge_bad_value_gives_a_short_error(tmp_path, capsys):
    """A threshold of 100,000 zeros is echoed by the first 40 characters
    of its repr and its length, where the whole 300,000-character list
    was printed."""
    path = _with_threshold(tmp_path, "[" + ", ".join(["0"] * 100_000) + "]")
    assert main(["solve", "-c", str(path), "--loads", "50,58"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: experiment.threshold: expected a number, got "
                   "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (300000 characters)\n")
    assert len(err.encode()) < 200


def test_solve_route_outside_network(tmp_path, capsys):
    """A route naming a station the network lacks fails at parse time."""
    path = tmp_path / "bad.yaml"
    path.write_text(CROSSING_CONFIG.replace("route: [1, 2]", "route: [1, 3]"))
    with pytest.raises(ValidationError, match="network"):
        parse_config(path)
    assert main(["solve", "-c", str(path), "--loads", "1,1"]) == 2
    assert "station 3" in capsys.readouterr().err


def test_solve_missing_config(capsys):
    assert main(["solve", "-c", "/no/such/file.yaml", "--loads", "1,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_writes_csv(crossing_cfg, tmp_path):
    out = tmp_path / "profile.csv"
    assert main(["predict", "-c", crossing_cfg, "--loads", "50,58",
                 "--grid", "0:420:22", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "station,y,theory"
    assert len(lines) == 1 + 2 * 22
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(0.0)  # CDF is 0 below the frontier
    last = lines[-1].split(",")
    assert last[0] == "2" and float(last[2]) == pytest.approx(1.0)


def test_predict_stdout_and_bad_grid(crossing_cfg, capsys):
    assert main(["predict", "-c", crossing_cfg, "--loads", "0,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("station,y,theory")
    assert main(["predict", "-c", crossing_cfg, "--loads", "0,0",
                 "--grid", "5:1:10"]) == 2
    assert main(["predict", "-c", crossing_cfg, "--loads", "0,0",
                 "--grid", "whatever"]) == 2


def test_predict_rejects_an_infinite_grid(crossing_cfg, capsys):
    """An infinite end fails by name before numpy ever sees it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "-c", crossing_cfg, "--loads", "0,0",
                     "--grid", "0:inf:3"]) == 2
    assert "--grid.hi: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["crossing_base", "desk_experiment"],
                         ids=["default-grid", "configured-grid"])
def test_predict_fields_read_back_as_floats(name, capsys):
    """Every y and theory field reads back through float(), whether the
    grid is the default or set in the config."""
    assert main(["predict", "-c", str(CONFIGS / f"{name}.yaml"), "--loads", "50,58"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows
    for row in rows:
        _, y, theory = row.split(",")
        float(y), float(theory)


def test_simulate_prints_progress(crossing_cfg, capsys):
    assert main(["simulate", "-c", crossing_cfg, "--horizon", "200",
                 "--every", "100", "--seed", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("t=100.0 j1 n=")
    assert "util=" in out[0] and "front=" in out[0] and "behind=" in out[0]
    assert out[1].startswith("t=200.0")


def test_simulate_prints_no_negative_workload(capsys):
    """An empty station's workload prints as 0.00, never -0.00: it is
    summed from the queue when read, not kept as a running sum that
    drifts below zero."""
    assert main(["simulate", "-c", str(CONFIGS / "mm1.yaml"), "--horizon", "20000",
                 "--every", "200"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 100
    assert not [line for line in out if "w=-0.00" in line]


def test_simulate_rejects_bad_horizon(crossing_cfg, capsys):
    assert main(["simulate", "-c", crossing_cfg, "--horizon", "-5"]) == 2
    # an interval of 0 is not a request for the default, and an
    # infinite horizon would never finish
    assert main(["simulate", "-c", crossing_cfg, "--every", "0"]) == 2
    assert main(["simulate", "-c", crossing_cfg, "--horizon", "inf"]) == 2
    # an interval too small to move the clock would never finish either
    assert main(["simulate", "-c", crossing_cfg, "--horizon", "1", "--every", "1e-300"]) == 2
    assert "report lines" in capsys.readouterr().err
    assert main(["simulate", "-c", crossing_cfg, "--seed", "-1"]) == 2
    assert "--seed: must be nonnegative" in capsys.readouterr().err


def test_simulate_reads_its_numbers_like_config_fields(crossing_cfg, capsys):
    """--horizon and --every are positive and finite, as the config's
    horizon_cap is: an infinite interval used to print one line and exit
    0.  A flag that is not a number fails by name with exit code 2."""
    for flags, error in [(["--every", "inf"], "--every: must be positive and finite"),
                         (["--horizon", "x"], "--horizon: expected a number, got 'x'"),
                         (["--seed", "1.5"], "--seed: expected an integer, got '1.5'")]:
        assert main(["simulate", "-c", crossing_cfg, *flags]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {error}")


def test_experiment_end_to_end(scripted_cfg, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    yaml_path = tmp_path / "out.yaml"
    code = main(["experiment", "-c", scripted_cfg,
                 "-o", str(csv_path), "--structured", str(yaml_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "snapshots: 3" in out
    assert "sup=" in out and "behind=" in out
    stations, partial = read_profile_csv(str(csv_path))
    assert not partial and set(stations) == {1}
    report = parse_report(str(yaml_path))
    assert report.snapshot_count == 3
    assert report.frontiers == (98.0,)


def test_experiment_seed_flag(scripted_cfg, tmp_path):
    yaml_path = tmp_path / "out.yaml"
    assert main(["experiment", "-c", scripted_cfg, "--seed", "9",
                 "--structured", str(yaml_path)]) == 0
    assert parse_report(str(yaml_path)).seeds == (9,)
    assert main(["experiment", "-c", scripted_cfg, "--seed", "-1"]) == 2


@pytest.mark.parametrize("condition,named", [
    ("{kind: total, targets: {1: 1, 2: 1}}", "station 2"),
    ("{kind: total, targets: {2: 1}}", "station 2"),
    ("{kind: total, targets: {0: 1, 1: 1}}", "station 0"),
    ("{kind: exact, targets: {1: [1, 0]}}", "vector at station 1"),
], ids=["station-above-J", "only-station-above-J", "station-zero", "exact-length"])
def test_experiment_condition_must_fit_network(tmp_path, capsys, condition, named):
    """A condition the one-station, one-class network cannot meet is
    rejected when the config is read, so every command that reads it
    fails naming the misfit, before any seed runs."""
    path = tmp_path / "bad.yaml"
    path.write_text(textwrap.dedent(SCRIPTED_CONFIG).replace(
        "{kind: total, targets: {1: 2}}", condition))
    with pytest.raises(ValidationError, match=rf"experiment\.condition: .*{named}"):
        parse_config(path)
    for command in ("experiment", "simulate"):
        assert main([command, "-c", str(path)]) == 2
        assert named in capsys.readouterr().err


def test_experiment_requires_count_weights(scripted_cfg, tmp_path, capsys):
    path = tmp_path / "work.yaml"
    path.write_text((tmp_path / "scripted.yaml").read_text()
                    + "prediction:\n  weights: work\n")
    assert main(["experiment", "-c", str(path)]) == 2
    assert "prediction.weights" in capsys.readouterr().err
    # solve still honours the work model
    assert main(["solve", "-c", str(path), "--loads", "2"]) == 0


def test_experiment_partial_returns_3(scripted_cfg, tmp_path, capsys):
    text = (tmp_path / "scripted.yaml").read_text()
    partial_cfg = tmp_path / "partial.yaml"
    partial_cfg.write_text(text.replace("horizon_cap: 100.0", "horizon_cap: 2.7"))
    assert main(["experiment", "-c", str(partial_cfg)]) == 3
    assert "(partial)" in capsys.readouterr().out


def test_compare_same_column_is_zero(scripted_cfg, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    main(["experiment", "-c", scripted_cfg, "-o", str(csv_path)])
    capsys.readouterr()
    assert main(["compare", str(csv_path), str(csv_path),
                 "--column-b", "emp_mean"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"sup=0(\.0+)?\b", out)


def test_compare_grid_mismatch(scripted_cfg, tmp_path, capsys):
    a = tmp_path / "a.csv"
    main(["experiment", "-c", scripted_cfg, "-o", str(a)])
    text = (tmp_path / "scripted.yaml").read_text()
    other_cfg = tmp_path / "other.yaml"
    other_cfg.write_text(text + "prediction:\n  grid: [0.0, 50.0, 105.0]\n")
    b = tmp_path / "b.csv"
    main(["experiment", "-c", str(other_cfg), "-o", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    assert "error:" in capsys.readouterr().err
    c = tmp_path / "c.csv"
    c.write_text(re.sub(r"(?m)^1,", "2,", a.read_text()))
    assert main(["compare", str(a), str(c)]) == 2
    assert "station sets differ: [1] vs [2]" in capsys.readouterr().err


def test_compare_rejects_a_backward_grid_and_nan(tmp_path, capsys):
    """A profile CSV is outside input: a grid that runs backwards or a
    NaN value fails as GridMismatch, exit code 2, not as distances."""
    header = "station,y,emp_min,emp_mean,emp_max,theory\n"
    backward = tmp_path / "backward.csv"
    backward.write_text(header + "1,2.0,0.0,0.0,0.0,1.0\n1,1.0,0.0,0.0,0.0,0.5\n"
                                 "1,0.0,0.0,0.0,0.0,0.0\n")
    assert main(["compare", str(backward), str(backward)]) == 2
    assert "grid must strictly increase" in capsys.readouterr().err
    nan = tmp_path / "nan.csv"
    nan.write_text(header + "1,0.0,0.0,0.0,0.0,nan\n1,1.0,0.0,0.0,0.0,0.5\n")
    assert main(["compare", str(nan), str(nan)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_files_that_are_not_text_exit_2(crossing_cfg, tmp_path, capsys):
    """A config or profile CSV that is not UTF-8 text exits 2 naming the
    file, where a UnicodeDecodeError traceback exited 1."""
    path = tmp_path / "latin1.yaml"
    path.write_bytes(pathlib.Path(crossing_cfg).read_bytes() + b"# caf\xe9\n")
    for command in (["solve", "-c", str(path), "--loads", "50,58"],
                    ["compare", str(path), str(path)]):
        assert main(command) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


def test_compare_default_columns(scripted_cfg, tmp_path, capsys):
    """Defaults pit the empirical mean against the prediction."""
    csv_path = tmp_path / "out.csv"
    main(["experiment", "-c", scripted_cfg, "-o", str(csv_path)])
    capsys.readouterr()
    assert main(["compare", str(csv_path), str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "station 1: sup=" in out


def test_module_entry_point(crossing_cfg):
    """``python -m edfnet`` runs from the source tree, whether or not
    PYTHONPATH names it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "edfnet", "solve", "-c", crossing_cfg,
         "--loads", "0,0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "order:" in proc.stdout
