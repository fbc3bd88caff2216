"""Command-line interface.

Subcommands: solve (loads -> frontiers), predict (loads -> profile
CSV), simulate (free run with periodic stats), experiment (full
conditioned-sampling pipeline with report export), compare (distances
between two exported profile CSVs).  Solve, predict and experiment
all use the prediction model the config sets (``prediction.weights``,
``prediction.normalize``); experiment needs count weights.  The module
keeps no text rule of its own and opens no file: ``harness._number``
reads each number flag and the config field's parser checks it
(``--horizon`` and ``--every`` by ``_as_positive``, ``--seed`` by
``_as_seed``, ``--grid`` by ``_grid``), ``harness._read_text`` reads
every file, the report's CSV writer formats the predict CSV and
``harness._write_text`` writes it, and compare's columns are named by
``harness.CSV_HEADER``.  Exit codes: 0 on success, 2 on bad input or
config, 3 when an experiment hit its horizon cap and produced only
partial results.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from . import harness
from .errors import EdfnetError, _echo
from .frontier import solve_frontiers
from .simulator import (
    behind_frontier_stats,
    new_sim,
    queue_length,
    run_until,
    station_frontier,
    utilization,
    workload,
)


def _solve(model, text: str):
    """Solve for the --loads value, which must give one load per station."""
    loads = [harness._number(part, "--loads") for part in text.split(",")]
    count = model.topology.station_count
    if len(loads) != count:
        raise EdfnetError(f"--loads: expected {count} values, got {len(loads)}")
    return solve_frontiers(model, loads)


def _cmd_solve(args) -> int:
    cfg = harness.parse_config(args.config)
    sol = _solve(harness.prediction_model(cfg), args.loads)
    for j, f in enumerate(sol.frontiers, start=1):
        print(f"station {j}: frontier {f!r}")
    print("order: " + " ".join(str(j) for j in sol.permutation))
    print(f"residual: {sol.residual:.3e}")
    return 0


def _cmd_predict(args) -> int:
    cfg = harness.parse_config(args.config)
    model = harness.prediction_model(cfg)
    sol = _solve(model, args.loads)
    grid = cfg.grid
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise EdfnetError(f"--grid: expected lo:hi:points, got {_echo(args.grid)}")
        span = {key: harness._number(part, f"--grid.{key}", kind=kind)
                for key, kind, part in zip(("lo", "hi", "points"), (float, float, int), parts)}
        grid = harness._grid(span, "--grid")
    rows = [(j, y, t) for j in cfg.network.stations
            for y, t in zip(grid, harness.theory_cdf(model, sol, j, grid).tolist())]
    text = harness._csv_text(("station", "y", "theory"), rows)
    if args.output:
        harness._write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


#: most progress lines ``simulate`` prints; it also keeps every step
#: ``t + every`` large enough to move the clock
_MAX_REPORT_LINES = 10**6


def _cmd_simulate(args) -> int:
    cfg = harness.parse_config(args.config)
    seed = (cfg.seeds[0] if args.seed is None
            else harness._number(args.seed, "--seed", harness._as_seed, int))
    horizon = harness._number(args.horizon, "--horizon", harness._as_positive)
    every = (horizon / 10.0 if args.every is None
             else harness._number(args.every, "--every", harness._as_positive))
    if horizon / every > _MAX_REPORT_LINES:
        raise EdfnetError(f"--every: {horizon} / {every} asks for more than "
                          f"{_MAX_REPORT_LINES} report lines")
    sim = new_sim(cfg.network, seed=seed, preemptive=cfg.preemptive)
    t = 0.0
    while t < horizon:
        t = min(t + every, horizon)
        run_until(sim, t)
        parts = []
        for j in cfg.network.stations:
            stats = behind_frontier_stats(sim, j)
            parts.append(
                f"j{j} n={queue_length(sim, j)} w={workload(sim, j):.2f} "
                f"util={utilization(sim, j):.3f} "
                f"front={station_frontier(sim, j):.2f} "
                f"behind={stats.time_avg_fraction:.4f}")
        print(f"t={sim.clock:.1f} " + " | ".join(parts))
    return 0


def _cmd_experiment(args) -> int:
    cfg = harness.parse_config(args.config)
    if args.seed is not None:
        seed = harness._number(args.seed, "--seed", harness._as_seed, int)
        cfg = dataclasses.replace(cfg, seeds=(seed,))
    report = harness.run_experiment(cfg)
    harness.export_report(report, csv_path=args.output, yaml_path=args.structured)
    print(f"snapshots: {report.snapshot_count}"
          + (" (partial)" if report.partial else ""))
    print("frontiers: " + " ".join(repr(f) for f in report.frontiers))
    for sp in report.stations:
        print(f"station {sp.station}: sup={sp.sup_distance:.4f} "
              f"l1={sp.l1_distance:.4f} behind={sp.behind_fraction_mean:.4f}")
    return 3 if report.partial else 0


def _cmd_compare(args) -> int:
    left, _ = harness.read_profile_csv(args.first)
    right, _ = harness.read_profile_csv(args.second)
    if sorted(left) != sorted(right):
        raise harness.GridMismatch(
            f"station sets differ: {_echo(sorted(left))} vs {_echo(sorted(right))}")
    for j in sorted(left):
        grid_a, grid_b = left[j]["y"], right[j]["y"]
        if grid_a != grid_b:
            raise harness.GridMismatch(f"station {j}: evaluation grids differ")
        sup, l1 = harness.compare_profiles(
            grid_a, left[j][args.column_a], right[j][args.column_b])
        print(f"station {j}: sup={sup!r} l1={l1!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edfnet",
        description="Deadline-ordered queueing networks: simulation and "
                    "lead-time profile prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("-c", "--config", required=True, help="config file (YAML)")

    p = sub.add_parser("solve", help="invert observed loads into frontiers")
    add_config(p)
    p.add_argument("--loads", required=True,
                   help="comma-separated load per station, e.g. 50,58")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("predict", help="predicted lead-time profile CSV")
    add_config(p)
    p.add_argument("--loads", required=True)
    p.add_argument("--grid", help="evaluation grid as lo:hi:points")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="free run with periodic statistics")
    add_config(p)
    p.add_argument("--horizon", default="10000")
    p.add_argument("--every", help="reporting interval")
    p.add_argument("--seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="conditioned sampling vs prediction")
    add_config(p)
    p.add_argument("--seed", help="replace the config seed list")
    p.add_argument("-o", "--output", help="write the profile CSV here")
    p.add_argument("--structured", help="write the full YAML report here")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare", help="distances between two profile CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--column-a", default="emp_mean", choices=harness.CSV_HEADER[2:])
    p.add_argument("--column-b", default="theory", choices=harness.CSV_HEADER[2:])
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdfnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
