"""Command-line interface.

Subcommands: solve (loads -> frontiers), predict (loads -> profile
CSV), simulate (free run with periodic stats), experiment (full
conditioned-sampling pipeline with report export), compare (distances
between two exported profile CSVs).  Solve, predict and experiment
all use the prediction model the config sets (``prediction.weights``,
``prediction.normalize``); experiment needs count weights.  Exit codes: 0 on success, 2 on bad input
or config, 3 when an experiment hit its horizon cap and produced only
partial results.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import List, Optional

from . import harness
from .errors import EdfnetError
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


def _parse_floats(text: str, what: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise EdfnetError(f"{what}: expected comma-separated numbers, got {text!r}")


def _solve(model, text: str):
    """Solve for the --loads value, which must give one load per station."""
    loads = _parse_floats(text, "--loads")
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
        try:
            lo, hi, n = args.grid.split(":")
            span = {"lo": float(lo), "hi": float(hi), "points": int(n)}
        except ValueError:
            raise EdfnetError(f"--grid: expected lo:hi:points, got {args.grid!r}")
        grid = harness._grid(span, "--grid")
    lines = ["station,y,theory"]
    for j in range(1, cfg.network.station_count + 1):
        curve = harness.theory_cdf(model, sol, j, grid)
        for y, t in zip(grid, curve):
            lines.append(f"{j},{y!r},{float(t)!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


#: most progress lines ``simulate`` prints; it also keeps every step
#: ``t + every`` large enough to move the clock
_MAX_REPORT_LINES = 10**6


def _cmd_simulate(args) -> int:
    cfg = harness.parse_config(args.config)
    seed = cfg.seeds[0] if args.seed is None else harness._as_seed(args.seed, "--seed")
    horizon = args.horizon
    every = horizon / 10.0 if args.every is None else args.every
    if not (0 < horizon < math.inf and every > 0):
        raise EdfnetError("--horizon must be positive and finite, --every positive")
    if horizon / every > _MAX_REPORT_LINES:
        raise EdfnetError(f"--every: {horizon} / {every} asks for more than "
                          f"{_MAX_REPORT_LINES} report lines")
    sim = new_sim(cfg.network, seed=seed, preemptive=cfg.preemptive)
    t = 0.0
    while t < horizon:
        t = min(t + every, horizon)
        run_until(sim, t)
        parts = []
        for j in range(1, cfg.network.station_count + 1):
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
        cfg = dataclasses.replace(cfg, seeds=(harness._as_seed(args.seed, "--seed"),))
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
            f"station sets differ: {sorted(left)} vs {sorted(right)}")
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
    p.add_argument("--horizon", type=float, default=10000.0)
    p.add_argument("--every", type=float, help="reporting interval")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="conditioned sampling vs prediction")
    add_config(p)
    p.add_argument("--seed", type=int, help="replace the config seed list")
    p.add_argument("-o", "--output", help="write the profile CSV here")
    p.add_argument("--structured", help="write the full YAML report here")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare", help="distances between two profile CSVs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--column-a", default="emp_mean",
                   choices=("emp_min", "emp_mean", "emp_max", "theory"))
    p.add_argument("--column-b", default="theory",
                   choices=("emp_min", "emp_mean", "emp_max", "theory"))
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
