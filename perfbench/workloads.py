"""The benchmark's three workloads.

Each workload splits one round into ``setup`` (inputs, topologies,
models, simulation states) and ``run`` (the public calls a user waits
on); the runner times the two apart and repeats whole rounds.  Every
round makes the same operations on the same inputs, and ``run`` times
each one under a fixed key, so that ``best_round_s`` can put a round
together from each operation's fastest time.  ``check``
verifies the last round against ``reference.py``, ``layer_metrics``
reads a traced round's spans, and ``probe`` times the per-call methods
that a span per call would swamp.

Every call into edfnet goes through a module attribute (``en.x``,
``harness.x``) so that the tracer's patched functions are the ones
called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

import edfnet as en
from edfnet import cli, harness

import gen
import reference as ref
from spans import Tracer, capture

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _no_span(name: str):
    return contextlib.nullcontext()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.span = _no_span    # the runner swaps in Tracer.span for a traced round
        self.op_s: Dict[object, List[float]] = {}   # operation key -> its time in each round

    @contextlib.contextmanager
    def timed(self, key):
        """Time one operation of a round under ``key``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.op_s.setdefault(key, []).append(perf_counter() - t0)

    def best_round_s(self) -> float:
        """One round's run step, each operation at its fastest over the
        rounds so far.

        A shared host slows a run in bursts of seconds; an operation's
        fastest time skips them where a median over a few rounds does
        not."""
        return sum(min(times) for times in self.op_s.values())

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def figures(self, round_s: float) -> Dict[str, Tuple[float, str]]:
        """The headline figure a user of this path reads, by name."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return {}

    def probe(self, tracer: Tracer) -> Dict[str, float]:
        return {}


# -------- desk --------

class Desk(Workload):
    """``run_experiment`` on configs/desk_experiment.yaml, cut to its
    first two seeds at the shipped quota of snapshots per seed, then the
    CSV and YAML render and read-back of the report.

    The inputs do not depend on the workload seed: the config's 0.10
    sup-distance bound is calibrated on the shipped seeds, and a
    statistical bound on ten snapshots can miss on other seeds.
    """

    name = "desk"
    SEEDS = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.csv_path = workdir / "profiles.csv"
        self.yaml_path = workdir / "report.yaml"
        self.first_render = None

    def setup(self) -> None:
        cfg = harness.parse_config(CONFIGS / "desk_experiment.yaml")
        per_seed = -(-cfg.snapshot_count // len(cfg.seeds))
        self.cfg = dataclasses.replace(cfg, seeds=cfg.seeds[:self.SEEDS],
                                       snapshot_count=per_seed * self.SEEDS)
        self.per_seed = per_seed

    def run(self) -> None:
        self.samples: list = []
        self.sims: list = []
        self.report = None
        self.attempted += len(self.cfg.seeds)
        with capture(harness, "conditional_sample", self.samples), \
                capture(harness, "new_sim", self.sims):
            try:
                with self.timed("experiment"):
                    self.report = harness.run_experiment(self.cfg)
            except en.NoSnapshots:
                _report_failure("desk experiment collected no snapshot")
        self.failed += sum(1 for r in self.samples if r.exhausted)
        if self.report is None:
            return
        with self.span("bench.render"), self.timed("render"):
            harness.export_report(self.report, csv_path=str(self.csv_path),
                                  yaml_path=str(self.yaml_path))
            self.yaml_back = harness.parse_report(str(self.yaml_path))
            self.csv_back = harness.read_profile_csv(str(self.csv_path))

    def check(self) -> List[str]:
        rep = self.report
        if rep is None:
            return []
        errs = ref.check_close("desk run_experiment frontiers", rep.frontiers,
                               ref.DESK_FRONTIERS)
        closed = en.two_station_closed_form(ref.DESK_RATES, ref.DESK_DEADLINES,
                                            *ref.DESK_LOADS)
        errs += ref.check_close("desk two_station_closed_form frontiers",
                                closed.frontiers, ref.DESK_FRONTIERS)
        for sp in rep.stations:
            what = f"desk station {sp.station}"
            if not sp.sup_distance <= ref.DESK_SUP_BOUND:
                errs.append(f"{what}: sup distance {sp.sup_distance} exceeds "
                            f"{ref.DESK_SUP_BOUND}")
            errs += ref.check_bands(what, sp.emp_min, sp.emp_mean, sp.emp_max)
            errs += ref.check_cdf(f"{what} theory", sp.theory)

        render = (self.csv_path.read_bytes(), self.yaml_path.read_bytes())
        if self.first_render is None:
            self.first_render = render
        elif render != self.first_render:
            errs.append("desk: a repeated run rendered different CSV or YAML bytes")
        if self.yaml_back != rep:
            errs.append("desk: the YAML report does not read back equal")
        columns, partial = self.csv_back
        for sp in rep.stations:
            got = columns.get(sp.station, {})
            if (got.get("emp_mean") != list(sp.emp_mean) or got.get("theory") != list(sp.theory)
                    or got.get("y") != list(rep.grid) or partial != rep.partial):
                errs.append(f"desk station {sp.station}: the CSV does not read back equal")

        for seed, result in zip(self.cfg.seeds, self.samples):
            if result.exhausted:
                continue
            if len(result.snapshots) != self.per_seed:
                errs.append(f"desk seed {seed}: {len(result.snapshots)} snapshots, "
                            f"expected {self.per_seed}")
            for snap in result.snapshots:
                for j, n in ref.DESK_COUNTS.items():
                    if len(snap.stations[j]) != n:
                        errs.append(f"desk seed {seed} t={snap.time}: station {j} holds "
                                    f"{len(snap.stations[j])} customers, expected {n}")
                    if any(lead > ref.DESK_MAX_LEAD for _, lead in snap.stations[j]):
                        errs.append(f"desk seed {seed} t={snap.time}: a lead at station {j} "
                                    f"exceeds {ref.DESK_MAX_LEAD}")
        return errs

    def figures(self, round_s: float) -> Dict[str, Tuple[float, str]]:
        return {"experiment_s": (min(self.op_s.get("experiment", [0.0])), "s")}

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        sample_s = tracer.durations("simulator.conditional_sample")
        new_sim_s = tracer.durations("simulator.new_sim")
        events = sum(sim.events_processed for sim in self.sims)
        clock = sum(sim.clock for sim in self.sims)
        snaps = sum(len(r.snapshots) for r in self.samples)
        out = {
            "simulator.events": events,
            "simulator.events_per_s": events / sum(sample_s),
            "simulator.seed_s.max": max(a + b for a, b in zip(new_sim_s, sample_s)),
            "simulator.events_per_snapshot": events / snaps if snaps else 0.0,
            "simulator.sim_time_per_snapshot": clock / snaps if snaps else 0.0,
            "simulator.occupancy": snaps * self.cfg.threshold / clock,
            "harness.theory_cdf_ms": 1e3 * _median(tracer.durations("harness.theory_cdf")),
            "harness.empirical_bands_ms":
                1e3 * _median(tracer.durations("harness.empirical_bands")),
            "harness.parse_config_ms": 1e3 * _median(tracer.durations("harness.parse_config")),
            "harness.render_ms": 1e3 * sum(tracer.durations("bench.render")),
        }
        for seed, s in zip(self.cfg.seeds, sample_s):
            out[f"simulator.conditional_sample_s.seed{seed}"] = s
        return out


# -------- freerun --------

class Freerun(Workload):
    """``run_until`` to a fixed horizon on the generated J = 2, 8 and 32
    networks, preempt-resume, one simulation per network.

    The horizon is set so that each simulation processes about
    ``EVENTS[J]`` events.  It is run in ``STEPS`` equal ``run_until``
    steps, each timed.  The ``BATCHES + 1`` marks in ``MARK_STEPS``, the
    first after ``WARMUP_STEPS``, let the Jackson check form batch
    means after a warm-up.
    """

    name = "freerun"
    EVENTS = {2: 20_000, 8: 30_000, 32: 40_000}
    STEPS = 100
    WARMUP_STEPS = 10
    BATCHES = 10
    MARK_STEPS = frozenset(range(WARMUP_STEPS, STEPS + 1, (STEPS - WARMUP_STEPS) // BATCHES))

    @staticmethod
    def horizon(net: gen.Net, events: int) -> float:
        # one event per external arrival and one per departure
        per_time = sum(rate * (1 + len(route)) for rate, route in zip(net.rates, net.routes))
        return events / per_time

    def setup(self) -> None:
        self.nets = gen.networks(self.seed)
        self.sims = []
        for net in self.nets:
            with self.span(f"bench.setup.J{net.stations}"):
                self.sims.append(en.new_sim(net.spec, seed=self.seed, preemptive=True))

    def run(self) -> None:
        self.marks = []
        for net, sim in zip(self.nets, self.sims):
            J = net.stations
            horizon = self.horizon(net, self.EVENTS[J])
            self.attempted += 1
            marks = []
            with self.span(f"bench.freerun.J{J}"):
                try:
                    for step in range(1, self.STEPS + 1):
                        with self.timed((J, step)):
                            en.run_until(sim, horizon * step / self.STEPS)
                            if step in self.MARK_STEPS:
                                marks.append((sim.clock, [en.behind_frontier_stats(sim, j)
                                                          .present_count_integral
                                                          for j in range(1, J + 1)]))
                except Exception:
                    _report_failure(f"freerun J={J} simulation")
                    self.failed += 1
                    marks = None
            self.marks.append(marks)

    def check(self) -> List[str]:
        errs = []
        for net, sim, marks in zip(self.nets, self.sims, self.marks):
            if marks is None:
                continue
            J = net.stations
            what = f"freerun J={J}"
            batches = {j: [] for j in range(1, J + 1)}
            for (t0, lo), (t1, hi) in zip(marks, marks[1:]):
                for j in range(1, J + 1):
                    batches[j].append((hi[j - 1] - lo[j - 1]) / (t1 - t0))
            errs += ref.jackson_check(what, gen.INTENSITY, net.mu, batches,
                                      marks[-1][0] - marks[0][0])
            for j in range(1, J + 1):
                errs += ref.workload_identity_check(
                    what, j, en.workload(sim, j), en.netput(sim, j),
                    en.idleness(sim, j), sim.clock)
        return errs

    def figures(self, round_s: float) -> Dict[str, Tuple[float, str]]:
        sim_time = sum(self.horizon(net, self.EVENTS[net.stations]) for net in self.nets)
        return {"sim_time_per_s": (sim_time / round_s, "1/s")}

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {}
        total_events, total_s = 0, 0.0
        for net, sim in zip(self.nets, self.sims):
            J = net.stations
            run_s = sum(tracer.durations("simulator.run_until", f"bench.freerun.J{J}"))
            out[f"simulator.events_per_s.J{J}"] = sim.events_processed / run_s
            total_events += sim.events_processed
            total_s += run_s
        out["simulator.events"] = total_events
        out["simulator.events_per_s"] = total_events / total_s
        out["simulator.new_sim_ms.J32"] = 1e3 * sum(
            tracer.durations("simulator.new_sim", "bench.setup.J32"))
        out["topology.build_ms.J32"] = 1e3 * sum(
            tracer.durations("topology.build_topology", "bench.setup.J32"))
        return out

    def probe(self, tracer: Tracer) -> Dict[str, float]:
        n = 200_000
        draw = en.dists.Exponential(1.0).sampler(np.random.default_rng(self.seed))
        with tracer.span("dists.sampler.draw[exponential]"):
            t0 = perf_counter_ns()
            for _ in range(n):
                draw()
            elapsed = perf_counter_ns() - t0
        return {"dists.draw_ns.exponential": elapsed / n}


# -------- predict --------

@dataclasses.dataclass
class _Case:
    """One model of the sweep with its reference parameters."""

    J: int
    model: object
    grid: Tuple[float, ...]
    loads: Tuple[Tuple[float, ...], ...]
    routes: tuple
    rates: tuple
    laws: tuple
    mu: dict


def _plain_law(dist) -> tuple:
    if isinstance(dist, en.PointMass):
        return ("point", dist.value)
    if isinstance(dist, en.Uniform):
        return ("uniform", dist.lo, dist.hi)
    return ("piecewise", dist.knots)


class Predict(Workload):
    """A sweep of load vectors through ``solve_frontiers`` and then
    ``theory_cdf`` at every station on a 211-point grid, on the desk
    model and on the generated J = 8 and J = 32 networks; the closed
    form on the desk crossing network for every desk load vector; and
    ``edfnet solve`` in-process on the crossing config."""

    name = "predict"
    COUNTS = {2: 10, 8: 4, 32: 1}   # load vectors per model
    DESK_LOAD_RANGE = (0.0, 120.0)
    NET_LOAD_RANGE = (1.0, 30.0)

    def setup(self) -> None:
        rng = np.random.default_rng((self.seed, 1))
        with self.span("bench.setup.J2"):
            cfg = harness.parse_config(CONFIGS / "desk_experiment.yaml")
            desk = cfg.network
            loads = (ref.DESK_LOADS,) + gen.load_vectors(rng, 2, self.COUNTS[2] - 1,
                                                          *self.DESK_LOAD_RANGE)
            self.cases = [_Case(
                2, harness.prediction_model(cfg), cfg.grid, loads,
                tuple(c.route for c in desk.classes),
                tuple(c.arrival_rate for c in desk.classes),
                tuple(_plain_law(c.lead_time) for c in desk.classes),
                {(k, j): c.service_rate(j) for k, c in enumerate(desk.classes) for j in c.route})]
        for net in gen.networks(self.seed)[1:]:
            J = net.stations
            with self.span(f"bench.setup.J{J}"):
                model = en.normalize_by_intensity(en.count_model(en.build_topology(net.spec)))
                top = max(c.lead_time.upper_support for c in net.spec.classes)
                self.cases.append(_Case(
                    J, model, gen.grid(top),
                    gen.load_vectors(rng, J, self.COUNTS[J], *self.NET_LOAD_RANGE),
                    net.routes, net.rates, net.laws,
                    {(k, j): net.mu[j] for k, route in enumerate(net.routes) for j in route}))

    def run(self) -> None:
        self.solved = []
        for case in self.cases:
            with self.span(f"bench.predict.J{case.J}"):
                for i, loads in enumerate(case.loads):
                    self.attempted += 1
                    try:
                        with self.timed(("solve", case.J, i)):
                            sol = en.solve_frontiers(case.model, loads)
                        curves = []
                        for j in range(1, case.J + 1):
                            with self.timed(("theory_cdf", case.J, i, j)):
                                curves.append(harness.theory_cdf(case.model, sol, j,
                                                                 case.grid))
                    except Exception:
                        _report_failure(f"predict J={case.J} loads {loads}")
                        self.failed += 1
                        continue
                    self.solved.append((case, loads, sol, curves))
        self.closed = []
        with self.span("bench.predict.closed_form"):
            for i, loads in enumerate(self.cases[0].loads):
                self.attempted += 1
                try:
                    with self.timed(("closed_form", i)):
                        self.closed.append((loads, en.two_station_closed_form(
                            ref.DESK_RATES, ref.DESK_DEADLINES, *loads)))
                except Exception:
                    _report_failure(f"closed form at loads {loads}")
                    self.failed += 1
        self.attempted += 1
        out = io.StringIO()
        with self.span("bench.predict.cli"), self.timed("cli"), \
                contextlib.redirect_stdout(out):
            code = cli.main(["solve", "-c", str(CONFIGS / "crossing_base.yaml"),
                             "--loads", ",".join(repr(v) for v in ref.CROSSING_LOADS)])
        self.cli_output = out.getvalue() if code == 0 else None
        if code != 0:
            print(f"operation failed: edfnet solve exited with {code}", file=sys.stderr)
            self.failed += 1

    def check(self) -> List[str]:
        errs = []
        staged = {}
        for case, loads, sol, curves in self.solved:
            what = f"predict J={case.J}"
            errs += ref.check_load_map(what, ref.load_map(
                case.routes, case.rates, case.laws, case.mu, sol.frontiers), loads)
            for j, curve in enumerate(curves, start=1):
                errs += ref.check_cdf(f"{what} station {j}", curve)
            if case.J == 2:
                staged[loads] = sol.frontiers
        if ref.DESK_LOADS in staged:
            errs += ref.check_close("predict desk frontiers", staged[ref.DESK_LOADS],
                                    ref.DESK_FRONTIERS)
        for loads, closed in self.closed:
            if loads in staged:
                errs += ref.check_close(f"closed form against staged solver at {loads}",
                                        closed.frontiers, staged[loads], rel=1e-6)
        if self.cli_output is not None:
            frontiers, order = [], None
            for line in self.cli_output.splitlines():
                if line.startswith("station "):
                    frontiers.append(float(line.rsplit(" ", 1)[1]))
                elif line.startswith("order: "):
                    order = tuple(int(v) for v in line.split()[1:])
            errs += ref.check_close("edfnet solve frontiers", frontiers, ref.CROSSING_FRONTIERS)
            if order != ref.CROSSING_ORDER:
                errs.append(f"edfnet solve order {order}, expected {ref.CROSSING_ORDER}")
        return errs

    def figures(self, round_s: float) -> Dict[str, Tuple[float, str]]:
        return {"predict_s": (round_s, "s")}

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {}
        for case in self.cases:
            out[f"frontier.solve_us.J{case.J}"] = 1e6 * _median(
                tracer.durations("frontier.solve_frontiers", f"bench.predict.J{case.J}"))
        out["frontier.load_map_us"] = 1e6 * _median(tracer.durations("frontier.frontier_loads"))
        out["frontier.closed_form_us"] = 1e6 * _median(
            tracer.durations("frontier.two_station_closed_form"))
        out["harness.theory_cdf_ms"] = 1e3 * _median(tracer.durations("harness.theory_cdf"))
        out["topology.reach_sets_us.J32"] = 1e6 * _median(
            tracer.durations("topology.reach_sets", "bench.predict.J32"))
        out["topology.build_ms.J32"] = 1e3 * sum(
            tracer.durations("topology.build_topology", "bench.setup.J32"))
        out["cli.solve_ms"] = 1e3 * sum(tracer.durations("cli.main"))
        return out

    def probe(self, tracer: Tracer) -> Dict[str, float]:
        laws = {
            "point": en.PointMass(200.0),
            "uniform": en.Uniform(100.0, 300.0),
            "piecewise": en.PiecewiseLinearCDF([(50.0, 0.0), (150.0, 0.5), (300.0, 1.0)]),
        }
        levels = [float(v) for v in np.linspace(0.0, 350.0, 1000)] * 20
        out = {}
        for kind, dist in laws.items():
            tail = dist.integrated_tail
            with tracer.span(f"leadtime.integrated_tail[{kind}]"):
                t0 = perf_counter_ns()
                for y in levels:
                    tail(y)
                elapsed = perf_counter_ns() - t0
            out[f"leadtime.tail_ns.{kind}"] = elapsed / len(levels)
        return out


WORKLOADS = {cls.name: cls for cls in (Desk, Freerun, Predict)}
