#!/usr/bin/env python3
"""edfnet benchmark: the desk, freerun and predict workloads.

One workload, as the last stdout line a JSON result
({"correct", "attempted", "failed", "metrics"}):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes every span to .perfbench/).  Without
``--workload`` every workload runs once, each in its own process; with
``--repeat N`` each runs N times on seeds seed .. seed+N-1 and the
median and quartiles of every metric are printed.  ``--digest`` prints
the SHA-256 of the desk report's CSV and YAML renders.

The program is imported from ``src/`` beside this directory; the run
fails, printing no result, when it is not there.  The exit code is 0
when every check passed, 1 when a check failed and 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("desk", "freerun", "predict")
MIN_ROUNDS = 2          # desk compares the renders of two runs
IMPORT_SAMPLES = 9      # fresh processes that time the import, for setup_s
CHILD_TIMEOUT_S = 900


def _load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _import_program():
    """Import edfnet from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import edfnet
    import edfnet.cli  # noqa: F401  (the predict workload calls the CLI in-process)
    where = Path(edfnet.__file__).resolve().parent
    if where != SRC / "edfnet":
        raise ImportError(f"edfnet was imported from {where}, not from {SRC}")
    return edfnet


def _import_seconds() -> float:
    """Fastest time to import edfnet in a fresh interpreter.

    An import is timed once per process, so it is sampled in
    IMPORT_SAMPLES short-lived processes.
    """
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import edfnet, edfnet.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(done.stdout))
    return min(samples)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "edfnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _timed_round(wl) -> tuple:
    t0 = perf_counter()
    wl.setup()
    t1 = perf_counter()
    wl.run()
    t2 = perf_counter()
    return t1 - t0, t2 - t1


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        edfnet = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy
    import spans
    import workloads

    spec = _load_benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        errors = []
        setups, rounds = [], 0
        start = perf_counter()
        while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
            setups.append(_timed_round(wl)[0])
            rounds += 1
            errors += wl.check()
        # Fastest set-up and fastest round: see Workload.best_round_s.
        setup_best = min(setups)
        round_best = wl.best_round_s()
        if not trace:
            metrics = {
                "setup_s": _import_seconds() + setup_best,
                "round_s": round_best,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            tracer = spans.Tracer()
            tracer.install()
            wl.span = tracer.span
            try:
                with tracer.span("bench.round"):
                    traced = sum(_timed_round(wl))
            finally:
                tracer.uninstall()
                wl.span = workloads._no_span
            errors += wl.check()
            metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
            metrics.update(wl.layer_metrics(tracer))
            metrics.update(wl.probe(tracer))
            for layer, s in tracer.self_seconds().items():
                metrics[f"{layer}.self_s"] = s
            metrics["trace.overhead_s"] = traced - (setup_best + round_best)
            metrics["trace.spans"] = len(tracer.names)
            tracer.write(OUT / f"trace-{name}-seed{seed}.csv.gz")
        figures = wl.figures(round_best)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "edfnet": edfnet.__version__, "commit": _commit(),
        "src_sha256": _source_digest(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    for fig, (value, unit) in figures.items():
        print(f"figure {fig} = {value:.6g} {unit}")
    for metric, value in metrics.items():
        print(f"metric {metric} = {value:.6g} {units.get(metric, '')}")
    for err in errors:
        print(f"check failed: {err}")
    result = {
        "correct": not errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_children(names, seed: int, repeat: int, seconds: int, trace: int) -> int:
    """Run each workload ``repeat`` times, each in its own process, and
    print every metric's median and quartiles."""
    status = 0
    for name in names:
        values: dict = {}
        units: dict = {}
        shares = []
        for i in range(repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if repeat == 1:
                print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} seed {seed + i}: no result (exit {done.returncode})\n"
                      f"{done.stderr}")
                status = 1
                continue
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed + i}: checks failed (exit {done.returncode})")
                print("\n".join(line for line in lines if line.startswith("check failed")))
                status = 1
            shares.append(result["failed"] / result["attempted"])
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
                units[m] = v["unit"]
        print(f"== {name}: {len(shares)} runs, failed share {sorted(set(shares))}")
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name} {m}: median {med:.6g} {units[m]}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  (q3-q1)/median {spread:.4f}  runs {' '.join(f'{v:.4g}' for v in vals)}")
    return status


def digest() -> int:
    """SHA-256 of the desk report renders (recorded in the README)."""
    _import_program()
    import workloads
    from edfnet import harness

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="digest-", dir=OUT))
    try:
        wl = workloads.Desk(0, workdir)
        wl.setup()
        wl.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, text in (("csv", harness.render_report_csv(wl.report)),
                       ("yaml", harness.render_report_yaml(wl.report))):
        print(f"desk report {kind} sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


def main(argv=None) -> int:
    spec = _load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print quartiles")
    parser.add_argument("--digest", action="store_true",
                        help="print the SHA-256 of the desk report renders")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.digest:
        return digest()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat or args.workload == "all":
        return run_children(names, args.seed, max(args.repeat, 1), args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
