"""Spans around the public calls into edfnet's modules.

``Tracer.install`` replaces every public module-level function of the
layer modules, under every name a module imported it by, with a wrapper
that records one span: name, start, end and the span open when it was
called.  Spans are kept in flat lists and written out once, at the end
of the run.  Methods of the lead-time and sampling-law classes run
inside the solver's and simulator's inner loops, where a span per call
would cost more than the call; the benchmark times those in batches
with ``Tracer.span`` instead.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List

LAYERS = ("simulator", "frontier", "topology", "harness", "leadtime", "dists", "cli")
BENCH = "bench"   # prefix of the benchmark's own spans; not a layer


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]
        self._patched: List[tuple] = []

    # -------- recording --------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    # -------- patching --------

    def install(self) -> None:
        modules = [importlib.import_module("edfnet")] + [
            importlib.import_module(f"edfnet.{layer}") for layer in LAYERS]
        wrappers: Dict[int, Callable] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    # -------- analysis --------

    def group_of(self) -> List[str]:
        """Name of the innermost benchmark span around each span."""
        out: List[str] = []
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if name.startswith(BENCH):
                out.append(name)
            else:
                out.append(out[p] if p >= 0 else "")
        return out

    def durations(self, name: str, within: str = "") -> List[float]:
        """Seconds of every span called ``name`` whose innermost
        benchmark span starts with ``within``."""
        groups = self.group_of() if within else None
        return [(self.ends[i] - self.starts[i]) * 1e-9
                for i, n in enumerate(self.names)
                if n == name and (groups is None or groups[i].startswith(within))]

    def self_seconds(self) -> Dict[str, float]:
        """Each layer's span time minus the time its child spans cover."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (self.ends[i] - self.starts[i] - child[i]) * 1e-9
        return out

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns"))
            for i, name in enumerate(self.names):
                out.writerow((i, self.parents[i], name, self.starts[i] - t0, self.ends[i] - t0))


@contextmanager
def capture(module, name: str, sink: list) -> Iterator[list]:
    """Keep every value ``module.name`` returns while the block runs.

    A pass-through with no timing, used traced or not: the desk
    workload sees each seed's snapshots and simulation through it,
    which ``run_experiment`` does not return.
    """
    fn = getattr(module, name)

    def keep(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, name, keep)
    try:
        yield sink
    finally:
        setattr(module, name, fn)
