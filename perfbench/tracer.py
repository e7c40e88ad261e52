"""Outside-in layer tracing for the benchmark's traced runs.

Each layer of ``repro`` is timed by wrapping its public entry point at
the name its callers look up, so the program itself is not edited and
an untraced run executes no wrapper at all. A wrapper records one span
(name, start, end, parent) per call in memory; self time is a span's
duration minus the time its child spans cover, and the root ``body``
span's self time is the time no layer claims (``unattributed_s``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import os
import time

#: Layers whose call counts are reported beside their self time.
COUNTED = ("trace.parse", "workloads.build", "synth.compile", "verify.mapping")

#: Every layer a traced run reports a self time for, in report order.
LAYERS = (
    "trace.parse",
    "workloads.build",
    "synth.compile",
    "verify.mapping",
    "verify.fleet",
    "core.kernel",
    "engine.run",
    "engine.store.save",
    "engine.store.load",
    "fleet.calibrate",
    "fleet.thresholds",
    "fleet.dayloop",
    "fleet.checkpoint.save",
    "fleet.checkpoint.load",
    "fleet.report",
)

#: Counters a traced run reports (filled by the wrappers' return hooks).
COUNTERS = (
    "core.epochs",
    "core.cell_updates",
    "engine.jobs",
    "engine.cache_hits",
    "engine.jobs_failed",
    "engine.store.bytes_written",
    "engine.store.bytes_read",
    "fleet.thresholds.cells",
    "fleet.array_days",
    "fleet.deaths",
    "fleet.checkpoint.bytes",
    "verify.errors",
)

ROOT = "body"


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block, nested under the open span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, layer: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until uninstalled.

        ``on_return(counts, args, kwargs, result)`` updates the layer's
        counters after each successful call.
        """
        raw = inspect.getattr_static(owner, attr)
        binder = None
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
        func = raw.__func__ if binder else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                # An override calling its base (``super().build``) is
                # one call of the layer, not two.
                return func(*args, **kwargs)
            self.counts[layer + "_calls"] += 1
            with self.span(layer):
                result = func(*args, **kwargs)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, binder(traced) if binder else traced)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict:
        """Seconds per span name, each span less its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def wall(self) -> float:
        """Duration of the first span, the root the worker opens."""
        _, start, end, _ = self.spans[0]
        return end - start

    def metrics(self) -> dict:
        """The per-layer figures of one traced body, by metric name."""
        own = self.self_times()
        out = {f"{layer}_s": own.get(layer, 0.0) for layer in LAYERS}
        for layer in COUNTED:
            out[f"{layer}_calls"] = self.counts[layer + "_calls"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["unattributed_s"] = own.get(ROOT, 0.0)
        out["traced_wall_s"] = self.wall()
        return out

    def dump(self, path) -> None:
        """Write the spans and counters as JSON."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Return hooks: counters measured where each layer's work happens
# ----------------------------------------------------------------------


def _kernel(counts, args, kwargs, epochs) -> None:
    architecture = args[0] if args else kwargs["architecture"]
    counts["core.epochs"] += epochs
    counts["core.cell_updates"] += epochs * architecture.geometry.n_cells


def _verify_report(counts, args, kwargs, report) -> None:
    counts["verify.errors"] += len(report.errors)


def _engine(counts, args, kwargs, outcomes) -> None:
    counts["engine.jobs"] += len(outcomes)
    for outcome in outcomes:
        status = outcome.status.value
        counts["engine.cache_hits"] += status == "cached"
        counts["engine.jobs_failed"] += status == "failed"


def _store_save(counts, args, kwargs, path) -> None:
    store, spec = args[0], args[1]
    counts["engine.store.bytes_written"] += (
        _size(path)
        + _size(store.sidecar_for(spec))
        + _size(store.manifest_for(spec))
    )


def _store_load(counts, args, kwargs, result) -> None:
    if result is not None:
        store, key = args[0], args[1]
        counts["engine.store.bytes_read"] += _size(store.path_for(key))


def _thresholds(counts, args, kwargs, thresholds) -> None:
    population = args[0]
    results = args[1] if len(args) > 1 else kwargs["cohort_results"]
    sizes = [result.state.write_counts.size for result in results]
    counts["fleet.thresholds.cells"] += sum(
        sizes[int(cohort)] for cohort in population.cohort_index
    )


def _checkpoint_save(counts, args, kwargs, path) -> None:
    counts["fleet.checkpoint.bytes"] += _size(path)


def _campaign(counts, args, kwargs, report) -> None:
    service = args[0]
    arrays = service.population.n_arrays
    if report is None:
        # A paused run; the benchmark only pauses campaigns it started
        # from day 0, so the days advanced are the stop day.
        stop = args[1] if len(args) > 1 else kwargs["stop_after_day"]
        counts["fleet.array_days"] += arrays * min(stop, service.spec.days)
        return
    start = report.runtime.get("resumed_from_day") or 0
    counts["fleet.array_days"] += arrays * (report.days_simulated - start)
    counts["fleet.deaths"] += report.n_deaths


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro.core.simulator as simulator
    import repro.fleet.service as fleet_service
    import repro.synth.compiled as compiled
    import repro.verify.api as verify_api
    from repro.engine.runner import ExperimentEngine
    from repro.engine.store import ResultStore
    from repro.fleet.checkpoint import CheckpointManager
    from repro.fleet.population import Population
    from repro.workloads.base import Workload
    from repro.workloads.trace import TraceWorkload

    tracer.wrap(TraceWorkload, "from_file", "trace.parse")
    seen, pending = set(), [Workload]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "build" in vars(cls):
            tracer.wrap(cls, "build", "workloads.build")
    tracer.wrap(compiled, "compile_program", "synth.compile")
    tracer.wrap(simulator, "verify_mapping", "verify.mapping", _verify_report)
    tracer.wrap(verify_api, "verify_mapping", "verify.mapping", _verify_report)
    tracer.wrap(
        fleet_service, "verify_fleet_spec", "verify.fleet", _verify_report
    )
    tracer.wrap(simulator, "run_batched_epochs", "core.kernel", _kernel)
    tracer.wrap(ExperimentEngine, "run", "engine.run", _engine)
    tracer.wrap(ResultStore, "save", "engine.store.save", _store_save)
    tracer.wrap(ResultStore, "load", "engine.store.load", _store_load)
    tracer.wrap(fleet_service.FleetService, "calibrate", "fleet.calibrate")
    tracer.wrap(
        Population, "death_thresholds", "fleet.thresholds", _thresholds
    )
    tracer.wrap(fleet_service.FleetService, "run", "fleet.dayloop", _campaign)
    tracer.wrap(
        CheckpointManager, "save", "fleet.checkpoint.save", _checkpoint_save
    )
    tracer.wrap(CheckpointManager, "latest", "fleet.checkpoint.load")
    tracer.wrap(fleet_service.FleetService, "_build_report", "fleet.report")
