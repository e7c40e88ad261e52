"""The process-local telemetry registry and structured event bus.

One :class:`Telemetry` object holds three cheap aggregate surfaces —
monotonic **counters**, last-value **gauges**, and nesting **phase
timers** — plus an **event bus**: :meth:`Telemetry.emit` fans a
``{"ts", "event", **fields}`` record out to attached sinks
(:mod:`repro.telemetry.sinks`). With no sink attached the bus is a
single truthiness check, so instrumentation can stay in hot layers
permanently; aggregates keep accumulating either way and are exported
by :meth:`Telemetry.snapshot` (which run manifests embed).

The module-level registry (:func:`get_telemetry`) is process-local by
design: the snapshot a run manifest embeds describes the runs of the
process that wrote it, and two processes sharing one result store each
keep their own counters.

Usage::

    tele = get_telemetry()
    tele.count("engine.cache_hits")
    with tele.timed_phase("mapping_compile", workload="mult-32b"):
        mapping = workload.build(arch)

    @tele.span("analysis")
    def analyze(...): ...
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.telemetry.sinks import CaptureSink, Sink


class Telemetry:
    """Counters, gauges, phase timers, and a sink-fanout event bus.

    Args:
        sinks: Initial event sinks (none by default — aggregates only).
    """

    def __init__(self, sinks: Optional[Sequence[Sink]] = None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.phases: Dict[str, List[float]] = {}  # name -> [total_s, calls]
        self.sinks: List[Sink] = list(sinks) if sinks else []

    # -- sinks ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any sink is attached (events will actually go somewhere).

        Instrumentation uses this to skip *expensive* field computation;
        counters and timers stay live regardless.
        """
        return bool(self.sinks)

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a sink and return it (handy for ``with capture()``)."""
        self.sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        """Detach a sink; missing sinks are ignored."""
        try:
            self.sinks.remove(sink)
        except ValueError:
            pass

    def close(self) -> None:
        """Close and detach every sink."""
        for sink in self.sinks:
            sink.close()
        self.sinks.clear()

    # -- aggregates -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        with self._lock:
            self.gauges[name] = value

    def snapshot(self) -> Dict:
        """A JSON-able copy of every aggregate surface."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "phases": {
                    name: {"seconds": round(total, 6), "calls": int(calls)}
                    for name, (total, calls) in self.phases.items()
                },
            }

    def reset(self) -> None:
        """Zero every counter, gauge, and phase timer (sinks stay)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.phases.clear()

    # -- events ---------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        """Fan one structured record out to the attached sinks.

        A no-op (single truthiness check) when no sink is attached, so
        emission points are safe in hot layers. Records carry a wall-
        clock ``ts`` plus the caller's fields; field values must be
        JSON-able (the JSONL sink stringifies anything else).
        """
        if not self.sinks:
            return
        record = {"ts": time.time(), "event": event, **fields}
        for sink in list(self.sinks):
            sink.handle(record)

    # -- phases ---------------------------------------------------------

    def _phase_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def timed_phase(self, name: str, **fields) -> Iterator["Telemetry"]:
        """Time a block as a (nestable) phase.

        Nested phases record under dotted paths (``run.mapping_compile``)
        via a thread-local stack. On exit the elapsed time lands in the
        phase-timer aggregate and — when a sink is attached — a
        ``phase`` event is emitted with the caller's extra ``fields``.
        """
        stack = self._phase_stack()
        stack.append(name)
        path = ".".join(stack)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                entry = self.phases.setdefault(path, [0.0, 0])
                entry[0] += elapsed
                entry[1] += 1
            self.emit("phase", name=path, seconds=round(elapsed, 6), **fields)

    def span(self, name: Optional[str] = None, **fields) -> Callable:
        """Decorator form of :meth:`timed_phase`.

        Args:
            name: Phase name (default: the wrapped function's name).
            fields: Extra fields for the emitted ``phase`` event.
        """

        def decorate(func: Callable) -> Callable:
            phase_name = name if name is not None else func.__name__

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.timed_phase(phase_name, **fields):
                    return func(*args, **kwargs)

            return wrapper

        return decorate


#: The process-local default registry every instrumentation point uses.
_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-local :class:`Telemetry` registry."""
    return _TELEMETRY


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the process-local registry; returns the previous one.

    Benchmarks use this to measure instrumentation cost against a stub;
    tests use it for isolation.
    """
    global _TELEMETRY
    previous = _TELEMETRY
    _TELEMETRY = telemetry
    return previous


@contextmanager
def capture() -> Iterator[CaptureSink]:
    """Attach a :class:`CaptureSink` to the registry for a ``with`` block.

    The canonical test idiom::

        with capture() as sink:
            simulator.run(...)
        assert sink.of("simulation")
    """
    telemetry = get_telemetry()
    sink = CaptureSink()
    telemetry.add_sink(sink)
    try:
        yield sink
    finally:
        telemetry.remove_sink(sink)
