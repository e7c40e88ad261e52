"""Structured observability for the simulator and the experiment engine.

A dependency-free, process-local telemetry layer:

* :class:`Telemetry` — counters, gauges, and nesting phase timers, plus
  a structured event bus (``emit(event, **fields)``) fanning out to
  pluggable sinks; :func:`get_telemetry` is the process-local registry
  every instrumentation point shares.
* Sinks — :class:`LoggingSink` (stdlib-``logging`` bridge),
  :class:`JsonlSink` (JSONL trace writer), :class:`CaptureSink`
  (in-memory, for tests), :class:`ProgressSink` (compact stderr lines),
  :class:`TextReporter` (an engine batch's ``[engine]`` lines).
* :mod:`~repro.telemetry.stats` — trace schema validation and the
  summary behind the ``repro stats`` subcommand.
* :mod:`~repro.telemetry.reporter` — the one sanctioned console-output
  module (``say``); everything user-facing funnels through it.

Instrumented layers: ``EnduranceSimulator.run`` (mapping-compile /
kernel / wear-aware phases, write-read totals, epochs/s),
``repro.core.kernel`` (chunk and GEMM counts), ``ExperimentEngine``
(per-job durations, failures, cache hit/miss, busy fraction), which
every sweep and CLI simulation runs through. The bus is the only way
to observe an engine batch, which runs in the caller's process, so its jobs' phases
and counters land in the caller's registry. The CLI exposes it via
``--log-level``, ``--trace FILE``, and ``--progress`` on every
simulation-backed subcommand.

With no sink attached the event bus short-circuits, so instrumentation
stays resident in hot layers at negligible cost (benchmark E31 pins the
overhead at <= 3%).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "CaptureSink": "repro.telemetry.sinks",
        "JsonlSink": "repro.telemetry.sinks",
        "LoggingSink": "repro.telemetry.sinks",
        "ProgressSink": "repro.telemetry.sinks",
        "Sink": "repro.telemetry.sinks",
        "TextReporter": "repro.telemetry.sinks",
        "EVENT_FIELDS": "repro.telemetry.stats",
        "KNOWN_COUNTERS": "repro.telemetry.stats",
        "TraceSchemaError": "repro.telemetry.stats",
        "format_stats": "repro.telemetry.stats",
        "iter_trace": "repro.telemetry.stats",
        "summarize_trace": "repro.telemetry.stats",
        "validate_record": "repro.telemetry.stats",
        "Telemetry": "repro.telemetry.core",
        "capture": "repro.telemetry.core",
        "get_telemetry": "repro.telemetry.core",
        "set_telemetry": "repro.telemetry.core",
    },
)
