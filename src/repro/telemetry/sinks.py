"""Pluggable destinations for telemetry event records.

A sink receives every record emitted on a :class:`~repro.telemetry.core.
Telemetry` bus as a plain dict (``{"ts": ..., "event": ..., **fields}``)
and does exactly one thing with it: bridge it to stdlib ``logging``
(:class:`LoggingSink`), append it to a JSONL trace file
(:class:`JsonlSink`), keep it in memory for assertions
(:class:`CaptureSink`), render a compact progress line on stderr
(:class:`ProgressSink`), or render an engine batch's ``[engine]`` lines
(:class:`TextReporter`). Sinks must never raise into the hot path and
must tolerate records they do not understand — unknown events are a
forward-compatibility feature, not an error.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from typing import Dict, List, Optional, TextIO

from repro.telemetry.reporter import say


class Sink:
    """Base class for event destinations; subclasses override both hooks."""

    def handle(self, record: Dict) -> None:
        """Receive one event record (a plain, JSON-able dict)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources; safe to call twice."""


class CaptureSink(Sink):
    """In-memory capture for tests.

    Attributes:
        records: Every record received, in emission order.
    """

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def handle(self, record: Dict) -> None:
        """Append the record to :attr:`records`."""
        self.records.append(record)

    def of(self, event: str) -> List[Dict]:
        """The captured records for one event name, in order."""
        return [r for r in self.records if r.get("event") == event]


class LoggingSink(Sink):
    """Bridge events onto a stdlib :mod:`logging` logger.

    Args:
        logger: Target logger (default ``repro.telemetry``).
        level: Level every event is logged at (default ``INFO``).
    """

    def __init__(
        self,
        logger: Optional[logging.Logger] = None,
        level: int = logging.INFO,
    ) -> None:
        self.logger = logger if logger is not None else logging.getLogger(
            "repro.telemetry"
        )
        self.level = level

    def handle(self, record: Dict) -> None:
        """Log the record as ``event key=value ...``."""
        if not self.logger.isEnabledFor(self.level):
            return
        fields = " ".join(
            f"{key}={record[key]}"
            for key in sorted(record)
            if key not in ("event", "ts")
        )
        self.logger.log(self.level, "%s %s", record.get("event"), fields)


class JsonlSink(Sink):
    """Append every record to a JSON-lines trace file.

    The file is opened lazily on the first record and written line-
    buffered, one JSON object per line, so a trace of an interrupted run
    contains only complete records. Thread-safe; multiple processes must
    use distinct paths (each runs its own process-local telemetry).

    Args:
        path: Trace file path; truncated at first write.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh: Optional[TextIO] = None
        self._lock = threading.Lock()

    def handle(self, record: Dict) -> None:
        """Serialize the record to one JSONL line."""
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "w", encoding="utf-8", buffering=1)
            self._fh.write(line + "\n")

    def close(self) -> None:
        """Flush and close the trace file."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ProgressSink(Sink):
    """Render selected events as one-line progress messages on stderr.

    The CLI attaches this for ``--progress``: phase completions, engine
    job resolutions, and grid progress become compact human-readable
    lines without touching stdout artifacts.

    Args:
        stream: Target stream (default stderr).
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def handle(self, record: Dict) -> None:
        """Format known events; silently drop the rest."""
        event = record.get("event")
        line = None
        if event == "phase":
            line = (
                f"[phase] {record.get('name')} "
                f"{record.get('seconds', 0.0):.3f}s"
            )
        elif event == "grid_progress":
            line = (
                f"[grid] {record.get('done')}/{record.get('total')} "
                f"{record.get('label')}"
            )
        elif event == "job_end":
            line = (
                f"[job] {record.get('status')} {record.get('label')} "
                f"({record.get('wall_s', 0.0):.2f}s)"
            )
        elif event == "batch_end":
            line = (
                f"[batch] {record.get('completed')} simulated, "
                f"{record.get('cached')} cached, "
                f"{record.get('failed')} failed in "
                f"{record.get('wall_s', 0.0):.2f}s"
            )
        elif event == "simulation":
            line = (
                f"[sim] {record.get('workload')} {record.get('config')} "
                f"x{record.get('iterations')} "
                f"({record.get('seconds', 0.0):.2f}s)"
            )
        if line is not None:
            say(line, stream=self.stream, flush=True)


class TextReporter(Sink):
    """Render an engine batch as ``[engine]`` lines on stderr.

    Reads the :class:`~repro.engine.ExperimentEngine` events: a census
    line on ``batch_start`` (which also resets the counts), one line per
    simulated or failed ``job_end`` (cache hits are in the census), and
    a summary line on ``batch_end``. The CLI attaches it, after the
    flag-driven sinks, to every engine-routed run (one given
    ``--cache-dir``).

    Args:
        stream: Target stream (default stderr, keeping stdout artifacts
            clean for redirection).
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._seen = 0
        self._simulated = 0
        self._busy_s = 0.0

    def handle(self, record: Dict) -> None:
        """Format the engine's batch and job events; drop the rest."""
        event = record.get("event")
        status = record.get("status")
        if event == "batch_start":
            self._total = record.get("total", 0)
            self._seen = record.get("cached", 0)
            self._simulated = 0
            self._busy_s = 0.0
            line = (
                f"[engine] {self._total} job(s): {self._seen} cached, "
                f"{self._total - self._seen} to simulate"
            )
        elif event == "job_end" and status != "cached":
            self._seen += 1
            progress = f"[engine] {self._seen}/{self._total}"
            if status == "failed":
                line = (
                    f"{progress} FAILED {record.get('label')}: "
                    f"{record.get('error', 'unknown error')}"
                )
            else:
                wall_s = record.get("wall_s", 0.0)
                self._simulated += 1
                self._busy_s += wall_s
                line = f"{progress} done {record.get('label')} ({wall_s:.2f}s)"
        elif event == "batch_end":
            wall_s = record.get("wall_s", 0.0)
            resolved = record.get("completed", 0) + record.get("cached", 0)
            rate = resolved / wall_s if wall_s > 0 else 0.0
            mean = self._busy_s / self._simulated if self._simulated else 0.0
            line = (
                f"[engine] batch done in {wall_s:.2f}s: "
                f"{record.get('completed')} simulated, "
                f"{record.get('cached')} cached, "
                f"{record.get('failed')} failed "
                f"({rate:.2f} cells/s, mean job {mean:.2f}s)"
            )
        else:
            return
        say(line, stream=self.stream, flush=True)
