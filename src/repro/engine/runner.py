"""The experiment engine: cached, failure-contained job execution.

:class:`ExperimentEngine` takes a batch of :class:`~repro.engine.spec.JobSpec`
and resolves each one, in the caller's process, by answering it from the
result store or else simulating it. Every job that is not cached runs
exactly once: it is deterministic, so a failure would only repeat.
Failures are contained — a failed job is recorded with its traceback and
the rest of the batch proceeds. Because every completed job lands in the
store before its outcome is reported, an interrupted batch is a
checkpoint: re-running the same specs re-simulates only the jobs that
had not finished. The engine reports a batch only as events on the
telemetry bus.

Each job runs on a **fresh** :class:`EnduranceSimulator` seeded from its
spec, and the simulator draws a fresh RNG stream per run, so results are
bit-identical regardless of execution order. What jobs share is only
immutable, content-keyed work: the built mapping
(:func:`repro.core.simulator.mapping_for`) and its programs'
verification findings, which later jobs reuse instead of rebuilding.
The simulator's own static check is the engine's only verification
gate: a job it refuses fails as rejected, with its diagnostics.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.telemetry import get_telemetry
from repro.verify import VerificationError


class JobStatus(Enum):
    """How a job was resolved."""

    COMPLETED = "completed"  #: simulated this run
    CACHED = "cached"  #: answered from the result store
    FAILED = "failed"  #: rejected by verification, or raised


@dataclass
class JobOutcome:
    """One job's resolution.

    Attributes:
        spec: The job.
        status: How it resolved.
        result: The simulation result (``None`` when failed). A cache
            hit's result carries no ``mapping``
            (:func:`repro.core.io.restore_result`).
        error: Formatted traceback of the failure, if any; for a job
            verification rejected, ``verification failed:`` and the
            rendered report.
        wall_s: Simulation wall-clock (0 for cache hits).
    """

    spec: JobSpec
    status: JobStatus
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable result."""
        return self.status is not JobStatus.FAILED


#: The first line of a rejected job's error.
_REJECTED = "verification failed:"


def _error_reason(error: Optional[str]) -> str:
    """A failure in one line: a rejection's diagnostics, or else the
    last line of the traceback, the exception itself."""
    lines = (error or "").strip().splitlines()
    if lines and lines[0] == _REJECTED:
        # The rendered report, without its summary line.
        return "; ".join(lines[1:-1])
    return lines[-1] if lines else "unknown error"


class EngineError(RuntimeError):
    """Raised by callers that require every job of a batch to succeed."""

    def __init__(self, outcomes: Sequence[JobOutcome]) -> None:
        self.failures = [o for o in outcomes if not o.ok]
        lines = [
            f"  {outcome.spec.label}: {_error_reason(outcome.error)}"
            for outcome in self.failures
        ]
        super().__init__(
            f"{len(self.failures)} job(s) failed:\n" + "\n".join(lines)
        )


def execute_spec(spec: JobSpec) -> SimulationResult:
    """Run one spec on a fresh simulator configured from its settings."""
    simulator = EnduranceSimulator(spec.architecture, settings=spec.settings)
    return simulator.run(spec.workload, spec.config, spec.iterations)


@dataclass
class _BatchMetrics:
    """Per-batch tallies behind the ``batch_end`` event."""

    completed: int = 0
    cached: int = 0
    failed: int = 0
    busy_s: float = 0.0  #: summed wall time of the jobs simulated


class ExperimentEngine:
    """Resolves job batches with caching and failure containment.

    Every job that the store cannot answer runs once. The simulator
    statically checks it (``EnduranceSimulator._verify``) before any
    kernel work; a job with verification errors is rejected, failing
    with the rendered report instead of being simulated.

    Args:
        store: Optional result store; when set, completed jobs persist
            there and matching jobs are answered without simulating.
    """

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        self.store = store

    # -- public API -----------------------------------------------------

    def run_one(self, spec: JobSpec) -> JobOutcome:
        """Resolve a single job (convenience wrapper over :meth:`run`)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Resolve every spec; outcomes keep the caller's order.

        Specs with identical content hashes are simulated once and share
        an outcome. Failed jobs are reported, not raised — use
        :func:`require_ok` when partial batches are unacceptable.
        """
        specs = list(specs)
        start = time.perf_counter()
        metrics = _BatchMetrics()
        outcomes: Dict[int, JobOutcome] = {}

        # Deduplicate by content hash; the first occurrence leads.
        leaders: Dict[str, int] = {}
        followers: Dict[int, int] = {}
        for index, spec in enumerate(specs):
            digest = spec.content_hash
            if digest in leaders:
                followers[index] = leaders[digest]
            else:
                leaders[digest] = index

        # Cache probe. ResultStore defines __len__ (a read of every
        # entry), so test for a store by identity, never truthiness.
        to_run: List[int] = []
        for digest, index in leaders.items():
            cached = (
                self.store.load(digest) if self.store is not None else None
            )
            if cached is not None:
                outcomes[index] = JobOutcome(
                    spec=specs[index], status=JobStatus.CACHED, result=cached
                )
                metrics.cached += 1
            else:
                to_run.append(index)
        tele = get_telemetry()
        tele.count("engine.jobs", len(leaders))
        tele.count("engine.cache_hits", metrics.cached)
        tele.count("engine.cache_misses", len(to_run))
        tele.emit("batch_start", total=len(leaders), cached=metrics.cached)
        for index in outcomes:
            self._job_end(outcomes[index])

        self._simulate(specs, to_run, outcomes, metrics)

        wall = time.perf_counter() - start
        # Busy fraction of the batch's wall clock. Times stay unrounded:
        # sinks print them.
        utilization = metrics.busy_s / wall if wall > 0 else 0.0
        tele.emit(
            "batch_end",
            completed=metrics.completed,
            cached=metrics.cached,
            failed=metrics.failed,
            wall_s=wall,
            utilization=round(utilization, 4),
        )
        for index, leader in followers.items():
            lead = outcomes[leader]
            outcomes[index] = JobOutcome(
                spec=specs[index],
                status=lead.status,
                result=lead.result,
                error=lead.error,
            )
        return [outcomes[index] for index in range(len(specs))]

    # -- shared life-cycle reporting ------------------------------------

    def _job_end(self, outcome: JobOutcome) -> None:
        """Report one resolution on the event bus.

        ``wall_s`` stays unrounded, since sinks print it; a failed job
        also carries ``error``, its one-line reason.
        """
        tele = get_telemetry()
        extra = {}
        if outcome.status is JobStatus.FAILED:
            tele.count("engine.failures")
            extra["error"] = _error_reason(outcome.error)
        elif outcome.status is JobStatus.COMPLETED:
            tele.count("engine.completed")
        tele.emit(
            "job_end",
            label=outcome.spec.label,
            status=outcome.status.value,
            wall_s=outcome.wall_s,
            **extra,
        )

    def _fail(
        self,
        index: int,
        spec: JobSpec,
        error: str,
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
    ) -> None:
        """Record one job's failure and report it."""
        outcomes[index] = JobOutcome(
            spec=spec, status=JobStatus.FAILED, error=error
        )
        metrics.failed += 1
        self._job_end(outcomes[index])

    # -- simulation -----------------------------------------------------

    def _simulate(
        self,
        specs: Sequence[JobSpec],
        to_run: Sequence[int],
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
    ) -> None:
        tele = get_telemetry()
        for index in to_run:
            spec = specs[index]
            tele.emit("job_start", label=spec.label)
            start = time.perf_counter()
            try:
                result = execute_spec(spec)
            except VerificationError as error:
                errors = error.report.errors
                tele.count("engine.rejected")
                tele.emit(
                    "job_rejected",
                    label=spec.label,
                    errors=len(errors),
                    codes=sorted({d.code for d in errors}),
                )
                self._fail(
                    index,
                    spec,
                    f"{_REJECTED}\n{error.report.render_text()}",
                    outcomes,
                    metrics,
                )
                continue
            except Exception:
                self._fail(
                    index, spec, traceback.format_exc(), outcomes, metrics
                )
                continue
            wall = time.perf_counter() - start
            if self.store is not None:
                self.store.save(spec, result, wall_s=wall)
            outcomes[index] = JobOutcome(
                spec=spec,
                status=JobStatus.COMPLETED,
                result=result,
                wall_s=wall,
            )
            metrics.completed += 1
            metrics.busy_s += wall
            self._job_end(outcomes[index])


def require_ok(outcomes: Sequence[JobOutcome]) -> List[JobOutcome]:
    """Return ``outcomes`` unchanged, raising :class:`EngineError` if any
    job failed."""
    if any(not outcome.ok for outcome in outcomes):
        raise EngineError(outcomes)
    return list(outcomes)
