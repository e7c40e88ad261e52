"""The experiment engine: cached, parallel, failure-contained job execution.

:class:`ExperimentEngine` takes a batch of :class:`~repro.engine.spec.JobSpec`
and resolves each one by (in order): answering from the result store,
simulating in-process (``jobs <= 1``), or simulating on a
``ProcessPoolExecutor``. Every job that is not cached runs exactly once:
it is deterministic, so a failure would only repeat. Failures are
contained — a failed job (its worker dying included) is recorded with
its traceback and the rest of the batch proceeds. Because every
completed job lands in the store before its outcome is reported, an
interrupted batch is a checkpoint: re-running the same specs
re-simulates only the jobs that had not finished. The engine reports a
batch only as events on the telemetry bus.

Each job runs on a **fresh** :class:`EnduranceSimulator` seeded from its
spec, and the simulator draws a fresh RNG stream per run, so results are
bit-identical regardless of worker count or execution order. What jobs
share within one process is only immutable, content-keyed work: the
built mapping (:func:`repro.core.simulator.mapping_for`) and its
programs' verification findings, which pre-dispatch verification and
the in-process run reuse instead of rebuilding.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.io import LoadedResult, encode_result, restore_result
from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.telemetry import Telemetry, get_telemetry, set_telemetry
from repro.verify import verify_spec


class JobStatus(Enum):
    """How a job was resolved."""

    COMPLETED = "completed"  #: simulated this run
    CACHED = "cached"  #: answered from the result store
    FAILED = "failed"  #: rejected by verification, raised, or worker died


@dataclass
class JobOutcome:
    """One job's resolution.

    Attributes:
        spec: The job.
        status: How it resolved.
        result: The simulation result (``None`` when failed). In-process
            runs yield full :class:`SimulationResult` objects; pool and
            cache paths yield :class:`LoadedResult` with identical
            counters and metadata.
        error: Formatted traceback of the failure, if any.
        wall_s: Simulation wall-clock (0 for cache hits).
    """

    spec: JobSpec
    status: JobStatus
    result: Optional[Union[SimulationResult, LoadedResult]] = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable result."""
        return self.status is not JobStatus.FAILED


def _error_reason(error: Optional[str]) -> str:
    """The last line of a failure's traceback: the exception itself."""
    tail = (error or "").strip().splitlines()
    return tail[-1] if tail else "unknown error"


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


# ----------------------------------------------------------------------
# Worker-side execution (top level so it pickles for the process pool)
# ----------------------------------------------------------------------


def execute_spec(spec: JobSpec) -> SimulationResult:
    """Run one spec on a fresh simulator configured from its settings."""
    simulator = EnduranceSimulator(spec.architecture, settings=spec.settings)
    return simulator.run(spec.workload, spec.config, spec.iterations)


def _fresh_worker_telemetry() -> None:
    """Pool initializer: start the worker on an empty telemetry registry.

    A forked worker inherits the parent's registry — its counters and its
    sinks. Replacing it (never closing the inherited sinks, which share
    the parent's file descriptors) keeps the parent's progress lines and
    trace to the parent, and makes the snapshot a worker embeds in a
    manifest describe only that worker's runs.
    """
    set_telemetry(Telemetry())


def _pool_worker(
    spec: JobSpec, store_root: Optional[str]
) -> Tuple[float, Optional[Tuple[dict, Dict[str, np.ndarray]]]]:
    """Simulate ``spec``; persist to the store or ship counters back.

    Returns ``(wall_s, payload)`` where ``payload`` is ``None`` when the
    result was saved to the store (the parent reloads it from disk) and
    otherwise the ``(metadata, arrays)`` pair the store would have
    written (:func:`encode_result`: lane-packed counters, no read block
    when reads were untracked), so the pipe carries what the disk does
    and the parent decodes both through :func:`restore_result`.
    """
    start = time.perf_counter()
    result = execute_spec(spec)
    wall = time.perf_counter() - start
    if store_root is not None:
        ResultStore(store_root).save(spec, result, wall_s=wall)
        return wall, None
    return wall, encode_result(result)


# ----------------------------------------------------------------------


@dataclass
class _BatchMetrics:
    """Per-batch tallies behind the ``batch_end`` event."""

    completed: int = 0
    cached: int = 0
    failed: int = 0
    busy_s: float = 0.0  #: summed wall time of the jobs simulated


@dataclass
class _PendingJob:
    """Book-keeping for one in-flight pool job."""

    index: int
    spec: JobSpec
    submitted_at: float = field(default_factory=time.perf_counter)


class ExperimentEngine:
    """Resolves job batches with caching, parallelism, and containment.

    Every spec is statically checked (:func:`repro.verify.verify_spec`)
    before dispatch; specs with verification errors fail fast with the
    rendered report instead of being simulated. Every other job that the
    store cannot answer runs once.

    Args:
        store: Optional result store; when set, completed jobs persist
            there and matching jobs are answered without simulating.
        jobs: Worker processes. ``<= 1`` runs in-process (no pool).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be non-negative")
        self.store = store
        self.jobs = jobs

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

        # Cache probe. ResultStore defines __len__ (a glob over every
        # sidecar), so test for a store by identity, never truthiness.
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

        to_run = self._verify_specs(specs, to_run, outcomes, metrics)
        if to_run:
            if self.jobs <= 1:
                self._run_serial(specs, to_run, outcomes, metrics)
            else:
                self._run_pool(specs, to_run, outcomes, metrics)

        wall = time.perf_counter() - start
        # Busy fraction of the workers' wall clock (the serial path
        # reports its own). Times stay unrounded: sinks print them.
        utilization = (
            metrics.busy_s / (max(self.jobs, 1) * wall) if wall > 0 else 0.0
        )
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

    # -- pre-dispatch verification --------------------------------------

    def _verify_specs(
        self,
        specs: Sequence[JobSpec],
        to_run: Sequence[int],
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
    ) -> List[int]:
        """Reject specs whose static checks report errors, before dispatch.

        A spec whose workload cannot even *build* is not rejected here:
        it falls through to normal execution so the failure carries the
        original traceback.
        """
        tele = get_telemetry()
        survivors: List[int] = []
        for index in to_run:
            spec = specs[index]
            try:
                report = verify_spec(spec)
            except Exception:
                survivors.append(index)
                continue
            if not report.errors:
                survivors.append(index)
                continue
            tele.count("engine.rejected")
            tele.emit(
                "job_rejected",
                label=spec.label,
                errors=len(report.errors),
                codes=sorted({d.code for d in report.errors}),
            )
            self._fail(
                index,
                spec,
                "verification failed:\n" + report.render_text(),
                outcomes,
                metrics,
            )
        return survivors

    # -- shared life-cycle reporting ------------------------------------

    def _job_end(self, outcome: JobOutcome, queue_s: float = 0.0) -> None:
        """Report one resolution on the event bus.

        ``wall_s`` stays unrounded, since sinks print it; a failed job
        also carries ``error``, its traceback's last line.
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
            queue_s=round(queue_s, 6),
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

    def _complete(
        self,
        index: int,
        spec: JobSpec,
        result: Union[SimulationResult, LoadedResult],
        wall: float,
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
        queue_s: float = 0.0,
    ) -> None:
        """Record one job's simulated result and report it."""
        outcomes[index] = JobOutcome(
            spec=spec, status=JobStatus.COMPLETED, result=result, wall_s=wall
        )
        metrics.completed += 1
        metrics.busy_s += wall
        self._job_end(outcomes[index], queue_s)

    # -- serial path ----------------------------------------------------

    def _run_serial(
        self,
        specs: Sequence[JobSpec],
        to_run: Sequence[int],
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
    ) -> None:
        for index in to_run:
            spec = specs[index]
            get_telemetry().emit("job_start", label=spec.label)
            start = time.perf_counter()
            try:
                result = execute_spec(spec)
            except Exception:
                self._fail(
                    index, spec, traceback.format_exc(), outcomes, metrics
                )
                continue
            wall = time.perf_counter() - start
            if self.store is not None:
                self.store.save(spec, result, wall_s=wall)
            self._complete(index, spec, result, wall, outcomes, metrics)

    # -- pool path ------------------------------------------------------

    def _run_pool(
        self,
        specs: Sequence[JobSpec],
        to_run: Sequence[int],
        outcomes: Dict[int, JobOutcome],
        metrics: _BatchMetrics,
    ) -> None:
        """Fan the jobs out to a process pool.

        Whatever a job's future raises — the job's own exception, or
        ``BrokenProcessPool`` when a worker died and took the pool (and
        every job still pending on it) down — becomes that job's
        ``FAILED`` outcome; nothing escapes.
        """
        store_root = str(self.store.root) if self.store is not None else None
        pending: Dict[Future, _PendingJob] = {}
        pool = ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_fresh_worker_telemetry
        )
        try:
            for index in to_run:
                spec = specs[index]
                get_telemetry().emit("job_start", label=spec.label)
                try:
                    future = pool.submit(_pool_worker, spec, store_root)
                except Exception:  # the pool broke before this submit
                    self._fail(
                        index, spec, traceback.format_exc(), outcomes, metrics
                    )
                    continue
                pending[future] = _PendingJob(index, spec)
            for future in as_completed(pending):
                job = pending[future]
                try:
                    wall, payload = future.result()
                except Exception:
                    self._fail(
                        job.index,
                        job.spec,
                        traceback.format_exc(),
                        outcomes,
                        metrics,
                    )
                    continue
                if payload is None:
                    result = self.store.load(job.spec)
                    if result is None:  # store vanished under us
                        self._fail(
                            job.index,
                            job.spec,
                            "result store entry missing after save "
                            f"({job.spec.label})",
                            outcomes,
                            metrics,
                        )
                        continue
                else:
                    result = restore_result(*payload)
                queue_s = (time.perf_counter() - job.submitted_at) - wall
                self._complete(
                    job.index,
                    job.spec,
                    result,
                    wall,
                    outcomes,
                    metrics,
                    max(queue_s, 0.0),
                )
        finally:
            # An interrupted batch drops its queued jobs instead of
            # running them out.
            pool.shutdown(wait=True, cancel_futures=True)


def require_ok(outcomes: Sequence[JobOutcome]) -> List[JobOutcome]:
    """Return ``outcomes`` unchanged, raising :class:`EngineError` if any
    job failed."""
    if any(not outcome.ok for outcome in outcomes):
        raise EngineError(outcomes)
    return list(outcomes)
