"""Experiment orchestration: declarative, cached, resumable.

The evaluation is a grid — benchmarks x 18 balance configurations x
sweeps — and this package turns its ad-hoc loops into batches of
content-addressed jobs:

* :class:`JobSpec` — one simulation, hashed over everything that
  determines its outcome;
* :class:`ResultStore` — a disk cache of completed jobs (a payload, a
  sidecar and a manifest per job, each one sealed record written
  atomically, see :mod:`repro.core.io`), which doubles as the checkpoint
  an interrupted grid resumes from;
* :class:`ExperimentEngine` — in-process execution that runs each job
  once, with failure containment.

The engine reports each batch only as events on the telemetry bus
(``batch_start`` / ``job_start`` / ``job_end`` / ``batch_end``, see
:mod:`repro.telemetry`); attach a sink such as
:class:`repro.telemetry.TextReporter` to watch it.

Every `repro.core.sweep` grid and every CLI simulation runs through
this layer; a ``cache_dir=`` (``--cache-dir``) only adds the store.
"""

from repro.core.settings import SimulationSettings
from repro.engine.runner import (
    EngineError,
    ExperimentEngine,
    JobOutcome,
    JobStatus,
    execute_spec,
    require_ok,
)
from repro.engine.spec import SPEC_VERSION, JobSpec
from repro.engine.store import ResultStore

__all__ = [
    "EngineError",
    "ExperimentEngine",
    "JobOutcome",
    "JobStatus",
    "JobSpec",
    "ResultStore",
    "SPEC_VERSION",
    "SimulationSettings",
    "execute_spec",
    "require_ok",
    "run_simulation",
]


def run_simulation(
    workload,
    config,
    architecture,
    iterations,
    cache_dir=None,
    settings=None,
):
    """Resolve one simulation through the engine (cache-aware).

    The single-run counterpart of the sweep entry points: builds the spec,
    consults/populates ``cache_dir`` when given, and returns the result
    (without its ``mapping`` when the store answered).
    Execution knobs come from ``settings`` (a
    :class:`repro.SimulationSettings`, default ``SimulationSettings()``,
    which tracks reads).

    Raises:
        EngineError: if the job fails.
    """
    spec = JobSpec.from_settings(
        workload,
        architecture,
        config=config,
        iterations=iterations,
        settings=settings,
    )
    engine = ExperimentEngine(
        store=ResultStore(cache_dir) if cache_dir else None
    )
    outcome = require_ok([engine.run_one(spec)])[0]
    return outcome.result
