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

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "EngineError": "repro.engine.runner",
        "ExperimentEngine": "repro.engine.runner",
        "JobOutcome": "repro.engine.runner",
        "JobStatus": "repro.engine.runner",
        "execute_spec": "repro.engine.runner",
        "require_ok": "repro.engine.runner",
        "run_simulation": "repro.engine.runner",
        "JobSpec": "repro.engine.spec",
        "SPEC_VERSION": "repro.engine.spec",
        "ResultStore": "repro.engine.store",
        "SimulationSettings": "repro.core.settings",
    },
)
