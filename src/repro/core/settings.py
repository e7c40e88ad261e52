"""The unified :class:`SimulationSettings` API.

One frozen dataclass carries every knob that shapes *how* a simulation
runs — seed, evaluator, read tracking, and telemetry options — and is
passed down whole through the simulator, sweeps, job specs, engine and
CLI. The legacy ``seed`` / ``track_reads`` kwargs survive as deprecated
aliases that warn **once per process** (:func:`warn_legacy_kwargs`) and
produce bit-identical behavior, including identical
``JobSpec.content_hash`` values. There is no kernel knob: every run
takes the one epoch kernel (:mod:`repro.core.kernel`).

Telemetry options (``log_level`` / ``trace_path`` / ``progress``) ride
along for the CLI's benefit; they never influence results and are
excluded from job content hashes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.accuracy import EVALUATORS

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

#: Process-level once-latch for the legacy-kwarg deprecation warning.
_warned_legacy = False


@dataclass(frozen=True)
class SimulationSettings:
    """Everything that shapes how (not what) a simulation runs.

    Attributes:
        seed: Base RNG seed; all random streams derive from it.
        evaluator: Functional-evaluation backend — ``"compiled"`` (SWAR
            bitplane batches) or ``"interpreted"`` (per-instruction
            loop). Bit-identical results; a pure speed knob, so it is
            excluded from job content hashes.
        track_reads: Accumulate the read distribution too (disable to
            halve accumulation cost on large sweeps).
        log_level: Telemetry: stdlib-logging level name to bridge events
            to (``None`` = no logging bridge).
        trace_path: Telemetry: JSONL trace file to append events to.
        progress: Telemetry: render compact progress lines on stderr.
    """

    seed: int = 0
    evaluator: str = "compiled"
    track_reads: bool = True
    log_level: Optional[str] = None
    trace_path: Optional[str] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.evaluator not in EVALUATORS:
            raise ValueError(
                f"evaluator must be one of {EVALUATORS}, "
                f"got {self.evaluator!r}"
            )
        if (
            self.log_level is not None
            and str(self.log_level).lower() not in _LOG_LEVELS
        ):
            raise ValueError(
                f"log_level must be one of {_LOG_LEVELS}, "
                f"got {self.log_level!r}"
            )

    def replace(self, **changes) -> "SimulationSettings":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)

    def merge_legacy(
        self,
        context: str,
        seed: Optional[int] = None,
        track_reads: Optional[bool] = None,
    ) -> "SimulationSettings":
        """Overlay deprecated per-kwarg overrides onto these settings.

        ``None`` means "not passed"; any non-``None`` value triggers the
        once-per-process deprecation warning and wins over the
        corresponding field.
        """
        overrides = {
            name: value
            for name, value in (
                ("seed", seed),
                ("track_reads", track_reads),
            )
            if value is not None
        }
        if not overrides:
            return self
        warn_legacy_kwargs(context, sorted(overrides))
        return self.replace(**overrides)


def warn_legacy_kwargs(context: str, names) -> None:
    """Emit the once-per-process legacy-kwarg ``DeprecationWarning``.

    Args:
        context: The API the caller used (e.g. ``EnduranceSimulator.run``).
        names: The legacy kwarg names that were passed.
    """
    global _warned_legacy
    if _warned_legacy:
        return
    _warned_legacy = True
    warnings.warn(
        f"passing {', '.join(names)} to {context} is deprecated; "
        f"pass a repro.SimulationSettings via settings= instead",
        DeprecationWarning,
        stacklevel=3,
    )


def reset_deprecation_latch() -> None:
    """Re-arm the once-per-process deprecation warning (for tests)."""
    global _warned_legacy
    _warned_legacy = False
