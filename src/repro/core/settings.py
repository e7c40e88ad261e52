"""The unified :class:`SimulationSettings` API.

One frozen dataclass carries the two knobs that shape *how* a
simulation runs — the seed and read tracking — and is passed down whole
through the simulator, sweeps, job specs, engine and CLI. It is the only
way to configure a run: the simulator and the engine take no per-field
aliases. There is no kernel knob: every run takes the one epoch kernel
(:mod:`repro.core.kernel`). Telemetry sinks are attached to the
process registry (:mod:`repro.telemetry`), not configured here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SimulationSettings:
    """Everything that shapes how (not what) a simulation runs.

    Attributes:
        seed: Base RNG seed; all random streams derive from it.
        track_reads: Accumulate the read distribution too (disable to
            halve accumulation cost on large sweeps).
    """

    seed: int = 0
    track_reads: bool = True

    def replace(self, **changes) -> "SimulationSettings":
        """A copy with the given fields changed."""
        return replace(self, **changes)
