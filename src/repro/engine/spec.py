"""Declarative experiment jobs with stable content hashes.

A :class:`JobSpec` captures everything that determines a simulation's
outcome — workload (by full parameter signature), balance configuration,
architecture, iteration count, seed, and whether reads are tracked — and
hashes it. Two specs with equal hashes produce bit-identical results, so
the hash doubles as the result store's cache key and as the checkpoint
identity for resumable grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.array.architecture import PIMArchitecture
from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.workloads.base import Workload

#: Bump when the simulation semantics change in a way that invalidates
#: previously cached results.
#:
#: v2: random shuffling (``Ra``) draws argsorted uniform blocks (the
#: batched epoch kernel's convention) instead of ``rng.permutation``, so
#: v1 results with a random strategy are not reproducible anymore.
#:
#: v3: ``compare_ge`` synthesizes carry-only adders instead of full
#: adders whose sum bits were dead writes, shrinking the comparator's
#: gate count — convolution/BNN wear profiles differ from v2.
SPEC_VERSION = 3


@dataclass(frozen=True)
class JobSpec:
    """One unit of simulation work, content-addressable.

    Attributes:
        workload: The benchmark kernel (identified by its ``signature``).
        architecture: Target PIM array.
        config: Load-balancing configuration.
        iterations: Repetitions to simulate.
        seed: Base RNG seed (the simulator derives all streams from it).
        track_reads: Whether the read distribution is accumulated.
    """

    workload: Workload
    architecture: PIMArchitecture
    config: BalanceConfig = BalanceConfig()
    iterations: int = 100_000
    seed: int = 0
    track_reads: bool = False

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    @classmethod
    def from_settings(
        cls,
        workload: Workload,
        architecture: PIMArchitecture,
        config: BalanceConfig = BalanceConfig(),
        iterations: int = 100_000,
        settings: Optional[SimulationSettings] = None,
    ) -> "JobSpec":
        """Build a spec from a :class:`SimulationSettings`.

        Both settings fields, ``seed`` and ``track_reads``, become spec
        fields, so a spec built this way hashes identically to one built
        field by field. ``settings=None`` means ``SimulationSettings()``.
        """
        settings = settings if settings is not None else SimulationSettings()
        return cls(
            workload=workload,
            architecture=architecture,
            config=config,
            iterations=iterations,
            seed=settings.seed,
            track_reads=settings.track_reads,
        )

    @property
    def settings(self) -> SimulationSettings:
        """The spec's execution knobs as a :class:`SimulationSettings`."""
        return SimulationSettings(
            seed=self.seed, track_reads=self.track_reads
        )

    def identity(self) -> dict:
        """The canonical JSON-able dict the content hash is computed over."""
        arch = self.architecture
        return {
            "spec_version": SPEC_VERSION,
            "workload": self.workload.signature,
            "config": self.config.label,
            "recompile_interval": self.config.recompile_interval,
            "architecture": arch.name,
            "rows": arch.geometry.rows,
            "cols": arch.geometry.cols,
            "orientation": arch.orientation.value,
            "presets_output": arch.presets_output,
            "library": arch.library.name,
            "technology": arch.technology.name,
            "iterations": self.iterations,
            "seed": self.seed,
            "track_reads": self.track_reads,
        }

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (hex, 64 chars).

        Computed once per spec: the spec is frozen, so its identity
        cannot change.
        """
        canonical = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable job label for progress reporting."""
        return (
            f"{self.workload.name} {self.config.label} "
            f"x{self.iterations} seed={self.seed}"
        )
