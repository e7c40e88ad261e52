"""Persistence for simulation results.

Long-horizon sweeps are worth caching: this module saves a
:class:`~repro.core.simulator.SimulationResult`'s counters and metadata to
a single ``.npz`` file and restores them into a summary object that
supports every downstream analysis (distributions, lifetimes, failure
timelines) without re-simulation. It also seals the JSON records that
a run resumes or reports from (fleet checkpoints, store manifests), so a
damaged file reads as absent instead of as different data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.array.architecture import PIMArchitecture, default_architecture
from repro.array.geometry import Orientation
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.core.simulator import SimulationResult
from repro.core.writedist import WriteDistribution

_FORMAT_VERSION = 1

#: The key :func:`dump_sealed` stores a record's content digest under.
_SEAL_KEY = "sha256"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump_sealed(record: dict) -> str:
    """``record`` as one-line JSON text, plus a SHA-256 digest of it.

    The digest covers the record's canonical text (``json.dumps`` with
    sorted keys), which is also the text written, so sealing costs one
    serialization. ``record`` must be a non-empty, JSON-native object
    (string keys) without a ``"sha256"`` key, so that
    :func:`load_sealed` recomputes the same digest from the parsed text.
    """
    text = json.dumps(record, sort_keys=True)
    return f'{text[:-1]}, "{_SEAL_KEY}": "{_digest(text)}"}}'


def load_sealed(text: str) -> Optional[dict]:
    """The record :func:`dump_sealed` wrote, or ``None`` if it is damaged.

    ``None`` means the text is not JSON, not a JSON object, or does not
    match its digest. An object without a digest (written before records
    were sealed) is returned as it is.
    """
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    seal = record.pop(_SEAL_KEY, None)
    if seal is None or seal == _digest(json.dumps(record, sort_keys=True)):
        return record
    return None


def result_metadata(result: SimulationResult) -> dict:
    """The JSON-able metadata block describing one result.

    Everything a :class:`LoadedResult` needs besides the counter arrays.
    Works on any result-like object (:class:`SimulationResult` or an
    already-restored :class:`LoadedResult`).
    """
    return {
        "format_version": _FORMAT_VERSION,
        "workload_name": result.workload_name,
        "config_label": result.config.label,
        "recompile_interval": result.config.recompile_interval,
        "iterations": result.iterations,
        "epochs": result.epochs,
        "rows": result.architecture.geometry.rows,
        "cols": result.architecture.geometry.cols,
        "orientation": result.architecture.orientation.value,
        "technology": result.architecture.technology.name,
        "architecture": result.architecture.name,
        "iteration_latency_s": result.iteration_latency_s,
        "lane_utilization": result.lane_utilization,
    }


def save_result(
    result: SimulationResult, path: str, compress: bool = True
) -> None:
    """Save a simulation result's counters and metadata to ``path``.

    The workload mapping itself (programs, schedule) is not serialized;
    the per-iteration latency and per-iteration write/read totals it
    determines are stored instead, which is what every lifetime analysis
    consumes.

    Args:
        compress: Deflate the counter arrays (smallest files, for export
            artifacts). The engine's result store passes ``False``: its
            entries are a throughput-critical cache, and zlib costs more
            wall clock than the bytes are worth there.
    """
    writer = np.savez_compressed if compress else np.savez
    arrays = {"write_counts": result.state.write_counts}
    # An untracked read distribution is a matrix of zeros; storing it
    # raw would double every entry for no information.
    if result.state.read_counts.any():
        arrays["read_counts"] = result.state.read_counts
    writer(path, metadata=json.dumps(result_metadata(result)), **arrays)


@dataclass
class LoadedResult:
    """A restored simulation result (counters plus summary metadata).

    Mirrors the :class:`SimulationResult` surface that analyses consume:
    ``state``, ``iterations``, ``architecture``, ``config``,
    ``iteration_latency_s``, ``max_writes_per_iteration`` and the
    distribution properties.
    """

    workload_name: str
    config: BalanceConfig
    architecture: PIMArchitecture
    iterations: int
    epochs: int
    state: ArrayState
    iteration_latency_s: float
    lane_utilization: float

    @property
    def max_writes_per_iteration(self) -> float:
        """Hottest cell's write rate (Eq. 4 denominator)."""
        return self.state.max_writes / self.iterations

    @property
    def write_distribution(self) -> WriteDistribution:
        """The restored write distribution."""
        return WriteDistribution(
            self.state.write_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label}",
        )

    @property
    def read_distribution(self) -> WriteDistribution:
        """The restored read distribution."""
        return WriteDistribution(
            self.state.read_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label} (reads)",
        )


def restore_result(
    metadata: dict,
    write_counts: np.ndarray,
    read_counts: Optional[np.ndarray] = None,
) -> LoadedResult:
    """Rebuild a :class:`LoadedResult` from its metadata block and counters.

    The inverse of (:func:`result_metadata`, the counter arrays); also the
    experiment engine's in-memory transport between worker processes.
    ``read_counts=None`` means "reads were not tracked" (all zeros).

    Raises:
        ValueError: if the metadata was written by an incompatible version.
    """
    version = metadata.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    from repro.devices.technology import technology_by_name

    architecture = default_architecture(
        metadata["rows"], metadata["cols"]
    ).with_technology(technology_by_name(metadata["technology"]))
    if metadata["orientation"] != architecture.orientation.value:
        from dataclasses import replace

        architecture = replace(
            architecture,
            orientation=Orientation(metadata["orientation"]),
        )
    state = ArrayState.from_counts(
        architecture.geometry, write_counts, read_counts
    )
    return LoadedResult(
        workload_name=metadata["workload_name"],
        config=BalanceConfig.from_label(
            metadata["config_label"],
            recompile_interval=metadata["recompile_interval"],
        ),
        architecture=architecture,
        iterations=metadata["iterations"],
        epochs=metadata["epochs"],
        state=state,
        iteration_latency_s=metadata["iteration_latency_s"],
        lane_utilization=metadata["lane_utilization"],
    )


def load_result(path: str) -> LoadedResult:
    """Restore a result saved with :func:`save_result`.

    Raises:
        ValueError: if the file was written by an incompatible version.
    """
    with np.load(path, allow_pickle=False) as archive:
        metadata = json.loads(str(archive["metadata"]))
        write_counts = archive["write_counts"]
        read_counts = (
            archive["read_counts"] if "read_counts" in archive.files else None
        )
    return restore_result(metadata, write_counts, read_counts)


def save_distributions_csv(
    distributions: List[WriteDistribution], directory: str
) -> List[str]:
    """Write one CSV per distribution into ``directory``; returns paths."""
    import os
    import re

    os.makedirs(directory, exist_ok=True)
    paths = []
    for dist in distributions:
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", dist.label or "dist")
        path = os.path.join(directory, f"{slug}.csv")
        dist.to_csv(path)
        paths.append(path)
    return paths
