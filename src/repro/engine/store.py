"""Disk-backed, content-addressed storage for simulation results.

Each completed job is stored under its spec's content hash as an
undeflated ``.npz`` (the lane-packed counters plus result metadata, via
:mod:`repro.core.io`: each counter matrix as the indices of its written
lanes and those lanes' block in the narrowest exact integer dtype) next
to a JSON sidecar recording the spec identity and timing. An entry of an
older format version (version 1 kept dense float64 matrices) reads as a
miss and is re-simulated and overwritten.

Entries are written atomically (temp file + rename, array payload before
sidecar), so a store left behind by a killed run contains only complete
entries — re-running the batch resumes from them. Every temp file
carries the writing process's pid, so concurrent saves of one key never
share a temp file.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.io import (
    LoadedResult,
    dump_sealed,
    load_result,
    load_sealed,
    save_result,
)
from repro.core.scratch import flush_pool_counters
from repro.core.simulator import SimulationResult
from repro.engine.spec import JobSpec
from repro.telemetry import get_telemetry


def blas_implementation() -> str:
    """A short label for the BLAS numpy was built against.

    Recorded in per-run manifests so performance regressions are
    attributable across machines. Best-effort: returns ``"unknown"``
    when numpy's build metadata is not introspectable.
    """
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode= parameter
        info = None
    if isinstance(info, dict):
        blas = info.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        if name:
            version = blas.get("version")
            return f"{name} {version}" if version else str(name)
    config = getattr(np, "__config__", None)
    if config is not None:
        for key in (
            "openblas64__info",
            "openblas_info",
            "blas_mkl_info",
            "blis_info",
            "blas_opt_info",
        ):
            if getattr(config, key, None):
                return key[: -len("_info")]
    return "unknown"


class ResultStore:
    """A cache of simulation results keyed by job content hash.

    Args:
        root: Directory to keep entries in (created if missing). Entries
            shard into two-character subdirectories to keep listings flat.
            Payloads hold only the lanes a run wrote, in the narrowest
            integer dtype that keeps them exact, and are not deflated:
            the store is a throughput-critical cache, and zlib costs
            more wall clock than the bytes are worth there.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------

    @staticmethod
    def _hash_of(key: Union[JobSpec, str]) -> str:
        return key.content_hash if isinstance(key, JobSpec) else str(key)

    def path_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the ``.npz`` payload for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.npz"

    def sidecar_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the JSON sidecar for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.json"

    def manifest_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the per-run manifest for ``key`` lives."""
        digest = self._hash_of(key)
        return self.root / digest[:2] / f"{digest}.manifest.json"

    # -- operations -----------------------------------------------------

    def contains(self, key: Union[JobSpec, str]) -> bool:
        """Whether a complete entry (payload and sidecar) exists."""
        return self.path_for(key).exists() and self.sidecar_for(key).exists()

    def load(self, key: Union[JobSpec, str]) -> Optional[LoadedResult]:
        """Return the cached result, or ``None`` on a miss.

        Incomplete or unreadable entries (e.g. from an interrupted save or
        an older format version) count as misses; the caller re-simulates
        and overwrites them.
        """
        if not self.contains(key):
            return None
        try:
            return load_result(str(self.path_for(key)))
        except (OSError, ValueError):  # load_result's damaged-file types
            return None

    def save(
        self,
        spec: JobSpec,
        result: SimulationResult,
        wall_s: Optional[float] = None,
    ) -> Path:
        """Atomically persist ``result`` under ``spec``'s hash."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp.npz"
        try:
            save_result(result, str(tmp), compress=False)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        record = {
            "spec": spec.identity(),
            "content_hash": spec.content_hash,
            "wall_s": wall_s,
        }
        _write_text(
            self.sidecar_for(spec),
            json.dumps(record, indent=2, sort_keys=True),
        )
        self._write_manifest(spec, wall_s)
        return path

    def _write_manifest(self, spec: JobSpec, wall_s: Optional[float]) -> None:
        """Write the run manifest next to the entry (atomic, best-effort).

        The manifest records how the result was produced — spec hash,
        seed, numpy/BLAS provenance, wall
        time — plus a snapshot of the producing process's telemetry
        aggregates. In pool mode that is the worker's own registry, so
        the snapshot describes (at least) exactly the runs that worker
        performed.
        """
        flush_pool_counters()  # pool.* current before the snapshot
        manifest = {
            "content_hash": spec.content_hash,
            "label": spec.label,
            "seed": spec.seed,
            "numpy_version": np.__version__,
            "blas": blas_implementation(),
            "iterations": spec.iterations,
            "track_reads": spec.track_reads,
            "wall_s": wall_s,
            "telemetry": get_telemetry().snapshot(),
        }
        _write_text(self.manifest_for(spec), dump_sealed(manifest))

    def load_manifest(self, key: Union[JobSpec, str]) -> Optional[dict]:
        """The per-run manifest for ``key``, or ``None`` when absent.

        A manifest that is unreadable, not a JSON object, or does not
        match its digest (:func:`repro.core.io.load_sealed`) reads as
        absent.
        """
        try:
            return load_sealed(
                self.manifest_for(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):  # unreadable, or not UTF-8
            return None

    def iter_manifests(self) -> Iterator[Tuple[str, dict]]:
        """Stream ``(content_hash, manifest)`` for every run manifest.

        Walks the whole store — including shard sub-stores created with
        :meth:`shard` — in sorted path order, so aggregation over the
        stream is deterministic. Unreadable manifests are skipped: the
        stream is an observability surface, not a correctness one.
        This is the primitive fleet-scale consumers aggregate from.
        """
        for path in sorted(self.root.rglob("*.manifest.json")):
            try:
                manifest = load_sealed(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if manifest is not None:
                yield path.name[: -len(".manifest.json")], manifest

    # -- sharding -------------------------------------------------------

    def shard(self, name: str) -> "ResultStore":
        """A sub-store rooted at ``root/shards/<name>`` (created lazily).

        Shards partition one store by a caller-chosen key — the fleet
        service shards by array cohort — while :meth:`iter_manifests`
        on the parent still streams over every shard. Shard names are
        slugged to filesystem-safe characters; two names that slug
        identically share a shard.
        """
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name.strip()).strip("_")
        if not slug:
            raise ValueError(f"shard name {name!r} has no usable characters")
        return ResultStore(self.root / "shards" / slug)

    # -- introspection --------------------------------------------------

    def hashes(self) -> Iterator[str]:
        """Content hashes of every complete entry."""
        for sidecar in sorted(self.root.glob("*/*.json")):
            if sidecar.name.endswith(".manifest.json"):
                continue
            if sidecar.with_suffix(".npz").exists():
                yield sidecar.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.hashes())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for digest in list(self.hashes()):
            self.path_for(digest).unlink(missing_ok=True)
            self.sidecar_for(digest).unlink(missing_ok=True)
            self.manifest_for(digest).unlink(missing_ok=True)
            removed += 1
        return removed


def _write_text(path: Path, text: str) -> None:
    """Atomically write ``text`` to ``path`` via a per-process temp file."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
