"""Disk-backed, content-addressed storage for simulation results.

Each completed job is stored under its spec's content hash as three
sealed records (:func:`repro.core.io.dump_sealed_arrays`), side by side
in a two-character shard directory:

* ``<hash>.result`` — the payload, :func:`repro.core.io.save_result`'s
  record: the lane-packed counters (each counter matrix as the indices
  of its written lanes and those lanes' block in the narrowest exact
  integer dtype) plus result metadata;
* ``<hash>.spec`` — the sidecar: the spec identity and wall time;
* ``<hash>.manifest`` — the run manifest: provenance and the producing
  process's telemetry snapshot.

A payload or sidecar that is damaged, foreign or of another format
version (version 1 kept dense float64 matrices) reads as a miss and is
re-simulated and overwritten; a damaged or off-schema manifest reads as
absent. Entries written as ``.npz`` payloads and JSON sidecars by
earlier releases are not read at all: they are misses too.

Every file is written through :func:`repro.core.io.write_atomic` (a
per-process temp file, then a rename), payload first and sidecar
second, so a store left behind by a killed run contains only complete
entries — re-running the batch resumes from them — and concurrent saves
of one key never share a temp file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.io import (
    dump_sealed_arrays,
    load_result,
    load_sealed_arrays,
    save_result,
    write_atomic,
)
from repro.core.scratch import flush_pool_counters
from repro.core.simulator import SimulationResult
from repro.engine.spec import JobSpec
from repro.telemetry import get_telemetry
from repro.verify.schemas import check_manifest

#: The suffixes of an entry's payload, sidecar and manifest.
_PAYLOAD, _SIDECAR, _MANIFEST = ".result", ".spec", ".manifest"


def _read_record(path: Path) -> Optional[dict]:
    """The metadata of the array-free sealed record at ``path``, or
    ``None`` if it is missing, unreadable, damaged or carries arrays."""
    try:
        record = load_sealed_arrays(path.read_bytes())
    except OSError:
        return None
    if record is None or record[1]:
        return None
    return record[0]


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
            integer dtype that keeps them exact.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------

    def _entry(self, key: Union[JobSpec, str], suffix: str) -> Path:
        digest = key.content_hash if isinstance(key, JobSpec) else str(key)
        return self.root / digest[:2] / f"{digest}{suffix}"

    def path_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the ``.result`` payload for ``key`` lives."""
        return self._entry(key, _PAYLOAD)

    def sidecar_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the ``.spec`` sidecar for ``key`` lives."""
        return self._entry(key, _SIDECAR)

    def manifest_for(self, key: Union[JobSpec, str]) -> Path:
        """Where the per-run ``.manifest`` for ``key`` lives."""
        return self._entry(key, _MANIFEST)

    # -- operations -----------------------------------------------------

    def load(self, key: Union[JobSpec, str]) -> Optional[SimulationResult]:
        """Return the cached result (without its mapping), or ``None`` on
        a miss.

        Incomplete entries (e.g. from an interrupted save), and entries
        whose sidecar does not name ``key`` or whose payload is damaged
        or of another format version, count as misses; the caller
        re-simulates and overwrites them.
        """
        path = self.path_for(key)
        sidecar = _read_record(self.sidecar_for(key))
        if sidecar is None or sidecar.get("content_hash") != path.stem:
            return None
        try:
            return load_result(path)
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
        save_result(result, path)
        record = {
            "spec": spec.identity(),
            "content_hash": spec.content_hash,
            "wall_s": wall_s,
        }
        write_atomic(self.sidecar_for(spec), dump_sealed_arrays(record, {}))
        self._write_manifest(spec, wall_s)
        return path

    def _write_manifest(self, spec: JobSpec, wall_s: Optional[float]) -> None:
        """Write the run manifest next to the entry (atomic).

        The manifest records how the result was produced — spec hash,
        seed, numpy/BLAS provenance, wall time — plus a snapshot of the
        producing process's telemetry aggregates, which cover every run
        that process performed up to this one.
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
        write_atomic(self.manifest_for(spec), dump_sealed_arrays(manifest, {}))

    def load_manifest(self, key: Union[JobSpec, str]) -> Optional[dict]:
        """The per-run manifest for ``key``, or ``None`` when absent.

        A manifest that is unreadable, damaged, not a sealed record
        without arrays, or off the manifest schema
        (:func:`repro.verify.check_manifest`, RPR017) reads as absent.
        """
        return _checked_manifest(self.manifest_for(key))

    def iter_manifests(self) -> Iterator[Tuple[str, dict]]:
        """Stream ``(content_hash, manifest)`` for every run manifest.

        Walks the whole store — including shard sub-stores created with
        :meth:`shard` — in sorted path order, so aggregation over the
        stream is deterministic. Manifests :meth:`load_manifest` reads
        as absent are skipped: the stream is an observability surface,
        not a correctness one. This is the primitive fleet-scale
        consumers aggregate from.
        """
        for path in sorted(self.root.rglob(f"*{_MANIFEST}")):
            manifest = _checked_manifest(path)
            if manifest is not None:
                yield path.stem, manifest

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
        """Content hashes of every entry :meth:`load` answers, sorted.

        Damaged, foreign and incomplete entries are not counted, so
        ``len(store)`` is the number of jobs the store would answer.
        Each payload is read and unsealed, so this is a full scan.
        """
        for sidecar in sorted(self.root.glob(f"*/*{_SIDECAR}")):
            if self.load(sidecar.stem) is not None:
                yield sidecar.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.hashes())

    def clear(self) -> int:
        """Delete every entry's files, readable or not; returns the
        number of entries removed."""
        removed = set()
        for suffix in (_PAYLOAD, _SIDECAR, _MANIFEST):
            for path in self.root.glob(f"*/*{suffix}"):
                path.unlink(missing_ok=True)
                removed.add(path.stem)
        return len(removed)


def _checked_manifest(path: Path) -> Optional[dict]:
    """The manifest at ``path`` if it reads and passes RPR017."""
    manifest = _read_record(path)
    if manifest is None or check_manifest(manifest):
        return None
    return manifest
