"""Versioned artifact schema validation (checkpoints, manifests, traces).

The repo persists three kinds of artifacts that later runs (and
humans) consume: fleet checkpoint files
(:mod:`repro.fleet.checkpoint`), per-run store manifests
(:meth:`repro.engine.store.ResultStore._write_manifest`), and JSONL
telemetry traces (:mod:`repro.telemetry.stats`). Each has a declared
shape; silently drifting from it turns into "resume quietly starts
over" or "stats renders nothing" bugs. This pass validates an artifact
against its schema and reports every violation as ``RPR017``.

* :func:`check_checkpoint` — a decoded checkpoint's envelope
  (``version`` / ``campaign_hash`` / ``day`` / ``state``), the
  campaign-state keys, and the per-array vectors' dtypes, ranks and
  lengths. :class:`~repro.fleet.checkpoint.CheckpointManager` runs it
  on every checkpoint it reads.
* :func:`check_manifest` — the required provenance keys every run
  manifest carries.
* :func:`check_trace` — per-line JSONL schema validation, wrapping
  :class:`~repro.telemetry.stats.TraceSchemaError` into diagnostics
  with line-numbered locations.

All checkers accept already-parsed payloads (dicts / record iterables)
so tests and tools can validate without touching the filesystem;
:func:`check_trace` also accepts a path.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Union

import numpy as np

from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = [
    "CHECKPOINT_STATE_KEYS",
    "MANIFEST_KEYS",
    "check_checkpoint",
    "check_manifest",
    "check_trace",
]

#: Keys every checkpointed campaign state carries
#: (:meth:`repro.fleet.service._CampaignState.to_checkpoint`).
CHECKPOINT_STATE_KEYS = frozenset(
    {
        "day",
        "cumulative",
        "death_day",
        "served",
        "dropped",
        "traffic_state",
        "rng_state",
    }
)

#: Keys every per-run store manifest carries
#: (:meth:`repro.engine.store.ResultStore._write_manifest`). Manifests
#: written before the kernel knobs were removed also carry ``kernel``,
#: ``chunk_size`` and ``fastforward``; extra keys are accepted, so they
#: still validate.
MANIFEST_KEYS = frozenset(
    {
        "content_hash",
        "label",
        "seed",
        "numpy_version",
        "blas",
        "iterations",
        "track_reads",
        "wall_s",
        "telemetry",
    }
)


def _missing(payload: Dict, required: frozenset) -> List[str]:
    return sorted(required - payload.keys())


def check_checkpoint(payload) -> List[Diagnostic]:
    """RPR017: validate one decoded fleet checkpoint payload.

    Checks the versioned envelope (``version`` must equal the current
    :data:`repro.fleet.checkpoint.CHECKPOINT_VERSION`, ``campaign_hash``
    a string, ``day`` a non-negative int), the campaign-state keys
    (:data:`CHECKPOINT_STATE_KEYS`), and the per-array vectors:
    ``cumulative`` a 1-D float64 array and ``death_day`` a 1-D int64
    array of the same length — a truncated ``cumulative`` would
    scatter-resume garbage.
    """
    from repro.fleet.checkpoint import CHECKPOINT_VERSION

    place = "checkpoint"
    diagnostics: List[Diagnostic] = []

    def error(message: str, where: str = place, **extra) -> None:
        diagnostics.append(
            Diagnostic(
                "RPR017", Severity.ERROR, message, Location(place=where),
                **extra,
            )
        )

    if not isinstance(payload, dict):
        error(
            f"checkpoint payload is {type(payload).__name__}, "
            "not a JSON object"
        )
        return diagnostics
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        error(
            f"checkpoint version {version!r} != current "
            f"CHECKPOINT_VERSION {CHECKPOINT_VERSION}",
            hint="stale-version checkpoints are ignored on resume",
        )
    if not isinstance(payload.get("campaign_hash"), str):
        error("checkpoint 'campaign_hash' is missing or not a string")
    day = payload.get("day")
    if not isinstance(day, int) or isinstance(day, bool) or day < 0:
        error(f"checkpoint 'day' {day!r} is not a non-negative integer")
    state = payload.get("state")
    if not isinstance(state, dict):
        error("checkpoint 'state' is missing or not an object")
        return diagnostics
    where = f"{place} state"
    missing = _missing(state, CHECKPOINT_STATE_KEYS)
    if missing:
        error(
            "checkpoint state missing required key(s): " + ", ".join(missing),
            where,
        )
    vectors = {}
    for key, dtype in (("cumulative", np.float64), ("death_day", np.int64)):
        vector = state.get(key)
        if vector is None:
            continue
        if (
            not isinstance(vector, np.ndarray)
            or vector.dtype != dtype
            or vector.ndim != 1
        ):
            error(
                f"checkpoint {key!r} is not a 1-D "
                f"{np.dtype(dtype).name} array",
                where,
            )
        else:
            vectors[key] = len(vector)
    if len(vectors) == 2 and len(set(vectors.values())) == 2:
        error(
            f"checkpoint per-array vectors disagree: "
            f"{vectors['cumulative']} cumulative vs "
            f"{vectors['death_day']} death_day entries",
            where,
        )
    return diagnostics


def check_manifest(payload) -> List[Diagnostic]:
    """RPR017: validate one per-run store manifest.

    Every manifest the store writes carries the full provenance set
    (:data:`MANIFEST_KEYS`); a manifest missing any of them came from a
    drifted writer and would break manifest-streaming aggregation.
    """
    place = "manifest"
    if not isinstance(payload, dict):
        return [
            Diagnostic(
                "RPR017",
                Severity.ERROR,
                f"manifest payload is {type(payload).__name__}, "
                "not a JSON object",
                Location(place=place),
            )
        ]
    diagnostics: List[Diagnostic] = []
    missing = _missing(payload, MANIFEST_KEYS)
    if missing:
        diagnostics.append(
            Diagnostic(
                "RPR017",
                Severity.ERROR,
                "manifest missing required key(s): " + ", ".join(missing),
                Location(place=place),
            )
        )
    if "content_hash" in payload and not isinstance(
        payload["content_hash"], str
    ):
        diagnostics.append(
            Diagnostic(
                "RPR017",
                Severity.ERROR,
                "manifest 'content_hash' is not a string",
                Location(place=place),
            )
        )
    return diagnostics


def check_trace(trace: Union[str, Iterable[str]]) -> List[Diagnostic]:
    """RPR017: validate a JSONL telemetry trace line by line.

    Args:
        trace: A trace file path, or an iterable of raw JSONL lines.

    Every malformed line — unparsable JSON, a missing envelope field, a
    known event missing one of its :data:`~repro.telemetry.stats.
    EVENT_FIELDS` requirements — becomes one diagnostic with the line
    number in its location, instead of the first one aborting the scan
    the way ``repro-endurance stats`` does.
    """
    from repro.telemetry.stats import TraceSchemaError, validate_record

    if isinstance(trace, str):
        with open(trace, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(trace)
    diagnostics: List[Diagnostic] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            diagnostics.append(
                Diagnostic(
                    "RPR017",
                    Severity.ERROR,
                    f"trace line is not valid JSON ({exc.msg})",
                    Location(place=f"line {number}"),
                )
            )
            continue
        try:
            validate_record(record, number)
        except TraceSchemaError as exc:
            diagnostics.append(
                Diagnostic(
                    "RPR017",
                    Severity.ERROR,
                    str(exc),
                    Location(place=f"line {number}"),
                )
            )
    return diagnostics
