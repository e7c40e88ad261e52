"""Checkpointed fleet-campaign state (kill-safe, resume-deterministic).

A checkpoint is one sealed record, the format of every file repro
writes and reads back, capturing everything the day loop needs to
continue. The per-array vectors — cumulative iterations (float64)
and death days (int64) — are stored as raw arrays; the last completed
day, the traffic totals, the arrival-process state and the traffic
generator's full PCG64 state are JSON metadata in the same file
(:func:`repro.core.io.dump_sealed_arrays`). One SHA-256 covers the
metadata text and the array bytes, so a truncated or corrupted file
reads as absent rather than resuming from damaged state. A file that
decodes but does not have the checkpoint schema
(:func:`repro.verify.check_checkpoint`, RPR017) reads as absent too.

Writes go through :func:`repro.core.io.write_atomic` (a per-process
temp file, then a rename, the temp file removed even when the write
fails), so a campaign killed mid-write leaves only complete checkpoints
behind; resuming from the latest one replays the remaining days
bit-identically (the arrays keep their exact bytes, JSON carries the
arbitrary-precision RNG integers exactly, and the RNG state restores
the arrival stream in place).

File names carry the campaign's spec hash —
``fleet-<hash12>-day<N>.ckpt`` — so checkpoints from different campaigns
can share a directory without cross-resume, and a spec change silently
invalidates old checkpoints rather than corrupting a resume. Version 1
checkpoints (one JSON file, ``.json``) are not read: a campaign paused
under them restarts from day 0.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.io import dump_sealed_arrays, load_sealed_arrays, write_atomic
from repro.verify.schemas import check_checkpoint

#: Bumped whenever the checkpoint payload shape changes; a mismatch is
#: treated as "no checkpoint" rather than a best-effort parse.
CHECKPOINT_VERSION = 2

#: The file suffix of the current checkpoint format.
_SUFFIX = ".ckpt"


class CheckpointManager:
    """Reads and writes the checkpoint files of one campaign.

    Args:
        directory: Where checkpoints live (created if missing).
        campaign_hash: The campaign's spec content hash; only
            checkpoints stamped with it are visible to this manager.
    """

    def __init__(
        self, directory: Union[str, Path], campaign_hash: str
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.campaign_hash = campaign_hash

    # -- paths ----------------------------------------------------------

    @property
    def _stem(self) -> str:
        return f"fleet-{self.campaign_hash[:12]}"

    def path_for(self, day: int) -> Path:
        """Where the checkpoint for completed day ``day`` lives."""
        return self.directory / f"{self._stem}-day{day:06d}{_SUFFIX}"

    # -- operations -----------------------------------------------------

    def save(self, day: int, state: Dict) -> Path:
        """Atomically write the checkpoint for completed day ``day``.

        ``state`` maps names to JSON-native values or numpy arrays; the
        arrays are stored as raw bytes, the rest as JSON metadata.
        """
        arrays = {
            key: value
            for key, value in state.items()
            if isinstance(value, np.ndarray)
        }
        payload = {
            "version": CHECKPOINT_VERSION,
            "campaign_hash": self.campaign_hash,
            "day": int(day),
            "state": {
                key: value
                for key, value in state.items()
                if key not in arrays
            },
        }
        path = self.path_for(day)
        write_atomic(path, dump_sealed_arrays(payload, arrays))
        return path

    def load(self, day: int) -> Optional[Dict]:
        """The state payload checkpointed after ``day``, or ``None``.

        The state's arrays are read-only.
        """
        return self._read(self.path_for(day))

    def _read(self, path: Path) -> Optional[Dict]:
        try:
            record = load_sealed_arrays(path.read_bytes())
        except OSError:
            return None
        if record is None:
            return None
        payload, arrays = record
        state = payload.get("state")
        if isinstance(state, dict):
            payload["state"] = dict(state, **arrays)
        if (
            payload.get("campaign_hash") != self.campaign_hash
            or check_checkpoint(payload)
        ):
            return None
        return payload["state"]

    def days(self) -> List[int]:
        """Completed days with a checkpoint file, ascending."""
        pattern = re.compile(
            re.escape(self._stem) + r"-day(\d{6})" + re.escape(_SUFFIX) + "$"
        )
        out = []
        for path in sorted(
            self.directory.glob(f"{self._stem}-day*{_SUFFIX}")
        ):
            match = pattern.search(path.name)
            if match:
                out.append(int(match.group(1)))
        return out

    def latest(self) -> Optional[Tuple[int, Dict]]:
        """The most recent readable checkpoint as ``(day, state)``.

        Unreadable or stale-format files are skipped (falling back to
        the next-newest), so a truncated final checkpoint degrades to a
        slightly earlier resume point instead of a failed resume.
        """
        for day in reversed(self.days()):
            state = self.load(day)
            if state is not None:
                return day, state
        return None
