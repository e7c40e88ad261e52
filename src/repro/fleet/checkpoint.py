"""Checkpointed fleet-campaign state (kill-safe, resume-deterministic).

A checkpoint is one JSON file capturing everything the day loop needs to
continue: the last completed day, per-array cumulative iterations and
death days, traffic totals, the arrival-process state, and the traffic
generator's full PCG64 state. Writes are atomic (temp file + rename),
so a campaign killed mid-write leaves only complete checkpoints behind;
resuming from the latest one replays the remaining days bit-identically
(Python's JSON round-trips both doubles and arbitrary-precision ints
exactly, and the RNG state restores the arrival stream in place). Each
file also carries a SHA-256 digest of its content
(:func:`repro.core.io.dump_sealed`), so a truncated or corrupted file
reads as absent rather than resuming from damaged state; files written
before the digest was added still load.

File names carry the campaign's spec hash —
``fleet-<hash12>-day<N>.json`` — so checkpoints from different campaigns
can share a directory without cross-resume, and a spec change silently
invalidates old checkpoints rather than corrupting a resume.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.io import dump_sealed, load_sealed

#: Bumped whenever the checkpoint payload shape changes; a mismatch is
#: treated as "no checkpoint" rather than a best-effort parse.
CHECKPOINT_VERSION = 1


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
        return self.directory / f"{self._stem}-day{day:06d}.json"

    # -- operations -----------------------------------------------------

    def save(self, day: int, state: Dict) -> Path:
        """Atomically write the checkpoint for completed day ``day``."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "campaign_hash": self.campaign_hash,
            "day": int(day),
            "state": state,
        }
        path = self.path_for(day)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(dump_sealed(payload), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def load(self, day: int) -> Optional[Dict]:
        """The state payload checkpointed after ``day``, or ``None``."""
        return self._read(self.path_for(day))

    def _read(self, path: Path) -> Optional[Dict]:
        try:
            payload = load_sealed(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # unreadable, or not UTF-8
            return None
        if (
            payload is None
            or payload.get("version") != CHECKPOINT_VERSION
            or payload.get("campaign_hash") != self.campaign_hash
        ):
            return None
        state = payload.get("state")
        return state if isinstance(state, dict) else None

    def days(self) -> List[int]:
        """Completed days with a readable checkpoint, ascending."""
        pattern = re.compile(
            re.escape(self._stem) + r"-day(\d{6})\.json$"
        )
        out = []
        for path in sorted(self.directory.glob(f"{self._stem}-day*.json")):
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

    def clear(self) -> int:
        """Delete this campaign's checkpoints; returns count removed."""
        removed = 0
        for day in self.days():
            self.path_for(day).unlink(missing_ok=True)
            removed += 1
        return removed
