"""The diagnostic framework: stable codes, severities, renderers.

Every check in :mod:`repro.verify` reports findings as
:class:`Diagnostic` records with a stable ``RPR0xx`` code, so tests can
pin exact codes, CI can grep for them, and users can suppress individual
codes without silencing a whole pass. A :class:`VerifyReport` collects
the diagnostics of one verification run and renders them as text or
JSON with conventional exit codes (0 clean, 1 errors, 2 warnings only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Severity(Enum):
    """How serious a finding is.

    ``ERROR`` findings mean the program/config would misbehave or crash
    at runtime; ``WARNING`` findings are wasteful or suspicious but
    executable; ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Ordering key: errors sort before warnings before infos."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: Registry of stable diagnostic codes. Codes are append-only: a code's
#: meaning never changes, and retired codes are never reused.
#: A retired code stays listed (its message unchanged) with a comment
#: saying why no pass emits it any more.
CODES: Dict[str, str] = {
    "RPR001": "read of an uninitialized cell",
    "RPR002": "dead write (overwritten or never read)",
    "RPR003": "cell address outside the array geometry",
    "RPR004": "read-out tag / output coverage violation",
    "RPR005": "compiled gate level is not hazard-free",
    "RPR006": "write/read profile not conserved across representations",
    "RPR007": "balance mapping is not a valid permutation",
    "RPR008": "schedule violates the lane-load bounds",
    "RPR009": "hardware re-mapping has no spare bit",
    "RPR010": "invalid balance configuration",
    # RPR011 is retired: fast-forward is automatic on every periodic
    # config, so no run asks for it on a config that cannot take it.
    "RPR011": "configuration not eligible for steady-state fast-forward",
    # RPR012-RPR014 and RPR016 are retired: they guarded the sharded
    # parallel day loop and the no-death window stepping, both removed.
    "RPR012": "shard plan is not a disjoint exact cover of the population",
    "RPR013": "plan-level race: overlapping worker write regions or a "
    "parent reduction reading outside fixed shard offsets",
    "RPR014": "no-death window bound is unsound for this spec",
    "RPR015": "seeded RNG substream key collision or reuse",
    # RPR016 is retired too (see above).
    "RPR016": "window-batched draw order can diverge from the serial stream",
    "RPR017": "versioned artifact schema violation",
    "RPR018": "repo invariant violated (self-lint)",
    "RPR019": "run horizon leaves float64's exact integer range (2^53)",
}


@dataclass(frozen=True)
class Location:
    """Where a finding points.

    Attributes:
        program: Lane-program name, when the finding is about a program.
        instruction: Zero-based instruction index within the program.
        address: Logical bit address involved.
        place: Free-form location for non-program findings (a phase
            name, a config label, a permutation row).
    """

    program: Optional[str] = None
    instruction: Optional[int] = None
    address: Optional[int] = None
    place: Optional[str] = None

    def __str__(self) -> str:
        parts = []
        if self.program is not None:
            parts.append(f"program {self.program!r}")
        if self.instruction is not None:
            parts.append(f"instruction {self.instruction}")
        if self.address is not None:
            parts.append(f"bit {self.address}")
        if self.place is not None:
            parts.append(self.place)
        return ", ".join(parts) if parts else "<no location>"


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        code: Stable ``RPR0xx`` code (a key of :data:`CODES`).
        severity: How serious the finding is.
        message: What was found, in one sentence.
        location: Where it points.
        hint: How to fix or suppress it, when known.
    """

    code: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self) -> str:
        """One-line text rendering: ``RPR0xx severity: message [at ...]``."""
        text = f"{self.code} {self.severity.value}: {self.message}"
        located = str(self.location)
        if located != "<no location>":
            text += f" [{located}]"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_dict(self) -> dict:
        """JSON-able representation (used by ``verify --json``)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "program": self.location.program,
            "instruction": self.location.instruction,
            "address": self.location.address,
            "place": self.location.place,
            "hint": self.hint,
        }


class VerifyReport:
    """The outcome of one verification run.

    Diagnostics are stored most-severe first (stable within a severity).
    Reports are immutable; combine them with :meth:`merged` and drop
    suppressed codes with :meth:`without`.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(
            sorted(diagnostics, key=lambda d: d.severity.rank)
        )

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        """The ERROR-severity findings."""
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        """The WARNING-severity findings."""
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.WARNING
        )

    @property
    def ok(self) -> bool:
        """True when nothing above INFO was found."""
        return not self.errors and not self.warnings

    @property
    def exit_code(self) -> int:
        """Conventional process exit code: 0 clean, 1 errors, 2 warnings."""
        if self.errors:
            return 1
        if self.warnings:
            return 2
        return 0

    def without(self, codes: Sequence[str]) -> "VerifyReport":
        """A copy with the given codes suppressed."""
        dropped = set(codes)
        unknown = dropped - set(CODES)
        if unknown:
            raise ValueError(
                f"cannot suppress unknown codes {sorted(unknown)}"
            )
        return VerifyReport(
            d for d in self.diagnostics if d.code not in dropped
        )

    def merged(self, other: "VerifyReport") -> "VerifyReport":
        """A report holding both runs' findings."""
        return VerifyReport(self.diagnostics + other.diagnostics)

    def codes(self) -> List[str]:
        """The codes found, in rendered order (duplicates preserved)."""
        return [d.code for d in self.diagnostics]

    def render_text(self) -> str:
        """Multi-line human-readable rendering."""
        if not self.diagnostics:
            return "verify: no diagnostics"
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"verify: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} total"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """JSON rendering: ``{"diagnostics": [...], "summary": {...}}``."""
        return json.dumps(
            {
                "diagnostics": [d.as_dict() for d in self.diagnostics],
                "summary": {
                    "errors": len(self.errors),
                    "warnings": len(self.warnings),
                    "total": len(self.diagnostics),
                    "exit_code": self.exit_code,
                },
            },
            indent=2,
        )

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"VerifyReport(errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, total={len(self.diagnostics)})"
        )
