"""IR dataflow checks over :class:`~repro.synth.program.LaneProgram`.

Proved over the program's flat columns, without executing a single
gate:

* **RPR001** — every read (gate input, ``ReadInstr``) sees a cell some
  earlier instruction wrote;
* **RPR002** — no write is dead: neither overwritten before any read
  (write-after-write) nor left unread at program end without being a
  declared output. Scratch/preset writes (``source=None``) are exempt —
  their value never matters by construction;
* **RPR003** — the program's footprint fits the lane it must run in;
* **RPR004** — declared outputs are computed, and every tagged read-out
  stream is dense (no gaps, no duplicate slots) so networked consumers
  never silently read zero-filled padding;
* **RPR005** — the compiled SoA form's fused gate levels are race-free
  *by construction*: within a level, gate outputs are pairwise distinct
  and no gate reads what another gate in the level writes. This re-proves
  the hazard property :mod:`repro.synth.compiled` relies on, over the
  flat level ids, instead of trusting the scheduler that built them.

Each proof has a per-object reporter that runs only when the proof
fails: the per-instruction walk for RPR001/002/004
(:func:`_walk_dataflow`) and :func:`check_level_segments` for RPR005.
Reports therefore come from the reporters alone.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.distinct import contained, distinct
from repro.synth.program import (
    KIND_GATE,
    KIND_READ,
    SRC_SCRATCH,
    LaneProgram,
    ReadInstr,
    WriteInstr,
)
from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = [
    "check_dataflow",
    "check_bounds",
    "check_levels",
    "check_level_columns",
    "check_level_segments",
]


def check_dataflow(program: LaneProgram) -> List[Diagnostic]:
    """RPR001/RPR002/RPR004 over one program's instruction stream.

    Proves the program clean over its flat columns first
    (:func:`_dataflow_is_clean`); only a program with a finding pays the
    per-instruction walk, which writes the report.
    """
    if _dataflow_is_clean(program):
        return []
    return _walk_dataflow(program)


def _dataflow_is_clean(program: LaneProgram) -> bool:
    """Whether :func:`_walk_dataflow` would report nothing.

    Every cell access becomes an event sorted by (address, position).
    The walk finds nothing exactly when each address's first event is a
    write (RPR001), no meaningful write is followed by another write of
    its cell or, as the cell's last event, left unread outside the
    declared outputs (RPR002), every declared output cell is written,
    and each tagged stream's slots are distinct and cover 0..max
    (RPR004).
    """
    columns = program.columns
    kind = columns.kind
    positions = np.arange(kind.size)
    gates = kind == KIND_GATE
    reads = kind == KIND_READ
    inputs = columns.inputs[gates]
    used = inputs >= 0
    writes = ~reads  # standard writes and gate outputs
    addresses = np.concatenate(
        [columns.address[writes], columns.address[reads], inputs[used]]
    )
    at = np.concatenate(
        [
            positions[writes],
            positions[reads],
            np.broadcast_to(positions[gates][:, None], inputs.shape)[used],
        ]
    )
    written = writes.sum()
    is_write = np.zeros(addresses.size, dtype=bool)
    is_write[:written] = True
    meaningful = np.zeros(addresses.size, dtype=bool)
    meaningful[:written] = columns.source[writes] != SRC_SCRATCH
    order = np.lexsort((at, addresses))
    addresses = addresses[order]
    is_write = is_write[order]
    meaningful = meaningful[order]
    declared = np.array(
        [a for vector in program.outputs.values() for a in vector],
        dtype=np.int64,
    )
    if not contained(declared, addresses).all():
        return False
    if addresses.size:
        first = np.ones(addresses.size, dtype=bool)
        first[1:] = addresses[1:] != addresses[:-1]
        last = np.append(first[1:], True)
        if not is_write[first].all():
            return False
        if (meaningful[:-1] & is_write[1:] & ~first[1:]).any():
            return False
        if (meaningful & last & ~contained(addresses, declared)).any():
            return False
    tagged = reads & (columns.arg >= 0)
    if tagged.any():
        tags = columns.arg[tagged].astype(np.int64)
        slots = columns.bit[tagged].astype(np.int64)
        span = int(slots.max()) + 1
        if distinct(tags * span + slots).size != tags.size:
            return False
        top = np.zeros(len(columns.tags), dtype=np.int64)
        np.maximum.at(top, tags, slots + 1)
        if not np.array_equal(
            np.bincount(tags, minlength=top.size), top
        ):
            return False
    return True


def _walk_dataflow(program: LaneProgram) -> List[Diagnostic]:
    """The per-instruction dataflow walk: the reporter, and the oracle of
    :func:`_dataflow_is_clean`."""
    diagnostics: List[Diagnostic] = []
    initialized: Set[int] = set()
    # address -> (instruction index, counts-for-dead-write) of the last
    # write that no later instruction has read yet.
    unread: Dict[int, Tuple[int, bool]] = {}
    output_addresses = {
        address
        for addresses in program.outputs.values()
        for address in addresses
    }
    streams: Dict[str, Dict[int, int]] = {}

    def note_read(address: int, index: int) -> None:
        if address not in initialized:
            diagnostics.append(
                Diagnostic(
                    "RPR001",
                    Severity.ERROR,
                    f"read of uninitialized cell {address}",
                    Location(program.name, index, address),
                    hint="write the cell (operand load, const, or gate) "
                    "before reading it",
                )
            )
            initialized.add(address)  # report each cell once
        unread.pop(address, None)

    def note_write(address: int, index: int, meaningful: bool) -> None:
        previous = unread.get(address)
        if previous is not None and previous[1]:
            diagnostics.append(
                Diagnostic(
                    "RPR002",
                    Severity.WARNING,
                    f"write to cell {address} at instruction {previous[0]} "
                    f"is overwritten at instruction {index} without being "
                    "read",
                    Location(program.name, previous[0], address),
                    hint="drop the earlier write or read it first",
                )
            )
        initialized.add(address)
        unread[address] = (index, meaningful)

    for index, instr in enumerate(program.instructions):
        if isinstance(instr, WriteInstr):
            note_write(instr.address, index, instr.source is not None)
        elif isinstance(instr, ReadInstr):
            note_read(instr.address, index)
            if instr.tag is not None:
                slots = streams.setdefault(instr.tag, {})
                if instr.index in slots:
                    diagnostics.append(
                        Diagnostic(
                            "RPR004",
                            Severity.ERROR,
                            f"read-out tag {instr.tag!r} writes slot "
                            f"{instr.index} twice (instructions "
                            f"{slots[instr.index]} and {index})",
                            Location(program.name, index),
                            hint="each stream slot must be produced by "
                            "exactly one tagged read",
                        )
                    )
                slots[instr.index] = index
        else:  # Gate
            for address in instr.inputs:
                note_read(address, index)
            note_write(instr.output, index, True)

    for address, (index, meaningful) in sorted(unread.items()):
        if meaningful and address not in output_addresses:
            diagnostics.append(
                Diagnostic(
                    "RPR002",
                    Severity.WARNING,
                    f"final write to cell {address} at instruction {index} "
                    "is never read and the cell is not a declared output",
                    Location(program.name, index, address),
                    hint="free the value without computing it, or declare "
                    "it an output",
                )
            )

    for name, addresses in sorted(program.outputs.items()):
        for address in addresses:
            if address not in initialized:
                diagnostics.append(
                    Diagnostic(
                        "RPR004",
                        Severity.ERROR,
                        f"declared output {name!r} uses cell {address}, "
                        "which no instruction writes",
                        Location(program.name, address=address),
                        hint="compute the output bit or remove it from "
                        "the declaration",
                    )
                )
    for tag, slots in sorted(streams.items()):
        missing = sorted(set(range(max(slots) + 1)) - set(slots))
        if missing:
            diagnostics.append(
                Diagnostic(
                    "RPR004",
                    Severity.ERROR,
                    f"read-out tag {tag!r} leaves stream slots {missing} "
                    "unwritten (consumers would read zero-filled padding)",
                    Location(program.name),
                    hint="tagged read indices must cover 0..max densely",
                )
            )
    return diagnostics


def check_bounds(
    program: LaneProgram, lane_size: int, spare_bit: bool = False
) -> List[Diagnostic]:
    """RPR003/RPR009: does the program's footprint fit the lane?

    Args:
        program: The lane program.
        lane_size: Physical bits per lane in the target geometry.
        spare_bit: Whether hardware re-mapping is active, which reserves
            one physical bit (Section 3.2: ``N-1`` logical addresses).
    """
    if spare_bit and program.footprint > lane_size - 1:
        return [
            Diagnostic(
                "RPR009",
                Severity.ERROR,
                f"hardware re-mapping needs a spare bit: footprint "
                f"{program.footprint} must be < lane size {lane_size}",
                Location(program.name),
                hint="shrink the program's workspace or disable +Hw",
            )
        ]
    if program.footprint > lane_size:
        return [
            Diagnostic(
                "RPR003",
                Severity.ERROR,
                f"program footprint {program.footprint} exceeds the "
                f"lane size {lane_size}",
                Location(program.name),
                hint="use a larger array or a tighter workspace policy",
            )
        ]
    return []


def check_levels(program: LaneProgram) -> List[Diagnostic]:
    """RPR005: re-prove the compiled gate levels are race-free."""
    gates = program.columns.kind == KIND_GATE
    return check_level_columns(
        program.compiled().gate_levels,
        program.columns.address[gates],
        program.columns.inputs[gates],
        program.name,
    )


class _LevelView:
    """One level's input and output addresses, for the reporter."""

    __slots__ = ("input_addresses", "output_addresses")

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        self.input_addresses = inputs[inputs >= 0]
        self.output_addresses = outputs


def check_level_columns(
    levels: np.ndarray,
    outputs: np.ndarray,
    inputs: np.ndarray,
    program_name: str,
) -> List[Diagnostic]:
    """RPR005 over flat per-gate arrays, gates in program order.

    Args:
        levels: Level id per gate (non-decreasing).
        outputs: Output address per gate.
        inputs: ``(gates, 3)`` input addresses, ``-1`` in unused slots.
        program_name: For the diagnostics' locations.

    A race is a repeated (level, output) pair or an input address that
    is also an output of its level. Only a racy schedule is cut into
    per-level views and reported by :func:`check_level_segments`.
    """
    levels = np.asarray(levels, dtype=np.int64)
    outputs = np.asarray(outputs, dtype=np.int64)
    inputs = np.asarray(inputs, dtype=np.int64).reshape(-1, 3)
    if not levels.size:
        return []
    span = int(max(outputs.max(), inputs.max())) + 1
    written = np.sort(levels * span + outputs)
    used = inputs >= 0
    read = np.broadcast_to(levels[:, None], inputs.shape)[used] * span
    read = read + inputs[used]
    if not (written[1:] == written[:-1]).any() and not contained(
        read, written
    ).any():
        return []
    bounds = np.flatnonzero(np.diff(levels)) + 1
    views = [
        _LevelView(level_inputs.ravel(), level_outputs)
        for level_inputs, level_outputs in zip(
            np.split(inputs, bounds), np.split(outputs, bounds)
        )
    ]
    return check_level_segments(views, program_name)


def check_level_segments(segments, program_name: str) -> List[Diagnostic]:
    """RPR005 over explicit gate-level segments (testable in isolation).

    A level is race-free when its gate outputs are pairwise distinct and
    no output address is also a level input — then the gates commute, so
    the fused same-opcode groups may execute in any order.
    """
    diagnostics: List[Diagnostic] = []
    for rank, level in enumerate(segments):
        outputs = [int(a) for a in level.output_addresses]
        inputs = {int(a) for a in level.input_addresses}
        seen: Set[int] = set()
        for address in outputs:
            if address in seen:
                diagnostics.append(
                    Diagnostic(
                        "RPR005",
                        Severity.ERROR,
                        f"gate level {rank} writes cell {address} twice "
                        "(write-write race within a fused level)",
                        Location(
                            program_name,
                            address=address,
                            place=f"level {rank}",
                        ),
                        hint="the level scheduler must flush on "
                        "write-after-write hazards",
                    )
                )
            seen.add(address)
        for address in sorted(seen & inputs):
            diagnostics.append(
                Diagnostic(
                    "RPR005",
                    Severity.ERROR,
                    f"gate level {rank} both reads and writes cell "
                    f"{address} (read-write race within a fused level)",
                    Location(
                        program_name, address=address, place=f"level {rank}"
                    ),
                    hint="the level scheduler must flush on "
                    "read-after-write hazards",
                )
            )
    return diagnostics
