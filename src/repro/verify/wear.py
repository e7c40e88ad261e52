"""Wear-invariant checks: profile conservation, permutations, schedules.

Every endurance number in the paper reduces to per-cell write/read
counts pushed through logical-to-physical mappings. These checks prove
the three invariants that pipeline rests on, without simulating:

* **RPR006** — the interpreter (:meth:`LaneProgram.write_counts`), the
  compiled SoA form (:meth:`CompiledProgram.write_event_counts`), and
  the hardware-re-mapping algebra (:class:`HardwareRemapper`) must all
  conserve the same write/read totals — renaming and compilation
  relocate wear, never create or destroy it;
* **RPR007** — every balance mapping must be a true permutation
  (each physical address hit exactly once); a corrupted mapping would
  silently double-count wear on some cells and lose it on others
  (SoftWear's observation: wear-leveling bugs skew, they don't crash);
* **RPR008** — the hand-written phase schedule must agree with the wear
  view's lane work and stay within per-lane sequential budgets; the
  Eq. 1/Eq. 2 lifetime models divide by per-iteration write rates, so a
  schedule that under-counts lane load inflates lifetimes undetectably.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.balance.config import BalanceConfig
from repro.balance.hardware import remapper_for
from repro.balance.software import (
    StrategyKind,
    make_permutations,
    wear_aware_permutation,
)
from repro.synth.program import LaneProgram
from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = [
    "check_profile_conservation",
    "check_remapper_conservation",
    "check_permutation_rows",
    "check_config",
    "check_schedule",
]

#: Epochs sampled per strategy when validating permutation streams.
PERMUTATION_SAMPLE_EPOCHS = 4


def check_profile_conservation(
    program: LaneProgram,
    writes_per_gate: int = 1,
    lane_size: Optional[int] = None,
) -> List[Diagnostic]:
    """RPR006: interpreter vs compiled (vs remapper) profile conservation.

    Args:
        program: The lane program.
        writes_per_gate: 2 on pre-setting architectures, else 1.
        lane_size: When given, also run
            :func:`check_remapper_conservation`.
    """
    diagnostics: List[Diagnostic] = []
    include_presets = writes_per_gate > 1
    size = program.footprint
    interpreter_writes = program.write_counts(
        size, include_presets=include_presets
    )
    interpreter_reads = program.read_counts(size)
    compiled = program.compiled()
    compiled_writes = compiled.write_event_counts(size, writes_per_gate)
    compiled_reads = compiled.read_event_counts(size)
    if not np.array_equal(interpreter_writes, compiled_writes):
        bad = int(np.nonzero(interpreter_writes != compiled_writes)[0][0])
        diagnostics.append(
            Diagnostic(
                "RPR006",
                Severity.ERROR,
                f"write profile differs between interpreter and compiled "
                f"forms (first mismatch at cell {bad}: "
                f"{int(interpreter_writes[bad])} vs "
                f"{int(compiled_writes[bad])})",
                Location(program.name, address=bad),
                hint="the compiled event arrays drifted from the "
                "instruction stream",
            )
        )
    if not np.array_equal(interpreter_reads, compiled_reads):
        bad = int(np.nonzero(interpreter_reads != compiled_reads)[0][0])
        diagnostics.append(
            Diagnostic(
                "RPR006",
                Severity.ERROR,
                f"read profile differs between interpreter and compiled "
                f"forms (first mismatch at cell {bad}: "
                f"{int(interpreter_reads[bad])} vs "
                f"{int(compiled_reads[bad])})",
                Location(program.name, address=bad),
                hint="the compiled event arrays drifted from the "
                "instruction stream",
            )
        )
    if lane_size is not None:
        diagnostics.extend(
            check_remapper_conservation(program, writes_per_gate, lane_size)
        )
    return diagnostics


def check_remapper_conservation(
    program: LaneProgram, writes_per_gate: int, lane_size: int
) -> List[Diagnostic]:
    """RPR006's hardware leg: when a spare bit fits, the re-mapping
    algebra (:class:`HardwareRemapper`) conserves the interpreter's
    per-iteration write and read totals.

    Building the remapper is the costly part of RPR006, so
    :func:`~repro.verify.api.verify_mapping` runs this leg only for a
    configuration with hardware re-mapping.
    """
    diagnostics: List[Diagnostic] = []
    if program.footprint <= lane_size - 1:
        include_presets = writes_per_gate > 1
        remapper = remapper_for(program, lane_size, include_presets)
        writes, reads = remapper.profile(1)
        expected_writes = float(
            program.write_counts(
                program.footprint, include_presets=include_presets
            ).sum()
        )
        expected_reads = float(program.read_counts(program.footprint).sum())
        if writes.sum() != expected_writes or (
            remapper.writes_per_iteration != expected_writes
        ):
            diagnostics.append(
                Diagnostic(
                    "RPR006",
                    Severity.ERROR,
                    f"hardware re-mapping does not conserve writes: "
                    f"{writes.sum():g} renamed vs {expected_writes:g} "
                    "issued per iteration",
                    Location(program.name),
                    hint="renaming relocates writes; it must never change "
                    "their number",
                )
            )
        if reads.sum() != expected_reads:
            diagnostics.append(
                Diagnostic(
                    "RPR006",
                    Severity.ERROR,
                    f"hardware re-mapping does not conserve reads: "
                    f"{reads.sum():g} vs {expected_reads:g} per iteration",
                    Location(program.name),
                    hint="renaming must leave the read count unchanged",
                )
            )
    return diagnostics


def check_permutation_rows(
    rows: np.ndarray, size: int, context: str
) -> List[Diagnostic]:
    """RPR007: every row must hit each physical address exactly once."""
    diagnostics: List[Diagnostic] = []
    rows = np.atleast_2d(np.asarray(rows))
    for epoch, row in enumerate(rows):
        valid = (
            row.shape == (size,)
            and row.min(initial=0) >= 0
            and row.max(initial=-1) < size
            and np.array_equal(
                np.bincount(row.astype(np.int64), minlength=size),
                np.ones(size, dtype=np.int64),
            )
        )
        if not valid:
            diagnostics.append(
                Diagnostic(
                    "RPR007",
                    Severity.ERROR,
                    f"{context} row {epoch} is not a permutation of "
                    f"0..{size - 1}",
                    Location(place=f"{context}, epoch {epoch}"),
                    hint="a corrupted mapping double-counts wear on some "
                    "cells and loses it on others",
                )
            )
    return diagnostics


def check_config(
    config: BalanceConfig,
    lane_size: int,
    lane_count: int,
    lane_loads: "np.ndarray | None" = None,
    seed: int = 0,
) -> List[Diagnostic]:
    """RPR007/RPR010: validate a balance configuration statically.

    Samples :data:`PERMUTATION_SAMPLE_EPOCHS` epochs from each software
    strategy's permutation stream and proves every row valid; resolves a
    wear-aware between-lane strategy against ``lane_loads`` (zero wear)
    the way the simulator's first epoch would.
    """
    diagnostics: List[Diagnostic] = []
    if config.within is StrategyKind.WEAR_AWARE:
        diagnostics.append(
            Diagnostic(
                "RPR010",
                Severity.ERROR,
                "wear-aware mapping applies between lanes only (within-"
                "lane roles are identical, so there is no load signal)",
                Location(place=f"config {config.label}"),
                hint="use Wa as the between-lane strategy",
            )
        )
    rng = np.random.default_rng(seed)
    for kind, size, axis in (
        (config.within, lane_size, "within-lane"),
        (config.between, lane_count, "between-lane"),
    ):
        if kind is StrategyKind.WEAR_AWARE:
            if axis == "between-lane" and lane_loads is not None:
                permutation = wear_aware_permutation(
                    lane_loads, np.zeros(lane_count)
                )
                diagnostics.extend(
                    check_permutation_rows(
                        permutation[None, :],
                        lane_count,
                        f"{config.label} {axis} (wear-aware, epoch 0)",
                    )
                )
            continue
        rows = make_permutations(
            kind, size, PERMUTATION_SAMPLE_EPOCHS, rng
        )
        diagnostics.extend(
            check_permutation_rows(
                rows, size, f"{config.label} {axis} ({kind.label})"
            )
        )
    return diagnostics


def check_schedule(mapping) -> List[Diagnostic]:
    """RPR008: the schedule view must agree with the wear view.

    Mirrors :meth:`WorkloadMapping.validate_schedule` as diagnostics —
    plus the phase-width bound — so a drifted schedule is a report
    entry, not a deep traceback.
    """
    diagnostics: List[Diagnostic] = []
    architecture = mapping.architecture
    scheduled = float(
        sum(phase.steps * phase.active_lanes for phase in mapping.phases)
    )
    actual = mapping.lane_work()
    if scheduled != actual:
        diagnostics.append(
            Diagnostic(
                "RPR008",
                Severity.ERROR,
                f"schedule accounts for {scheduled:g} lane-ops but the "
                f"programs perform {actual:g}",
                Location(place=f"workload {mapping.workload_name!r}"),
                hint="per-iteration wear and the Eq. 1/Eq. 2 lifetime "
                "models assume these agree",
            )
        )
    extra = architecture.writes_per_gate - 1
    budget = mapping.sequential_ops
    # One representative lane per mapping is enough: the lowest.
    offending = None
    for program, lanes in mapping.roles.values():
        lane_ops = program.sequential_ops + program.gate_count * extra
        lane = int(lanes.min())
        if lane_ops > budget and (offending is None or lane < offending[0]):
            offending = (lane, program, lane_ops)
    if offending is not None:
        lane, program, lane_ops = offending
        diagnostics.append(
            Diagnostic(
                "RPR008",
                Severity.ERROR,
                f"lane {lane} performs {lane_ops} ops but the "
                f"schedule has only {budget} sequential slots",
                Location(program.name, place=f"lane {lane}"),
                hint="a lane cannot do more work than there is time",
            )
        )
    lane_count = architecture.lane_count
    for phase in mapping.phases:
        if phase.active_lanes > lane_count:
            diagnostics.append(
                Diagnostic(
                    "RPR008",
                    Severity.ERROR,
                    f"phase {phase.name!r} activates {phase.active_lanes} "
                    f"lanes but the array has only {lane_count}",
                    Location(place=f"phase {phase.name!r}"),
                    hint="the schedule references lanes that do not exist",
                )
            )
    return diagnostics
