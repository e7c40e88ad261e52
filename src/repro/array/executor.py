"""Executing lane programs on an array: exact replay and epoch algebra.

Two equivalent execution paths feed the endurance counters:

* :func:`replay_assignment` walks every instruction of every lane and
  records each cell event one ``state.record_*`` call at a time — the
  paper's "instruction-level accurate" semantics, kept as the slow
  oracle the fast path is property-tested against;
* :func:`accumulate_assignment` exploits that all lanes running the same
  program under the same logical-to-physical mapping wear identically, so
  one epoch's contribution is an outer product of a per-offset profile and
  a per-lane membership vector. This makes the paper's 100,000-iteration
  simulations cheap while remaining exact (the equivalence is
  property-tested against replay).

Both honor the architecture's pre-set accounting (an extra write per gate
output for CRAM-style designs, Section 3.2/4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.state import ArrayState
from repro.gates.gate import Gate
from repro.synth.program import LaneProgram, ReadInstr, WriteInstr


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """A shared read-only identity mapping (allocated once per size)."""
    mapping = np.arange(n, dtype=np.int64)
    mapping.setflags(write=False)
    return mapping


def _check_permutation(mapping: np.ndarray, size: int, label: str) -> np.ndarray:
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (size,):
        raise ValueError(f"{label} must have length {size}, got {mapping.shape}")
    # Identity fast-path: the overwhelmingly common case on the hot
    # per-epoch paths (any `St` strategy) — one memcmp against the
    # memoized identity instead of an allocate-scatter-reduce.
    identity = _identity(size)
    if mapping is identity or np.array_equal(mapping, identity):
        return mapping
    seen = np.zeros(size, dtype=bool)
    seen[mapping] = True
    if not seen.all():
        raise ValueError(f"{label} is not a permutation of range({size})")
    return mapping


def replay_assignment(
    architecture: PIMArchitecture,
    assignment: Mapping[int, LaneProgram],
    state: ArrayState,
    within_map: Optional[np.ndarray] = None,
    between_map: Optional[np.ndarray] = None,
    repetitions: int = 1,
) -> None:
    """Count every cell event of every lane, instruction-level exactly.

    Args:
        architecture: The PIM design (orientation, pre-set accounting).
        assignment: Logical lane index -> program it runs; unlisted lanes
            idle. The same program object may back many lanes.
        state: Counters to update (must match the architecture geometry).
        within_map: Logical offset -> physical offset permutation over the
            whole lane (identity if omitted).
        between_map: Logical lane -> physical lane permutation (identity
            if omitted).
        repetitions: Number of identical iterations to count.
    """
    if state.geometry != architecture.geometry:
        raise ValueError("state geometry does not match architecture")
    orientation = architecture.orientation
    lane_size = architecture.lane_size
    lane_count = architecture.lane_count
    within = (
        _identity(lane_size)
        if within_map is None
        else _check_permutation(within_map, lane_size, "within_map")
    )
    between = (
        _identity(lane_count)
        if between_map is None
        else _check_permutation(between_map, lane_count, "between_map")
    )
    for program in assignment.values():
        if program.footprint > lane_size:
            raise ValueError(
                f"program {program.name!r} needs {program.footprint} bits, "
                f"lane has {lane_size}"
            )
    for _ in range(repetitions):
        for logical_lane, program in assignment.items():
            lane = int(between[logical_lane])
            for instr in program.instructions:
                if isinstance(instr, WriteInstr):
                    state.record_write(lane, int(within[instr.address]), orientation)
                elif isinstance(instr, ReadInstr):
                    state.record_read(lane, int(within[instr.address]), orientation)
                elif isinstance(instr, Gate):
                    for address in instr.inputs:
                        state.record_read(lane, int(within[address]), orientation)
                    physical_out = int(within[instr.output])
                    if architecture.presets_output:
                        state.record_write(lane, physical_out, orientation)
                    state.record_write(lane, physical_out, orientation)
                else:
                    raise TypeError(f"unknown instruction {instr!r}")


def accumulate_assignment(
    architecture: PIMArchitecture,
    assignment: Mapping[int, LaneProgram],
    state: ArrayState,
    within_map: Optional[np.ndarray] = None,
    between_map: Optional[np.ndarray] = None,
    repetitions: float = 1.0,
    write_profiles: Optional[Dict[int, np.ndarray]] = None,
    track_reads: bool = True,
) -> None:
    """Accumulate the same counts as :func:`replay_assignment`, vectorized.

    Groups lanes by program object, permutes each program's per-offset
    read/write profile through ``within_map``, scatters lane membership
    through ``between_map``, and adds one outer product per group.

    Args:
        architecture: The PIM design.
        assignment: Logical lane -> program.
        state: Counters to update.
        within_map: Logical offset -> physical offset permutation.
        between_map: Logical lane -> physical lane permutation.
        repetitions: Iteration multiplier (may be fractional when
            extrapolating long horizons).
        write_profiles: Optional override of the per-offset *logical* write
            profile per program (keyed by ``id(program)``); used by hardware
            re-mapping, which redistributes writes away from the static
            profile. Reads always follow the static profile.
        track_reads: Also accumulate read counters (skipping them halves
            the cost of write-only sweeps).
    """
    if state.geometry != architecture.geometry:
        raise ValueError("state geometry does not match architecture")
    orientation = architecture.orientation
    lane_size = architecture.lane_size
    lane_count = architecture.lane_count
    within = (
        _identity(lane_size)
        if within_map is None
        else _check_permutation(within_map, lane_size, "within_map")
    )
    between = (
        _identity(lane_count)
        if between_map is None
        else _check_permutation(between_map, lane_count, "between_map")
    )

    groups: Dict[int, list] = {}
    programs: Dict[int, LaneProgram] = {}
    for logical_lane, program in assignment.items():
        groups.setdefault(id(program), []).append(logical_lane)
        programs[id(program)] = program

    for key, logical_lanes in groups.items():
        program = programs[key]
        if program.footprint > lane_size:
            raise ValueError(
                f"program {program.name!r} needs {program.footprint} bits, "
                f"lane has {lane_size}"
            )
        if write_profiles is not None and key in write_profiles:
            logical_writes = np.asarray(write_profiles[key], dtype=np.float64)
            if logical_writes.shape != (lane_size,):
                raise ValueError(
                    "write profile override must cover the whole lane"
                )
        else:
            logical_writes = program.write_profile(
                lane_size, include_presets=architecture.presets_output
            )

        physical_writes = np.zeros(lane_size)
        physical_writes[within] = logical_writes

        # Lanes are unique (assignment keys are unique, between is a
        # bijection), so membership is a 0/1 histogram — bincount beats
        # the unbuffered np.add.at scatter by an order of magnitude.
        lane_weights = (
            np.bincount(
                between[np.asarray(logical_lanes)], minlength=lane_count
            ).astype(np.float64)
            * repetitions
        )

        state.add_lane_profile(physical_writes, lane_weights, orientation, "write")
        if track_reads:
            physical_reads = np.zeros(lane_size)
            physical_reads[within] = program.read_profile(lane_size)
            state.add_lane_profile(
                physical_reads, lane_weights, orientation, "read"
            )
