"""Compiled lane programs: structure-of-arrays form and SWAR batch evaluation.

:meth:`LaneProgram.evaluate` is a per-instruction Python interpreter —
perfect as an executable specification, hopeless as the inner loop of a
Monte Carlo. This module turns a program's flat integer columns
(:class:`~repro.synth.program.ProgramColumns`) once into
:class:`CompiledProgram`: per-kind address and write-source arrays plus
a hazard-free *level* schedule for its gates (:func:`gate_levels`, one
sort and one integer scan), built lazily and cached on the program
object.

On top of that representation, :meth:`CompiledProgram.evaluate_batch`
evaluates N independent operand draws simultaneously using the classic
bit-slicing layout of logic simulators: logical bit ``a`` of all N draws
lives in one row of uint64 *bitplanes* (draw ``n`` is bit ``n % 64`` of
word ``n // 64``), so a 2-input gate over the whole batch is a single
numpy bitwise op — SIMD within a register, 64 draws per word, with same-
opcode gates of a level further fused into one vectorized call. Stuck-at
faults are applied as per-plane masks at every store, so a write to a
dead cell is lost in exactly the draws where that cell is stuck. The
result is bit-identical to running ``evaluate`` N times (property-tested
in ``tests/test_synth_compiled.py``); E32 benchmarks the speedup.

The compiled event arrays also back the profile-conservation check
(RPR006), and its level ids the race-freedom check (RPR005).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distinct import distinct
from repro.gates.gate import Gate
from repro.gates.ops import GateOp
from repro.synth.program import (
    GATE_OPS,
    KIND_GATE,
    KIND_READ,
    KIND_WRITE,
    SRC_CONST,
    SRC_OPERAND,
    SRC_SCRATCH,
    LaneProgram,
    ProgramColumns,
)
from repro.telemetry.core import get_telemetry

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# Bitplane packing
# ----------------------------------------------------------------------


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 bitplanes.

    Args:
        bits: ``(..., N)`` array of 0/1 values; the last axis is the draw
            axis.

    Returns:
        ``(..., ceil(N/64))`` uint64 array; draw ``n`` is bit ``n % 64``
        of word ``n // 64`` (LSB-first within each word).
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    words = (n + 63) // 64
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    planes = padded.view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        planes = planes.byteswap()
    return planes


def unpack_bitplanes(planes: np.ndarray, n: int) -> np.ndarray:
    """Invert :func:`pack_bitplanes` back to ``(..., n)`` 0/1 uint8 rows."""
    as_bytes = np.ascontiguousarray(planes, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n]


def _plane_words(draws: int) -> int:
    return (draws + 63) // 64


# ----------------------------------------------------------------------
# The level schedule
# ----------------------------------------------------------------------


def _exclusive_last(
    addresses: np.ndarray, positions: np.ndarray, counted: np.ndarray
) -> np.ndarray:
    """Per event, the last earlier ``counted`` position at its address.

    The events must be sorted by (address, position). Returns ``-1``
    where no earlier counted event touches the address: a running max of
    ``address * span + position + 1`` floored at the event's own
    ``address * span`` is a max segmented by address.
    """
    span = np.int64(positions.max()) + 2
    base = addresses.astype(np.int64) * span
    values = base + np.where(counted, positions + 1, 0)
    running = np.empty_like(values)
    running[0] = base[0]
    np.maximum.accumulate(values[:-1], out=running[1:])
    return np.maximum(running, base) - base - 1


def gate_levels(columns: ProgramColumns) -> np.ndarray:
    """Hazard-free level id per gate, gates in program order.

    A level is a maximal run of consecutive gates no two of which
    conflict: none reads (RAW) or rewrites (WAW) a cell an earlier gate
    of the level writes, and none writes a cell an earlier gate of the
    level reads (WAR). Writes and reads between gates close the level.
    One lexsort of every gate access by (address, position) gives each
    gate its last conflicting earlier gate; one integer scan then opens a
    level wherever that conflict lies inside the current level — the
    greedy :func:`_object_levels` applies gate by gate.
    """
    gates = np.flatnonzero(columns.kind == KIND_GATE)
    count = gates.size
    if not count:
        return np.zeros(0, dtype=np.int64)
    positions = np.arange(count, dtype=np.int64)
    # Access slots: three input slots per gate, then the outputs.
    slot_addresses = np.concatenate(
        [columns.inputs[gates].ravel(), columns.address[gates]]
    )
    slot_positions = np.concatenate([np.repeat(positions, 3), positions])
    used = np.flatnonzero(slot_addresses >= 0)
    order = np.lexsort((slot_positions[used], slot_addresses[used]))
    events = used[order]
    addresses = slot_addresses[events]
    at = slot_positions[events]
    is_write = events >= 3 * count
    # A read conflicts with the last earlier write of its cell; a write
    # with the last earlier access of either kind.
    conflict = np.where(
        is_write,
        _exclusive_last(addresses, at, np.ones_like(is_write)),
        _exclusive_last(addresses, at, is_write),
    )
    by_slot = np.full(4 * count, -1, dtype=np.int64)
    by_slot[events] = conflict
    last = np.maximum(
        by_slot[: 3 * count].reshape(count, 3).max(axis=1),
        by_slot[3 * count:],
    )
    # A gate right after a write or read opens a level unconditionally.
    run_start = np.ones(count, dtype=bool)
    run_start[1:] = gates[1:] != gates[:-1] + 1
    last[run_start] = count
    run_first = np.maximum.accumulate(np.where(run_start, positions, 0))
    starts = np.zeros(count, dtype=bool)
    candidates = np.flatnonzero(last >= run_first)
    level_start = 0
    for gate, conflict_at in zip(
        candidates.tolist(), last[candidates].tolist()
    ):
        if conflict_at >= level_start:
            level_start = gate
            starts[gate] = True
    return np.cumsum(starts) - 1


def _object_levels(program: LaneProgram) -> List[Dict[GateOp, List[Gate]]]:
    """The gate-by-gate level scheduler over instruction objects.

    The oracle of :func:`gate_levels` (tests only): one dict per level,
    opcode -> its gates in program order, opcodes in order of first
    appearance in the level.
    """
    levels: List[Dict[GateOp, List[Gate]]] = []
    current: Dict[GateOp, List[Gate]] = {}
    written: set = set()
    read: set = set()

    def close() -> None:
        nonlocal current
        if current:
            levels.append(current)
            current = {}
        written.clear()
        read.clear()

    for instr in program.instructions:
        if not isinstance(instr, Gate):
            close()
            continue
        if (
            any(a in written for a in instr.inputs)
            or instr.output in written
            or instr.output in read
        ):
            close()
        current.setdefault(instr.op, []).append(instr)
        written.add(instr.output)
        read.update(instr.inputs)
    close()
    return levels


class CompiledProgram:
    """A :class:`LaneProgram` flattened for vectorized execution.

    Attributes:
        program: The source program.
        write_addresses: Addresses of the standard-write events, in
            program order (one entry per :class:`WriteInstr`).
        read_addresses: Addresses of the standard-read events, in program
            order (one entry per :class:`ReadInstr`).
        gate_outputs: Gate output addresses, in program order.
        gate_inputs: Gate input addresses, flattened in program order.
        gate_levels: Hazard-free level id per gate, in program order
            (:func:`gate_levels`).
        readout_sizes: Read-out tag -> stream length (max index + 1).
        external_tags: Transfer tags the program consumes via
            :class:`ExternalBit` writes.
        levels: Number of hazard-free gate levels the schedule found.

    Everything is read off ``program.columns`` by masks and sorts; no
    per-instruction or per-level Python object is built. Execution walks
    offset arrays: segments (a run of writes, a run of reads, or one
    gate level) in program order, and within a level its same-opcode
    groups, sorted by (level, opcode).

    Build via :func:`compile_program` (or ``program.compiled()``), which
    caches one instance per program object.
    """

    def __init__(self, program: LaneProgram) -> None:
        self.program = program
        columns = program.columns
        kind = columns.kind
        writes = kind == KIND_WRITE
        reads = kind == KIND_READ
        gates = kind == KIND_GATE
        self.write_addresses = columns.address[writes].astype(np.int64)
        self.read_addresses = columns.address[reads].astype(np.int64)
        self.gate_outputs = columns.address[gates].astype(np.int64)
        gate_inputs = columns.inputs[gates].astype(np.int64)
        self.gate_inputs = gate_inputs[gate_inputs >= 0]
        self.readout_sizes = columns.readout_sizes()
        self.external_tags = columns.external_tags()
        self._tag_names = columns.tags
        self._write_sources = columns.source[writes]
        self._write_args = columns.arg[writes].astype(np.int64)
        self._write_bits = columns.bit[writes].astype(np.int64)
        self._read_tags = columns.arg[reads].astype(np.int64)
        self._read_indices = columns.bit[reads].astype(np.int64)

        level = gate_levels(columns)
        self.gate_levels = level
        self.levels = int(level[-1]) + 1 if level.size else 0
        # Same-opcode groups: gates sorted by (level, opcode), stable so
        # each group keeps program order.
        ops = columns.op[gates]
        order = np.lexsort((ops, level))
        self._group_inputs = gate_inputs[order]
        self._group_outputs = self.gate_outputs[order]
        sorted_level, sorted_op = level[order], ops[order]
        opens = np.ones(order.size, dtype=bool)
        opens[1:] = (sorted_level[1:] != sorted_level[:-1]) | (
            sorted_op[1:] != sorted_op[:-1]
        )
        group_first = np.flatnonzero(opens)
        self._group_ops = sorted_op[group_first]
        self._group_bounds = np.append(group_first, order.size)
        # Flat gate_inputs offset of each gate, for a level's reads.
        self._input_bounds = np.concatenate(
            [[0], np.cumsum((gate_inputs >= 0).sum(axis=1))]
        )

        # Segments: runs of one kind, gate runs cut at level starts.
        # Bounds index the per-kind tables; a level's bounds index its
        # groups.
        count = kind.size
        cut = np.ones(count, dtype=bool)
        cut[1:] = kind[1:] != kind[:-1]
        level_by_row = np.full(count, -1, dtype=np.int64)
        level_by_row[gates] = level
        cut[1:] |= gates[1:] & (level_by_row[1:] != level_by_row[:-1])
        starts = np.flatnonzero(cut)
        ends = np.append(starts[1:], count)
        ordinal = np.zeros(count, dtype=np.int64)
        for mask in (writes, reads, gates):
            ordinal[mask] = np.arange(int(mask.sum()))
        self._seg_kinds = kind[starts]
        lows = ordinal[starts]
        highs = lows + (ends - starts)
        level_groups = np.searchsorted(
            sorted_level[group_first], np.arange(self.levels + 1)
        )
        is_level = self._seg_kinds == KIND_GATE
        segment_levels = level_by_row[starts[is_level]]
        lows[is_level] = level_groups[segment_levels]
        highs[is_level] = level_groups[segment_levels + 1]
        self._seg_lows = lows
        self._seg_highs = highs
        get_telemetry().count("compile.programs")

    def _segments(self):
        """``(kind, low, high)`` per segment, as Python ints."""
        return zip(
            self._seg_kinds.tolist(),
            self._seg_lows.tolist(),
            self._seg_highs.tolist(),
        )

    # ------------------------------------------------------------------
    # Event counting (backs the RPR006 conservation check)
    # ------------------------------------------------------------------

    def write_event_counts(
        self, size: int, writes_per_gate: int = 1
    ) -> np.ndarray:
        """Per-address write-event counts as int64 (gates weighted).

        Equals ``program.write_counts(size, include_presets=...)`` with
        ``writes_per_gate = 2`` for pre-setting architectures, computed
        from the flat address arrays via :func:`np.bincount`.
        """
        counts = np.bincount(self.write_addresses, minlength=size)
        if self.gate_outputs.size:
            counts = counts + writes_per_gate * np.bincount(
                self.gate_outputs, minlength=size
            )
        return counts.astype(np.int64)

    def read_event_counts(self, size: int) -> np.ndarray:
        """Per-address read-event counts as int64."""
        counts = np.bincount(self.read_addresses, minlength=size)
        if self.gate_inputs.size:
            counts = counts + np.bincount(
                self.gate_inputs, minlength=size
            )
        return counts.astype(np.int64)

    # ------------------------------------------------------------------
    # SWAR batch evaluation
    # ------------------------------------------------------------------

    def evaluate_batch(
        self,
        operands: Optional[Dict[str, Sequence[int]]] = None,
        externals: Optional[Dict[str, Sequence[Sequence[int]]]] = None,
        stuck: Union[
            Dict[int, int], Sequence[Dict[int, int]], None
        ] = None,
        draws: Optional[int] = None,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Evaluate N operand draws at once on uint64 bitplanes.

        Per draw, the result is bit-identical to
        :meth:`LaneProgram.evaluate` — including which writes a stuck
        cell swallows.

        Args:
            operands: Operand name -> length-N sequence of unsigned
                integer values (one per draw).
            externals: Transfer tag -> ``(N, width)`` array of 0/1 bits
                (row ``n`` is draw ``n``'s LSB-first stream).
            stuck: Either one ``address -> 0/1`` map applied to every
                draw, or a length-N sequence of such maps (draw ``n``
                gets ``stuck[n]``).
            draws: Batch size, required only when the program takes no
                operands and no externals.

        Returns:
            ``(outputs, readouts)`` — output name to a length-N object
            array of exact unsigned integers, and read-out tag to an
            ``(N, stream_length)`` uint8 bit matrix.

        Raises:
            KeyError: missing operand or external stream.
            ValueError: mismatched batch sizes, an operand that does not
                fit its width, an out-of-range stuck address or non-0/1
                stuck value, a too-short external stream, or a read that
                at least one draw would see as uninitialized.
        """
        program = self.program
        operand_values = self._coerce_operands(operands)
        n = self._batch_size(operand_values, externals, draws)
        words = _plane_words(n)

        operand_planes = {
            name: self._value_planes(values, len(program.inputs[name]), n)
            for name, values in operand_values.items()
        }
        external_planes, external_widths = self._external_planes(
            externals, n
        )
        stuck_mask, stuck_bits, stuck_all = self._stuck_planes(
            stuck, n, words
        )

        # Lazy: repro.core imports the synth layer at package init.
        from repro.core.scratch import POOL as pool

        # Pooled scratch: requested zeroed so reuse matches the fresh
        # np.zeros semantics (scratch/zero-const writes rely on it).
        memory = pool.get(
            "eval.memory", (program.footprint, words), np.uint64, zero=True
        )
        if stuck_mask is not None:
            memory |= stuck_bits
        ready = pool.get(
            "eval.ready", (program.footprint,), bool, zero=True
        )
        if stuck_all is not None:
            np.copyto(ready, stuck_all)
        readout_planes = {
            tag: pool.get(
                f"eval.readout.{tag}", (size, words), np.uint64, zero=True
            )
            for tag, size in self.readout_sizes.items()
        }
        group_bounds = self._group_bounds.tolist()
        group_ops = self._group_ops.tolist()
        for kind, low, high in self._segments():
            if kind == KIND_WRITE:
                addresses = self.write_addresses[low:high]
                values = self._write_values(
                    low,
                    high,
                    operand_planes,
                    external_planes,
                    external_widths,
                    words,
                    out=pool.get(
                        "eval.values",
                        (high - low, words),
                        np.uint64,
                        zero=True,
                    ),
                )
                self._store(
                    memory, addresses, values, stuck_mask, stuck_bits,
                )
                ready[addresses] = True
            elif kind == KIND_READ:
                addresses = self.read_addresses[low:high]
                self._check_ready(ready, addresses)
                tags = self._read_tags[low:high]
                tagged = tags >= 0
                if tagged.any():
                    indices = self._read_indices[low:high]
                    for tag_id in distinct(tags[tagged]).tolist():
                        sel = tags == tag_id
                        readout_planes[self._tag_names[tag_id]][
                            indices[sel]
                        ] = memory[addresses[sel]]
            else:
                first, stop = group_bounds[low], group_bounds[high]
                self._check_ready(ready, self._level_inputs(first, stop))
                for group in range(low, high):
                    begin, end = group_bounds[group], group_bounds[group + 1]
                    outs = self._group_outputs[begin:end]
                    result = _apply_op(
                        GATE_OPS[group_ops[group]],
                        memory,
                        self._group_inputs[begin:end],
                    )
                    self._store(
                        memory, outs, result, stuck_mask, stuck_bits
                    )
                ready[self.gate_outputs[first:stop]] = True

        outputs = {}
        for name, addresses in program.outputs.items():
            address_array = np.asarray(addresses, dtype=np.int64)
            self._check_ready(ready, address_array)
            bits = unpack_bitplanes(memory[address_array], n)
            value = np.zeros(n, dtype=object)
            for i in range(address_array.size):
                value |= bits[i].astype(object) << i
            outputs[name] = value
        readouts = {
            tag: np.ascontiguousarray(unpack_bitplanes(planes, n).T)
            for tag, planes in readout_planes.items()
        }
        telemetry = get_telemetry()
        telemetry.count("eval.batches")
        telemetry.count("eval.draws", n)
        return outputs, readouts

    def switch_counts_batch(
        self,
        operands: Optional[Dict[str, Sequence[int]]] = None,
        externals: Optional[Dict[str, Sequence[Sequence[int]]]] = None,
        draws: Optional[int] = None,
    ) -> np.ndarray:
        """Per-address state-change counts over N sequential iterations.

        Models :func:`repro.core.switching.measure_switching`'s hardware
        semantics on bitplanes: cells start at 0 and **persist across
        draws** (draw ``n`` begins from draw ``n-1``'s final state), so a
        write switches a cell only when it changes the stored value. The
        carry-over is one bit-shift along the draw axis of each cell's
        final written plane; everything else is per-event XOR/popcount.

        Returns:
            ``(footprint,)`` int64 — total switches per logical address,
            summed over all N draws (divide by N for the per-iteration
            average).
        """
        program = self.program
        operand_values = self._coerce_operands(operands)
        n = self._batch_size(operand_values, externals, draws)
        words = _plane_words(n)

        operand_planes = {
            name: self._value_planes(values, len(program.inputs[name]), n)
            for name, values in operand_values.items()
        }
        external_planes, external_widths = self._external_planes(
            externals, n
        )
        from repro.core.scratch import POOL as pool

        memory = pool.get(
            "eval.memory", (program.footprint, words), np.uint64, zero=True
        )
        ready = pool.get(
            "eval.ready", (program.footprint,), bool, zero=True
        )
        # The event log below retains references to each write's value
        # rows across the whole batch, so _write_values must NOT reuse a
        # pooled buffer here (out=None keeps every call's rows alive).
        events_by_address: Dict[int, List[np.ndarray]] = {}

        def record(addresses: np.ndarray, values: np.ndarray) -> None:
            for row, address in enumerate(addresses):
                events_by_address.setdefault(int(address), []).append(
                    values[row]
                )

        group_bounds = self._group_bounds.tolist()
        group_ops = self._group_ops.tolist()
        for kind, low, high in self._segments():
            if kind == KIND_WRITE:
                addresses = self.write_addresses[low:high]
                values = self._write_values(
                    low, high, operand_planes, external_planes,
                    external_widths, words,
                )
                record(addresses, values)
                memory[addresses] = values
                ready[addresses] = True
            elif kind == KIND_READ:
                self._check_ready(ready, self.read_addresses[low:high])
            else:  # a level — outputs are disjoint within a level, so
                # the per-address event order is still program order.
                first, stop = group_bounds[low], group_bounds[high]
                self._check_ready(ready, self._level_inputs(first, stop))
                for group in range(low, high):
                    begin, end = group_bounds[group], group_bounds[group + 1]
                    outs = self._group_outputs[begin:end]
                    result = _apply_op(
                        GATE_OPS[group_ops[group]],
                        memory,
                        self._group_inputs[begin:end],
                    )
                    record(outs, result)
                    memory[outs] = result
                ready[self.gate_outputs[first:stop]] = True

        switches = np.zeros(program.footprint, dtype=np.int64)
        for address, planes in events_by_address.items():
            bits = unpack_bitplanes(np.asarray(planes), n)
            previous = np.empty_like(bits)
            # Draw d's starting state is draw d-1's final state (0 for
            # the very first draw on a fresh array).
            previous[0, 1:] = bits[-1, :-1]
            previous[0, 0] = 0
            previous[1:] = bits[:-1]
            switches[address] = int((bits != previous).sum())
        telemetry = get_telemetry()
        telemetry.count("eval.batches")
        telemetry.count("eval.draws", n)
        return switches

    # -- batch plumbing -------------------------------------------------

    def _coerce_operands(self, operands) -> Dict[str, List[int]]:
        provided = operands or {}
        values = {}
        for name in self.program.inputs:
            if name not in provided:
                raise KeyError(f"missing operand {name!r}")
            values[name] = [int(v) for v in provided[name]]
        return values

    @staticmethod
    def _batch_size(operand_values, externals, draws) -> int:
        sizes = {len(v) for v in operand_values.values()}
        if externals:
            sizes |= {len(np.asarray(rows)) for rows in externals.values()}
        if draws is not None:
            sizes.add(int(draws))
        if len(sizes) > 1:
            raise ValueError(f"inconsistent batch sizes {sorted(sizes)}")
        if not sizes:
            raise ValueError(
                "cannot infer the batch size: pass `draws` for programs "
                "without operands or externals"
            )
        n = sizes.pop()
        if n < 1:
            raise ValueError("batch must contain at least one draw")
        return n

    @staticmethod
    def _value_planes(values: List[int], width: int, n: int) -> np.ndarray:
        bits = np.zeros((width, n), dtype=np.uint8)
        for column, value in enumerate(values):
            if value < 0:
                raise ValueError("value must be unsigned")
            if value >> width:
                raise ValueError(
                    f"value {value} does not fit in {width} bits"
                )
            for i in range(width):
                bits[i, column] = (value >> i) & 1
        return pack_bitplanes(bits)

    def _external_planes(self, externals, n):
        planes = {}
        widths = {}
        for tag, rows in (externals or {}).items():
            matrix = np.asarray(rows, dtype=np.uint8)
            if matrix.ndim != 2 or matrix.shape[0] != n:
                raise ValueError(
                    f"external stream {tag!r} must be (draws, width), "
                    f"got shape {matrix.shape}"
                )
            planes[tag] = pack_bitplanes(matrix.T)
            widths[tag] = matrix.shape[1]
        return planes, widths

    def _stuck_planes(self, stuck, n: int, words: int):
        if stuck is None:
            return None, None, None
        footprint = self.program.footprint

        def validate(address: int, value: int) -> None:
            if value not in (0, 1):
                raise ValueError(
                    f"stuck value must be 0/1, got {value!r}"
                )
            if not 0 <= address < footprint:
                raise ValueError(
                    f"stuck address {address} outside footprint"
                )

        mask = np.zeros((footprint, words), dtype=np.uint64)
        bits = np.zeros((footprint, words), dtype=np.uint64)
        if isinstance(stuck, dict):
            for address, value in stuck.items():
                validate(address, value)
                mask[address] = _ALL_ONES
                if value:
                    bits[address] = _ALL_ONES
            stuck_all = mask[:, 0].astype(bool)
            return mask, bits, stuck_all
        maps = list(stuck)
        if len(maps) != n:
            raise ValueError(
                f"per-draw stuck list has {len(maps)} entries for "
                f"{n} draws"
            )
        counts = np.zeros(footprint, dtype=np.int64)
        for draw, mapping in enumerate(maps):
            word, bit = draw >> 6, np.uint64(draw & 63)
            one = np.uint64(1) << bit
            for address, value in (mapping or {}).items():
                validate(address, value)
                mask[address, word] |= one
                if value:
                    bits[address, word] |= one
                counts[address] += 1
        return mask, bits, counts == n

    def _write_values(
        self, low, high, operand_planes, external_planes,
        external_widths, words, out=None,
    ) -> np.ndarray:
        """Value planes of write events ``low:high``.

        ``out`` must be zero-filled by the caller; rows the loop skips
        (scratch writes, zero constants) are meant to stay 0. Callers
        that retain row references across calls (switch_counts_batch's
        event log) must leave ``out=None`` so each call gets a fresh
        buffer.
        """
        operand_names = list(self.program.inputs)
        values = (
            out
            if out is not None
            else np.zeros((high - low, words), dtype=np.uint64)
        )
        rows = zip(
            self._write_sources[low:high].tolist(),
            self._write_args[low:high].tolist(),
            self._write_bits[low:high].tolist(),
        )
        for row, (kind, arg, bit) in enumerate(rows):
            if kind == SRC_SCRATCH:
                continue
            if kind == SRC_CONST:
                if arg:
                    values[row] = _ALL_ONES
                continue
            if kind == SRC_OPERAND:
                values[row] = operand_planes[operand_names[arg]][bit]
                continue
            tag = self._tag_names[arg]
            if tag not in external_planes:
                raise KeyError(f"missing external stream {tag!r}")
            if bit >= external_widths[tag]:
                raise ValueError(
                    f"external stream {tag!r} has "
                    f"{external_widths[tag]} bits, needs index {bit}"
                )
            values[row] = external_planes[tag][bit]
        return values

    def _level_inputs(self, first: int, stop: int) -> np.ndarray:
        """Input addresses of gates ``first:stop``, in program order."""
        bounds = self._input_bounds
        return self.gate_inputs[bounds[first]:bounds[stop]]

    @staticmethod
    def _store(memory, addresses, values, stuck_mask, stuck_bits) -> None:
        if stuck_mask is not None:
            mask = stuck_mask[addresses]
            values = (values & ~mask) | stuck_bits[addresses]
        memory[addresses] = values

    @staticmethod
    def _check_ready(ready: np.ndarray, addresses: np.ndarray) -> None:
        if addresses.size and not ready[addresses].all():
            bad = addresses[~ready[addresses]][0]
            raise ValueError(
                f"read of uninitialized logical bit {int(bad)}"
            )


def _apply_op(op: GateOp, memory: np.ndarray, ins: np.ndarray) -> np.ndarray:
    """One opcode over gathered input bitplanes (tail bits are garbage)."""
    a = memory[ins[:, 0]]
    if op is GateOp.NOT:
        return ~a
    if op is GateOp.COPY:
        return a
    b = memory[ins[:, 1]]
    if op is GateOp.AND:
        return a & b
    if op is GateOp.NAND:
        return ~(a & b)
    if op is GateOp.OR:
        return a | b
    if op is GateOp.NOR:
        return ~(a | b)
    if op is GateOp.XOR:
        return a ^ b
    if op is GateOp.XNOR:
        return ~(a ^ b)
    if op is GateOp.MAJ:
        c = memory[ins[:, 2]]
        return (a & b) | (a & c) | (b & c)
    raise ValueError(f"unhandled opcode {op!r}")  # pragma: no cover


def compile_program(program: LaneProgram) -> CompiledProgram:
    """The cached :class:`CompiledProgram` for ``program``.

    Compilation is a few masks and sorts over ``program.columns``; the
    instance is memoized on the (immutable) program object, so repeated
    callers — Monte Carlo sweeps, switching measurements, the level
    hazard check — share one build.
    """
    cached = getattr(program, "_compiled", None)
    if cached is None:
        cached = CompiledProgram(program)
        program._compiled = cached
    return cached
