"""Compiled lane programs: structure-of-arrays form and SWAR batch evaluation.

:meth:`LaneProgram.evaluate` is a per-instruction Python interpreter —
perfect as an executable specification, hopeless as the inner loop of a
Monte Carlo. This module flattens a program once into
:class:`CompiledProgram`: flat numpy arrays (opcodes, input/output
addresses, write-source descriptors) plus a hazard-free *level* schedule
for its gates, built lazily and cached on the program object.

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

The compiled address arrays also back the vectorized exact-replay path in
:mod:`repro.array.executor` and the read-out stream preallocation in the
interpreter itself.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gates.gate import Gate
from repro.gates.ops import GateOp
from repro.synth.program import (
    ConstBit,
    ExternalBit,
    LaneProgram,
    OperandBit,
    ReadInstr,
    WriteInstr,
)
from repro.telemetry import get_telemetry

#: Write-source kinds in the flattened write table.
SRC_SCRATCH = 0  #: ``source=None`` — the stored value is always 0
SRC_CONST = 1  #: :class:`ConstBit` — ``arg`` holds the 0/1 value
SRC_OPERAND = 2  #: :class:`OperandBit` — ``arg``/``bit`` = operand id, index
SRC_EXTERNAL = 3  #: :class:`ExternalBit` — ``arg``/``bit`` = tag id, index

_OP_IDS: Dict[GateOp, int] = {op: i for i, op in enumerate(GateOp)}
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
# Execution segments
# ----------------------------------------------------------------------


class _WriteSegment:
    """A run of consecutive standard writes, in structure-of-arrays form."""

    __slots__ = ("addresses", "kinds", "args", "bits")

    def __init__(self, writes: Sequence[Tuple[int, int, int, int]]) -> None:
        table = np.asarray(writes, dtype=np.int64).reshape(len(writes), 4)
        self.addresses = table[:, 0].copy()
        self.kinds = table[:, 1].copy()
        self.args = table[:, 2].copy()
        self.bits = table[:, 3].copy()


class _ReadSegment:
    """A run of consecutive standard reads; ``tags < 0`` are untagged."""

    __slots__ = ("addresses", "tags", "indices")

    def __init__(self, reads: Sequence[Tuple[int, int, int]]) -> None:
        table = np.asarray(reads, dtype=np.int64).reshape(len(reads), 3)
        self.addresses = table[:, 0].copy()
        self.tags = table[:, 1].copy()
        self.indices = table[:, 2].copy()


class _GateLevel:
    """One hazard-free rank of gates, grouped by opcode.

    Every gate in a level reads only bits produced *before* the level and
    writes a bit no other gate in the level touches, so the groups may
    execute in any order — which lets same-opcode gates fuse into one
    vectorized gather/compute/scatter.
    """

    __slots__ = ("groups", "input_addresses", "output_addresses")

    def __init__(self, gates: Sequence[Gate]) -> None:
        by_op: Dict[GateOp, List[Gate]] = {}
        for gate in gates:
            by_op.setdefault(gate.op, []).append(gate)
        self.groups: List[Tuple[GateOp, np.ndarray, np.ndarray]] = []
        inputs: List[int] = []
        outputs: List[int] = []
        for op, members in by_op.items():
            ins = np.asarray(
                [gate.inputs for gate in members], dtype=np.int64
            )
            outs = np.asarray(
                [gate.output for gate in members], dtype=np.int64
            )
            self.groups.append((op, ins, outs))
            for gate in members:
                inputs.extend(gate.inputs)
            outputs.extend(int(o) for o in outs)
        self.input_addresses = np.asarray(inputs, dtype=np.int64)
        self.output_addresses = np.asarray(outputs, dtype=np.int64)


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
        readout_sizes: Read-out tag -> stream length (max index + 1).
        external_tags: Transfer tags the program consumes via
            :class:`ExternalBit` writes.
        levels: Number of hazard-free gate ranks the schedule found.

    Build via :func:`compile_program` (or ``program.compiled()``), which
    caches one instance per program object.
    """

    def __init__(self, program: LaneProgram) -> None:
        self.program = program
        self._operand_ids = {
            name: i for i, name in enumerate(program.inputs)
        }
        self._tag_ids: Dict[str, int] = {}
        self.readout_sizes: Dict[str, int] = {}
        self.external_tags: frozenset = frozenset()

        segments: List[object] = []
        write_buf: List[Tuple[int, int, int, int]] = []
        read_buf: List[Tuple[int, int, int]] = []
        gate_buf: List[Gate] = []
        level_written: set = set()
        level_read: set = set()

        write_events: List[int] = []
        read_events: List[int] = []
        gate_outs: List[int] = []
        gate_ins: List[int] = []

        def flush_writes() -> None:
            if write_buf:
                segments.append(_WriteSegment(write_buf))
                write_buf.clear()

        def flush_reads() -> None:
            if read_buf:
                segments.append(_ReadSegment(read_buf))
                read_buf.clear()

        def flush_gates() -> None:
            if gate_buf:
                segments.append(_GateLevel(gate_buf))
                gate_buf.clear()
            level_written.clear()
            level_read.clear()

        for instr in program.instructions:
            if isinstance(instr, WriteInstr):
                flush_reads()
                flush_gates()
                write_buf.append(self._flatten_write(instr))
                write_events.append(instr.address)
            elif isinstance(instr, ReadInstr):
                flush_writes()
                flush_gates()
                if instr.tag is None:
                    tag_id = -1
                else:
                    tag_id = self._tag_ids.setdefault(
                        instr.tag, len(self._tag_ids)
                    )
                    self.readout_sizes[instr.tag] = max(
                        self.readout_sizes.get(instr.tag, 0),
                        instr.index + 1,
                    )
                read_buf.append((instr.address, tag_id, instr.index))
                read_events.append(instr.address)
            elif isinstance(instr, Gate):
                flush_writes()
                flush_reads()
                hazard = (
                    any(a in level_written for a in instr.inputs)
                    or instr.output in level_written
                    or instr.output in level_read
                )
                if hazard:
                    flush_gates()
                gate_buf.append(instr)
                level_written.add(instr.output)
                level_read.update(instr.inputs)
                gate_outs.append(instr.output)
                gate_ins.extend(instr.inputs)
            else:  # pragma: no cover - LaneProgram validates types
                raise TypeError(f"unknown instruction {instr!r}")
        flush_writes()
        flush_reads()
        flush_gates()

        self._segments = segments
        self.write_addresses = np.asarray(write_events, dtype=np.int64)
        self.read_addresses = np.asarray(read_events, dtype=np.int64)
        self.gate_outputs = np.asarray(gate_outs, dtype=np.int64)
        self.gate_inputs = np.asarray(gate_ins, dtype=np.int64)
        self.levels = sum(
            1 for seg in segments if isinstance(seg, _GateLevel)
        )
        get_telemetry().count("compile.programs")

    def _flatten_write(
        self, instr: WriteInstr
    ) -> Tuple[int, int, int, int]:
        source = instr.source
        if source is None:
            return (instr.address, SRC_SCRATCH, 0, 0)
        if isinstance(source, ConstBit):
            return (instr.address, SRC_CONST, source.value, 0)
        if isinstance(source, OperandBit):
            return (
                instr.address,
                SRC_OPERAND,
                self._operand_ids[source.name],
                source.index,
            )
        if isinstance(source, ExternalBit):
            tag_id = self._tag_ids.setdefault(
                source.tag, len(self._tag_ids)
            )
            self.external_tags = self.external_tags | {source.tag}
            return (instr.address, SRC_EXTERNAL, tag_id, source.index)
        raise TypeError(f"unknown write source {source!r}")

    # ------------------------------------------------------------------
    # Event counting (backs the vectorized exact replay)
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
        tag_names = {tid: tag for tag, tid in self._tag_ids.items()}

        for segment in self._segments:
            if isinstance(segment, _WriteSegment):
                values = self._write_values(
                    segment,
                    operand_planes,
                    external_planes,
                    external_widths,
                    tag_names,
                    words,
                    out=pool.get(
                        "eval.values",
                        (segment.addresses.size, words),
                        np.uint64,
                        zero=True,
                    ),
                )
                self._store(
                    memory, segment.addresses, values,
                    stuck_mask, stuck_bits,
                )
                ready[segment.addresses] = True
            elif isinstance(segment, _ReadSegment):
                self._check_ready(ready, segment.addresses)
                tagged = segment.tags >= 0
                if tagged.any():
                    for tag_id in np.unique(segment.tags[tagged]):
                        sel = segment.tags == tag_id
                        readout_planes[tag_names[int(tag_id)]][
                            segment.indices[sel]
                        ] = memory[segment.addresses[sel]]
            else:  # _GateLevel
                self._check_ready(ready, segment.input_addresses)
                for op, ins, outs in segment.groups:
                    result = _apply_op(op, memory, ins)
                    self._store(
                        memory, outs, result, stuck_mask, stuck_bits
                    )
                ready[segment.output_addresses] = True

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
        tag_names = {tid: tag for tag, tid in self._tag_ids.items()}

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

        for segment in self._segments:
            if isinstance(segment, _WriteSegment):
                values = self._write_values(
                    segment, operand_planes, external_planes,
                    external_widths, tag_names, words,
                )
                record(segment.addresses, values)
                memory[segment.addresses] = values
                ready[segment.addresses] = True
            elif isinstance(segment, _ReadSegment):
                self._check_ready(ready, segment.addresses)
            else:  # _GateLevel — outputs are disjoint within a level, so
                # the per-address event order is still program order.
                self._check_ready(ready, segment.input_addresses)
                for op, ins, outs in segment.groups:
                    result = _apply_op(op, memory, ins)
                    record(outs, result)
                    memory[outs] = result
                ready[segment.output_addresses] = True

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
        self, segment, operand_planes, external_planes,
        external_widths, tag_names, words, out=None,
    ) -> np.ndarray:
        # ``out`` must be zero-filled by the caller; rows the loop skips
        # (scratch writes, zero constants) are meant to stay 0. Callers
        # that retain row references across calls (switch_counts_batch's
        # event log) must leave ``out=None`` so each call gets a fresh
        # buffer.
        operand_names = list(self.program.inputs)
        values = (
            out
            if out is not None
            else np.zeros((segment.addresses.size, words), dtype=np.uint64)
        )
        for row in range(segment.addresses.size):
            kind = segment.kinds[row]
            if kind == SRC_SCRATCH:
                continue
            if kind == SRC_CONST:
                if segment.args[row]:
                    values[row] = _ALL_ONES
                continue
            if kind == SRC_OPERAND:
                name = operand_names[segment.args[row]]
                values[row] = operand_planes[name][segment.bits[row]]
                continue
            tag = tag_names[int(segment.args[row])]
            if tag not in external_planes:
                raise KeyError(f"missing external stream {tag!r}")
            index = int(segment.bits[row])
            if index >= external_widths[tag]:
                raise ValueError(
                    f"external stream {tag!r} has "
                    f"{external_widths[tag]} bits, needs index {index}"
                )
            values[row] = external_planes[tag][index]
        return values

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

    Compilation is one O(instructions) pass; the instance is memoized on
    the (immutable) program object, so repeated callers — Monte Carlo
    sweeps, the vectorized replay, the interpreter's read-out
    preallocation — share one build.
    """
    cached = getattr(program, "_compiled", None)
    if cached is None:
        cached = CompiledProgram(program)
        program._compiled = cached
    return cached
