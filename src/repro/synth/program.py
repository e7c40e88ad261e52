"""Lane programs: executable sequences of in-memory operations.

A :class:`LaneProgram` is the unit of work one PIM lane performs in one
iteration of a workload: standard memory writes that place operands,
logic gates that compute, and standard memory reads that extract results
or feed inter-lane transfers. Programs address *logical* bits; load
balancing decides the physical cells (paper Section 3.2, Fig. 7).

Programs are both *countable* (per-logical-bit read/write histograms, the
raw material of every endurance result in the paper) and *executable*
(bit-accurate evaluation, so the synthesized arithmetic is verified against
Python integer arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gates.gate import Gate
from repro.gates.library import GateLibrary
from repro.gates.ops import GateOp
from repro.synth.bits import AllocationPolicy, BitAllocator, BitVector


@dataclass(frozen=True)
class OperandBit:
    """A write sourced from bit ``index`` of named operand ``name``."""

    name: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("negative operand bit index")


@dataclass(frozen=True)
class ExternalBit:
    """A write sourced from another lane (inter-lane transfer), bit
    ``index`` of the transfer stream tagged ``tag``."""

    tag: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("negative external stream index")


@dataclass(frozen=True)
class ConstBit:
    """A write of a constant 0/1 (e.g., clearing a carry seed)."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("ConstBit value must be 0 or 1")


WriteSource = Union[OperandBit, ExternalBit, ConstBit]


@dataclass(frozen=True)
class WriteInstr:
    """A standard memory write into logical bit ``address``."""

    address: int
    source: Optional[WriteSource] = None

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("negative bit address")


@dataclass(frozen=True)
class ReadInstr:
    """A standard memory read of logical bit ``address``.

    ``tag``/``index`` label the destination stream so multi-lane workloads
    can route read-out bits into another lane's :class:`ExternalBit` writes.
    """

    address: int
    tag: Optional[str] = None
    index: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("negative bit address")
        if self.index < 0:
            raise ValueError("negative read-out stream index")


Instruction = Union[WriteInstr, ReadInstr, Gate]

#: Instruction kinds in :class:`ProgramColumns`.
KIND_WRITE = 0
KIND_READ = 1
KIND_GATE = 2

#: Write-source kinds in :class:`ProgramColumns` (``-1`` for non-writes).
SRC_SCRATCH = 0  #: ``source=None`` — the stored value is always 0
SRC_CONST = 1  #: :class:`ConstBit` — ``arg`` holds the 0/1 value
SRC_OPERAND = 2  #: :class:`OperandBit` — ``arg``/``bit`` = operand id, index
SRC_EXTERNAL = 3  #: :class:`ExternalBit` — ``arg``/``bit`` = tag id, index

#: Gate opcode ids: an opcode's position in :class:`GateOp`
#: (``GATE_OPS[op.index] is op``).
GATE_OPS: Tuple[GateOp, ...] = tuple(GateOp)
#: A gate row's unused input slots and its source/arg/bit, by arity.
_GATE_TAILS = {k: (-1,) * (3 - k) + (-1, -1, 0) for k in (1, 2, 3)}


class ProgramColumns:
    """A lane program's instructions as flat integer columns.

    Row ``i`` describes instruction ``i``:

    * ``kind`` — :data:`KIND_WRITE`, :data:`KIND_READ` or
      :data:`KIND_GATE`;
    * ``op`` — a gate's opcode id (its index in :data:`GATE_OPS`), ``-1``
      otherwise;
    * ``address`` — the written or read address, or a gate's output;
    * ``inputs`` — shape ``(n, 3)``, a gate's input addresses with ``-1``
      in unused slots (all ``-1`` for writes and reads);
    * ``source`` — a write's source kind (``SRC_*``), ``-1`` otherwise;
    * ``arg``/``bit`` — a write's const value, operand id (its position
      in ``program.inputs``) or tag id, and its operand/stream index; a
      read's tag id (``-1`` untagged) and stream index.

    ``kind``/``op``/``source`` are int8, the rest int32 (int64 only when
    a value does not fit). ``tags`` names the tag ids, in order of first
    appearance. :class:`LaneProgramBuilder` emits these rows directly;
    a program constructed from instruction objects encodes them. The
    counts, the compiler, the level schedule, the static checks and the
    hardware remapper read these columns instead of the objects.
    """

    __slots__ = (
        "kind", "op", "address", "inputs", "source", "arg", "bit", "tags",
    )

    def __init__(self, table: np.ndarray, tags: Tuple[str, ...]) -> None:
        wide = np.int32
        if table.size and table[:, 2:].max() > np.iinfo(np.int32).max:
            wide = np.int64
        self.kind = table[:, 0].astype(np.int8)
        self.op = table[:, 1].astype(np.int8)
        self.address = table[:, 2].astype(wide)
        self.inputs = table[:, 3:6].astype(wide)
        self.source = table[:, 6].astype(np.int8)
        self.arg = table[:, 7].astype(wide)
        self.bit = table[:, 8].astype(wide)
        self.tags = tags

    def readout_sizes(self) -> Dict[str, int]:
        """Read-out tag -> stream length (max index + 1), in order of
        each tag's first tagged read."""
        tagged = (self.kind == KIND_READ) & (self.arg >= 0)
        tags = self.arg[tagged]
        if not tags.size:
            return {}
        ids, first = np.unique(tags, return_index=True)
        sizes = np.zeros(len(self.tags), dtype=np.int64)
        np.maximum.at(sizes, tags, self.bit[tagged].astype(np.int64) + 1)
        return {
            self.tags[tag]: int(sizes[tag])
            for tag in ids[np.argsort(first)].tolist()
        }

    def external_tags(self) -> frozenset:
        """Transfer tags consumed by :class:`ExternalBit` writes."""
        ids = np.unique(self.arg[self.source == SRC_EXTERNAL])
        return frozenset(self.tags[tag] for tag in ids.tolist())


class LaneProgram:
    """An immutable sequence of lane instructions plus operand metadata.

    Attributes:
        name: Program label (used in reports).
        footprint: Number of distinct logical bit addresses used; the
            minimum lane height required to run the program.
        inputs: Operand name -> logical addresses (LSB first).
        outputs: Result name -> logical addresses (LSB first).
        columns: The instructions as flat integer columns
            (:class:`ProgramColumns`). Every count, the compiler and the
            static checks read these.

    :attr:`instructions` is the object view of the same program. A
    program built by :class:`LaneProgramBuilder` starts from its columns
    and decodes the view on first use; one constructed from instruction
    objects encodes them to columns and keeps the objects.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        footprint: int,
        inputs: Dict[str, Tuple[int, ...]],
        outputs: Dict[str, Tuple[int, ...]],
    ) -> None:
        self._setup(name, footprint, inputs, outputs)
        self._instructions: Optional[Tuple[Instruction, ...]] = tuple(
            instructions
        )
        table, tags, failure = self._encode()
        self._check_columns(table, tags, failure)

    @classmethod
    def _from_rows(
        cls,
        name: str,
        table: np.ndarray,
        tags: Tuple[str, ...],
        footprint: int,
        inputs: Dict[str, Tuple[int, ...]],
        outputs: Dict[str, Tuple[int, ...]],
    ) -> "LaneProgram":
        """A program from its ``(n, 9)`` row table (the builder's path);
        the object view is decoded on demand."""
        program = cls.__new__(cls)
        program._setup(name, footprint, inputs, outputs)
        program._instructions = None
        program._check_columns(table, tags, None)
        return program

    def _setup(
        self,
        name: str,
        footprint: int,
        inputs: Dict[str, Tuple[int, ...]],
        outputs: Dict[str, Tuple[int, ...]],
    ) -> None:
        self.name = name
        self.footprint = int(footprint)
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self._counts_cache: Dict[Tuple[str, int, bool], np.ndarray] = {}
        self._compiled = None
        # Static-verification findings, filled by repro.verify.api:
        # "dataflow", (lane_size, writes_per_gate) and the remapper leg's
        # ("remapper", lane_size, writes_per_gate).
        self._findings: Dict[tuple, tuple] = {}
        # Hardware remappers per (lane_size, include_presets), filled by
        # repro.balance.hardware.remapper_for.
        self._remappers: Dict[tuple, object] = {}

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instruction sequence as objects, decoded from
        :attr:`columns` on first use and cached."""
        if self._instructions is None:
            self._instructions = self._decode()
        return self._instructions

    def _encode(self) -> Tuple[np.ndarray, Tuple[str, ...], Optional[Exception]]:
        # Type dispatch and operand checks over the instruction objects,
        # nine integers per instruction. An invalid instruction stops the
        # walk and is returned, so the footprint check on the rows before
        # it still runs first and the first bad instruction is named.
        operand_ids = {name: i for i, name in enumerate(self.inputs)}
        tag_ids: Dict[str, int] = {}
        flat: List[int] = []
        failure: Optional[Exception] = None
        for instr in self._instructions:
            if isinstance(instr, Gate):
                ins = instr.inputs
                flat.extend(
                    (KIND_GATE, instr.op.index, instr.output)
                    + ins
                    + _GATE_TAILS[len(ins)]
                )
            elif isinstance(instr, WriteInstr):
                source = instr.source
                if source is None:
                    tail = (SRC_SCRATCH, 0, 0)
                elif isinstance(source, OperandBit):
                    operand = operand_ids.get(source.name)
                    tail = (SRC_OPERAND, -1 if operand is None else operand,
                            source.index)
                    failure = self._operand_failure(instr, source)
                elif isinstance(source, ExternalBit):
                    tag = tag_ids.setdefault(source.tag, len(tag_ids))
                    tail = (SRC_EXTERNAL, tag, source.index)
                elif isinstance(source, ConstBit):
                    tail = (SRC_CONST, source.value, 0)
                else:
                    failure = TypeError(f"unknown write source {source!r}")
                    break
                flat.extend((KIND_WRITE, -1, instr.address, -1, -1, -1) + tail)
                if failure is not None:
                    break
            elif isinstance(instr, ReadInstr):
                tag = (
                    -1
                    if instr.tag is None
                    else tag_ids.setdefault(instr.tag, len(tag_ids))
                )
                flat.extend(
                    (KIND_READ, -1, instr.address, -1, -1, -1, -1, tag,
                     instr.index)
                )
            else:
                failure = TypeError(
                    f"unknown instruction type {type(instr)!r}"
                )
                break
        table = np.array(flat, dtype=np.int64).reshape(-1, 9)
        return table, tuple(tag_ids), failure

    def _check_columns(
        self,
        table: np.ndarray,
        tags: Tuple[str, ...],
        failure: Optional[Exception],
    ) -> None:
        # The checks every program pays, on the row table: addresses
        # inside the footprint, then any encoding failure, then the
        # declared vectors.
        outside = (table[:, 2:6] >= self.footprint).any(axis=1)
        if outside.any():
            instr = self.instructions[int(np.argmax(outside))]
            address = next(
                a for a in self._addresses_of(instr) if a >= self.footprint
            )
            raise ValueError(
                f"instruction {instr} addresses bit {address} outside "
                f"footprint {self.footprint}"
            )
        if failure is not None:
            raise failure
        for name, addresses in {**self.inputs, **self.outputs}.items():
            for address in addresses:
                if not 0 <= address < self.footprint:
                    raise ValueError(
                        f"declared vector {name!r} uses bit {address} outside "
                        f"footprint {self.footprint}"
                    )
        self.columns = ProgramColumns(table, tags)
        self._gate_count, self._load_ops, self._readout_ops = (
            int(count)
            for count in np.bincount(self.columns.kind, minlength=3)[
                [KIND_GATE, KIND_WRITE, KIND_READ]
            ]
        )

    def _decode(self) -> Tuple[Instruction, ...]:
        """The instruction objects the columns encode."""
        columns = self.columns
        operands = list(self.inputs)
        tags = columns.tags
        decoded: List[Instruction] = []
        for kind, op, address, ins, source, arg, bit in zip(
            columns.kind.tolist(),
            columns.op.tolist(),
            columns.address.tolist(),
            columns.inputs.tolist(),
            columns.source.tolist(),
            columns.arg.tolist(),
            columns.bit.tolist(),
        ):
            if kind == KIND_GATE:
                gate_op = GATE_OPS[op]
                decoded.append(
                    Gate(gate_op, tuple(ins[: gate_op.arity]), address)
                )
            elif kind == KIND_READ:
                decoded.append(
                    ReadInstr(address, None if arg < 0 else tags[arg], bit)
                )
            elif source == SRC_SCRATCH:
                decoded.append(WriteInstr(address))
            elif source == SRC_CONST:
                decoded.append(WriteInstr(address, ConstBit(arg)))
            elif source == SRC_OPERAND:
                decoded.append(
                    WriteInstr(address, OperandBit(operands[arg], bit))
                )
            else:
                decoded.append(
                    WriteInstr(address, ExternalBit(tags[arg], bit))
                )
        return tuple(decoded)

    def _operand_failure(
        self, instr: "WriteInstr", source: "OperandBit"
    ) -> Optional[ValueError]:
        # Operand-sourced writes must reference a declared operand and
        # stay inside its width — otherwise the mistake only surfaces
        # as a KeyError/IndexError deep inside the executor.
        declared = self.inputs.get(source.name)
        if declared is None:
            return ValueError(
                f"instruction {instr} reads undeclared operand "
                f"{source.name!r}"
            )
        if source.index >= len(declared):
            return ValueError(
                f"instruction {instr} reads bit {source.index} "
                f"of operand {source.name!r}, which is only "
                f"{len(declared)} bits wide"
            )
        return None

    @staticmethod
    def _addresses_of(instr: Instruction) -> Tuple[int, ...]:
        if isinstance(instr, WriteInstr):
            return (instr.address,)
        if isinstance(instr, ReadInstr):
            return (instr.address,)
        if isinstance(instr, Gate):
            return instr.inputs + (instr.output,)
        raise TypeError(f"unknown instruction type {type(instr)!r}")

    # ------------------------------------------------------------------
    # Counting (the endurance-relevant view)
    # ------------------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Number of logic gates."""
        return self._gate_count

    @property
    def load_ops(self) -> int:
        """Number of explicit write instructions (operand/const loads).

        Schedules must count these rather than assume ``2 * bits``:
        majority-library synthesis writes shared constant cells that a
        closed-form operand count misses (caught by RPR008).
        """
        return self._load_ops

    @property
    def readout_ops(self) -> int:
        """Number of read-out instructions."""
        return self._readout_ops

    @property
    def sequential_ops(self) -> int:
        """Sequential operation slots the program occupies.

        Gates within a lane share the lane's compute hardware, so every
        instruction — gate, read, or write — takes one slot (Section 2.2:
        "even if gates are logically independent they must still be
        performed sequentially"). The paper's 3 ns/op latency multiplies
        this count.
        """
        return len(self.columns.kind)

    def write_counts(
        self, size: Optional[int] = None, include_presets: bool = False
    ) -> np.ndarray:
        """Per-logical-bit write counts for one run of the program.

        Args:
            size: Length of the returned vector (defaults to the
                footprint; pass the lane height to embed in a lane).
            include_presets: Add one extra write per gate output, modelling
                CRAM-style architectures where "the initial value of the
                output cell affects computation and often needs to be preset
                before computation" (Section 3.2). The paper's evaluation
                accounts for these presets (Section 4).
        """
        n = self.footprint if size is None else int(size)
        if n < self.footprint:
            raise ValueError(f"size {n} smaller than footprint {self.footprint}")
        key = ("write", n, include_presets)
        cached = self._counts_cache.get(key)
        if cached is None:
            # Histograms of the columns' event kinds, independent of the
            # compiled event arrays: RPR006 compares the two.
            columns = self.columns
            address = columns.address
            gates = np.bincount(
                address[columns.kind == KIND_GATE], minlength=n
            )
            cached = self._counts_cache[key] = (
                np.bincount(address[columns.kind == KIND_WRITE], minlength=n)
                + gates * (2 if include_presets else 1)
            ).astype(np.int64)
        return cached.copy()

    def read_counts(self, size: Optional[int] = None) -> np.ndarray:
        """Per-logical-bit read counts for one run of the program."""
        n = self.footprint if size is None else int(size)
        if n < self.footprint:
            raise ValueError(f"size {n} smaller than footprint {self.footprint}")
        key = ("read", n, False)
        cached = self._counts_cache.get(key)
        if cached is None:
            columns = self.columns
            inputs = columns.inputs[columns.kind == KIND_GATE]
            cached = self._counts_cache[key] = (
                np.bincount(inputs[inputs >= 0], minlength=n)
                + np.bincount(
                    columns.address[columns.kind == KIND_READ], minlength=n
                )
            ).astype(np.int64)
        return cached.copy()

    def write_profile(
        self, size: Optional[int] = None, include_presets: bool = False
    ) -> np.ndarray:
        """:meth:`write_counts` as a cached read-only float64 vector.

        The epoch accumulator takes one profile per program per run, in
        its accumulation dtype; this variant returns the same numbers
        without the per-call defensive copy and dtype cast. Callers must not mutate the result
        (it is marked non-writeable).
        """
        n = self.footprint if size is None else int(size)
        key = ("write_f64", n, include_presets)
        cached = self._counts_cache.get(key)
        if cached is None:
            counts = self.write_counts(n, include_presets)
            counts = counts.astype(np.float64)
            counts.setflags(write=False)
            cached = self._counts_cache[key] = counts
        return cached

    def read_profile(self, size: Optional[int] = None) -> np.ndarray:
        """:meth:`read_counts` as a cached read-only float64 vector."""
        n = self.footprint if size is None else int(size)
        key = ("read_f64", n, False)
        cached = self._counts_cache.get(key)
        if cached is None:
            counts = self.read_counts(n).astype(np.float64)
            counts.setflags(write=False)
            cached = self._counts_cache[key] = counts
        return cached

    @property
    def total_writes(self) -> int:
        """Total cell writes in one run (without presets)."""
        return int(self.write_counts().sum())

    @property
    def total_reads(self) -> int:
        """Total cell reads in one run."""
        return int(self.read_counts().sum())

    # ------------------------------------------------------------------
    # Functional evaluation
    # ------------------------------------------------------------------

    def compiled(self):
        """The cached structure-of-arrays compilation of this program.

        See :func:`repro.synth.compiled.compile_program`; built lazily on
        first use from :attr:`columns` and shared by every caller of the
        batch evaluators and the static checks that need its schedule.
        """
        from repro.synth.compiled import compile_program

        return compile_program(self)

    def evaluate(
        self,
        operands: Optional[Dict[str, int]] = None,
        externals: Optional[Dict[str, Sequence[int]]] = None,
        stuck: Optional[Dict[int, int]] = None,
    ) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
        """Run the program bit-accurately.

        Args:
            operands: Unsigned integer value per input operand name.
            externals: Bit streams (LSB-first 0/1 lists) per transfer tag,
                consumed by :class:`ExternalBit`-sourced writes.
            stuck: Optional stuck-at faults: logical address -> the value
                the dead cell always returns. Writes to a stuck cell are
                silently lost — the failure mode of an endurance-exhausted
                device (Section 3.3's "the array can produce incorrect
                results", made executable).

        Returns:
            ``(outputs, readouts)`` — output name to unsigned integer, and
            read-out tag to the LSB-first bit list captured by tagged
            :class:`ReadInstr` instructions.

        Raises:
            KeyError: if an operand or external stream is missing.
            ValueError: if a gate reads an uninitialized bit or an operand
                does not fit its declared width.
        """
        operands = dict(operands or {})
        externals = {k: list(v) for k, v in (externals or {}).items()}
        stuck = dict(stuck or {})
        for address, value in stuck.items():
            if value not in (0, 1):
                raise ValueError(f"stuck value must be 0/1, got {value!r}")
            if not 0 <= address < self.footprint:
                raise ValueError(f"stuck address {address} outside footprint")
        operand_bits: Dict[str, List[int]] = {}
        for name, addresses in self.inputs.items():
            if name not in operands:
                raise KeyError(f"missing operand {name!r}")
            operand_bits[name] = BitVector.value_bits(
                operands[name], len(addresses)
            )
        memory: Dict[int, int] = dict(stuck)
        # Streams are preallocated at their final length (the columns
        # know each tag's max index), not grown with a per-bit append
        # loop — that pad was quadratic in stream length.
        readout_sizes = self.columns.readout_sizes()
        readouts: Dict[str, List[int]] = {}

        def store(address: int, value: int) -> None:
            if address not in stuck:
                memory[address] = value

        for instr in self.instructions:
            if isinstance(instr, WriteInstr):
                store(
                    instr.address,
                    self._source_value(instr, operand_bits, externals),
                )
            elif isinstance(instr, ReadInstr):
                value = self._read_bit(memory, instr.address)
                if instr.tag is not None:
                    stream = readouts.get(instr.tag)
                    if stream is None:
                        stream = readouts[instr.tag] = (
                            [0] * readout_sizes[instr.tag]
                        )
                    stream[instr.index] = value
            else:  # Gate
                values = tuple(self._read_bit(memory, a) for a in instr.inputs)
                store(instr.output, instr.evaluate(values))
        outputs = {
            name: BitVector.bits_value(
                [self._read_bit(memory, a) for a in addresses]
            )
            for name, addresses in self.outputs.items()
        }
        return outputs, readouts

    @staticmethod
    def _read_bit(memory: Dict[int, int], address: int) -> int:
        try:
            return memory[address]
        except KeyError:
            raise ValueError(
                f"read of uninitialized logical bit {address}"
            ) from None

    @staticmethod
    def _source_value(
        instr: WriteInstr,
        operand_bits: Dict[str, List[int]],
        externals: Dict[str, List[int]],
    ) -> int:
        source = instr.source
        if source is None:
            return 0  # preset/scratch write; the value never matters
        if isinstance(source, ConstBit):
            return source.value
        if isinstance(source, OperandBit):
            return operand_bits[source.name][source.index]
        if isinstance(source, ExternalBit):
            try:
                stream = externals[source.tag]
            except KeyError:
                raise KeyError(f"missing external stream {source.tag!r}") from None
            if source.index >= len(stream):
                raise ValueError(
                    f"external stream {source.tag!r} has {len(stream)} bits, "
                    f"needs index {source.index}"
                )
            return stream[source.index]
        raise TypeError(f"unknown write source {source!r}")

    def format_netlist(self, limit: Optional[int] = 40) -> str:
        """A human-readable instruction listing (for debugging/teaching).

        Args:
            limit: Maximum instructions to print (``None`` = all).
        """
        lines = [repr(self)]
        shown = (
            self.instructions
            if limit is None
            else self.instructions[:limit]
        )
        for index, instr in enumerate(shown):
            if isinstance(instr, WriteInstr):
                source = instr.source
                if isinstance(source, OperandBit):
                    detail = f"{source.name}[{source.index}]"
                elif isinstance(source, ExternalBit):
                    detail = f"<{source.tag}[{source.index}]>"
                elif isinstance(source, ConstBit):
                    detail = f"const {source.value}"
                else:
                    detail = "scratch"
                lines.append(f"{index:5d}  WRITE b{instr.address:<5d} <- {detail}")
            elif isinstance(instr, ReadInstr):
                tag = f" -> {instr.tag}[{instr.index}]" if instr.tag else ""
                lines.append(f"{index:5d}  READ  b{instr.address:<5d}{tag}")
            else:
                inputs = ", ".join(f"b{a}" for a in instr.inputs)
                lines.append(
                    f"{index:5d}  {instr.op.name:<5s} b{instr.output:<5d} "
                    f"<- {inputs}"
                )
        hidden = len(self.instructions) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more instructions")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"LaneProgram({self.name!r}, gates={self.gate_count}, "
            f"footprint={self.footprint}, writes={self.total_writes}, "
            f"reads={self.total_reads})"
        )


def _object_write_counts(
    program: LaneProgram, size: int, include_presets: bool = False
) -> np.ndarray:
    """The instruction-object walk behind :meth:`LaneProgram.write_counts`,
    its oracle (tests only)."""
    counts = [0] * size
    per_gate_writes = 2 if include_presets else 1
    for instr in program.instructions:
        if isinstance(instr, Gate):
            counts[instr.output] += per_gate_writes
        elif isinstance(instr, WriteInstr):
            counts[instr.address] += 1
    return np.array(counts, dtype=np.int64)


def _object_read_counts(program: LaneProgram, size: int) -> np.ndarray:
    """The instruction-object walk behind :meth:`LaneProgram.read_counts`,
    its oracle (tests only)."""
    counts = [0] * size
    for instr in program.instructions:
        if isinstance(instr, Gate):
            for address in instr.inputs:
                counts[address] += 1
        elif isinstance(instr, ReadInstr):
            counts[instr.address] += 1
    return np.array(counts, dtype=np.int64)


class LaneProgramBuilder:
    """Incrementally builds a :class:`LaneProgram`.

    The builder owns a :class:`~repro.synth.bits.BitAllocator` and enforces
    the target architecture's gate library: gates outside the library's
    native set are rejected, so a program built for a NAND-only fabric can
    never contain an OR. It appends each instruction as one nine-integer
    :class:`ProgramColumns` row; :meth:`finish` builds the program from
    those rows without creating instruction objects.

    Args:
        library: Native gate set of the target architecture.
        capacity: Lane height limit (``None`` = unbounded).
        name: Program label.
        policy: Logical-bit reuse policy (see
            :class:`~repro.synth.bits.AllocationPolicy`).
    """

    def __init__(
        self,
        library: GateLibrary,
        capacity: "int | None" = None,
        name: str = "program",
        policy: AllocationPolicy = AllocationPolicy.LOWEST_FIRST,
    ) -> None:
        self.library = library
        self._native = library.native_mask
        self.name = name
        self._allocator = BitAllocator(capacity, policy)
        self._rows: List[int] = []  # flat rows not yet in a chunk
        self._chunks: List[np.ndarray] = []  # (n, 9) int64 row blocks
        self._tag_ids: Dict[str, int] = {}
        self._inputs: Dict[str, Tuple[int, ...]] = {}
        self._outputs: Dict[str, Tuple[int, ...]] = {}
        self._zero_bit: "int | None" = None

    @property
    def allocator(self) -> BitAllocator:
        """The underlying logical-bit allocator."""
        return self._allocator

    # -- operand plumbing ----------------------------------------------

    def input_vector(self, operand: str, width: int) -> BitVector:
        """Allocate and load a ``width``-bit input operand.

        Each bit costs one standard memory write — these are the
        once-per-iteration input writes visible at the bottom of the
        paper's Fig. 5 profile.
        """
        if operand in self._inputs:
            raise ValueError(f"operand {operand!r} already declared")
        addresses = self._allocator.alloc_many(width)
        operand_id = len(self._inputs)
        for index, address in enumerate(addresses):
            self._rows.extend(
                (KIND_WRITE, -1, address, -1, -1, -1, SRC_OPERAND,
                 operand_id, index)
            )
        self._inputs[operand] = tuple(addresses)
        return BitVector(addresses)

    def receive_vector(self, tag: str, width: int) -> BitVector:
        """Allocate bits filled by an inter-lane transfer stream ``tag``.

        Each bit costs one standard memory write in this lane (the paper's
        reduction traffic: "a series of memory operations to bring the
        products into the same lanes", Section 3.2).
        """
        addresses = self._allocator.alloc_many(width)
        tag_id = self._tag_ids.setdefault(tag, len(self._tag_ids))
        for index, address in enumerate(addresses):
            self._rows.extend(
                (KIND_WRITE, -1, address, -1, -1, -1, SRC_EXTERNAL, tag_id,
                 index)
            )
        return BitVector(addresses)

    def const_bit(self, value: int) -> int:
        """Allocate a bit holding a compile-time constant (one write)."""
        address = self._allocator.alloc()
        if value not in (0, 1):
            ConstBit(value)  # raises its ValueError
        self._rows.extend(
            (KIND_WRITE, -1, address, -1, -1, -1, SRC_CONST, value, 0)
        )
        return address

    def zero_bit(self) -> int:
        """A shared constant-0 cell, allocated once per program.

        Majority-gate fabrics synthesize AND/OR by tying one input to a
        constant; the constant cell is written once and only read after.
        """
        if self._zero_bit is None:
            self._zero_bit = self.const_bit(0)
        return self._zero_bit

    def send_vector(self, vector: BitVector, tag: str) -> None:
        """Read ``vector`` out of the lane into transfer stream ``tag``."""
        tag_id = self._tag_ids.setdefault(tag, len(self._tag_ids))
        for index, address in enumerate(vector):
            self._rows.extend(
                (KIND_READ, -1, address, -1, -1, -1, -1, tag_id, index)
            )

    def read_out(self, vector: BitVector, tag: str) -> None:
        """Read a result vector out of the array (tagged for evaluation)."""
        self.send_vector(vector, tag)

    def mark_output(self, name: str, vector: BitVector) -> None:
        """Declare ``vector`` as a named result of the program."""
        if name in self._outputs:
            raise ValueError(f"output {name!r} already declared")
        self._outputs[name] = vector.addresses

    # -- computation ----------------------------------------------------

    def gate(self, op: GateOp, *inputs: int) -> int:
        """Append a native gate; returns the freshly-allocated output bit.

        Raises:
            ValueError: if ``op`` is not native to the builder's library,
                or the gate is malformed (the :class:`Gate` checks).
        """
        if not self._native[op.index]:
            raise ValueError(
                f"{op.name} is not native to the {self.library.name!r} library"
            )
        output = self._allocator.alloc()
        if len(inputs) != op.arity or output in inputs or min(inputs) < 0:
            Gate(op, inputs, output)  # raises the record's own ValueError
        self._rows.extend(
            (KIND_GATE, op.index, output) + inputs + _GATE_TAILS[len(inputs)]
        )
        return output

    def gate_into(self, op: GateOp, target: int, *inputs: int) -> int:
        """Append a native gate writing into an already-allocated bit.

        Used when the destination address is architecturally significant
        (e.g., un-shuffling a result back to its expected location,
        Section 3.2 / Fig. 10).
        """
        if not self._native[op.index]:
            raise ValueError(
                f"{op.name} is not native to the {self.library.name!r} library"
            )
        if not self._allocator.is_live(target):
            raise ValueError(f"target bit {target} is not allocated")
        if len(inputs) != op.arity or target in inputs or min(inputs) < 0:
            Gate(op, inputs, target)
        self._rows.extend(
            (KIND_GATE, op.index, target) + inputs + _GATE_TAILS[len(inputs)]
        )
        return target

    def copy_into(self, source: int, target: int) -> int:
        """Copy ``source`` into the existing bit ``target`` (COPY or 2 NOTs)."""
        if self.library.has_native_copy:
            return self.gate_into(GateOp.COPY, target, source)
        intermediate = self.gate(GateOp.NOT, source)
        self.gate_into(GateOp.NOT, target, intermediate)
        self.free(intermediate)
        return target

    def copy_bit(self, source: int) -> int:
        """Copy a bit using COPY, or two sequential NOTs when COPY is not
        native (Section 3.2, footnote 5)."""
        if self.library.has_native_copy:
            return self.gate(GateOp.COPY, source)
        intermediate = self.gate(GateOp.NOT, source)
        result = self.gate(GateOp.NOT, intermediate)
        self.free(intermediate)
        return result

    def and_bit(self, a: int, b: int) -> int:
        """AND two bits at the library's AND cost."""
        if self.library.supports(GateOp.AND):
            return self.gate(GateOp.AND, a, b)
        if self.library.supports(GateOp.MAJ):
            # AND(a, b) == MAJ(a, b, 0): one gate plus the shared zero cell.
            return self.gate(GateOp.MAJ, a, b, self.zero_bit())
        if self.library.supports(GateOp.NAND):
            n = self.gate(GateOp.NAND, a, b)
            result = self.gate(GateOp.NOT, n)
            self.free(n)
            return result
        if self.library.supports(GateOp.NOR):
            na = self.gate(GateOp.NOT, a)
            nb = self.gate(GateOp.NOT, b)
            result = self.gate(GateOp.NOR, na, nb)
            self.free_many((na, nb))
            return result
        raise ValueError(
            f"library {self.library.name!r} cannot synthesize AND"
        )

    def not_bit(self, a: int) -> int:
        """Invert a bit."""
        return self.gate(GateOp.NOT, a)

    def templated(
        self,
        synthesize: Callable[["LaneProgramBuilder", BitVector, BitVector],
                             BitVector],
        a: BitVector,
        b: BitVector,
    ) -> BitVector:
        """``synthesize(self, a, b)``, stamped from a cached template
        where that gives the same rows.

        ``synthesize`` must free only bits it allocated itself (the
        ``free_inputs=False`` arithmetic). On a ``RING`` lane its rows
        for a given (library, widths) are recorded once per process; a
        call whose ``K`` allocations fit in the cells free when it starts
        then puts allocation ``k`` on the ``k``-th of those cells in ring
        order from the cursor, so the template's fresh bits are relocated
        there in one array op. Other calls, including a majority-library
        call before the shared zero cell exists, run gate by gate. A
        recording that passes the ring size is cut off there: such a call
        never fits.
        """
        allocator = self._allocator
        if allocator.policy is not AllocationPolicy.RING:
            return synthesize(self, a, b)
        template = _template(
            synthesize, self.library, a.width, b.width, allocator.capacity
        )
        if template is None:
            return synthesize(self, a, b)
        zero = self._zero_bit
        inputs = a.addresses + b.addresses
        if template.uses_zero:
            if zero is None:
                return synthesize(self, a, b)
            inputs += (zero,)
        if not all(map(allocator.is_live, inputs)):
            return synthesize(self, a, b)
        run = allocator.ring_run(template.fresh)
        if run is None:
            return synthesize(self, a, b)
        lookup = np.concatenate((
            np.array(a.addresses + b.addresses + (-1 if zero is None else zero,),
                     dtype=np.int64),
            run,
            _UNUSED,
        ))
        rows = template.rows.copy()
        rows[:, 2:6] = lookup[template.slots]
        self._flush()
        self._chunks.append(rows)
        allocator.claim_run(run, run[template.live].tolist())
        return BitVector(lookup[template.result].tolist())

    # -- lifetime management ---------------------------------------------

    def free(self, address: int) -> None:
        """Free a logical bit once its value is dead."""
        self._allocator.free(address)

    def free_many(self, addresses) -> None:
        """Free several logical bits."""
        self._allocator.free_many(addresses)

    def free_vector(self, vector: BitVector) -> None:
        """Free every bit of a vector."""
        self._allocator.free_many(vector.addresses)

    # -- finalization -----------------------------------------------------

    def _flush(self) -> None:
        if self._rows:
            self._chunks.append(
                np.array(self._rows, dtype=np.int64).reshape(-1, 9)
            )
            self._rows = []

    def _table(self) -> np.ndarray:
        self._flush()
        if not self._chunks:
            return np.zeros((0, 9), dtype=np.int64)
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def finish(self, name: Optional[str] = None) -> LaneProgram:
        """Freeze the builder into an immutable :class:`LaneProgram`."""
        return LaneProgram._from_rows(
            name or self.name,
            self._table(),
            tuple(self._tag_ids),
            self._allocator.high_water_mark,
            self._inputs,
            self._outputs,
        )


#: The lookup entry a template's unused input slot (``-1``) indexes.
_UNUSED = np.array([-1], dtype=np.int64)


class _Template:
    """One synthesis call's rows with addresses as slot ids.

    Slots ``0..wa-1`` are ``a``'s bits, ``wa..wa+wb-1`` ``b``'s, then the
    shared zero cell, then the call's ``fresh`` allocations in order.
    """

    __slots__ = ("rows", "slots", "fresh", "live", "result", "uses_zero")

    def __init__(
        self, rows: np.ndarray, inputs: int, fresh: int, live: List[int],
        result: BitVector,
    ) -> None:
        self.rows = rows
        self.slots = rows[:, 2:6]
        self.fresh = fresh
        self.live = np.array(live, dtype=np.int64)  # fresh indexes kept
        self.result = np.array(result.addresses, dtype=np.int64)
        self.uses_zero = bool((self.slots == inputs - 1).any())


class _FreshAllocator(BitAllocator):
    """Hands out ids ``0, 1, 2, …`` and never reuses one; past
    ``capacity`` ids it raises ``MemoryError``."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity, AllocationPolicy.RING)

    def alloc(self) -> int:
        address = self._next_fresh
        if address == self._capacity:
            raise MemoryError(f"more than {address} bits")
        self._next_fresh = address + 1
        self._live.add(address)
        return address


class _Recorder(LaneProgramBuilder):
    """A builder whose allocation ``k`` gets id ``k`` and which never
    stamps, so its rows are a template's slot ids."""

    def __init__(self, library: GateLibrary, capacity: int) -> None:
        super().__init__(library)
        self._allocator = _FreshAllocator(capacity)

    def templated(self, synthesize, a, b):
        return synthesize(self, a, b)


#: (synthesize, library, width_a, width_b) -> its recorded template.
_TEMPLATES: Dict[tuple, _Template] = {}
#: The same keys -> the largest allocation budget a recording overran.
_OVERSIZED: Dict[tuple, int] = {}


def _template(
    synthesize: Callable,
    library: GateLibrary,
    width_a: int,
    width_b: int,
    budget: int,
) -> Optional[_Template]:
    """The recorded template of ``synthesize`` at these widths, or
    ``None`` when its call makes more than ``budget`` allocations (the
    ring size: such a call can never fit, so its recording is cut off
    at ``budget`` rather than finished, and not repeated)."""
    key = (synthesize, library, width_a, width_b)
    template = _TEMPLATES.get(key)
    if template is None:
        if _OVERSIZED.get(key, 0) >= budget:
            return None
        inputs = width_a + width_b + 1
        recorder = _Recorder(library, capacity=inputs + budget)
        slots = recorder.allocator.alloc_many(inputs)
        recorder._zero_bit = slots[-1]
        try:
            result = synthesize(
                recorder,
                BitVector(slots[:width_a]),
                BitVector(slots[width_a:-1]),
            )
        except MemoryError:
            _OVERSIZED[key] = budget
            return None
        rows = recorder._table()
        allocator = recorder.allocator
        if not all(map(allocator.is_live, slots)) or (
            (rows[:, 0] == KIND_READ) | (rows[:, 6] >= SRC_OPERAND)
        ).any():
            raise ValueError(
                f"{synthesize.__name__} frees or reads out caller-owned "
                "bits; it cannot be stamped"
            )
        fresh = allocator.high_water_mark - inputs
        live = [
            k for k in range(fresh) if allocator.is_live(inputs + k)
        ]
        template = _TEMPLATES[key] = _Template(
            rows, inputs, fresh, live, result
        )
    return template


class _ObjectBuilder(LaneProgramBuilder):
    """The per-gate builder over instruction objects: every call runs gate
    by gate, and :meth:`finish` hands the objects to the public
    :class:`LaneProgram` constructor. The oracle of the row builder and
    its templates (tests only)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._instructions: List[Instruction] = []

    def input_vector(self, operand: str, width: int) -> BitVector:
        if operand in self._inputs:
            raise ValueError(f"operand {operand!r} already declared")
        addresses = self._allocator.alloc_many(width)
        for index, address in enumerate(addresses):
            self._instructions.append(
                WriteInstr(address, OperandBit(operand, index))
            )
        self._inputs[operand] = tuple(addresses)
        return BitVector(addresses)

    def receive_vector(self, tag: str, width: int) -> BitVector:
        addresses = self._allocator.alloc_many(width)
        for index, address in enumerate(addresses):
            self._instructions.append(
                WriteInstr(address, ExternalBit(tag, index))
            )
        return BitVector(addresses)

    def const_bit(self, value: int) -> int:
        address = self._allocator.alloc()
        self._instructions.append(WriteInstr(address, ConstBit(value)))
        return address

    def send_vector(self, vector: BitVector, tag: str) -> None:
        for index, address in enumerate(vector):
            self._instructions.append(ReadInstr(address, tag=tag, index=index))

    def gate(self, op: GateOp, *inputs: int) -> int:
        if not self._native[op.index]:
            raise ValueError(
                f"{op.name} is not native to the {self.library.name!r} library"
            )
        output = self._allocator.alloc()
        self._instructions.append(Gate(op, tuple(inputs), output))
        return output

    def gate_into(self, op: GateOp, target: int, *inputs: int) -> int:
        if not self._native[op.index]:
            raise ValueError(
                f"{op.name} is not native to the {self.library.name!r} library"
            )
        if not self._allocator.is_live(target):
            raise ValueError(f"target bit {target} is not allocated")
        self._instructions.append(Gate(op, tuple(inputs), target))
        return target

    def templated(self, synthesize, a, b):
        return synthesize(self, a, b)

    def finish(self, name: Optional[str] = None) -> LaneProgram:
        return LaneProgram(
            name=name or self.name,
            instructions=self._instructions,
            footprint=self._allocator.high_water_mark,
            inputs=self._inputs,
            outputs=self._outputs,
        )
