"""Lowering: parsed trace instructions to synthesized lane programs.

Each ``PIM`` compute op executes on the lane its **destination** address
maps to (:class:`~repro.workloads.trace.addressing.AddressMapping`);
source values resident on other lanes travel through tagged read-out /
external-write transfer streams, exactly the inter-lane mechanism the
paper's dot-product reduction uses. Arithmetic synthesizes through the
existing gate libraries (:func:`repro.synth.multiplier.multiply`,
:func:`repro.synth.adders.ripple_carry_add`), so a trace inherits every
library's gate costs — and every balance strategy applies unchanged.

Value bookkeeping is SSA-ish: a two-pass reference count per
``(address, version)`` decides when a staged operand or an intermediate
result is dead and its cells can be reused; values still live when the
trace ends are read out (and result-valued ones declared as program
outputs), so the lowered programs are dataflow-clean by construction —
``verify_network``/``verify_mapping`` report zero diagnostics, enforced
at build time.

The schedule view assumes full inter-lane parallelism: per-lane op
totals are decomposed into layer-cake phases (all lanes run until the
lightest finishes, and so on), which reproduces the wear view's
``lane_work`` exactly (RPR008's equality contract).
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.array.architecture import PIMArchitecture
from repro.gates.library import GateLibrary
from repro.synth.adders import ripple_carry_add
from repro.synth.bits import AllocationPolicy, BitVector, LaneCapacityError
from repro.synth.multiplier import multiply
from repro.synth.program import LaneProgram, LaneProgramBuilder
from repro.verify.api import VerificationError, verify_network
from repro.workloads.base import Phase, Workload, WorkloadMapping
from repro.workloads.trace.addressing import MAPPING_POLICIES, AddressMapping
from repro.workloads.trace.parser import (
    COMPUTE_OPS,
    AddressFormat,
    PIMULATOR_FORMAT,
    TraceInstr,
    TraceOp,
    parse_trace,
    split_lines,
)


class TraceLoweringError(ValueError):
    """A trace cannot be lowered onto the requested geometry/library."""


class _Value:
    """A live value held in some lane: its bits and remaining uses."""

    __slots__ = ("vector", "remaining", "initial", "is_result", "version")

    def __init__(
        self, vector: BitVector, remaining: int, is_result: bool,
        version: int,
    ) -> None:
        self.vector = vector
        self.remaining = remaining
        self.initial = remaining
        self.is_result = is_result
        self.version = version


class _Lane:
    """Per-lane lowering state: a builder plus the live-value table."""

    __slots__ = ("index", "builder", "values", "staged")

    def __init__(self, index: int, builder: LaneProgramBuilder) -> None:
        self.index = index
        self.builder = builder
        self.values: Dict[int, _Value] = {}
        self.staged: Counter = Counter()


def _instr_reads(instr: TraceInstr) -> Tuple[int, ...]:
    """Addresses whose *current* value the instruction consumes."""
    op = instr.op
    if op in (TraceOp.PIM_ADD, TraceOp.PIM_MUL):
        return instr.sources
    if op is TraceOp.PIM_MAC:
        return instr.sources + (instr.dst,)
    if op is TraceOp.PIM_MAD:
        if len(instr.operands) == 4:
            return instr.sources
        return instr.sources + (instr.dst,)
    if op is TraceOp.PIM_MOV:
        return instr.sources
    if op is TraceOp.MEM_READ:
        return (instr.dst,)
    return ()


def _instr_writes(instr: TraceInstr) -> Tuple[int, ...]:
    """Addresses the instruction (re)defines."""
    if instr.op in COMPUTE_OPS or instr.op is TraceOp.MEM_WRITE:
        return (instr.dst,)
    return ()


def _use_counts(
    instructions: Sequence[TraceInstr],
) -> Dict[Tuple[int, int], int]:
    """Uses per ``(address, version)`` value — the SSA-ish liveness pass."""
    version: Dict[int, int] = defaultdict(int)
    uses: Counter = Counter()
    for instr in instructions:
        if instr.op is TraceOp.PIM_EXIT:
            break
        for address in _instr_reads(instr):
            uses[(address, version[address])] += 1
        for address in _instr_writes(instr):
            version[address] += 1
    return dict(uses)


class _Lowering:
    """One lowering run: trace instructions -> per-lane programs."""

    def __init__(
        self,
        instructions: Sequence[TraceInstr],
        library: GateLibrary,
        mapping: AddressMapping,
        *,
        bits: int,
        capacity: Optional[int],
        allocation_policy: AllocationPolicy,
        label: str,
    ) -> None:
        self.instructions = instructions
        self.library = library
        self.mapping = mapping
        self.bits = bits
        self.capacity = capacity
        self.allocation_policy = allocation_policy
        self.label = label
        self.lanes: Dict[int, _Lane] = {}
        self.uses = _use_counts(instructions)
        self.version: Dict[int, int] = defaultdict(int)
        self.edges: set = set()
        self._transfers = 0

    # -- lane/value plumbing -------------------------------------------

    def lane(self, index: int) -> _Lane:
        state = self.lanes.get(index)
        if state is None:
            builder = LaneProgramBuilder(
                self.library,
                capacity=self.capacity,
                name=f"{self.label}-lane{index}",
                policy=self.allocation_policy,
            )
            state = self.lanes[index] = _Lane(index, builder)
        return state

    def _stage(self, lane: _Lane, address: int) -> _Value:
        """Load the resident memory value at ``address`` into the lane.

        The operand is named ``m<hex address>`` on first staging (the
        name functional tests feed values through) and suffixed with a
        per-lane staging ordinal on re-staging, since operand names must
        be unique within a program.
        """
        version = self.version[address]
        ordinal = lane.staged[address]
        lane.staged[address] += 1
        suffix = f"_v{ordinal}" if ordinal else ""
        name = f"m{address:x}{suffix}"
        vector = lane.builder.input_vector(name, self.bits)
        value = _Value(
            vector,
            self.uses.get((address, version), 0),
            is_result=False,
            version=version,
        )
        lane.values[address] = value
        return value

    def _fetch(
        self,
        address: int,
        target: _Lane,
        instr_index: int,
        transfer_memo: Dict[int, BitVector],
        temporaries: List[BitVector],
    ) -> BitVector:
        """The value at ``address``, resident in ``target``'s lane.

        Stages the value from memory on first touch; values homed on
        another lane travel through a uniquely-tagged transfer stream
        (read-out on the producer, external writes on the consumer).
        Reference counts are decremented here; freeing happens after
        the instruction's gates are appended (:meth:`_sweep`).
        """
        home = self.lane(self.mapping.lane_of(address))
        memoized = transfer_memo.get(address)
        if memoized is not None:
            # A repeated source within one instruction reuses the first
            # fetch (and transfer), but still counts as a use.
            repeat = home.values.get(address)
            if repeat is not None:
                repeat.remaining -= 1
            return memoized
        value = home.values.get(address)
        if value is None:
            value = self._stage(home, address)
        value.remaining -= 1
        if home.index == target.index:
            transfer_memo[address] = value.vector
            return value.vector
        tag = f"t{instr_index}_{address:x}"
        home.builder.read_out(value.vector, tag)
        received = target.builder.receive_vector(tag, value.vector.width)
        self.edges.add((home.index, target.index))
        self._transfers += 1
        transfer_memo[address] = received
        temporaries.append(received)
        return received

    def _sweep(self, lanes: Iterable[_Lane]) -> None:
        """Free dead values after an instruction's gates are in place.

        A value is dead once its uses are exhausted — values the trace
        *never* consumes stay live for the end-of-trace readout
        (:meth:`_finish_outputs`), so no written cell ever goes unread.
        """
        for lane in lanes:
            dead = [
                address
                for address, value in lane.values.items()
                if value.remaining <= 0 and value.initial > 0
            ]
            for address in dead:
                lane.builder.free_vector(lane.values.pop(address).vector)

    def _retire(self, lane: _Lane, address: int, instr_index: int) -> None:
        """Drop the current value at ``address`` ahead of an overwrite."""
        old = lane.values.pop(address, None)
        if old is None:
            return
        if old.remaining > 0 or old.initial == 0:
            # The trace overwrites data nothing ever consumed. Read the
            # doomed value out first so the wear ledger stays clean (a
            # written-never-read cell is a dead-write diagnostic).
            lane.builder.read_out(
                old.vector, f"evict{instr_index}_{address:x}"
            )
        lane.builder.free_vector(old.vector)

    def _define(
        self, lane: _Lane, address: int, vector: BitVector,
        instr_index: int,
    ) -> None:
        """Install ``vector`` as the new value at ``address``."""
        self._retire(lane, address, instr_index)
        self.version[address] += 1
        version = self.version[address]
        lane.values[address] = _Value(
            vector,
            self.uses.get((address, version), 0),
            is_result=True,
            version=version,
        )

    def _pad_to(
        self, lane: _Lane, vector: BitVector, width: int,
        temporaries: List[BitVector],
    ) -> BitVector:
        """Zero-extend ``vector`` to ``width`` with fresh constant cells."""
        if vector.width >= width:
            return vector
        pads = [
            lane.builder.const_bit(0) for _ in range(width - vector.width)
        ]
        padded = BitVector(tuple(vector.addresses) + tuple(pads))
        # Only the pad cells are temporary; the original bits keep their
        # own lifetime. Track them as a standalone vector for the sweep.
        temporaries.append(BitVector(pads))
        return padded

    # -- per-op lowering -----------------------------------------------

    def lower(self) -> None:
        for k, instr in enumerate(self.instructions):
            if instr.op is TraceOp.PIM_EXIT:
                break
            if instr.op in COMPUTE_OPS:
                self._lower_compute(k, instr)
            elif instr.op is TraceOp.MEM_WRITE:
                self._lower_mem_write(k, instr)
            elif instr.op is TraceOp.MEM_READ:
                self._lower_mem_read(k, instr)
            # Register ops (GPR/CFR) and NOP never touch the array.
        self._finish_outputs()

    def _lower_compute(self, k: int, instr: TraceInstr) -> None:
        target = self.lane(self.mapping.lane_of(instr.dst))
        memo: Dict[int, BitVector] = {}
        temporaries: List[BitVector] = []
        builder = target.builder
        op = instr.op
        if op is TraceOp.PIM_MOV:
            source = self._fetch(
                instr.sources[0], target, k, memo, temporaries
            )
            if source in temporaries:
                # Remote move: the received copy *is* the moved value.
                temporaries.remove(source)
                result = source
            else:
                result = BitVector(
                    [builder.copy_bit(bit) for bit in source]
                )
        else:
            fetched = [
                self._fetch(address, target, k, memo, temporaries)
                for address in instr.sources
            ]
            if op is TraceOp.PIM_MUL:
                a, b = fetched
                width = max(a.width, b.width, 2)
                a = self._pad_to(target, a, width, temporaries)
                b = self._pad_to(target, b, width, temporaries)
                result = multiply(builder, a, b)
            elif op is TraceOp.PIM_ADD:
                a, b = fetched
                width = max(a.width, b.width)
                a = self._pad_to(target, a, width, temporaries)
                b = self._pad_to(target, b, width, temporaries)
                result = ripple_carry_add(builder, a, b)
            else:  # MAC / MAD
                a, b = fetched[0], fetched[1]
                width = max(a.width, b.width, 2)
                a = self._pad_to(target, a, width, temporaries)
                b = self._pad_to(target, b, width, temporaries)
                product = multiply(builder, a, b)
                temporaries.append(product)
                if op is TraceOp.PIM_MAD and len(fetched) == 3:
                    addend = fetched[2]
                else:
                    addend = self._fetch(
                        instr.dst, target, k, memo, temporaries
                    )
                width = max(product.width, addend.width)
                product = self._pad_to(target, product, width, temporaries)
                addend = self._pad_to(target, addend, width, temporaries)
                result = ripple_carry_add(builder, product, addend)
        self._define(target, instr.dst, result, k)
        for temporary in temporaries:
            builder.free_vector(temporary)
        self._sweep(self.lanes.values())

    def _lower_mem_write(self, k: int, instr: TraceInstr) -> None:
        lane = self.lane(self.mapping.lane_of(instr.dst))
        self._retire(lane, instr.dst, k)
        # Mirror the liveness pass: a host write defines a new version.
        self.version[instr.dst] += 1
        self._stage(lane, instr.dst)

    def _lower_mem_read(self, k: int, instr: TraceInstr) -> None:
        lane = self.lane(self.mapping.lane_of(instr.dst))
        value = lane.values.get(instr.dst)
        if value is None:
            value = self._stage(lane, instr.dst)
        lane.builder.read_out(value.vector, f"r{k}_{instr.dst:x}")
        value.remaining -= 1
        self._sweep((lane,))

    def _finish_outputs(self) -> None:
        """Read out (and declare) every value still live at trace end."""
        for lane_index in sorted(self.lanes):
            lane = self.lanes[lane_index]
            for address in sorted(lane.values):
                value = lane.values[address]
                if value.is_result:
                    lane.builder.mark_output(
                        f"out_{address:x}", value.vector
                    )
                lane.builder.read_out(
                    value.vector, f"out_l{lane_index}_{address:x}"
                )

    # -- results --------------------------------------------------------

    def programs(self) -> Dict[int, LaneProgram]:
        try:
            return {
                index: lane.builder.finish()
                for index, lane in sorted(self.lanes.items())
            }
        except LaneCapacityError as exc:
            raise LaneCapacityError(
                f"trace does not fit the lane capacity "
                f"({self.capacity}): {exc}"
            ) from None

    def evaluation_order(self) -> List[int]:
        """Topological lane order (senders before receivers).

        Raises:
            TraceLoweringError: when transfers form a lane cycle — the
                wear view is still valid, but a single-pass functional
                evaluation is impossible.
        """
        indegree = {index: 0 for index in self.lanes}
        successors: Dict[int, List[int]] = {
            index: [] for index in self.lanes
        }
        for producer, consumer in sorted(self.edges):
            successors[producer].append(consumer)
            indegree[consumer] += 1
        ready = sorted(
            index for index, degree in indegree.items() if degree == 0
        )
        order: List[int] = []
        while ready:
            lane = ready.pop(0)
            order.append(lane)
            for successor in successors[lane]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    # Insertion keeps `ready` sorted: deterministic order.
                    position = 0
                    while (
                        position < len(ready)
                        and ready[position] < successor
                    ):
                        position += 1
                    ready.insert(position, successor)
        if len(order) != len(self.lanes):
            cyclic = sorted(set(self.lanes) - set(order))
            raise TraceLoweringError(
                f"transfer graph has a lane cycle involving lanes "
                f"{cyclic[:8]}; functional network evaluation needs an "
                f"acyclic mapping policy for this trace"
            )
        return order


def _layer_cake_phases(
    lane_ops: Dict[int, int], label: str
) -> List[Phase]:
    """Exact phase decomposition of per-lane op totals.

    Lanes run in parallel; at elapsed step ``t`` exactly the lanes whose
    totals exceed ``t`` are active. Summing ``steps * active_lanes``
    over the tiers reproduces ``sum(lane_ops.values())`` identically —
    the RPR008 equality the verifier enforces.
    """
    totals = sorted(set(lane_ops.values()))
    phases: List[Phase] = []
    previous = 0
    for tier, total in enumerate(totals):
        if total == 0:
            continue
        active = sum(1 for ops in lane_ops.values() if ops > previous)
        phases.append(Phase(f"{label}-tier{tier}", total - previous, active))
        previous = total
    return phases


class TraceWorkload(Workload):
    """A captured instruction trace as an endurance workload.

    Args:
        instructions: Parsed trace instructions (see
            :func:`~repro.workloads.trace.parser.parse_trace`).
        bits: Operand width staged for every memory value.
        policy: Address-mapping policy
            (:data:`~repro.workloads.trace.addressing.MAPPING_POLICIES`).
        address_format: Physical-address field layout.
        name: Report label (defaults to ``trace-<hash prefix>``).
        allocation_policy: Lane workspace reuse policy.
    """

    def __init__(
        self,
        instructions: Sequence[TraceInstr],
        *,
        bits: int = 8,
        policy: str = "direct",
        address_format: AddressFormat = PIMULATOR_FORMAT,
        name: Optional[str] = None,
        allocation_policy: AllocationPolicy = AllocationPolicy.RING,
    ) -> None:
        if bits < 2:
            raise ValueError("bits must be at least 2 (multiply needs 2)")
        if policy not in MAPPING_POLICIES:
            raise ValueError(
                f"unknown mapping policy {policy!r}; choose from "
                f"{MAPPING_POLICIES}"
            )
        self.instructions = tuple(instructions)
        if not any(
            instr.op in COMPUTE_OPS or instr.op in
            (TraceOp.MEM_WRITE, TraceOp.MEM_READ)
            for instr in self.instructions
        ):
            raise TraceLoweringError(
                "trace contains no array-touching instructions"
            )
        self.bits = bits
        self.policy = policy
        self.address_format = address_format
        self.allocation_policy = allocation_policy
        self.trace_hash = self._content_hash()
        self.name = name or f"trace-{self.trace_hash[:8]}"

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_file(cls, path, **kwargs) -> "TraceWorkload":
        """Parse ``path`` and wrap it (forwards keyword arguments)."""
        address_format = kwargs.get("address_format", PIMULATOR_FORMAT)
        instructions = parse_trace(str(path), address_format)
        return cls(instructions, **kwargs)

    @classmethod
    def from_text(cls, text: str, **kwargs) -> "TraceWorkload":
        """Parse trace text and wrap it (forwards keyword arguments)."""
        address_format = kwargs.get("address_format", PIMULATOR_FORMAT)
        instructions = parse_trace(split_lines(text), address_format)
        return cls(instructions, **kwargs)

    def _content_hash(self) -> str:
        digest = hashlib.sha256()
        for instr in self.instructions:
            digest.update(
                f"{instr.op.value}:{','.join(map(str, instr.operands))}\n"
                .encode()
            )
        return digest.hexdigest()

    @property
    def signature(self) -> str:
        # The default signature would embed every instruction repr; the
        # content hash identifies the trace compactly and stably.
        return (
            f"repro.workloads.trace.TraceWorkload("
            f"trace={self.trace_hash}, bits={self.bits}, "
            f"policy={self.policy!r}, format={self.address_format!r}, "
            f"allocation_policy={self.allocation_policy!r})"
        )

    # -- lowering -------------------------------------------------------

    def _lowering(
        self, library: GateLibrary, lane_count: int,
        capacity: Optional[int],
    ) -> _Lowering:
        mapping = AddressMapping(
            lane_count=lane_count,
            policy=self.policy,
            address_format=self.address_format,
        )
        lowering = _Lowering(
            self.instructions,
            library,
            mapping,
            bits=self.bits,
            capacity=capacity,
            allocation_policy=self.allocation_policy,
            label=self.name,
        )
        lowering.lower()
        if not lowering.lanes:
            raise TraceLoweringError(
                "trace lowers to zero lane programs (no array traffic)"
            )
        return lowering

    def build(self, architecture: PIMArchitecture) -> WorkloadMapping:
        """Lower the trace onto ``architecture`` (wear + schedule views).

        The lowered network is statically verified
        (:func:`repro.verify.verify_network`) before the mapping is
        returned; dataflow errors in the lowering are bugs, not runtime
        surprises.
        """
        lowering = self._lowering(
            architecture.library,
            architecture.lane_count,
            architecture.lane_size - 1,
        )
        programs = lowering.programs()
        slots = architecture.writes_per_gate
        lane_ops = {
            lane: (
                program.sequential_ops
                - program.gate_count
                + program.gate_count * slots
            )
            for lane, program in programs.items()
        }
        phases = _layer_cake_phases(lane_ops, self.name)
        mapping = WorkloadMapping(
            workload_name=self.name,
            architecture=architecture,
            assignment=dict(programs),
            phases=phases,
        )
        self._static_check(lowering, programs)
        return mapping

    def _static_check(
        self, lowering: _Lowering, programs: Dict[int, LaneProgram]
    ) -> None:
        """Build-time ``verify_network`` gate over the lowered programs.

        A cyclic transfer graph (possible under scattering policies) is
        not an error for the wear view — only single-pass functional
        evaluation needs acyclicity — so it downgrades to a skip.
        """
        try:
            order = lowering.evaluation_order()
        except TraceLoweringError:
            return
        report = verify_network(programs, order)
        if report.errors:
            raise VerificationError(report)

    def build_functional(
        self, library: GateLibrary, lane_count: int,
        capacity: Optional[int] = None,
    ) -> Tuple[Dict[int, LaneProgram], List[int]]:
        """Per-lane programs plus a sender-before-receiver lane order.

        Suitable for :func:`repro.workloads.evaluate_networked` — the
        transfer tags are already unique per (instruction, address), so
        the ``build`` programs and these are the same objects' twins.

        Raises:
            TraceLoweringError: when the transfer graph is cyclic.
        """
        lowering = self._lowering(library, lane_count, capacity)
        order = lowering.evaluation_order()
        return lowering.programs(), order

    def describe(self) -> str:
        compute = sum(
            1 for instr in self.instructions if instr.op in COMPUTE_OPS
        )
        return (
            f"{self.name}: {len(self.instructions)} trace instructions "
            f"({compute} compute), {self.bits}-bit operands, "
            f"{self.policy} mapping"
        )
