"""Workload abstractions: lane assignments, schedules, utilization.

A workload iteration is described by two coupled views:

* the **wear view** — which lane runs which :class:`LaneProgram`; lanes
  with identical roles share one canonical program object so the epoch
  algebra can treat them as a group;
* the **schedule view** — an ordered list of :class:`Phase` records
  (sequential step count x active lanes), from which iteration latency
  (3 ns per sequential op, Section 4) and the paper's *average lane
  utilization* (Table 3) follow.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.synth.program import LaneProgram


@dataclass(frozen=True)
class Phase:
    """A stretch of the per-iteration schedule.

    Attributes:
        name: Human-readable label.
        steps: Sequential operation slots the phase occupies. Lanes operate
            in lock-step, so a phase's latency is ``steps`` regardless of
            how many lanes participate.
        active_lanes: Lanes doing useful work during the phase.
    """

    name: str
    steps: int
    active_lanes: int

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.active_lanes < 0:
            raise ValueError("active_lanes must be non-negative")


@dataclass
class WorkloadMapping:
    """One workload iteration mapped onto a concrete architecture.

    The assignment must not change once the mapping is built:
    :attr:`roles`, which every per-program question reads, is derived
    from it once, on first use.

    Attributes:
        workload_name: Source workload label.
        architecture: The target architecture.
        assignment: Logical lane -> program (lanes in the same role share
            one program object).
        phases: The per-iteration schedule.
    """

    workload_name: str
    architecture: PIMArchitecture
    assignment: Dict[int, LaneProgram]
    phases: List[Phase]

    @cached_property
    def roles(self) -> Dict[int, Tuple[LaneProgram, np.ndarray]]:
        """``id(program) -> (program, lanes)``: each canonical program
        and its logical lanes (read-only int64, in assignment order),
        the programs in the order they first appear."""
        groups: Dict[int, Tuple[LaneProgram, List[int]]] = {}
        for lane, program in self.assignment.items():
            groups.setdefault(id(program), (program, []))[1].append(lane)
        roles = {}
        for key, (program, lanes) in groups.items():
            lanes = np.array(lanes, dtype=np.int64)
            lanes.flags.writeable = False
            roles[key] = (program, lanes)
        return roles

    @property
    def sequential_ops(self) -> int:
        """Sequential operation slots per iteration (latency / 3 ns)."""
        return sum(phase.steps for phase in self.phases)

    @property
    def iteration_latency_s(self) -> float:
        """Wall-clock latency of one iteration."""
        return self.sequential_ops * self.architecture.technology.op_latency_s

    @property
    def active_lane_count(self) -> int:
        """Lanes that participate at all."""
        return len(self.assignment)

    @property
    def lane_utilization(self) -> float:
        """Time-weighted average fraction of lanes doing useful work.

        This is the paper's Table 3 "Avg Lane Utilization": 100% for the
        embarrassingly parallel multiply, lower for workloads whose
        reduction phases idle most lanes.
        """
        total_steps = self.sequential_ops
        if total_steps == 0:
            return 0.0
        lane_count = self.architecture.lane_count
        weighted = sum(phase.steps * phase.active_lanes for phase in self.phases)
        return weighted / (total_steps * lane_count)

    def lane_loads(self) -> np.ndarray:
        """Per-logical-lane writes per iteration (with the
        architecture's presets), zero on unassigned lanes: the wear-aware
        sorting signal."""
        include = self.architecture.presets_output
        loads = np.zeros(self.architecture.lane_count)
        for program, lanes in self.roles.values():
            loads[lanes] = program.write_counts(include_presets=include).sum()
        return loads

    @property
    def writes_per_iteration(self) -> float:
        """Total cell writes per iteration (with the architecture's presets)."""
        return float(self.lane_loads().sum())

    @property
    def reads_per_iteration(self) -> float:
        """Total cell reads per iteration."""
        return float(
            sum(
                int(program.read_counts().sum()) * len(lanes)
                for program, lanes in self.roles.values()
            )
        )

    def lane_work(self) -> float:
        """Total lane-operation slots consumed per iteration.

        Each instruction a lane executes occupies one slot (gates occupy
        ``writes_per_gate`` slots on pre-setting architectures). This is
        the wear view's own op count, summed over lanes.
        """
        extra = self.architecture.writes_per_gate - 1
        return float(
            sum(
                (program.sequential_ops + program.gate_count * extra)
                * len(lanes)
                for program, lanes in self.roles.values()
            )
        )

    def validate_schedule(self, tolerance: float = 0.0) -> None:
        """Cross-check the phase schedule against the lane programs.

        Invariants:

        1. total scheduled work — ``sum(steps * active_lanes)`` over the
           phases — equals the wear view's :meth:`lane_work` (to within
           ``tolerance``, relative);
        2. no lane's program exceeds the iteration's sequential slots (a
           lane cannot do more work than there is time).

        Workload authors hand-write the phase schedule; this catches the
        two ways it can silently drift from the programs.

        Raises:
            ValueError: if either invariant fails.
        """
        scheduled = float(
            sum(phase.steps * phase.active_lanes for phase in self.phases)
        )
        actual = self.lane_work()
        reference = max(actual, 1.0)
        if abs(scheduled - actual) > tolerance * reference:
            raise ValueError(
                f"schedule accounts for {scheduled:g} lane-ops but the "
                f"programs perform {actual:g} (workload "
                f"{self.workload_name!r})"
            )
        slots = self.architecture.writes_per_gate
        budget = self.sequential_ops
        # Roles come in first-appearance order, so the first offending
        # role's first lane is the first offending lane.
        for program, lanes in self.roles.values():
            lane_ops = (
                program.sequential_ops
                - program.gate_count
                + program.gate_count * slots
            )
            if lane_ops > budget:
                raise ValueError(
                    f"lane {lanes[0]} performs {lane_ops} ops but the "
                    f"schedule has only {budget} sequential slots"
                )

    def operation_costs(self, energy_model=None):
        """Latency/energy of one iteration as an ``OperationCosts`` record.

        Combines the schedule's sequential slots (latency) with the wear
        view's cell reads/writes (energy) under the architecture's
        technology unless an explicit model is given.
        """
        from repro.devices.energy import EnergyModel

        model = energy_model or EnergyModel(self.architecture.technology)
        return model.costs(
            sequential_ops=self.sequential_ops,
            cell_reads=int(self.reads_per_iteration),
            cell_writes=int(self.writes_per_iteration),
        )

    def distinct_programs(self) -> List[LaneProgram]:
        """The canonical program objects, one per lane role."""
        return [program for program, _ in self.roles.values()]


class Workload(ABC):
    """A benchmark kernel that maps onto one PIM array."""

    #: Human-readable name (used in reports and figure labels).
    name: str = "workload"

    @abstractmethod
    def build(self, architecture: PIMArchitecture) -> WorkloadMapping:
        """Map one iteration onto ``architecture`` (wear + schedule views)."""

    @property
    def signature(self) -> str:
        """A canonical identity string covering class and parameters.

        Two workloads with equal signatures build identical mappings on a
        given architecture; two instances sharing a ``name`` but differing
        in any constructor parameter get distinct signatures. Used for
        the mapping memo and experiment-engine content hashes, so it must
        not depend on the process: a nested workload contributes its own
        signature, never its default ``repr`` (an object address).
        """
        cls = type(self)
        params = ", ".join(
            f"{key}="
            + (value.signature if isinstance(value, Workload) else repr(value))
            for key, value in sorted(vars(self).items())
        )
        return f"{cls.__module__}.{cls.__qualname__}({params})"

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name


def evaluate_networked(
    programs: Mapping[int, LaneProgram],
    operands: Mapping[int, Mapping[str, int]],
    order: Sequence[int],
    externals: Optional[Dict[str, List[int]]] = None,
) -> Tuple[Dict[int, Dict[str, int]], Dict[str, List[int]]]:
    """Evaluate interconnected lane programs in dependency order.

    Lanes communicate through tagged read-out streams: a sender's tagged
    :class:`ReadInstr` bits become the pool entries that a receiver's
    :class:`ExternalBit` writes consume. ``order`` must list every lane
    such that senders precede their receivers (reductions toward lower
    lanes evaluate in decreasing lane order).

    Args:
        programs: Lane -> its (individually wired) program.
        operands: Lane -> operand values for that lane's program.
        order: Evaluation order over the lanes.
        externals: Optional pre-seeded transfer pool.

    Returns:
        ``(outputs, pool)``: per-lane named outputs, and the final
        transfer pool (tag -> bits).
    """
    pool: Dict[str, List[int]] = dict(externals or {})
    outputs: Dict[int, Dict[str, int]] = {}
    if set(order) != set(programs):
        raise ValueError("order must cover exactly the mapped lanes")
    for lane in order:
        lane_outputs, readouts = programs[lane].evaluate(
            dict(operands.get(lane, {})), pool
        )
        outputs[lane] = lane_outputs
        for tag, bits in readouts.items():
            if tag in pool:
                raise ValueError(f"duplicate transfer tag {tag!r}")
            pool[tag] = bits
    return outputs, pool


def evaluate_networked_batch(
    programs: Mapping[int, LaneProgram],
    operands: Mapping[int, Mapping[str, Sequence[int]]],
    order: Sequence[int],
    externals: Optional[Mapping[str, "object"]] = None,
    draws: Optional[int] = None,
):
    """Batched :func:`evaluate_networked`: N operand draws per lane at once.

    Each lane is evaluated with its compiled SWAR kernel
    (:meth:`CompiledProgram.evaluate_batch`); the transfer pool carries
    ``(N, width)`` uint8 readout arrays, so a sender's tagged read-out
    feeds its receivers' external writes draw-for-draw. Draw ``n`` of the
    batch is exactly the network :func:`evaluate_networked` would compute
    from draw ``n``'s operands — the scalar path remains the reference
    the batch path is property-tested against.

    Args:
        programs: Lane -> its (individually wired) program.
        operands: Lane -> operand name -> N values for that lane.
        order: Evaluation order (senders before receivers).
        externals: Optional pre-seeded pool of ``(N, width)`` bit arrays.
        draws: Batch size N; required only when it is not implied by any
            operand or pre-seeded stream.

    Returns:
        ``(outputs, pool)``: per-lane ``{name: (N,) object ndarray}`` of
        exact integers, and the final pool (tag -> ``(N, width)`` uint8).
    """
    import numpy as np

    pool: Dict[str, "np.ndarray"] = {
        tag: np.asarray(bits, dtype=np.uint8)
        for tag, bits in (externals or {}).items()
    }
    if set(order) != set(programs):
        raise ValueError("order must cover exactly the mapped lanes")
    if draws is None:
        for lane_operands in operands.values():
            for values in lane_operands.values():
                draws = len(values)
                break
            if draws is not None:
                break
        else:
            for bits in pool.values():
                draws = int(np.asarray(bits).shape[0])
                break
        if draws is None:
            raise ValueError("pass draws= when no operands imply a batch size")
    outputs: Dict[int, Dict[str, "np.ndarray"]] = {}
    for lane in order:
        compiled = programs[lane].compiled()
        # Hand each lane only the streams it consumes: packing the whole
        # pool for every lane would make wide reductions quadratic.
        consumed = {
            tag: pool[tag] for tag in compiled.external_tags if tag in pool
        }
        lane_outputs, readouts = compiled.evaluate_batch(
            dict(operands.get(lane, {})), externals=consumed, draws=draws
        )
        outputs[lane] = lane_outputs
        for tag, bits in readouts.items():
            if tag in pool:
                raise ValueError(f"duplicate transfer tag {tag!r}")
            pool[tag] = bits
    return outputs, pool
