"""Every shipped workload's phase schedule must match its programs."""

import numpy as np
import pytest

from repro.array.architecture import PINATUBO, default_architecture
from repro.verify import check_schedule
from repro.workloads.base import Phase, WorkloadMapping
from repro.workloads.bnn import BinaryNeuron
from repro.workloads.convolution import Convolution
from repro.workloads.dotproduct import DotProduct
from repro.workloads.matvec import MatrixVectorProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.vectoradd import VectorAdd

WORKLOADS = [
    ParallelMultiplication(bits=16),
    VectorAdd(bits=16),
    DotProduct(n_elements=64, bits=8),
    Convolution(bits=4),
    MatrixVectorProduct(elements_per_row=16, bits=4),
    BinaryNeuron(n_inputs=16),
]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_schedules_are_exact_with_presets(workload):
    mapping = workload.build(default_architecture(256, 256))
    mapping.validate_schedule(tolerance=0.0)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_schedules_are_exact_without_presets(workload):
    mapping = workload.build(PINATUBO.resized(256, 256))
    mapping.validate_schedule(tolerance=0.0)


class TestValidatorCatchesDrift:
    def _mapping(self):
        return ParallelMultiplication(bits=8).build(
            default_architecture(128, 64)
        )

    def test_missing_phase_work_detected(self):
        mapping = self._mapping()
        broken = WorkloadMapping(
            workload_name=mapping.workload_name,
            architecture=mapping.architecture,
            assignment=mapping.assignment,
            phases=mapping.phases[:-1],  # drop the read-out phase
        )
        with pytest.raises(ValueError, match="lane-ops"):
            broken.validate_schedule()

    def test_overcommitted_lane_detected(self):
        mapping = self._mapping()
        # A schedule shorter than one lane's own instruction stream: total
        # work is balanced away by inflating active lanes, but invariant 2
        # still trips.
        total = mapping.lane_work()
        broken = WorkloadMapping(
            workload_name=mapping.workload_name,
            architecture=mapping.architecture,
            assignment=mapping.assignment,
            phases=[Phase("squeezed", 10, int(total // 10))],
        )
        with pytest.raises(ValueError, match="sequential slots"):
            broken.validate_schedule(tolerance=0.01)

    def test_tolerance_allows_small_drift(self):
        mapping = self._mapping()
        slightly_off = WorkloadMapping(
            workload_name=mapping.workload_name,
            architecture=mapping.architecture,
            assignment=mapping.assignment,
            phases=list(mapping.phases)
            + [Phase("fudge", 1, 1)],
        )
        with pytest.raises(ValueError):
            slightly_off.validate_schedule(tolerance=0.0)
        slightly_off.validate_schedule(tolerance=0.01)


class TestLaneRoles:
    """The per-role table answers every per-program question as the
    per-lane loops over the assignment did."""

    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_roles_answer_as_the_lane_loop(self, workload):
        mapping = workload.build(default_architecture(256, 256))
        include = mapping.architecture.presets_output
        extra = mapping.architecture.writes_per_gate - 1
        programs = list(mapping.assignment.values())
        assert mapping.roles is mapping.roles  # built once
        assert sorted(
            lane for _, lanes in mapping.roles.values() for lane in lanes
        ) == sorted(mapping.assignment)
        for key, (program, lanes) in mapping.roles.items():
            assert key == id(program)
            assert not lanes.flags.writeable
            assert all(mapping.assignment[lane] is program for lane in lanes)
        assert mapping.distinct_programs() == list(
            {id(p): p for p in programs}.values()
        )
        assert mapping.writes_per_iteration == float(
            sum(p.write_counts(include_presets=include).sum() for p in programs)
        )
        assert mapping.reads_per_iteration == float(
            sum(p.read_counts().sum() for p in programs)
        )
        assert mapping.lane_work() == float(
            sum(p.sequential_ops + p.gate_count * extra for p in programs)
        )
        loads = np.zeros(mapping.architecture.lane_count)
        for lane, program in mapping.assignment.items():
            loads[lane] = program.write_counts(include_presets=include).sum()
        assert np.array_equal(mapping.lane_loads(), loads)

    def test_overcommitted_lane_reports_as_before(self):
        # Roles of different lengths in a shuffled assignment order,
        # under a budget only the longer roles overrun: the validator
        # names the first offending lane in assignment order, the
        # diagnostic the lowest.
        mapping = DotProduct(n_elements=64, bits=8).build(
            default_architecture(256, 256)
        )
        slots = mapping.architecture.writes_per_gate

        def lane_ops(program):
            return program.sequential_ops + program.gate_count * (slots - 1)

        ops = sorted({lane_ops(p) for p in mapping.distinct_programs()})
        assert len(ops) > 2
        budget = ops[len(ops) // 2]
        items = list(mapping.assignment.items())
        order = items[1::2] + items[::2][::-1]
        broken = WorkloadMapping(
            workload_name=mapping.workload_name,
            architecture=mapping.architecture,
            assignment=dict(order),
            phases=[Phase("squeezed", budget, 0)],
        )
        first = next(
            lane for lane, program in order if lane_ops(program) > budget
        )
        lowest = min(
            lane for lane, program in order if lane_ops(program) > budget
        )
        assert first != lowest
        with pytest.raises(ValueError, match=f"^lane {first} performs"):
            broken.validate_schedule(tolerance=1.0)
        (diagnostic,) = [
            d for d in check_schedule(broken) if "sequential" in d.message
        ]
        assert diagnostic.message == (
            f"lane {lowest} performs "
            f"{lane_ops(broken.assignment[lowest])} ops but the schedule "
            f"has only {budget} sequential slots"
        )
        assert diagnostic.location.place == f"lane {lowest}"
