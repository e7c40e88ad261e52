"""The docs/tutorial.md walkthrough must actually work as written."""

import pytest

from repro import (
    BalanceConfig,
    EnduranceSimulator,
    SimulationSettings,
    configuration_grid,
    default_architecture,
    failure_timeline,
    lifetime_from_result,
    minimum_footprint,
    technology_sweep,
)
from repro.core.io import load_result, save_result
from repro.core.switching import measure_switching
from repro.core.system import lifetime_at_duty_cycle
from repro.devices.endurance import LognormalEndurance
from repro.devices.technology import MRAM, PCM, RRAM
from repro.synth.adders import ripple_carry_add
from repro.synth.bits import AllocationPolicy
from repro.synth.multiplier import multiply
from repro.synth.program import LaneProgramBuilder
from repro.workloads.base import Phase, Workload, WorkloadMapping


def _build_fma_program(architecture, bits=8):
    builder = LaneProgramBuilder(
        architecture.library,
        capacity=architecture.lane_size - 1,
        name=f"fma{bits}",
        policy=AllocationPolicy.RING,
    )
    a = builder.input_vector("a", bits)
    b = builder.input_vector("b", bits)
    c = builder.input_vector("c", 2 * bits)
    product = multiply(builder, a, b)
    total = ripple_carry_add(builder, product, c, free_inputs=True)
    builder.mark_output("d", total)
    builder.read_out(total, tag="d")
    return builder.finish()


class FusedMultiplyAdd(Workload):
    """The tutorial's custom workload (scaled to 8 bits for test speed)."""

    name = "fma-8b"

    def __init__(self, bits=8):
        self.bits = bits
        self.allocation_policy = AllocationPolicy.RING

    def build(self, architecture):
        program = _build_fma_program(architecture, self.bits)
        lanes = architecture.lane_count
        slots = architecture.writes_per_gate
        return WorkloadMapping(
            workload_name=self.name,
            architecture=architecture,
            assignment={lane: program for lane in range(lanes)},
            phases=[
                Phase("load", 4 * self.bits, lanes),
                Phase("compute", program.gate_count * slots, lanes),
                Phase("read-out", 2 * self.bits + 1, lanes),
            ],
        )


@pytest.fixture(scope="module")
def arch():
    return default_architecture(128, 64)


class TestTutorialFlow:
    def test_step1_program_computes_fma(self, arch):
        program = _build_fma_program(arch)
        outputs, _ = program.evaluate({"a": 123, "b": 45, "c": 678})
        assert outputs["d"] == 123 * 45 + 678

    def test_step3_simulation_and_balancing(self, arch):
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=42))
        workload = FusedMultiplyAdd()
        static = sim.run(workload, BalanceConfig(), iterations=200)
        balanced = sim.run(
            workload,
            BalanceConfig.from_label("RaxSt+Hw").with_interval(50),
            iterations=200,
        )
        assert "fma-8b" in static.write_distribution.summary()
        assert (
            lifetime_from_result(balanced).days_to_failure
            >= lifetime_from_result(static).days_to_failure
        )

    def test_step3_grid(self, arch):
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=42))
        entries = configuration_grid(
            sim,
            FusedMultiplyAdd(),
            iterations=100,
            configs=[BalanceConfig(), BalanceConfig.from_label("RaxRa")],
        )
        assert len(entries) == 2

    def test_step4_deeper_questions(self, arch):
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=42))
        workload = FusedMultiplyAdd()
        result = sim.run(workload, BalanceConfig(), iterations=200)
        sweep = technology_sweep(result, [MRAM, RRAM, PCM])
        assert sweep["MRAM"].days_to_failure > sweep["PCM"].days_to_failure

        required = minimum_footprint(workload, arch)
        timeline = failure_timeline(
            result,
            required,
            endurance_model=LognormalEndurance(
                MRAM.endurance_writes, 0.4, rng=0
            ),
        )
        assert timeline.extension_factor >= 1.0

        profile = measure_switching(
            _build_fma_program(arch), samples=8, rng=0
        )
        assert 0 < profile.switch_fraction < 1

        embedded = lifetime_at_duty_cycle(lifetime_from_result(result), 0.01)
        assert embedded.seconds_to_failure == pytest.approx(
            100 * lifetime_from_result(result).seconds_to_failure
        )

    def test_step5_persistence(self, arch, tmp_path):
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=42))
        result = sim.run(FusedMultiplyAdd(), BalanceConfig(), iterations=50)
        path = str(tmp_path / "fma.result")
        save_result(result, path)
        restored = load_result(path)
        assert restored.write_distribution.max == result.write_distribution.max
