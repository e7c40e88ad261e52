"""Design-space tour: the reproduction's extensions in one pass.

Walks the levers the paper's conclusion points at, quantified with this
library's extension modules:

1. gate fabric — a majority-gate (CRAM-style) full adder halves the
   writes per multiplication versus NAND;
2. multiplier structure — a true Dadda tree ties the array on gates but
   cannot fit a 1024-bit lane at 32 bits;
3. data-dependent switching — only ~half of all writes actually flip a
   cell on random operands;
4. fault-aware repacking — with per-cell endurance spread, remapping
   around dead offsets outlives the first-cell-failure horizon;
5. deployment — duty cycles and array farms turn one Eq. 4 number into
   embedded-vs-server lifetimes.

Run:
    python examples/design_space_tour.py
"""

from dataclasses import replace

from repro import (
    BalanceConfig,
    EnduranceSimulator,
    ParallelMultiplication,
    SimulationSettings,
    default_architecture,
    failure_timeline,
    lifetime_from_result,
    minimum_footprint,
)
from repro.core.switching import measure_switching
from repro.core.system import ArrayFarm, lifetime_at_duty_cycle
from repro.devices.endurance import LognormalEndurance
from repro.devices.technology import MRAM
from repro.gates.library import MAJ_LIBRARY, NAND_LIBRARY
from repro.synth.multiplier import multiply
from repro.synth.multiplier_tree import tree_multiply
from repro.synth.program import LaneProgramBuilder

ITERATIONS = 500


def _program(library, width, factory):
    builder = LaneProgramBuilder(library)
    a = builder.input_vector("a", width)
    b = builder.input_vector("b", width)
    factory(builder, a, b)
    return builder.finish()


def main() -> None:
    architecture = default_architecture()
    workload = ParallelMultiplication(bits=32)

    print("1) Gate fabric: writes per 32-bit multiplication")
    for library in (NAND_LIBRARY, MAJ_LIBRARY):
        program = _program(library, 32, multiply)
        print(f"   {library.name:8s} {program.gate_count} gates "
              f"({program.gate_count / 9824:.2f}x the NAND count)")

    print("\n2) Multiplier structure: gates tie, workspace does not")
    array32 = _program(NAND_LIBRARY, 32, multiply)
    tree32 = _program(NAND_LIBRARY, 32, tree_multiply)
    print(f"   array: {array32.gate_count} gates, {array32.footprint} bits")
    print(f"   tree:  {tree32.gate_count} gates, {tree32.footprint} bits "
          f"(> {architecture.lane_size}-bit lane: does not fit)")

    print("\n3) Data-dependent switching (random operands)")
    profile = measure_switching(
        ParallelMultiplication(bits=16).build_program(architecture),
        samples=32, rng=0,
    )
    print(f"   switch fraction {profile.switch_fraction:.1%}; switch-only "
          f"endurance model buys {profile.lifetime_factor:.2f}x")

    print("\n4) Fault-aware repacking (lognormal endurance, sigma 0.5)")
    simulator = EnduranceSimulator(
        architecture, settings=SimulationSettings(seed=3, track_reads=False)
    )
    result = simulator.run(
        workload, BalanceConfig.from_label("RaxSt+Hw"), iterations=ITERATIONS
    )
    required = minimum_footprint(workload, architecture)
    timeline = failure_timeline(
        result, required_offsets=required,
        endurance_model=LognormalEndurance(
            MRAM.endurance_writes, sigma=0.5, rng=0
        ),
    )
    print(f"   first failure at {timeline.first_failure_iterations:.2e} "
          f"iterations; unusable at {timeline.unusable_iterations:.2e} "
          f"({timeline.extension_factor:.2f}x extension)")

    print("\n5) Deployment")
    estimate = lifetime_from_result(result)
    embedded = lifetime_at_duty_cycle(estimate, 0.01)
    print(f"   full utilization: {estimate.days_to_failure:.1f} days; "
          f"1% duty cycle: {embedded.years_to_failure:.1f} years")
    farm = ArrayFarm(1024, sigma=0.25, rng=0)
    horizon = farm.replacement_horizon(estimate, failure_fraction=0.05)
    print(f"   1024-array server: replace after {horizon.horizon_days:.1f} "
          f"days (5% of arrays dead)")


if __name__ == "__main__":
    main()
