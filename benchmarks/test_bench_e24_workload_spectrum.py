"""E24 — extension: the full workload endurance spectrum.

The paper's three case studies "cover extreme ends of potential
computations" (Section 4). With the additional kernels this reproduction
implements (vector add, BNN neuron, matrix-vector product) the spectrum
fills in: writes per useful result span ~4 orders of magnitude, and so do
the operations-before-failure lifetimes on the same devices.
"""

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.bnn import BinaryNeuron
from repro.workloads.convolution import Convolution
from repro.workloads.dotproduct import DotProduct
from repro.workloads.matvec import MatrixVectorProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.vectoradd import VectorAdd

from conftest import bench_iterations


def test_bench_e24_workload_spectrum(benchmark, record):
    architecture = default_architecture()
    workloads = [
        VectorAdd(bits=32),
        BinaryNeuron(n_inputs=128),
        Convolution(),
        MatrixVectorProduct(elements_per_row=64, bits=8),
        ParallelMultiplication(bits=32),
        DotProduct(n_elements=1024, bits=32),
    ]
    iterations = bench_iterations(500)

    def run_all():
        out = {}
        for workload in workloads:
            simulator = EnduranceSimulator(
                architecture,
                settings=SimulationSettings(seed=7, track_reads=False),
            )
            result = simulator.run(workload, BalanceConfig(), iterations)
            out[workload.name] = (
                result.mapping,
                lifetime_from_result(result),
            )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (mapping, estimate) in results.items():
        rows.append(
            (
                name,
                f"{mapping.writes_per_iteration:.3e}",
                f"{mapping.sequential_ops}",
                f"{mapping.lane_utilization:.1%}",
                f"{estimate.iterations_to_failure:.2e}",
                f"{estimate.days_to_failure:.1f}",
            )
        )
    record(
        "E24_workload_spectrum",
        format_table(
            ["Workload", "Writes/iter (array)", "Seq. ops/iter",
             "Lane util", "Iterations to failure", "Days"],
            rows,
            title="E24: the endurance spectrum across six kernels",
        ),
    )

    iters = {
        name: est.iterations_to_failure
        for name, (_, est) in results.items()
    }
    # Cheap kernels complete many more iterations before wear-out. (The
    # ratios are set by the hottest cell, not totals: the ring spreads the
    # add's 568 writes so thin that its peak is ~2/cell vs the multiply's
    # ~22/cell.)
    assert iters["vector-add-32b"] > 8 * iters["multiplication-32b"]
    assert iters["bnn-neuron-128"] > 3 * iters["multiplication-32b"]
    # The dot product (reduction + idle lanes) is gentler per iteration
    # than the all-lane multiply but each iteration is slower.
    mult_days = results["multiplication-32b"][1].days_to_failure
    for name, (_, est) in results.items():
        # Everything lands inside Eq. 2's perfect-balance envelope.
        assert est.days_to_failure < 36.0
    assert results["dot-product-1024x32b"][1].days_to_failure > mult_days
