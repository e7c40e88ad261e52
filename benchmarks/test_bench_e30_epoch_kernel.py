"""E30 — the epoch kernel: chunked GEMM vs the per-epoch oracle.

Not a paper figure — an infrastructure benchmark for the epoch kernel
(``repro.core.kernel``). The worst case for the sequential loop is
``Ra x Ra`` at ``recompile_interval=1``: a fresh pair of random
permutations and a full outer-product accumulation every single
iteration, with no periodic axis for the kernel to fold. The kernel
accumulates whole chunks of epochs as one scatter plus one GEMM, so the
per-epoch Python and allocation overhead amortizes away while the
results stay bit-identical.

The production path (``EnduranceSimulator.run``) is timed against the
per-epoch oracle (``EnduranceSimulator._run_epoch_loop``, reachable only
from tests and benchmarks) on the same configuration; it must be at
least 10x faster and produce the exact same counters. A timing-free
identity check (``test_bench_e30_epoch_kernel_identity``) runs the same
equivalence at a CI-sized horizon. Beyond the plain-text artifact this
benchmark writes a machine-readable ``BENCH_E30.json`` (configuration,
iterations/second on each path, speedup) so downstream tooling can track
the ratio over time.
"""

import json
import time

import numpy as np

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication

#: Floored like E29: the speedup is an asymptotic claim about per-epoch
#: overhead, and a toy horizon would mostly time simulator setup.
MIN_ITERATIONS = 20_000


def _iterations() -> int:
    return max(bench_iterations(MIN_ITERATIONS), MIN_ITERATIONS)


def _run(iterations, *, oracle, arch=None, bits=32):
    simulator = EnduranceSimulator(
        arch or default_architecture(), SimulationSettings(seed=7)
    )
    path = simulator._run_epoch_loop if oracle else simulator.run
    workload = ParallelMultiplication(bits=bits)
    config = BalanceConfig.from_label("RaxRa", recompile_interval=1)
    start = time.perf_counter()
    result = path(workload, config, iterations)
    return result, time.perf_counter() - start


def test_bench_e30_epoch_kernel_identity():
    """Timing-free CI gate: kernel == per-epoch oracle, bit for bit."""
    arch = default_architecture(256, 64)
    batched, _ = _run(2_000, oracle=False, arch=arch, bits=8)
    sequential, _ = _run(2_000, oracle=True, arch=arch, bits=8)
    assert np.array_equal(
        batched.state.write_counts, sequential.state.write_counts
    )
    assert np.array_equal(
        batched.state.read_counts, sequential.state.read_counts
    )
    assert batched.epochs == sequential.epochs == 2_000


def test_bench_e30_epoch_kernel_speedup(record, results_dir):
    iterations = _iterations()
    batched, batched_s = _run(iterations, oracle=False)
    sequential, sequential_s = _run(iterations, oracle=True)

    assert np.array_equal(
        batched.state.write_counts, sequential.state.write_counts
    )
    assert np.array_equal(
        batched.state.read_counts, sequential.state.read_counts
    )
    assert batched.epochs == sequential.epochs == iterations

    speedup = sequential_s / batched_s
    arch = default_architecture()
    payload = {
        "experiment": "E30_epoch_kernel",
        "workload": "mult-32b",
        "config": "RaxRa",
        "recompile_interval": 1,
        "iterations": iterations,
        "architecture": {
            "name": arch.name,
            "rows": arch.geometry.rows,
            "cols": arch.geometry.cols,
        },
        "seed": 7,
        "epoch_kernel": {
            "seconds": round(sequential_s, 4),
            "iterations_per_second": round(iterations / sequential_s, 1),
        },
        "batched_kernel": {
            "seconds": round(batched_s, 4),
            "iterations_per_second": round(iterations / batched_s, 1),
        },
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    (results_dir / "BENCH_E30.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E30 epoch kernel, mult-32b RaxRa interval=1 "
        f"({iterations} iterations, {arch.geometry.rows}x"
        f"{arch.geometry.cols})",
        f"  per-epoch oracle {sequential_s:8.2f} s  "
        f"({iterations / sequential_s:10.0f} iter/s)",
        f"  epoch kernel     {batched_s:8.2f} s  "
        f"({iterations / batched_s:10.0f} iter/s)",
        f"  speedup          {speedup:8.1f}x",
        "  results bit-identical: yes",
    ]
    record("E30_epoch_kernel", "\n".join(lines))

    assert speedup >= 10.0, (
        f"epoch kernel only {speedup:.2f}x faster than the per-epoch "
        f"oracle ({batched_s:.2f}s vs {sequential_s:.2f}s)"
    )
