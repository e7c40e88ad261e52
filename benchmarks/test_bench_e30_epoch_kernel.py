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
from tests and benchmarks) on two lane layouts: ``mult`` runs one
program on every lane, so the kernel's reference-set GEMV covers the
whole array and no GEMM runs; ``conv`` runs two programs, so its smaller
lane set pays one signed GEMM per chunk. Each must be at least 10x
faster than the oracle and produce the exact same counters. A
timing-free identity check (``test_bench_e30_epoch_kernel_identity``)
runs the same equivalence on both layouts at a CI-sized horizon, plus a
trace-like layout — three programs on 4 of 1,024 lanes under
``trace-sweep``'s ``StxSt``, ``RaxRa`` and ``BsxBs`` — whose every GEMM
runs lane-compact, over only the lanes its set touches.

A third row times the kernel's fast-forward branch, taken automatically
on every configuration periodic on both axes: on ``Bs x Bs`` at
``recompile_interval=1`` the per-lane wear delta repeats with period
``lcm(lane period, between period)``, so a 1M-iteration 8-bit ``mult``
horizon (256x64) collapses to one weighted GEMM over one period block.
It must be bit-identical to the oracle and at least 100x faster, its
counters must conserve the closed-form total (iterations x writes per
iteration, the Bitlet-style litmus the fleet's capacity model uses),
and a second run must serve every workspace from the process scratch
pool (hits, no fresh allocations). The identity check covers this
layout too, at 5,000 iterations.

Beyond the plain-text artifact this benchmark writes a machine-readable
``BENCH_E30.json`` (configuration, iterations/second on each path,
speedup, GEMMs per run) so downstream tooling can track the ratio over
time.
"""

import json
import time

import numpy as np

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.kernel import epoch_lengths, fastforward_period
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads.convolution import Convolution
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication

#: Floored like E29: the speedup is an asymptotic claim about per-epoch
#: overhead, and a toy horizon would mostly time simulator setup.
MIN_ITERATIONS = 20_000

#: The fast-forward row's horizon: its 100x claim is about collapsing
#: a long horizon, and a short one would mostly time set-up.
FASTFORWARD_ITERATIONS = 1_000_000
#: The fast-forward row's layout: 8-bit ``mult`` on 256x64, ``BsxBs``
#: recompiled every iteration.
FASTFORWARD_ARCH = default_architecture(256, 64)
FASTFORWARD_CONFIG = BalanceConfig.from_label("BsxBs", recompile_interval=1)


def _iterations() -> int:
    return max(bench_iterations(MIN_ITERATIONS), MIN_ITERATIONS)


def _run(iterations, workload, *, oracle, arch=None, config=None):
    """``(result, seconds, kernel.gemms, kernel.compact_gemms)`` of one
    run (``RaxRa`` at interval 1 unless ``config`` says otherwise)."""
    simulator = EnduranceSimulator(
        arch or default_architecture(), SimulationSettings(seed=7)
    )
    path = simulator._run_epoch_loop if oracle else simulator.run
    config = config or BalanceConfig.from_label("RaxRa", recompile_interval=1)
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        start = time.perf_counter()
        result = path(workload, config, iterations)
        seconds = time.perf_counter() - start
    finally:
        set_telemetry(previous)
    return result, seconds, fresh.counters.get("kernel.gemms", 0), (
        fresh.counters.get("kernel.compact_gemms", 0)
    )


def _assert_identical(batched, sequential, iterations):
    assert np.array_equal(
        batched.state.write_counts, sequential.state.write_counts
    )
    assert np.array_equal(
        batched.state.read_counts, sequential.state.read_counts
    )
    assert batched.epochs == sequential.epochs == iterations


def test_bench_e30_epoch_kernel_identity():
    """Timing-free CI gate: kernel == per-epoch oracle, bit for bit, with
    one program on every lane (no GEMM), with two (signed GEMMs), and
    with a trace-like few-lane layout (lane-compact GEMMs)."""
    arch = default_architecture(256, 64)
    for workload, gemms in (
        (ParallelMultiplication(bits=8), 0),
        (Convolution(), 2 * 2),  # 2 chunks x (writes, reads)
    ):
        batched, _, batched_gemms, compact = _run(
            2_000, workload, oracle=False, arch=arch
        )
        sequential, *_ = _run(2_000, workload, oracle=True, arch=arch)
        _assert_identical(batched, sequential, 2_000)
        assert (batched_gemms, compact) == (gemms, 0)
    few_lanes = default_architecture(64, 1024)
    for label in ("StxSt", "RaxRa", "BsxBs"):
        config = BalanceConfig.from_label(label)
        batched, _, batched_gemms, compact = _run(
            2_000, DotProduct(n_elements=4, bits=8), oracle=False,
            arch=few_lanes, config=config,
        )
        sequential, *_ = _run(
            2_000, DotProduct(n_elements=4, bits=8), oracle=True,
            arch=few_lanes, config=config,
        )
        _assert_identical(
            batched, sequential, epoch_lengths(config, 2_000).size
        )
        # Three program sets x (writes, reads), every one compact.
        assert batched_gemms == compact == 3 * 2, label
    fast, *_ = _run(
        5_000, ParallelMultiplication(bits=8), oracle=False,
        arch=FASTFORWARD_ARCH, config=FASTFORWARD_CONFIG,
    )
    slow, *_ = _run(
        5_000, ParallelMultiplication(bits=8), oracle=True,
        arch=FASTFORWARD_ARCH, config=FASTFORWARD_CONFIG,
    )
    _assert_identical(fast, slow, 5_000)


def _fastforward_row():
    """The fast-forward row: timings, conservation and the warm pool."""
    iterations = max(
        bench_iterations(FASTFORWARD_ITERATIONS), FASTFORWARD_ITERATIONS
    )
    workload = ParallelMultiplication(bits=8)
    fast, fast_s, *_ = _run(
        iterations, workload, oracle=False, arch=FASTFORWARD_ARCH,
        config=FASTFORWARD_CONFIG,
    )
    slow, slow_s, *_ = _run(
        iterations, workload, oracle=True, arch=FASTFORWARD_ARCH,
        config=FASTFORWARD_CONFIG,
    )
    _assert_identical(fast, slow, iterations)
    mapping = workload.build(FASTFORWARD_ARCH)
    predicted = float(mapping.writes_per_iteration * iterations)
    assert fast.state.total_writes == predicted

    # The second run on the same shapes reuses every pooled workspace.
    _run(20_000, workload, oracle=False, arch=FASTFORWARD_ARCH,
         config=FASTFORWARD_CONFIG)
    hits, misses = POOL.hits, POOL.misses
    _run(20_000, workload, oracle=False, arch=FASTFORWARD_ARCH,
         config=FASTFORWARD_CONFIG)
    assert POOL.hits > hits, "second run should serve scratch from the pool"
    assert POOL.misses == misses, "second run allocated scratch"
    return iterations, {
        "workload": "mult-8b",
        "config": "BsxBs",
        "recompile_interval": 1,
        "iterations": iterations,
        "architecture": {
            "rows": FASTFORWARD_ARCH.geometry.rows,
            "cols": FASTFORWARD_ARCH.geometry.cols,
        },
        "period": fastforward_period(
            FASTFORWARD_CONFIG,
            FASTFORWARD_ARCH.lane_size,
            FASTFORWARD_ARCH.lane_count,
        ),
        "epoch_kernel": {
            "seconds": round(slow_s, 4),
            "iterations_per_second": round(iterations / slow_s, 1),
        },
        "batched_kernel": {
            "seconds": round(fast_s, 4),
            "iterations_per_second": round(iterations / fast_s, 1),
        },
        "speedup": round(slow_s / fast_s, 2),
        "throughput_model_writes": predicted,
        "warm_pool_hits": POOL.hits - hits,
    }


def test_bench_e30_epoch_kernel_speedup(record, results_dir):
    iterations = _iterations()
    arch = default_architecture()
    rows = {}
    for name, workload in (
        ("mult-32b", ParallelMultiplication(bits=32)),
        ("conv", Convolution()),
    ):
        batched, batched_s, gemms, _ = _run(
            iterations, workload, oracle=False
        )
        sequential, sequential_s, *_ = _run(
            iterations, workload, oracle=True
        )
        _assert_identical(batched, sequential, iterations)
        rows[name] = {
            "epoch_kernel": {
                "seconds": round(sequential_s, 4),
                "iterations_per_second": round(iterations / sequential_s, 1),
            },
            "batched_kernel": {
                "seconds": round(batched_s, 4),
                "iterations_per_second": round(iterations / batched_s, 1),
            },
            "speedup": round(sequential_s / batched_s, 2),
            "kernel_gemms": gemms,
        }

    ff_iterations, fastforward = _fastforward_row()

    mult = rows["mult-32b"]
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
        **mult,
        "conv": {"workload": "conv", **rows["conv"]},
        "fastforward": fastforward,
        "bit_identical": True,
    }
    (results_dir / "BENCH_E30.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E30 epoch kernel, RaxRa interval=1 ({iterations} iterations, "
        f"{arch.geometry.rows}x{arch.geometry.cols})"
    ]
    for name, row in rows.items():
        oracle_s = row["epoch_kernel"]["seconds"]
        kernel_s = row["batched_kernel"]["seconds"]
        lines += [
            f"  {name}",
            f"    per-epoch oracle {oracle_s:8.2f} s  "
            f"({iterations / oracle_s:10.0f} iter/s)",
            f"    epoch kernel     {kernel_s:8.2f} s  "
            f"({iterations / kernel_s:10.0f} iter/s, "
            f"{row['kernel_gemms']} GEMMs)",
            f"    speedup          {row['speedup']:8.1f}x",
        ]
    oracle_s = fastforward["epoch_kernel"]["seconds"]
    kernel_s = fastforward["batched_kernel"]["seconds"]
    lines += [
        f"  fast-forward: mult-8b BsxBs interval=1 ({ff_iterations} "
        f"iterations, 256x64, period {fastforward['period']} epochs)",
        f"    per-epoch oracle {oracle_s:8.2f} s  "
        f"({ff_iterations / oracle_s:10.0f} iter/s)",
        f"    fast-forward     {kernel_s:8.4f} s  "
        f"({ff_iterations / kernel_s:10.0f} iter/s)",
        f"    speedup          {fastforward['speedup']:8.0f}x",
        f"    conserves {fastforward['throughput_model_writes']:.0f} writes "
        "(iterations x writes/iteration, exact)",
        f"    warm pool rerun: {fastforward['warm_pool_hits']} pooled-buffer "
        "hits, no allocations",
        "  results bit-identical: yes",
    ]
    record("E30_epoch_kernel", "\n".join(lines))

    for name, row in rows.items():
        assert row["speedup"] >= 10.0, (
            f"{name}: epoch kernel only {row['speedup']:.2f}x faster than "
            f"the per-epoch oracle ({row['batched_kernel']['seconds']:.2f}s "
            f"vs {row['epoch_kernel']['seconds']:.2f}s)"
        )
    assert fastforward["speedup"] >= 100.0, (
        f"fast-forward only {fastforward['speedup']:.1f}x faster than the "
        f"per-epoch oracle ({kernel_s:.4f}s vs {oracle_s:.2f}s)"
    )
