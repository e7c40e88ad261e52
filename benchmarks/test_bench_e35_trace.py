"""E35 — trace-driven workload frontend: GEMV trace on the 9-strategy grid.

Not a paper figure — an infrastructure benchmark for the
``repro.workloads.trace`` frontend. The bundled PIMulator-style GEMV
capture (16x16 matrix, 8-bit operands) is parsed, lowered to gate
programs through the NAND library, statically verified, and then scored
across the full within x between strategy grid (St/Ra/Bs on both axes,
9 configurations) exactly like the hand-built kernels in Fig. 17.

The benchmark asserts the qualitative endurance story carries over to
trace-derived workloads — every balanced configuration beats the static
StxSt baseline — and writes ``E35_trace_gemv.txt`` plus
machine-readable ``BENCH_E35.json`` (trace shape, lowering stats,
per-configuration lifetime improvements, runtime) so downstream tooling
can track the trace frontend over time.
"""

import json
import time

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_improvement
from repro.core.settings import SimulationSettings
from repro.core import simulator
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.verify import verify_mapping
from repro.workloads.trace import load_gemv_fixture

ROWS, COLS = 256, 64
STRATEGIES = ("St", "Ra", "Bs")
GRID = tuple(
    f"{within}x{between}" for within in STRATEGIES for between in STRATEGIES
)


def test_bench_e35_trace_gemv_grid(record, results_dir, monkeypatch):
    iterations = max(bench_iterations(2_000), 200)
    arch = default_architecture(ROWS, COLS)
    workload = load_gemv_fixture()

    # A cold mapping memo: the timed build below is the one every grid
    # run then reuses, so the grid time holds no second lowering.
    monkeypatch.setattr(simulator, "_MAPPINGS", type(simulator._MAPPINGS)())
    start = time.perf_counter()
    mapping = mapping_for(workload, arch)  # lower + static verify
    lower_s = time.perf_counter() - start

    # The static pass must be clean for every grid config before any
    # simulation is trusted.
    for label in GRID:
        report = verify_mapping(mapping, BalanceConfig.from_label(label))
        assert report.ok, f"{label}: {report.render_text()}"

    start = time.perf_counter()
    results = {}
    for label in GRID:
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=7))
        results[label] = sim.run(
            workload, BalanceConfig.from_label(label), iterations
        )
    sim_s = time.perf_counter() - start

    baseline = results["StxSt"]
    improvements = {
        label: lifetime_improvement(result, baseline)
        for label, result in results.items()
    }
    best_label = max(improvements, key=improvements.get)

    payload = {
        "experiment": "E35_trace_gemv",
        "trace": {
            "fixture": "gemv16x16x8.trace",
            "hash": workload.trace_hash,
            "instructions": len(workload.instructions),
            "bits": workload.bits,
            "policy": workload.policy,
        },
        "lowering": {
            "rows": ROWS,
            "cols": COLS,
            "lanes_used": len(mapping.assignment),
            "lane_count": arch.lane_count,
            "writes_per_iteration": mapping.writes_per_iteration,
            "lane_utilization": round(mapping.lane_utilization, 4),
            "seconds": round(lower_s, 4),
        },
        "grid": {
            "iterations": iterations,
            "seed": 7,
            "seconds": round(sim_s, 4),
            "improvement_vs_StxSt": {
                label: round(improvements[label], 3) for label in GRID
            },
            "best": best_label,
        },
    }
    (results_dir / "BENCH_E35.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E35 trace frontend, bundled GEMV 16x16x8 on {ROWS}x{COLS} "
        f"({iterations} iterations, seed 7)",
        f"  lowered {len(workload.instructions)} trace instructions onto "
        f"{len(mapping.assignment)}/{arch.lane_count} lanes in "
        f"{lower_s:.2f} s (verify clean on all {len(GRID)} configs)",
        f"  writes/iteration {mapping.writes_per_iteration:.0f}, "
        f"utilization {mapping.lane_utilization:.4f}",
        "  lifetime improvement vs StxSt:",
    ]
    for label in GRID:
        marker = "  <-- best" if label == best_label else ""
        lines.append(f"    {label:6s} {improvements[label]:6.2f}x{marker}")
    record("E35_trace_gemv", "\n".join(lines))

    assert improvements["StxSt"] == 1.0
    for label in GRID:
        if label != "StxSt":
            assert improvements[label] >= 1.0, (
                f"{label} must not be worse than the static baseline, got "
                f"{improvements[label]:.3f}x"
            )
