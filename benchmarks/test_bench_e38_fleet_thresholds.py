"""E38 — fleet death thresholds: one inverse-survival draw per array.

Not a paper figure — an infrastructure benchmark for
:meth:`repro.fleet.Population.death_thresholds`. On the benchmark's
``fleet-year`` fleet shape (2,048 MRAM/PCM arrays, ``add`` and ``conv``
cohorts calibrated at 128x128, lognormal sigma 0.3) it times two ways
to give every array its first-failure threshold:

1. the per-cell oracle — draw 16,384 lognormal budgets per array from
   its ``(seed, BUDGET_STREAM, array)`` stream and take
   :func:`repro.core.failure.failure_timeline`'s first failure, which
   is what ``death_thresholds`` did before the sampler;
2. the inverse-survival sampler — one ``random()`` per array inverted
   through the cohort's tabulated survival function.

The two must agree in distribution: per (cohort, technology), the
two-sample KS statistic stays below its 1% critical value.

It also times the sampler's uniforms alone: one ``default_rng`` per
array (``Population._budget_rng``, the oracle) against the vectorized
``_budget_uniforms``, which must return the same values bit for bit.

The payload also carries the end-to-end ``fleet-year`` ``wall_s``
medians measured with ``perfbench/run.py`` for both changes, each
against its parent commit (see ``docs/performance.md``), so the
trajectory keeps the whole-campaign figures beside the layer figures
measured here.
"""

import json
import math
import time

import numpy as np

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.failure import failure_timeline
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.fleet import CohortSpec, Population, PopulationSpec
from repro.fleet import thresholds as thresholds_module
from repro.fleet.population import _budget_uniforms

N_ARRAYS = 2048
SIGMA = 0.3
SEED = 1
COHORTS = ("add", "conv")

#: ``perfbench/run.py --workload fleet-year`` ``wall_s`` medians over
#: 10 pairs run in alternating order on a 2-core container, each change
#: against its parent commit: the inverse-survival sampler
#: (``--seconds 20``, seeds 121-130) and the vectorized budget streams
#: with scalar interleaving (``--seconds 30``, seeds 521-530).
PERFBENCH_FLEET_YEAR_WALL_S = {
    "order_statistic": {"parent": 3.81, "change": 0.52},
    "vector_streams": {"parent": 0.45, "change": 0.25},
}


def _population() -> Population:
    return Population.build(
        PopulationSpec(
            n_arrays=N_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=tuple(CohortSpec(name) for name in COHORTS),
            endurance_sigma=SIGMA,
        )
    )


def _ks(a, b) -> float:
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return float(
        np.abs(
            np.searchsorted(a, points, side="right") / len(a)
            - np.searchsorted(b, points, side="right") / len(b)
        ).max()
    )


def test_bench_e38_fleet_thresholds(record, results_dir):
    architecture = default_architecture(128, 128)
    results = [
        EnduranceSimulator(
            architecture, settings=SimulationSettings(seed=SEED)
        ).run(
            CohortSpec(name).build_workload(), BalanceConfig(), 2000
        )
        for name in COHORTS
    ]
    population = _population()

    # Time the tables' build too: another benchmark in this process may
    # have left them in the content-keyed memo.
    thresholds_module._TABLES.clear()
    start = time.perf_counter()
    sampled = population.death_thresholds(results, seed=SEED)
    sampler_s = time.perf_counter() - start

    start = time.perf_counter()
    oracle = np.array(
        [
            failure_timeline(
                results[int(population.cohort_index[array])],
                required_offsets=1,
                endurance_model=population.endurance_model_for(array, SEED),
            ).first_failure_iterations
            for array in range(N_ARRAYS)
        ]
    )
    oracle_s = time.perf_counter() - start

    ks = {}
    critical = {}
    for cohort, name in enumerate(COHORTS):
        for tech, technology in enumerate(population.technologies):
            members = (population.cohort_index == cohort) & (
                population.technology_index == tech
            )
            key = f"{name}/{technology.name}"
            ks[key] = round(_ks(sampled[members], oracle[members]), 4)
            n = int(members.sum())
            critical[key] = round(1.628 * math.sqrt(2.0 / n), 4)
    speedup = oracle_s / sampler_s

    # The sampler's uniforms: a generator per array against one pass.
    arrays = np.arange(N_ARRAYS)
    start = time.perf_counter()
    per_array = np.stack(
        [Population._budget_rng(array, SEED).random(1) for array in arrays]
    )
    per_array_s = time.perf_counter() - start
    start = time.perf_counter()
    vectorized = _budget_uniforms(SEED, arrays, 1)
    vectorized_s = time.perf_counter() - start
    streams_identical = bool(
        np.array_equal(per_array.view(np.uint64), vectorized.view(np.uint64))
    )
    streams_speedup = per_array_s / vectorized_s

    payload = {
        "experiment": "E38_fleet_thresholds",
        "fleet": {
            "arrays": N_ARRAYS,
            "cohorts": [f"{name}-StxSt" for name in COHORTS],
            "technology_mix": ["MRAM", "PCM"],
            "endurance_sigma": SIGMA,
            "rows": 128,
            "cols": 128,
            "cohort_iterations": 2000,
            "seed": SEED,
        },
        "per_cell_oracle": {
            "seconds": round(oracle_s, 4),
            "arrays_per_second": round(N_ARRAYS / oracle_s, 1),
        },
        "inverse_survival": {
            "seconds": round(sampler_s, 4),
            "arrays_per_second": round(N_ARRAYS / sampler_s, 1),
        },
        "speedup": round(speedup, 2),
        "ks_statistic": ks,
        "ks_critical_1pct": critical,
        "budget_streams": {
            "per_array_generators": {
                "seconds": round(per_array_s, 5),
                "arrays_per_second": round(N_ARRAYS / per_array_s, 1),
            },
            "vectorized": {
                "seconds": round(vectorized_s, 5),
                "arrays_per_second": round(N_ARRAYS / vectorized_s, 1),
            },
            "speedup": round(streams_speedup, 2),
            "bit_identical": streams_identical,
        },
        "perfbench_fleet_year_wall": {
            change: {
                side: {"seconds": seconds}
                for side, seconds in pair.items()
            }
            for change, pair in PERFBENCH_FLEET_YEAR_WALL_S.items()
        },
    }
    (results_dir / "BENCH_E38.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E38 fleet death thresholds, {N_ARRAYS} arrays "
        f"(add/conv at 128x128, MRAM/PCM, sigma={SIGMA})",
        f"  per-cell oracle      {oracle_s:8.3f} s",
        f"  inverse survival     {sampler_s:8.3f} s  ({speedup:.1f}x)",
        "  KS vs oracle (1% critical): "
        + ", ".join(f"{k} {ks[k]:.3f} ({critical[k]:.3f})" for k in ks),
        f"  budget uniforms      {per_array_s:8.4f} s per-array generators, "
        f"{vectorized_s:.4f} s vectorized ({streams_speedup:.1f}x, "
        f"bit-identical: {streams_identical})",
    ] + [
        f"  perfbench fleet-year wall_s median ({change}): "
        f"{pair['parent']:.2f} s -> {pair['change']:.2f} s"
        for change, pair in PERFBENCH_FLEET_YEAR_WALL_S.items()
    ]
    record("E38_fleet_thresholds", "\n".join(lines))

    for key in ks:
        assert ks[key] < critical[key], (key, ks[key], critical[key])
    assert speedup > 5, f"sampler only {speedup:.1f}x faster than per-cell"
    assert streams_identical, "vectorized budget uniforms differ"
