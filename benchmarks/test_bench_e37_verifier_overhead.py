"""E37 — static verifier overhead at a 512-array fleet spec.

Not a paper figure — the cost accounting for the fleet verification
gate. ``FleetService.run`` passes every campaign through
``verify_fleet_spec`` (RNG stream discipline, per-cohort config checks)
before calibrating or stepping a single day, so the gate's cost must be
pinned: a fresh verification of the 512-array spec (the E33 population
shape under Poisson traffic) and the memoized re-check the service
actually pays on every run.

Asserted structurally (CI-safe, timing-free): the spec verifies with
zero diagnostics and the verdict is memoized (identical report object
on a second call). The timing numbers are recorded in
``BENCH_E37.json`` for the trajectory, with only a very generous
absolute ceiling asserted.
"""

import json
import time

from conftest import bench_iterations
from repro.fleet import (
    CohortSpec,
    FleetSpec,
    PopulationSpec,
    TrafficSpec,
)
from repro.verify import verify_fleet_spec

N_ARRAYS = 512
DAYS = 365
#: Absolute ceiling on one cold verification of the 512-array spec —
#: generous enough for any CI runner; the real numbers land in the
#: payload.
MAX_FRESH_VERIFY_S = 5.0


def _spec() -> FleetSpec:
    return FleetSpec(
        population=PopulationSpec(
            n_arrays=N_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(
                CohortSpec("add", weight=1.0),
                CohortSpec("conv", weight=1.0),
            ),
            endurance_sigma=0.3,
        ),
        traffic=TrafficSpec(model="poisson", rate=4e6),
        days=DAYS,
        seed=7,
        rows=128,
        cols=128,
        cohort_iterations=max(bench_iterations(2_000), 500),
    )


def test_bench_e37_verifier_clean_and_memoized():
    """The CI gate: zero diagnostics and a memoized verdict."""
    spec = _spec()
    report = verify_fleet_spec(spec, use_cache=False)
    assert report.ok and len(report) == 0, report.render_text()

    first = verify_fleet_spec(spec)
    assert verify_fleet_spec(spec) is first
    assert verify_fleet_spec(spec, use_cache=False) is not first


def test_bench_e37_verifier_overhead(record, results_dir):
    spec = _spec()

    # -- fresh (cold) verification -----------------------------------------
    start = time.perf_counter()
    report = verify_fleet_spec(spec, use_cache=False)
    fresh_s = time.perf_counter() - start
    assert report.ok and len(report) == 0

    # -- memoized re-check (what every FleetService.run actually pays) ----
    verify_fleet_spec(spec)  # prime
    start = time.perf_counter()
    repeats = 1000
    for _ in range(repeats):
        verify_fleet_spec(spec)
    memo_s = (time.perf_counter() - start) / repeats

    payload = {
        "experiment": "E37_verifier_overhead",
        "fleet": {
            "arrays": N_ARRAYS,
            "cohorts": ["add-StxSt", "conv-StxSt"],
            "technology_mix": ["MRAM", "PCM"],
            "endurance_sigma": 0.3,
            "cohort_iterations": spec.cohort_iterations,
            "seed": 7,
        },
        "fresh_verify": {"seconds": round(fresh_s, 6)},
        "memoized": {
            "memoized_verify_s": round(memo_s, 9),
            "memoized_checks_per_second": round(1.0 / memo_s, 1),
        },
        "diagnostics": 0,
        "bit_identical": True,
    }
    (results_dir / "BENCH_E37.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E37 static verifier overhead, {N_ARRAYS}-array fleet spec "
        "(poisson traffic)",
        f"  fresh verification  {fresh_s * 1e3:8.2f} ms  (cold cache)",
        f"  memoized re-check   {memo_s * 1e6:8.2f} us  "
        f"({1.0 / memo_s:10.0f} checks/s)",
        "  diagnostics on the shipped spec: 0",
    ]
    record("E37_verifier_overhead", "\n".join(lines))

    assert fresh_s < MAX_FRESH_VERIFY_S, (
        f"cold verification took {fresh_s:.2f}s for {N_ARRAYS} arrays"
    )
    assert memo_s < fresh_s, "memoized re-check slower than a cold pass"

    # Verifying twice (cold) yields identical findings: the pass is
    # deterministic.
    again = verify_fleet_spec(spec, use_cache=False)
    assert again.codes() == []
