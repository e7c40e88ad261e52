"""The paper's primary contribution: NVPIM endurance characterization.

* :mod:`repro.core.writedist` — write-distribution statistics and heatmaps
  (Figs. 5, 14-16);
* :mod:`repro.core.simulator` — the endurance simulator: workload x
  balance configuration x iterations -> per-cell wear (Section 4's
  "instruction-level accurate" simulation, accelerated by exact epoch
  algebra);
* :mod:`repro.core.lifetime` — the lifetime model: Equations 1, 2 and 4,
  and improvement factors (Fig. 17, Table 3);
* :mod:`repro.core.sweep` — configuration grids and the recompile-
  frequency sweep (Section 5);
* :mod:`repro.core.scratch` — the process-wide scratch-buffer pool the
  hot paths draw their per-chunk workspaces from;
* :mod:`repro.core.kernel` — the one epoch kernel: configs periodic on
  both axes fast-forward in O(period) instead of O(iterations), and a
  single periodic axis folds before the GEMM, bit-identically;
* :mod:`repro.core.report` — plain-text renderings of every table and
  figure.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "WriteDistribution": "repro.core.writedist",
        "EnduranceSimulator": "repro.core.simulator",
        "SimulationResult": "repro.core.simulator",
        "SimulationSettings": "repro.core.settings",
        "LifetimeEstimate": "repro.core.lifetime",
        "lifetime_from_result": "repro.core.lifetime",
        "lifetime_improvement": "repro.core.lifetime",
        "array_write_budget": "repro.core.lifetime",
        "eq1_operations_until_total_failure": "repro.core.lifetime",
        "eq2_seconds_until_total_failure": "repro.core.lifetime",
        "configuration_grid": "repro.core.sweep",
        "remap_frequency_sweep": "repro.core.sweep",
        "technology_sweep": "repro.core.sweep",
        "FailureTimeline": "repro.core.failure",
        "failure_timeline": "repro.core.failure",
        "cell_failure_times": "repro.core.failure",
        "offset_death_times": "repro.core.failure",
        "minimum_footprint": "repro.core.failure",
        "ArrayFarm": "repro.core.system",
        "FarmLifetime": "repro.core.system",
        "lifetime_at_duty_cycle": "repro.core.system",
        "SwitchingProfile": "repro.core.switching",
        "measure_switching": "repro.core.switching",
        "ClusterResult": "repro.core.cluster",
        "PartitionedDotProduct": "repro.core.cluster",
        "AccuracyReport": "repro.core.accuracy",
        "measure_fault_accuracy": "repro.core.accuracy",
        "BufferPool": "repro.core.scratch",
        "PERIODIC_KINDS": "repro.core.kernel",
        "fastforward_eligible": "repro.core.kernel",
        "fastforward_period": "repro.core.kernel",
        "strategy_period": "repro.core.kernel",
    },
)
