"""Parameter sweeps: configuration grids, recompile frequency, technology.

These drive the evaluation's summary artifacts:

* :func:`configuration_grid` — all 18 balance configurations for one
  workload (Figs. 14-17);
* :func:`remap_frequency_sweep` — the Section 5 recompile-interval study
  ("the expected lifetime saturates at approximately every 50 iterations");
* :func:`technology_sweep` — lifetimes across MRAM/RRAM/PCM endurance
  points (the Section 3.1 contrast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.balance.config import BalanceConfig, all_configurations
from repro.core.lifetime import (
    LifetimeEstimate,
    lifetime_from_result,
    lifetime_improvement,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.devices.technology import Technology
from repro.telemetry import get_telemetry
from repro.workloads.base import Workload


@dataclass
class GridEntry:
    """One cell of a configuration grid.

    ``result`` is a full :class:`SimulationResult` on the in-process path
    and a store-restored result (same counters and metadata surface) when
    the grid ran through the experiment engine.
    """

    config: BalanceConfig
    result: SimulationResult
    lifetime: LifetimeEstimate
    improvement: float

    @property
    def label(self) -> str:
        """The configuration's figure label."""
        return self.config.label


def simulate_configs(
    simulator: EnduranceSimulator,
    workload: Workload,
    configs: Sequence[BalanceConfig],
    iterations: int,
    track_reads: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    settings: Optional[SimulationSettings] = None,
) -> Dict[BalanceConfig, SimulationResult]:
    """Simulate a list of configurations once each, in the given order.

    The shared backbone of :func:`configuration_grid` and
    :func:`remap_frequency_sweep` (both list their baseline first).
    Duplicate configurations are simulated once. With a ``cache_dir``,
    the batch routes through :mod:`repro.engine` — disk-cached results,
    resumable after interruption — and is bit-identical to the in-process
    path because every job runs on a fresh simulator carrying the same
    settings, drawing a fresh RNG stream. Either path builds the workload
    once per process: cells share the mapping through
    :func:`repro.core.simulator.mapping_for`.

    Args:
        settings: Simulation settings for every cell; defaults to the
            simulator's own (``track_reads`` below still applies).

    Raises:
        repro.engine.EngineError: if any engine-routed job fails.
    """
    base = settings if settings is not None else simulator.settings
    if track_reads is None:
        # Sweeps historically default to writes-only; explicit settings
        # carry their own choice.
        track_reads = base.track_reads if settings is not None else False
    if base.track_reads != track_reads:
        base = base.replace(track_reads=track_reads)
    ordered = list(dict.fromkeys(configs))
    tele = get_telemetry()
    if cache_dir is None:
        results: Dict[BalanceConfig, SimulationResult] = {}
        for done, config in enumerate(ordered, start=1):
            results[config] = simulator.run(
                workload, config, iterations, settings=base
            )
            tele.emit(
                "grid_progress",
                done=done,
                total=len(ordered),
                label=config.label,
                workload=workload.name,
            )
        return results
    # Imported lazily: repro.engine depends on this package.
    from repro.engine import (
        ExperimentEngine,
        JobSpec,
        ResultStore,
        require_ok,
    )

    specs = [
        JobSpec.from_settings(
            workload,
            simulator.architecture,
            config=config,
            iterations=iterations,
            settings=base,
        )
        for config in ordered
    ]
    engine = ExperimentEngine(
        store=ResultStore(cache_dir) if cache_dir else None
    )
    outcomes = require_ok(engine.run(specs))
    return {
        config: outcome.result
        for config, outcome in zip(ordered, outcomes)
    }


def configuration_grid(
    simulator: EnduranceSimulator,
    workload: Workload,
    iterations: int = 100_000,
    configs: Optional[Sequence[BalanceConfig]] = None,
    track_reads: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    settings: Optional[SimulationSettings] = None,
) -> List[GridEntry]:
    """Simulate a workload under every balance configuration.

    Improvements are relative to the static baseline (``St x St``), which
    is always included (and simulated first) even if ``configs`` omits it.

    Args:
        cache_dir: Engine result store (:mod:`repro.engine`); completed
            cells are reused across runs and an interrupted grid resumes
            from them.
        settings: Simulation settings for every cell.

    Returns:
        Grid entries in the order of :func:`all_configurations` (or the
        caller's order), each with its lifetime estimate and improvement.
    """
    config_list = list(configs) if configs is not None else all_configurations()
    baseline_config = next(
        (c for c in config_list if c.is_static), BalanceConfig()
    )
    results = simulate_configs(
        simulator,
        workload,
        [baseline_config] + config_list,
        iterations,
        track_reads=track_reads,
        cache_dir=cache_dir,
        settings=settings,
    )
    baseline = results[baseline_config]
    return [
        GridEntry(
            config=config,
            result=results[config],
            lifetime=lifetime_from_result(results[config]),
            improvement=lifetime_improvement(results[config], baseline),
        )
        for config in config_list
    ]


def best_improvement(entries: Sequence[GridEntry]) -> GridEntry:
    """The grid entry with the highest lifetime improvement (Table 3)."""
    if not entries:
        raise ValueError("empty grid")
    return max(entries, key=lambda entry: entry.improvement)


def remap_frequency_sweep(
    simulator: EnduranceSimulator,
    workload: Workload,
    intervals: Sequence[int] = (10_000, 1_000, 500, 100, 50, 10),
    iterations: int = 100_000,
    base_config: Optional[BalanceConfig] = None,
    cache_dir: Optional[str] = None,
    settings: Optional[SimulationSettings] = None,
) -> Dict[int, float]:
    """Lifetime improvement versus recompile interval (Section 5).

    "More frequent re-mapping is more effective at balancing load.
    Accordingly, we sweep the re-mapping frequency to characterize this
    trade-off space." The paper finds saturation near every 50 iterations,
    with only ~1.6% average further gain from 50 down to 10.

    Args:
        simulator: The driver.
        workload: Benchmark kernel.
        intervals: Recompile intervals to test.
        iterations: Total iterations per run.
        base_config: Strategy pair to sweep (default Ra x Ra, the most
            re-mapping-sensitive software configuration).
        cache_dir: Engine result store (reuse/resume across runs).
        settings: Simulation settings for every point.

    Returns:
        Interval -> lifetime improvement over the static baseline.
    """
    if base_config is None:
        from repro.balance.software import StrategyKind

        base_config = BalanceConfig(
            within=StrategyKind.RANDOM, between=StrategyKind.RANDOM
        )
    baseline_config = BalanceConfig()
    swept = {
        interval: base_config.with_interval(interval)
        for interval in intervals
    }
    results = simulate_configs(
        simulator,
        workload,
        [baseline_config] + list(swept.values()),
        iterations,
        track_reads=False,
        cache_dir=cache_dir,
        settings=settings,
    )
    baseline = results[baseline_config]
    return {
        interval: lifetime_improvement(results[config], baseline)
        for interval, config in swept.items()
    }


def technology_sweep(
    result: SimulationResult, technologies: Sequence[Technology]
) -> Dict[str, LifetimeEstimate]:
    """Re-price one simulation's wear against different technologies.

    The write distribution is technology-independent; only endurance (and
    nominal latency) change, so a single simulation yields the full
    MRAM/RRAM/PCM lifetime contrast of Section 3.1.
    """
    return {
        technology.name: lifetime_from_result(result, technology=technology)
        for technology in technologies
    }
