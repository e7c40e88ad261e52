"""The fleet service: a long-lived, checkpointed endurance campaign.

:class:`FleetService` extends the one-shot :class:`ExperimentEngine`
batch model into a job layer for population-scale questions. A campaign
runs in three phases:

1. **Calibrate** — simulate each cohort's wear profile once through the
   experiment engine (store-cached, shard per cohort), giving the
   per-cell write *rates* every array in the cohort shares.
2. **Advance** — a vectorized virtual-day loop: draw the day's request
   count from the traffic model, split it over cohorts, dispatch
   iteration budgets to live arrays (capped by the Bitlet-style
   throughput capacity), and retire arrays whose cumulative iterations
   cross their closed-form death thresholds.
3. **Report** — fold the death days into survival analytics
   (:mod:`repro.fleet.survival`) and a hashable
   :class:`~repro.fleet.report.FleetReport`.

Nothing in the day loop re-simulates wear: thresholds come from
:meth:`Population.death_thresholds` — the :mod:`repro.core.failure`
closed forms without endurance variation (a one-array fleet is then
bit-exact to :func:`~repro.core.failure.failure_timeline`), and one
inverse-survival draw per array with it (the same distribution as the
per-cell lognormal budgets). That is what makes a 10,000 array × 10
year campaign tractable.

Campaign state (cumulative iterations, death days, traffic RNG state)
checkpoints through :class:`~repro.fleet.checkpoint.CheckpointManager`;
a killed campaign resumes from its last checkpoint and produces a final
report bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.failure import minimum_footprint
from repro.core.scratch import flush_pool_counters
from repro.engine.runner import ExperimentEngine, require_ok
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.fleet.checkpoint import CheckpointManager
from repro.fleet.population import Population, PopulationSpec
from repro.fleet.report import FleetReport
from repro.fleet.survival import (
    annual_replacement_rate,
    canonical_hash,
    capacity_headroom,
    kaplan_meier,
)
from repro.fleet.traffic import (
    TrafficSpec,
    TrafficState,
    capacity_iterations,
    draw_day,
    rng_state_from_json,
    rng_state_to_json,
    split_requests,
    traffic_rng,
)
from repro.telemetry import get_telemetry
from repro.verify import VerificationError, verify_fleet_spec

#: The recognized dispatch policies.
DISPATCH_POLICIES = ("even", "least_worn")


@dataclass(frozen=True)
class FleetSpec:
    """Everything that determines a fleet campaign's outcome.

    Attributes:
        population: The fleet's makeup.
        traffic: The arrival process.
        days: Campaign horizon in virtual days.
        seed: Base seed for every campaign RNG stream.
        dispatch: ``"even"`` splits a cohort's demand uniformly over its
            live arrays; ``"least_worn"`` allocates proportionally to
            remaining endurance headroom (software wear-leveling at
            fleet scale).
        duty_cycle: Fraction of each 86400 s day an array may compute.
        slo: Confidence level for the capacity-headroom analysis.
        rows: Cohort-calibration array rows.
        cols: Cohort-calibration array cols.
        cohort_iterations: Iterations for each cohort's wear simulation.
    """

    population: PopulationSpec = PopulationSpec()
    traffic: TrafficSpec = TrafficSpec()
    days: int = 365
    seed: int = 0
    dispatch: str = "even"
    duty_cycle: float = 1.0
    slo: float = 0.999
    rows: int = 1024
    cols: int = 1024
    cohort_iterations: int = 2000

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be positive")
        if self.dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {self.dispatch!r}; "
                f"choose from {DISPATCH_POLICIES}"
            )
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if not 0.0 < self.slo < 1.0:
            raise ValueError("slo must be in (0, 1)")
        if self.cohort_iterations < 1:
            raise ValueError("cohort_iterations must be positive")

    def identity(self) -> dict:
        """The canonical JSON-able dict the content hash covers."""
        return {
            "fleet_version": 2,
            "population": self.population.identity(),
            "traffic": self.traffic.identity(),
            "days": self.days,
            "seed": self.seed,
            "dispatch": self.dispatch,
            "duty_cycle": self.duty_cycle,
            "slo": self.slo,
            "rows": self.rows,
            "cols": self.cols,
            "cohort_iterations": self.cohort_iterations,
        }

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (hex, 64 chars)."""
        return canonical_hash(self.identity())


@dataclass
class _CampaignState:
    """The mutable state the day loop advances (and checkpoints)."""

    day: int
    cumulative: np.ndarray  # float64, iterations served per array
    death_day: np.ndarray  # int64, -1 = alive
    served: int
    dropped: int
    traffic_state: TrafficState
    rng: np.random.Generator

    def to_checkpoint(self) -> Dict:
        """The checkpoint state: the per-array vectors as arrays (stored
        as raw bytes), everything else JSON-native."""
        return {
            "day": int(self.day),
            "cumulative": self.cumulative,
            "death_day": self.death_day,
            "served": int(self.served),
            "dropped": int(self.dropped),
            "traffic_state": self.traffic_state.to_json(),
            "rng_state": rng_state_to_json(self.rng),
        }

    @classmethod
    def from_checkpoint(cls, payload: Dict) -> "_CampaignState":
        """Rebuild the state :meth:`to_checkpoint` saved; the vectors are
        copied, as the day loop updates them in place."""
        return cls(
            day=int(payload["day"]),
            cumulative=np.array(payload["cumulative"], dtype=np.float64),
            death_day=np.array(payload["death_day"], dtype=np.int64),
            served=int(payload["served"]),
            dropped=int(payload["dropped"]),
            traffic_state=TrafficState.from_json(payload["traffic_state"]),
            rng=rng_state_from_json(payload["rng_state"]),
        )


class FleetService:
    """Runs fleet campaigns: calibrate, advance, checkpoint, report.

    Args:
        spec: The campaign.
        store: Optional result store for cohort calibrations; shared
            across campaigns, sharded per cohort key
            (:meth:`ResultStore.shard`), so repeated campaigns over the
            same cohorts calibrate from cache.
        checkpoint_dir: Where to keep campaign checkpoints; ``None``
            disables checkpointing (and resuming).
        checkpoint_every: Write a checkpoint after every N completed
            virtual days (0 = only at explicit stops). Not part of the
            campaign identity: any checkpoint cadence resumes to the
            same final report.
    """

    def __init__(
        self,
        spec: FleetSpec,
        store: Optional[ResultStore] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.spec = spec
        self.store = store
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, spec.content_hash)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoint_every = checkpoint_every
        self.population = Population.build(spec.population)
        # Cohort membership is fixed for the campaign; the day loop
        # indexes by it every cohort-day.
        self._members = tuple(
            self.population.arrays_in_cohort(index)
            for index in range(len(spec.population.cohorts))
        )
        self.architecture = default_architecture(spec.rows, spec.cols)

    # -- phase 1: cohort calibration ------------------------------------

    def cohort_specs(self) -> List[JobSpec]:
        """One calibration job per cohort, on the campaign settings."""
        return [
            JobSpec(
                workload=cohort.build_workload(),
                architecture=self.architecture,
                config=BalanceConfig.from_label(cohort.config),
                iterations=self.spec.cohort_iterations,
                seed=self.spec.seed,
            )
            for cohort in self.spec.population.cohorts
        ]

    def calibrate(self) -> Dict:
        """Simulate every cohort's wear profile (store-cached).

        Returns a dict with ``results`` (per-cohort simulation results),
        ``required_offsets`` (per-cohort minimum footprints, only
        computed when the population repacks), ``ops_per_iteration``
        (per-cohort write operations per iteration — the Bitlet-style
        cost that converts requests into array-seconds), and engine
        ``statuses`` per cohort for the runtime section.
        """
        results = []
        statuses = []
        for cohort, spec in zip(self.spec.population.cohorts, self.cohort_specs()):
            # Explicit None check: ResultStore defines __len__, so an
            # empty store is falsy and a bare truthiness test would
            # silently disable caching on first use.
            shard = (
                self.store.shard(cohort.key)
                if self.store is not None
                else None
            )
            engine = ExperimentEngine(store=shard)
            outcome = require_ok([engine.run_one(spec)])[0]
            results.append(outcome.result)
            statuses.append(outcome.status.value)
        required_offsets: List[Optional[int]] = [None] * len(results)
        if self.spec.population.repacking:
            required_offsets = [
                minimum_footprint(cohort.build_workload(), self.architecture)
                for cohort in self.spec.population.cohorts
            ]
        ops_per_iteration = [
            float(result.state.write_counts.sum()) / result.iterations
            for result in results
        ]
        return {
            "results": results,
            "required_offsets": required_offsets,
            "ops_per_iteration": ops_per_iteration,
            "statuses": statuses,
        }

    def _capacities(self, ops_per_iteration: Sequence[float]) -> np.ndarray:
        """Per-array iteration capacity per virtual day.

        An iteration costs ``ops_per_iteration * op_latency_s`` seconds
        of array time; capacity is the duty-cycled day divided by that,
        computed once per (cohort, technology) pair.
        """
        population = self.population
        table = np.array(
            [
                [
                    capacity_iterations(
                        ops * technology.op_latency_s, self.spec.duty_cycle
                    )
                    for technology in population.technologies
                ]
                for ops in ops_per_iteration
            ],
            dtype=float,
        )
        return table[population.cohort_index, population.technology_index]

    # -- phase 2: the day loop ------------------------------------------

    def _dispatch(
        self,
        demand_iterations: float,
        alive: np.ndarray,
        state: _CampaignState,
        thresholds: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        """Allocate one cohort-day of demand; returns iterations served."""
        caps = capacities[alive]
        if self.spec.dispatch == "even":
            allocation = np.minimum(demand_iterations / len(alive), caps)
        else:  # least_worn
            headroom = np.maximum(
                thresholds[alive] - state.cumulative[alive], 0.0
            )
            total = headroom.sum()
            if total <= 0:
                # Everyone is at the brink; fall back to an even split.
                share = np.full(len(alive), 1.0 / len(alive))
            else:
                share = headroom / total
            allocation = np.minimum(demand_iterations * share, caps)
        state.cumulative[alive] += allocation
        return float(allocation.sum())

    def _advance_day_serial(
        self,
        state: _CampaignState,
        thresholds: np.ndarray,
        capacities: np.ndarray,
    ) -> int:
        """Advance the campaign through virtual day ``state.day``."""
        spec = self.spec
        day_served = 0
        requests = draw_day(spec.traffic, state.traffic_state, state.rng)
        per_cohort = split_requests(
            requests, spec.population.cohort_weights, state.rng
        )
        for index, cohort in enumerate(spec.population.cohorts):
            cohort_requests = int(per_cohort[index])
            if cohort_requests == 0:
                continue
            members = self._members[index]
            alive = members[state.death_day[members] < 0]
            if len(alive) == 0:
                state.dropped += cohort_requests
                continue
            demand = float(cohort_requests * cohort.iterations_per_request)
            served_iters = self._dispatch(
                demand, alive, state, thresholds, capacities
            )
            served_requests = min(
                cohort_requests,
                int(served_iters // cohort.iterations_per_request),
            )
            state.served += served_requests
            state.dropped += cohort_requests - served_requests
            day_served += served_requests
            # Threshold crossings retire arrays at this day.
            crossed = alive[state.cumulative[alive] >= thresholds[alive]]
            state.death_day[crossed] = state.day
        return day_served

    def run(
        self, stop_after_day: Optional[int] = None
    ) -> Optional[FleetReport]:
        """Run (or resume) the campaign.

        A service with a ``checkpoint_dir`` continues from the latest
        readable checkpoint of its campaign, if one exists.

        Args:
            stop_after_day: Pause after completing this virtual day —
                a checkpoint is written (checkpointing must be enabled)
                and ``None`` is returned. Simulates a mid-campaign kill
                at a checkpoint boundary.

        Returns:
            The final :class:`FleetReport`, or ``None`` when paused
            before the horizon.
        """
        spec = self.spec
        if stop_after_day is not None:
            if self.checkpoints is None:
                raise ValueError(
                    "stop_after_day requires a checkpoint_dir to pause into"
                )
            if not 1 <= stop_after_day:
                raise ValueError("stop_after_day must be >= 1")
        start_wall = time.perf_counter()
        tele = get_telemetry()

        # Static whole-campaign verification before any day runs: RNG
        # stream discipline and cohort config validity. Memoized per
        # campaign shape, so resumed/repeated runs pay it once.
        verification = verify_fleet_spec(spec)
        if verification.errors:
            tele.count("fleet.rejected")
            raise VerificationError(verification)

        with tele.timed_phase("fleet.calibrate"):
            calibration = self.calibrate()
        with tele.timed_phase("fleet.thresholds"):
            thresholds = self.population.death_thresholds(
                calibration["results"],
                spec.seed,
                calibration["required_offsets"],
            )
        tele.count("fleet.threshold_draws", self.population.n_arrays)
        capacities = self._capacities(calibration["ops_per_iteration"])

        state = None
        resumed_from = None
        if self.checkpoints is not None:
            latest = self.checkpoints.latest()
            if latest is not None:
                resumed_from, payload = latest
                state = _CampaignState.from_checkpoint(payload)
        if state is None:
            state = _CampaignState(
                day=0,
                cumulative=np.zeros(self.population.n_arrays),
                death_day=np.full(self.population.n_arrays, -1, np.int64),
                served=0,
                dropped=0,
                traffic_state=TrafficState(),
                rng=traffic_rng(spec.seed),
            )

        cohorts = spec.population.cohorts
        last_day = spec.days
        if stop_after_day is not None:
            last_day = min(last_day, stop_after_day)

        tele.emit(
            "fleet_start",
            arrays=self.population.n_arrays,
            days=spec.days,
            cohorts=len(cohorts),
            start_day=state.day,
        )
        checkpoints_written = 0
        with tele.timed_phase("fleet.advance"):
            while state.day < last_day:
                state.day += 1
                day_served = self._advance_day_serial(
                    state, thresholds, capacities
                )
                tele.count("fleet.days")
                tele.emit(
                    "fleet_day",
                    day=state.day,
                    alive=int((state.death_day < 0).sum()),
                    served=day_served,
                )
                at_boundary = (
                    self.checkpoint_every
                    and state.day % self.checkpoint_every == 0
                )
                at_stop = stop_after_day is not None and state.day == last_day
                if self.checkpoints is not None and (at_boundary or at_stop):
                    self.checkpoints.save(state.day, state.to_checkpoint())
                    checkpoints_written += 1
                    tele.count("fleet.checkpoints")
                    tele.emit("fleet_checkpoint", day=state.day)

        if stop_after_day is not None and state.day < spec.days:
            return None

        report = self._build_report(state, calibration, capacities)
        runtime = dict(report.runtime)
        runtime.update(
            wall_s=round(time.perf_counter() - start_wall, 6),
            resumed_from_day=resumed_from,
            checkpoints_written=checkpoints_written,
            calibration_statuses=calibration["statuses"],
        )
        report = replace(report, runtime=runtime)
        tele.count("fleet.deaths", report.n_deaths)
        # Publish the aggregate counters (fleet.*, pool.*, ...)
        # into the trace so `repro-endurance stats` can render them.
        flush_pool_counters()
        tele.emit("counters", counters=tele.snapshot()["counters"])
        tele.emit(
            "fleet_end",
            days=state.day,
            alive=report.n_alive,
            deaths=report.n_deaths,
        )
        return report

    # -- phase 3: the report --------------------------------------------

    def _demand_arrays(self, ops_per_iteration: Sequence[float]) -> int:
        """Mean-traffic demand, in concurrently-live arrays.

        Converts the long-run mean request rate into array-equivalents
        through each cohort's per-iteration cost and its members' mean
        capacity — the Bitlet litmus inverted for provisioning.
        """
        capacities = self._capacities(ops_per_iteration)
        weights = self.spec.population.cohort_weights
        demand = 0.0
        for index, cohort in enumerate(self.spec.population.cohorts):
            members = self._members[index]
            if len(members) == 0:
                continue
            mean_capacity = float(capacities[members].mean())
            daily_iterations = (
                self.spec.traffic.mean_rate
                * float(weights[index])
                * cohort.iterations_per_request
            )
            demand += daily_iterations / mean_capacity
        return int(math.ceil(demand))

    def _build_report(
        self,
        state: _CampaignState,
        calibration: Dict,
        capacities: np.ndarray,
    ) -> FleetReport:
        spec = self.spec
        curve = kaplan_meier(state.death_day.tolist(), spec.days)
        headroom = capacity_headroom(
            self.population.n_arrays,
            self._demand_arrays(calibration["ops_per_iteration"]),
            curve.probability_at(spec.days),
            spec.slo,
        )
        runtime: Dict = {}
        if self.store is not None:
            runtime["manifests"] = sum(
                1 for _ in self.store.iter_manifests()
            )
        return FleetReport(
            spec_identity=spec.identity(),
            spec_hash=spec.content_hash,
            days_simulated=int(state.day),
            death_days=[int(d) for d in state.death_day],
            cohort_keys=[
                spec.population.cohorts[int(c)].key
                for c in self.population.cohort_index
            ],
            technology_names=[
                self.population.technology_of(i).name
                for i in range(self.population.n_arrays)
            ],
            curve=curve,
            annual_replacement_rate=annual_replacement_rate(
                state.death_day.tolist(), spec.days
            ),
            requests_served=int(state.served),
            requests_dropped=int(state.dropped),
            headroom=headroom,
            runtime=runtime,
        )


def run_campaign(
    spec: FleetSpec,
    store: Optional[Union[str, ResultStore]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
) -> FleetReport:
    """One-call campaign runner (the CLI entry point's workhorse)."""
    if isinstance(store, str):
        store = ResultStore(store)
    service = FleetService(
        spec,
        store=store,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    report = service.run()
    assert report is not None  # run() without stop_after_day completes
    return report
