"""Fleet populations: many arrays, heterogeneous technologies and cohorts.

A fleet is a population of PIM arrays. Each array belongs to a **cohort**
— one (workload, balance-config) pair whose calibrated wear profile is
simulated once and shared by every array in the cohort — and carries a
**technology** preset (MRAM/RRAM/PCM, :mod:`repro.devices.technology`)
plus optional per-cell lognormal endurance variation
(:class:`~repro.devices.endurance.LognormalEndurance`).

The per-array death threshold (iterations until the array is dead)
follows the closed forms of :mod:`repro.core.failure` over the cohort's
per-iteration rate matrix. Without endurance variation it *is* that
arithmetic (:func:`cell_failure_times`, then minima per lane offset),
so every array reproduces :func:`repro.core.failure.failure_timeline`
bit for bit. With lognormal variation each array's threshold is one
draw from the cohort's first-failure survival function
(:mod:`repro.fleet.thresholds`): the same distribution as the per-cell
budgets, without drawing them (pinned distributionally by
``tests/test_fleet_population.py``).

Assignment of cohorts and technologies to array slots is deterministic
(largest-remainder proportional allocation, interleaved), so a
population is a pure function of its spec; all randomness lives in the
endurance draws, whose RNG streams derive from
``(campaign seed, BUDGET_STREAM, array index)`` and are therefore
independent of visitation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.array.geometry import Orientation
from repro.balance.config import BalanceConfig
from repro.core.failure import cell_failure_times
from repro.devices.endurance import (
    EnduranceModel,
    LognormalEndurance,
    UniformEndurance,
)
from repro.devices.technology import Technology, technology_by_name
from repro.fleet.thresholds import first_failure_quantile
from repro.workloads.registry import (
    UnknownWorkloadError,
    get_workload,
    get_workload_factory,
)

#: Spawn-key tags for the independent RNG streams a campaign derives from
#: its base seed (``np.random.default_rng([seed, TAG, ...])``). Keeping
#: the budget and traffic streams disjoint means per-cell endurance draws
#: never perturb the arrival process and vice versa.
BUDGET_STREAM = 0xB0D6
TRAFFIC_STREAM = 0x7AFF


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous slice of the fleet.

    Attributes:
        workload: Kernel name, resolved through
            :mod:`repro.workloads.registry` — any registered built-in,
            trace workload, or user plug-in can serve fleet traffic.
        config: Balance-configuration label (``BalanceConfig.from_label``).
        weight: Relative share of arrays *and* of request traffic.
        iterations_per_request: Workload iterations one request costs.
    """

    workload: str
    config: str = "StxSt"
    weight: float = 1.0
    iterations_per_request: int = 1

    def __post_init__(self) -> None:
        try:
            get_workload_factory(self.workload)
        except UnknownWorkloadError as exc:
            # Cohort specs have always raised ValueError; re-wrap with
            # the registry's richer message (suggestion + provenance).
            raise ValueError(str(exc)) from None
        BalanceConfig.from_label(self.config)  # validates the label
        if self.weight <= 0:
            raise ValueError("cohort weight must be positive")
        if self.iterations_per_request <= 0:
            raise ValueError("iterations_per_request must be positive")

    @property
    def key(self) -> str:
        """Stable identifier (also the result-store shard key)."""
        return f"{self.workload}-{self.config}"

    def build_workload(self):
        """A fresh workload instance for this cohort."""
        return get_workload(self.workload)

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "weight": self.weight,
            "iterations_per_request": self.iterations_per_request,
        }


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative description of a fleet population.

    Attributes:
        n_arrays: Population size.
        technology_mix: ``((name, weight), ...)`` technology shares.
        cohorts: The cohort slices (weights double as traffic shares).
        endurance_sigma: Per-cell lognormal endurance spread (0 =
            the paper's uniform-endurance assumption).
        repacking: Die at the fault-aware repacking horizon
            (:func:`repro.core.failure.failure_timeline` semantics)
            instead of at first cell failure.
    """

    n_arrays: int = 64
    technology_mix: Tuple[Tuple[str, float], ...] = (("MRAM", 1.0),)
    cohorts: Tuple[CohortSpec, ...] = (CohortSpec("mult"),)
    endurance_sigma: float = 0.0
    repacking: bool = False

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValueError("n_arrays must be positive")
        if not self.technology_mix:
            raise ValueError("technology_mix must not be empty")
        for name, weight in self.technology_mix:
            technology_by_name(name)  # validates the preset
            if weight <= 0:
                raise ValueError(f"technology weight for {name} must be > 0")
        if not self.cohorts:
            raise ValueError("at least one cohort is required")
        keys = [cohort.key for cohort in self.cohorts]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate cohort keys: {sorted(keys)}")
        if self.endurance_sigma < 0:
            raise ValueError("endurance_sigma must be non-negative")

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "n_arrays": self.n_arrays,
            "technology_mix": [list(pair) for pair in self.technology_mix],
            "cohorts": [cohort.identity() for cohort in self.cohorts],
            "endurance_sigma": self.endurance_sigma,
            "repacking": self.repacking,
        }

    @property
    def cohort_weights(self) -> np.ndarray:
        """Normalized cohort weights (traffic and population shares)."""
        weights = np.array([c.weight for c in self.cohorts], dtype=float)
        return weights / weights.sum()


def proportional_counts(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` slots over ``weights``.

    Deterministic, exact (counts sum to ``total``), and stable: ties in
    the fractional remainders break toward the earlier entry.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    if remainder:
        # Stable sort descending by fractional part; earlier entries win ties.
        fractional = quotas - counts
        order = np.argsort(-fractional, kind="stable")
        for index in order[:remainder]:
            counts[index] += 1
    return counts.tolist()


def interleaved_assignment(weights: Sequence[float], total: int) -> np.ndarray:
    """Per-slot category assignment that interleaves categories evenly.

    Greedy largest-deficit scheduling: slot ``i`` goes to the category
    whose assigned count lags its quota the most. Category totals match
    :func:`proportional_counts`; within any prefix the mix stays close
    to the target, so e.g. an 8-array 50/50 fleet alternates rather than
    splitting into two blocks.
    """
    counts = np.asarray(proportional_counts(weights, total), dtype=int)
    weights = np.asarray(weights, dtype=float)
    share = weights / weights.sum()
    assigned = np.zeros(len(counts), dtype=int)
    out = np.empty(total, dtype=int)
    for slot in range(total):
        deficit = share * (slot + 1) - assigned
        deficit[assigned >= counts] = -np.inf  # category exhausted
        out[slot] = int(np.argmax(deficit))
        assigned[out[slot]] += 1
    return out


@dataclass(frozen=True)
class Population:
    """A concrete fleet population: per-array cohort and technology.

    Built deterministically from a :class:`PopulationSpec` — no RNG is
    consumed — so two builds of the same spec are identical.
    """

    spec: PopulationSpec
    cohort_index: np.ndarray = field(repr=False)
    technology_index: np.ndarray = field(repr=False)
    technologies: Tuple[Technology, ...]

    @classmethod
    def build(cls, spec: PopulationSpec) -> "Population":
        """Assign each array slot a cohort and a technology."""
        cohort_index = interleaved_assignment(
            [c.weight for c in spec.cohorts], spec.n_arrays
        )
        # Lay the interleaved technology sequence over the arrays in
        # cohort-grouped order, not slot order: two lockstep
        # interleavings would correlate perfectly (e.g. a 50/50 cohort
        # split times a 50/50 technology split puts every PCM array in
        # one cohort). Grouping first gives each cohort its own
        # proportional technology mix.
        technology_sequence = interleaved_assignment(
            [w for _, w in spec.technology_mix], spec.n_arrays
        )
        technology_index = np.empty(spec.n_arrays, dtype=int)
        technology_index[np.argsort(cohort_index, kind="stable")] = (
            technology_sequence
        )
        technologies = tuple(
            technology_by_name(name) for name, _ in spec.technology_mix
        )
        return cls(
            spec=spec,
            cohort_index=cohort_index,
            technology_index=technology_index,
            technologies=technologies,
        )

    @property
    def n_arrays(self) -> int:
        """Population size."""
        return self.spec.n_arrays

    def arrays_in_cohort(self, cohort: int) -> np.ndarray:
        """Indices of the arrays belonging to cohort ``cohort``."""
        return np.flatnonzero(self.cohort_index == cohort)

    def technology_of(self, array: int) -> Technology:
        """The technology preset of array ``array``."""
        return self.technologies[int(self.technology_index[array])]

    def endurance_model_for(self, array: int, seed: int) -> EnduranceModel:
        """The per-cell endurance model of one array.

        With ``endurance_sigma == 0`` this is the paper's uniform
        assumption at the array's technology endurance; otherwise a
        lognormal with that endurance as the median, seeded from
        ``(seed, BUDGET_STREAM, array)`` so draws are independent of the
        order arrays are processed in.
        """
        technology = self.technology_of(array)
        if self.spec.endurance_sigma == 0:
            return UniformEndurance(technology.endurance_writes)
        return LognormalEndurance(
            technology.endurance_writes,
            sigma=self.spec.endurance_sigma,
            rng=self._budget_rng(array, seed),
        )

    def death_thresholds(
        self,
        cohort_results: Sequence,
        seed: int,
        required_offsets: Optional[Sequence[Optional[int]]] = None,
    ) -> np.ndarray:
        """Per-array iterations-to-death under each cohort's wear pattern.

        The cohort simulation's accumulated counters give the long-run
        per-cell wear rate, and the array dies at its first cell failure
        — or, with ``repacking``, at the order-statistic repacking
        horizon over ``required_offsets`` — as in
        :func:`repro.core.failure.failure_timeline`.

        With ``endurance_sigma == 0`` the threshold is deterministic and
        computed once per (cohort, technology) by that closed form, bit
        for bit. Otherwise no per-cell budget is drawn: each array's
        threshold is one inverse-survival draw
        (:func:`~repro.fleet.thresholds.first_failure_quantile`) from its
        ``(seed, BUDGET_STREAM, array)`` stream — one ``random()``, or
        with repacking one per lane offset followed by the order
        statistic — exactly distributed as the per-cell lognormal model
        of :meth:`endurance_model_for`.

        Args:
            cohort_results: One (possibly store-restored) simulation
                result per cohort, in cohort order.
            seed: Campaign base seed (drives the budget streams).
            required_offsets: Per-cohort minimum footprint; required
                when the spec enables repacking.
        """
        if len(cohort_results) != len(self.spec.cohorts):
            raise ValueError(
                f"expected {len(self.spec.cohorts)} cohort results, "
                f"got {len(cohort_results)}"
            )
        repacking = self.spec.repacking
        if repacking and (
            required_offsets is None
            or any(offsets is None for offsets in required_offsets)
        ):
            raise ValueError("repacking requires per-cohort required_offsets")
        thresholds = np.empty(self.n_arrays, dtype=float)
        medians = np.array([t.endurance_writes for t in self.technologies])
        for cohort, result in enumerate(cohort_results):
            members = self.arrays_in_cohort(cohort)
            if not len(members):
                continue
            rate = result.state.write_counts / result.iterations
            architecture = result.architecture
            # The array dies at the k-th death among its independent cell
            # sets: the whole array (k = 1), or with repacking its lane
            # offsets, which hold disjoint cells.
            if repacking:
                k = architecture.lane_size - int(required_offsets[cohort]) + 1
                cell_sets = (
                    rate
                    if architecture.orientation is Orientation.COLUMN_PARALLEL
                    else rate.T
                )
            else:
                k, cell_sets = 1, rate.reshape(1, -1)
            techs = self.technology_index[members]
            if self.spec.endurance_sigma == 0:
                # Deterministic: the closed form once per technology.
                deaths = np.empty((len(members), len(cell_sets)))
                for technology in np.unique(techs):
                    same = techs == technology
                    model = self.endurance_model_for(members[same][0], seed)
                    times = cell_failure_times(
                        cell_sets, model.sample_budgets(cell_sets.shape)
                    )
                    deaths[same] = times.min(axis=1)
            else:
                # One uniform per cell set from the array's stream; sets
                # with equal rate multisets share one survival table.
                uniforms = np.stack(
                    [
                        self._budget_rng(array, seed).random(len(cell_sets))
                        for array in members
                    ]
                )
                shared = {}
                for index, cells in enumerate(np.sort(cell_sets, axis=1)):
                    entry = shared.setdefault(cells.tobytes(), (cells, []))
                    entry[1].append(index)
                deaths = np.empty_like(uniforms)
                for cells, sets in shared.values():
                    quantile = first_failure_quantile(
                        cells, self.spec.endurance_sigma
                    )
                    deaths[:, sets] = quantile(
                        uniforms[:, sets], medians[techs, None]
                    )
            thresholds[members] = np.sort(deaths, axis=1)[:, k - 1]
        return thresholds

    @staticmethod
    def _budget_rng(array: int, seed: int) -> np.random.Generator:
        """The array's budget stream, independent of visitation order."""
        return np.random.default_rng([seed, BUDGET_STREAM, int(array)])
