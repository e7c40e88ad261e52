"""Multi-array clusters: workloads that outgrow one PIM array.

Section 4: "PIM arrays can process data independently. As necessary,
standard memory read and write operations can handle data transfers
between PIM arrays. Our analysis focuses on computations that can be
performed within a single array" — this module covers the other case. A
dot-product longer than the lane count is partitioned: each array reduces
its slice to a partial sum, and one *aggregator* array receives the other
arrays' partials and finishes the sum. The aggregator does strictly more
work, so at cluster scale the endurance story repeats one level up:
the aggregator array dies first, and rotating the aggregator role across
arrays (software round-robin, the between-array analogue of the paper's
between-lane balancing) levels the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.state import ArrayState, pack_counts
from repro.balance.config import BalanceConfig
from repro.core.lifetime import LifetimeEstimate, lifetime_from_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.workloads.base import Phase, Workload, WorkloadMapping
from repro.workloads.dotproduct import DotProduct


class _ArraySliceWorkload(Workload):
    """One array's share of a partitioned dot-product.

    Arrays ``1..k-1`` reduce their slice and ship the partial sum out;
    array 0 (the aggregator) additionally receives ``k - 1`` partials and
    performs the final additions. Both are expressed by extending the
    dot-product role programs with extra receive rounds.
    """

    def __init__(
        self, base: DotProduct, extra_receives: int, is_aggregator: bool
    ) -> None:
        self._base = base
        self.extra_receives = extra_receives
        self.is_aggregator = is_aggregator
        role = "aggregator" if is_aggregator else "slice"
        self.name = f"{base.name}-{role}"

    def build(self, architecture: PIMArchitecture) -> WorkloadMapping:
        """Map this array's slice (the base mapping with lane 0's root
        role extended by the inter-array receive/send rounds)."""
        base_mapping = self._base.build(architecture)
        library = architecture.library
        capacity = architecture.lane_size - 1
        if self._base.workspace_limit is not None:
            capacity = min(capacity, self._base.workspace_limit)
        receives = self._base.rounds + (
            self.extra_receives if self.is_aggregator else 0
        )
        root = self._base._build_role_program(
            library,
            capacity,
            receives,
            self.is_aggregator,  # non-aggregators send their final partial
            policy=self._base.allocation_policy,
            send_tag=None if self.is_aggregator else "to-aggregator",
        )
        assignment = dict(base_mapping.assignment)
        assignment[0] = root
        # The extended root does real work inside this array (receive
        # writes, final additions, partial-sum send), so the schedule
        # must carry it: lane 0 gets one extra serial phase covering
        # exactly the operations the role extension added. Only the
        # inter-array wire latency stays a cluster-level concern.
        slots = architecture.writes_per_gate

        def lane_ops(program) -> int:
            gates = program.gate_count
            return program.sequential_ops - gates + gates * slots

        extra = lane_ops(root) - lane_ops(base_mapping.assignment[0])
        phases = list(base_mapping.phases)
        if extra > 0:
            phases.append(Phase("inter-array", extra, 1))
        return WorkloadMapping(
            workload_name=self.name,
            architecture=architecture,
            assignment=assignment,
            phases=phases,
        )

    def describe(self) -> str:
        role = "aggregator" if self.is_aggregator else "slice"
        return f"{self._base.describe()} [{role} array]"


@dataclass
class ClusterResult:
    """Per-array wear and lifetimes for one partitioned run.

    Attributes:
        results: One simulation result per array (index 0 = aggregator in
            the fixed-role configuration).
        rotated: Whether the aggregator role was rotated round-robin.
    """

    results: List[SimulationResult]
    rotated: bool

    @property
    def n_arrays(self) -> int:
        """Arrays in the cluster."""
        return len(self.results)

    def lifetimes(self) -> List[LifetimeEstimate]:
        """Per-array Eq. 4 lifetime estimates."""
        return [lifetime_from_result(result) for result in self.results]

    @property
    def cluster_iterations_to_failure(self) -> float:
        """Iterations until the first array loses a cell (weakest link)."""
        return min(
            estimate.iterations_to_failure for estimate in self.lifetimes()
        )

    @property
    def wear_imbalance(self) -> float:
        """Hottest array's peak wear over the coldest array's peak wear."""
        peaks = [result.state.max_writes for result in self.results]
        coldest = min(peaks)
        if coldest == 0:
            return float("inf")
        return max(peaks) / coldest


class PartitionedDotProduct:
    """A dot-product spanning ``n_arrays`` PIM arrays.

    Each array reduces ``elements_per_array`` elements locally; the
    aggregator array receives the other partial sums and finishes.

    Args:
        elements_per_array: Local dot-product length per array (a power of
            two no larger than the lane count).
        n_arrays: Number of arrays (total elements = product of both).
        bits: Operand precision.
    """

    def __init__(
        self, elements_per_array: int = 1024, n_arrays: int = 4, bits: int = 32
    ) -> None:
        if n_arrays < 2:
            raise ValueError("a cluster needs at least 2 arrays")
        self.base = DotProduct(n_elements=elements_per_array, bits=bits)
        self.n_arrays = n_arrays
        self.bits = bits
        self.name = (
            f"dot-product-{elements_per_array * n_arrays}"
            f"x{bits}b-on-{n_arrays}-arrays"
        )

    def aggregator_workload(self) -> Workload:
        """The aggregator array's workload."""
        return _ArraySliceWorkload(
            self.base, self.n_arrays - 1, is_aggregator=True
        )

    def slice_workload(self) -> Workload:
        """A non-aggregator array's workload."""
        return _ArraySliceWorkload(self.base, 0, is_aggregator=False)

    def run(
        self,
        architecture: PIMArchitecture,
        config: BalanceConfig,
        iterations: int,
        rotate_aggregator: bool = False,
        seed: int = 0,
    ) -> ClusterResult:
        """Simulate the cluster's wear.

        With ``rotate_aggregator`` the aggregator role moves round-robin
        across arrays (each array aggregates ``1/n`` of the iterations),
        the between-*array* analogue of the paper's between-lane
        re-mapping. Iterations must then divide evenly by ``n_arrays``.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        aggregator = self.aggregator_workload()
        slice_workload = self.slice_workload()
        results: List[SimulationResult] = []

        def simulator(index: int) -> EnduranceSimulator:
            settings = SimulationSettings(seed=seed + index, track_reads=False)
            return EnduranceSimulator(architecture, settings)

        if not rotate_aggregator:
            for index in range(self.n_arrays):
                workload = aggregator if index == 0 else slice_workload
                results.append(
                    simulator(index).run(workload, config, iterations)
                )
            return ClusterResult(results=results, rotated=False)

        if iterations % self.n_arrays:
            raise ValueError(
                "rotating the aggregator needs iterations divisible by "
                f"{self.n_arrays}"
            )
        share = iterations // self.n_arrays
        for index in range(self.n_arrays):
            # Every array spends one share as aggregator and the rest as a
            # slice; wear accumulates in one state via two runs.
            array = simulator(index)
            as_aggregator = array.run(aggregator, config, share)
            as_slice = array.run(slice_workload, config, iterations - share)
            # Finished counters are narrow integers: sum them wide, so
            # no cell wraps, then pack the total again.
            total = np.add(
                as_aggregator.state.write_counts,
                as_slice.state.write_counts,
                dtype=np.uint64,
            )
            state = ArrayState.from_packed(
                architecture.geometry,
                architecture.orientation,
                pack_counts(total, architecture.orientation),
            )
            combined = SimulationResult(
                workload_name=self.name,
                config=config,
                architecture=architecture,
                iterations=iterations,
                state=state,
                mapping=as_aggregator.mapping,
                epochs=as_aggregator.epochs + as_slice.epochs,
            )
            results.append(combined)
        return ClusterResult(results=results, rotated=True)
