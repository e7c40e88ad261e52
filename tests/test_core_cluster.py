"""Tests for repro.core.cluster: partitioned dot-products across arrays."""

import warnings

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.cluster import PartitionedDotProduct
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.gates.library import NAND_LIBRARY


@pytest.fixture
def cluster():
    return PartitionedDotProduct(elements_per_array=32, n_arrays=4, bits=8)


class TestWorkloadConstruction:
    def test_aggregator_does_more_work(self, small_arch, cluster):
        aggregator = cluster.aggregator_workload().build(small_arch)
        slice_mapping = cluster.slice_workload().build(small_arch)
        assert (
            aggregator.writes_per_iteration
            > slice_mapping.writes_per_iteration
        )

    def test_slice_lane0_ships_its_partial(self, small_arch, cluster):
        # Non-aggregator lane 0 must read its final sum out (send), not
        # keep it: its program has a tagged send, no 'sum' output.
        mapping = cluster.slice_workload().build(small_arch)
        program = mapping.assignment[0]
        assert "sum" not in program.outputs

    def test_aggregator_extra_receives_extend_the_sum(
        self, small_arch, cluster
    ):
        aggregator = cluster.aggregator_workload().build(small_arch)
        program = aggregator.assignment[0]
        # Local rounds (log2 32 = 5) + 3 inter-array receives: the final
        # sum is 2b + 8 bits wide.
        assert len(program.outputs["sum"]) == 16 + 5 + 3

    def test_needs_two_arrays(self):
        with pytest.raises(ValueError):
            PartitionedDotProduct(n_arrays=1)


class TestClusterRuns:
    def test_fixed_role_imbalance(self, small_arch, cluster):
        result = cluster.run(small_arch, BalanceConfig(), iterations=100)
        assert result.n_arrays == 4
        assert result.wear_imbalance > 1.05
        lifetimes = result.lifetimes()
        # The aggregator (index 0) is the weakest link.
        assert lifetimes[0].iterations_to_failure == min(
            e.iterations_to_failure for e in lifetimes
        )

    def test_rotation_levels_the_cluster(self, small_arch, cluster):
        fixed = cluster.run(small_arch, BalanceConfig(), iterations=100)
        rotated = cluster.run(
            small_arch, BalanceConfig(), iterations=100,
            rotate_aggregator=True,
        )
        assert rotated.wear_imbalance < fixed.wear_imbalance
        assert rotated.wear_imbalance == pytest.approx(1.0, abs=1e-6)
        assert (
            rotated.cluster_iterations_to_failure
            > fixed.cluster_iterations_to_failure
        )

    def test_rotation_conserves_total_writes(self, small_arch, cluster):
        fixed = cluster.run(small_arch, BalanceConfig(), iterations=100)
        rotated = cluster.run(
            small_arch, BalanceConfig(), iterations=100,
            rotate_aggregator=True,
        )
        total = lambda r: sum(x.state.total_writes for x in r.results)
        assert total(rotated) == pytest.approx(total(fixed))

    def test_rotated_shares_sum_without_wrapping(self, small_arch, cluster):
        # Each share's counters fit uint16, their sum passes 65,535 at
        # some cell: the combined counts must equal the float64 sum.
        iterations = 2800
        share = iterations // cluster.n_arrays
        rotated = cluster.run(
            small_arch, BalanceConfig(), iterations=iterations,
            rotate_aggregator=True, seed=3,
        )
        for index, result in enumerate(rotated.results):
            simulator = EnduranceSimulator(
                small_arch, SimulationSettings(seed=3 + index,
                                               track_reads=False)
            )
            shares = (
                simulator.run(cluster.aggregator_workload(),
                              BalanceConfig(), share),
                simulator.run(cluster.slice_workload(), BalanceConfig(),
                              iterations - share),
            )
            assert all(
                part.state.write_counts.dtype == np.uint16 for part in shares
            )
            expected = sum(
                part.state.write_counts.astype(np.float64) for part in shares
            )
            assert expected.max() > 65535
            assert result.state.write_counts.dtype == np.uint32
            assert np.array_equal(result.state.write_counts, expected)

    def test_rotation_requires_divisible_iterations(self, small_arch, cluster):
        with pytest.raises(ValueError, match="divisible"):
            cluster.run(
                small_arch, BalanceConfig(), iterations=101,
                rotate_aggregator=True,
            )

    def test_invalid_iterations(self, small_arch, cluster):
        with pytest.raises(ValueError):
            cluster.run(small_arch, BalanceConfig(), iterations=0)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_run_passes_no_legacy_kwargs(self, small_arch, cluster, rotate):
        # The cluster drives its simulators through SimulationSettings
        # and emits no deprecation warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = cluster.run(
                small_arch, BalanceConfig(), iterations=100,
                rotate_aggregator=rotate,
            )
        assert result.rotated is rotate
        # Reads stay untracked: the cluster's settings are writes-only.
        assert all(not r.state.read_counts.any() for r in result.results)


class TestFunctionalSanity:
    def test_slice_partial_sums_are_correct(self, cluster):
        # The slice workload's lane-0 program still computes a correct
        # local dot-product partial; check via the base functional wiring.
        from repro.workloads.base import evaluate_networked

        base = cluster.base
        programs, order = base.build_functional(NAND_LIBRARY)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=base.n_elements)
        b = rng.integers(0, 256, size=base.n_elements)
        operands = {
            lane: {"a": int(a[lane]), "b": int(b[lane])}
            for lane in range(base.n_elements)
        }
        outputs, _ = evaluate_networked(programs, operands, order)
        assert outputs[0]["sum"] == int(np.dot(a, b))
