"""Tests for the BNN-neuron and matrix-vector workloads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.telemetry import Telemetry, set_telemetry
from repro.gates.library import NAND_LIBRARY
from repro.workloads.base import evaluate_networked
from repro.workloads.bnn import BinaryNeuron
from repro.workloads.matvec import MatrixVectorProduct


class TestBinaryNeuron:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_neuron_computes_xnor_popcount_threshold(self, small_arch, seed):
        workload = BinaryNeuron(n_inputs=12)
        program = workload.build_program(small_arch)
        rng = np.random.default_rng(seed)
        mask = (1 << 12) - 1
        for _ in range(10):
            x = int(rng.integers(0, 2**12))
            w = int(rng.integers(0, 2**12))
            threshold = int(rng.integers(0, 13))
            matches = bin(~(x ^ w) & mask).count("1")
            outputs, _ = program.evaluate(
                {"x": x, "w": w, "threshold": threshold}
            )
            assert outputs["activation"] == int(matches >= threshold)

    def test_gate_count_is_linear_in_fanin(self, small_arch):
        small = BinaryNeuron(n_inputs=8).build_program(small_arch)
        # A 16-input neuron on a taller lane (needs 2n+ live bits).
        from repro.array.architecture import default_architecture

        big = BinaryNeuron(n_inputs=16).build_program(
            default_architecture(256, 64)
        )
        assert big.gate_count < 2.5 * small.gate_count

    def test_vastly_cheaper_than_multiplication(self, small_arch):
        from repro.synth.analysis import multiplier_counts

        neuron = BinaryNeuron(n_inputs=8).build_program(small_arch)
        assert neuron.gate_count < multiplier_counts(32, NAND_LIBRARY).gates / 20

    def test_mapping_full_utilization(self, small_arch):
        mapping = BinaryNeuron(n_inputs=8).build(small_arch)
        assert mapping.lane_utilization == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryNeuron(n_inputs=1)

    def test_describe(self):
        assert "popcount" in BinaryNeuron().describe()


class TestMatrixVectorProduct:
    def test_functional_group_computes_dot_product(self):
        workload = MatrixVectorProduct(elements_per_row=4, bits=4)
        programs, order = workload.build_functional_group(NAND_LIBRARY)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 16, size=4)
        b = rng.integers(0, 16, size=4)
        operands = {
            lane: {"a": int(a[lane]), "b": int(b[lane])} for lane in range(4)
        }
        outputs, _ = evaluate_networked(programs, operands, order)
        assert outputs[0]["sum"] == int(np.dot(a, b))

    def test_groups_tile_the_array(self, small_arch):
        workload = MatrixVectorProduct(elements_per_row=16, bits=8)
        mapping = workload.build(small_arch)
        assert workload.rows_hosted(small_arch) == small_arch.lane_count // 16
        assert mapping.active_lane_count == small_arch.lane_count

    def test_role_programs_shared_across_groups(self, small_arch):
        mapping = MatrixVectorProduct(elements_per_row=16, bits=8).build(
            small_arch
        )
        # log2(16) + 1 = 5 roles regardless of group count.
        assert len(mapping.distinct_programs()) == 5

    def test_leader_stripe_has_group_period(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0, track_reads=False)
        )
        workload = MatrixVectorProduct(elements_per_row=16, bits=8)
        result = sim.run(workload, BalanceConfig(), 50)
        lanes = result.write_distribution.lane_profile()
        assert np.allclose(lanes[:16], lanes[16:32])
        assert lanes[0] > lanes[8]

    def test_utilization_matches_underlying_dot(self, small_arch):
        matvec = MatrixVectorProduct(elements_per_row=16, bits=8).build(
            small_arch
        )
        from repro.workloads.dotproduct import DotProduct

        dot = DotProduct(n_elements=16, bits=8).build(small_arch)
        scale = small_arch.lane_count // 16
        assert matvec.lane_utilization == pytest.approx(
            dot.lane_utilization * scale
        )

    def test_too_few_lanes_rejected(self, tiny_arch):
        with pytest.raises(ValueError, match="at least"):
            MatrixVectorProduct(elements_per_row=128, bits=4).build(tiny_arch)

    def test_describe(self):
        assert "dot-product" in MatrixVectorProduct().describe()


class TestMatrixVectorSignature:
    """The content hash of ``matvec`` is the same in every process."""

    def test_signature_nests_the_dot_product_signature(self):
        matvec = MatrixVectorProduct(elements_per_row=16, bits=4)
        assert matvec._dot.signature in matvec.signature
        assert " at 0x" not in matvec.signature

    def test_signature_is_equal_across_processes(self):
        code = (
            "from repro.workloads.matvec import MatrixVectorProduct\n"
            "print(MatrixVectorProduct(elements_per_row=16, bits=4)"
            ".signature)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].strip() == (
            MatrixVectorProduct(elements_per_row=16, bits=4).signature
        )

    def test_equal_instances_share_one_mapping(self, small_arch):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            first = mapping_for(
                MatrixVectorProduct(elements_per_row=16, bits=4), small_arch
            )
            second = mapping_for(
                MatrixVectorProduct(elements_per_row=16, bits=4), small_arch
            )
        finally:
            set_telemetry(previous)
        assert first is second
        assert fresh.counters["mapping.memo_hits"] >= 1

    def test_different_parameters_keep_distinct_signatures(self):
        assert (
            MatrixVectorProduct(elements_per_row=16, bits=4).signature
            != MatrixVectorProduct(elements_per_row=16, bits=8).signature
        )
