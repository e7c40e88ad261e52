"""Golden diagnostics: seeded broken artifacts pin exact RPR0xx codes.

Each checker class is demonstrated by at least one deliberately broken
program/config/schedule whose diagnostic code, severity, and location
are asserted exactly — the codes are append-only public contract.
"""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.gates.library import NAND_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.adders import full_adder
from repro.synth.bits import BitVector
from repro.synth.comparator import compare_ge
from repro.synth.program import (
    ConstBit,
    LaneProgram,
    LaneProgramBuilder,
    OperandBit,
    ReadInstr,
    WriteInstr,
)
from repro.verify import (
    CODES,
    Severity,
    check_bounds,
    check_checkpoint,
    check_config,
    check_dataflow,
    check_level_segments,
    check_levels,
    check_manifest,
    check_permutation_rows,
    check_profile_conservation,
    check_schedule,
    check_stream_keys,
    check_trace,
    derive_stream_keys,
    self_lint,
    verify_network,
    verify_program,
)
from repro.workloads.base import Phase
from repro.workloads.vectoradd import VectorAdd


def program(instructions, footprint, inputs=None, outputs=None, name="g"):
    return LaneProgram(name, instructions, footprint, inputs or {}, outputs or {})


def small_program(bits=2):
    """A tiny, fully clean NAND program (the golden *passing* artifact)."""
    builder = LaneProgramBuilder(NAND_LIBRARY, name="clean")
    a = builder.input_vector("a", bits)
    out = a[0]
    for i in range(1, bits):
        out = builder.gate(GateOp.NAND, out, a[i])
    builder.mark_output("r", BitVector((out,)))
    builder.read_out(BitVector((out,)), "r")
    return builder.finish()


class TestRPR001UninitializedRead:
    def test_read_of_unwritten_cell(self):
        p = program(
            [
                WriteInstr(0, OperandBit("a", 0)),
                ReadInstr(0),
                ReadInstr(1),
            ],
            footprint=2,
            inputs={"a": (0,)},
        )
        (d,) = check_dataflow(p)
        assert d.code == "RPR001"
        assert d.severity is Severity.ERROR
        assert d.location.instruction == 2
        assert d.location.address == 1

    def test_each_cell_reported_once(self):
        p = program([ReadInstr(1), ReadInstr(1)], footprint=2)
        assert [d.code for d in check_dataflow(p)] == ["RPR001"]


class TestRPR002DeadWrite:
    def test_write_after_write_without_read(self):
        p = program(
            [
                WriteInstr(0, ConstBit(1)),
                WriteInstr(0, ConstBit(0)),
                ReadInstr(0),
            ],
            footprint=1,
        )
        (d,) = check_dataflow(p)
        assert d.code == "RPR002"
        assert d.severity is Severity.WARNING
        assert d.location.instruction == 0

    def test_final_write_never_read(self):
        p = program([WriteInstr(0, ConstBit(1))], footprint=1)
        (d,) = check_dataflow(p)
        assert d.code == "RPR002"
        assert "never read" in d.message

    def test_scratch_writes_exempt(self):
        # source=None models presets/clears whose value never matters.
        p = program([WriteInstr(0)], footprint=1)
        assert check_dataflow(p) == []


class TestRPR003AndRPR009Bounds:
    def test_footprint_exceeds_lane(self):
        p = small_program()
        (d,) = check_bounds(p, lane_size=p.footprint - 1)
        assert d.code == "RPR003"
        assert d.severity is Severity.ERROR
        assert d.location.program == p.name

    def test_spare_bit_requirement(self):
        p = small_program()
        (d,) = check_bounds(p, lane_size=p.footprint, spare_bit=True)
        assert d.code == "RPR009"
        assert "spare bit" in d.message

    def test_fits_cleanly(self):
        p = small_program()
        assert check_bounds(p, lane_size=p.footprint + 1, spare_bit=True) == []


class TestRPR004Coverage:
    def test_duplicate_stream_slot(self):
        p = program(
            [
                WriteInstr(0, ConstBit(1)),
                ReadInstr(0, tag="t", index=0),
                ReadInstr(0, tag="t", index=0),
            ],
            footprint=1,
        )
        codes = [d.code for d in check_dataflow(p)]
        assert codes == ["RPR004"]

    def test_stream_gap(self):
        p = program(
            [WriteInstr(0, ConstBit(1)), ReadInstr(0, tag="t", index=1)],
            footprint=1,
        )
        (d,) = check_dataflow(p)
        assert d.code == "RPR004"
        assert "slots [0]" in d.message

    def test_unwritten_declared_output(self):
        p = program([], footprint=1, outputs={"r": (0,)})
        (d,) = check_dataflow(p)
        assert d.code == "RPR004"
        assert "no instruction writes" in d.message
        assert d.location.address == 0


class _FakeLevel:
    """A corrupted fused gate level (the compiler never emits one)."""

    def __init__(self, inputs, outputs):
        self.input_addresses = np.asarray(inputs, dtype=np.int64)
        self.output_addresses = np.asarray(outputs, dtype=np.int64)


class TestRPR005LevelHazards:
    def test_write_write_race(self):
        (d,) = check_level_segments([_FakeLevel([0, 1], [5, 5])], "bad")
        assert d.code == "RPR005"
        assert "writes cell 5 twice" in d.message
        assert d.location.place == "level 0"

    def test_read_write_race(self):
        (d,) = check_level_segments([_FakeLevel([2, 3], [2])], "bad")
        assert d.code == "RPR005"
        assert "reads and writes cell 2" in d.message

    def test_compiled_levels_are_hazard_free(self):
        assert check_levels(small_program(4)) == []


class TestRPR006ProfileConservation:
    def test_poisoned_interpreter_counts_detected(self):
        p = small_program()
        # Corrupt the cached interpreter write profile; the compiled SoA
        # arrays still tell the truth, so conservation must fail.
        p._counts_cache[("write", p.footprint, False)] = np.zeros(
            p.footprint, dtype=np.int64
        )
        diagnostics = check_profile_conservation(p)
        assert [d.code for d in diagnostics] == ["RPR006"]
        assert "write profile differs" in diagnostics[0].message

    def test_healthy_program_conserves(self):
        assert check_profile_conservation(small_program(), lane_size=64) == []


class TestRPR007Permutations:
    def test_repeated_address_rejected(self):
        (d,) = check_permutation_rows(np.array([[0, 0, 2]]), 3, "test map")
        assert d.code == "RPR007"
        assert d.location.place == "test map, epoch 0"

    def test_identity_accepted(self):
        assert check_permutation_rows(np.arange(8)[None, :], 8, "id") == []


class TestRPR008Schedule:
    def test_doctored_phase_list_detected(self, tiny_arch):
        mapping = VectorAdd(bits=8).build(tiny_arch)
        mapping.phases = [Phase("bogus", 1, 1)]
        codes = [d.code for d in check_schedule(mapping)]
        assert "RPR008" in codes

    def test_phase_wider_than_array_detected(self, tiny_arch):
        mapping = VectorAdd(bits=8).build(tiny_arch)
        lanes = tiny_arch.lane_count
        mapping.phases = list(mapping.phases) + [Phase("ghost", 0, lanes + 1)]
        messages = [d.message for d in check_schedule(mapping)]
        assert any("lanes but the array has only" in m for m in messages)

    def test_shipped_schedule_clean(self, tiny_arch):
        assert check_schedule(VectorAdd(bits=8).build(tiny_arch)) == []


class TestRPR010Config:
    def test_wear_aware_within_lane_rejected(self):
        config = BalanceConfig.from_label("WaxSt")
        diagnostics = check_config(config, lane_size=16, lane_count=4)
        assert "RPR010" in [d.code for d in diagnostics]
        (d,) = [d for d in diagnostics if d.code == "RPR010"]
        assert config.label in (d.location.place or "")

    def test_wear_aware_between_lanes_accepted(self):
        config = BalanceConfig.from_label("StxWa")
        diagnostics = check_config(
            config, lane_size=16, lane_count=4,
            lane_loads=np.array([3.0, 1.0, 2.0, 0.0]),
        )
        assert diagnostics == []


class TestVerifyNetwork:
    def sender(self, tag="t", width=1, name="send"):
        builder = LaneProgramBuilder(NAND_LIBRARY, name=name)
        a = builder.input_vector("a", width)
        builder.read_out(a, tag)
        return builder.finish()

    def receiver(self, tag="t", width=1, name="recv"):
        builder = LaneProgramBuilder(NAND_LIBRARY, name=name)
        v = builder.receive_vector(tag, width)
        builder.read_out(v, f"{name}-out")
        return builder.finish()

    def test_clean_two_lane_network(self):
        report = verify_network(
            {1: self.sender(), 0: self.receiver()}, order=[1, 0]
        )
        assert report.ok

    def test_order_mismatch(self):
        report = verify_network({0: self.sender()}, order=[0, 1])
        assert report.codes() == ["RPR004"]

    def test_consumed_but_unproduced_tag(self):
        report = verify_network({0: self.receiver()}, order=[0])
        (d,) = report.errors
        assert d.code == "RPR004"
        assert "no earlier lane produces" in d.message

    def test_preseeded_external_tag_accepted(self):
        report = verify_network(
            {0: self.receiver()}, order=[0], externals=["t"]
        )
        assert report.ok

    def test_insufficient_producer_width(self):
        report = verify_network(
            {1: self.sender(width=1), 0: self.receiver(width=2)},
            order=[1, 0],
        )
        (d,) = report.errors
        assert d.code == "RPR004"
        assert "carries only 1 bit" in d.message

    def test_duplicate_production(self):
        report = verify_network(
            {
                2: self.sender(name="send-a"),
                1: self.sender(name="send-b"),
                0: self.receiver(),
            },
            order=[2, 1, 0],
        )
        assert any(
            "produced by more than one lane" in d.message
            for d in report.errors
        )


class TestComparatorBeforeAfter:
    """Satellite: the checker motivated the carry-only comparator.

    The pre-cleanup comparator synthesized full adders and discarded
    every sum bit — exactly the dead writes RPR002 flags. The shipped
    carry-only chain is warning-free.
    """

    BITS = 4

    def _before(self):
        builder = LaneProgramBuilder(NAND_LIBRARY, name="cmp-full-adder")
        a = builder.input_vector("a", self.BITS)
        b = builder.input_vector("b", self.BITS)
        carry = builder.const_bit(1)
        for i in range(self.BITS):
            nb = builder.not_bit(b[i])
            _sum, carry = full_adder(builder, a[i], nb, carry)
        builder.mark_output("ge", BitVector((carry,)))
        builder.read_out(BitVector((carry,)), "ge")
        return builder.finish()

    def _after(self):
        builder = LaneProgramBuilder(NAND_LIBRARY, name="cmp-carry-only")
        a = builder.input_vector("a", self.BITS)
        b = builder.input_vector("b", self.BITS)
        ge = compare_ge(builder, a, b)
        builder.mark_output("ge", BitVector((ge,)))
        builder.read_out(BitVector((ge,)), "ge")
        return builder.finish()

    def test_full_adder_comparator_leaves_dead_writes(self):
        report = verify_program(self._before())
        dead = [d for d in report if d.code == "RPR002"]
        assert len(dead) >= self.BITS  # one discarded sum bit per stage

    def test_carry_only_comparator_is_clean(self):
        report = verify_program(self._after())
        assert report.ok

    def test_both_compute_the_same_predicate(self):
        before, after = self._before(), self._after()
        for a in range(2**self.BITS):
            for b in range(0, 2**self.BITS, 3):
                expected = int(a >= b)
                assert before.evaluate({"a": a, "b": b})[0]["ge"] == expected
                assert after.evaluate({"a": a, "b": b})[0]["ge"] == expected


class TestVerifyProgramComposition:
    def test_clean_program_full_pass(self):
        report = verify_program(small_program(4), lane_size=64)
        assert report.ok

    def test_broken_program_aggregates_codes(self):
        p = program(
            [ReadInstr(0), WriteInstr(1, ConstBit(1))],
            footprint=2,
            outputs={"r": (0,)},
        )
        report = verify_program(p, lane_size=1)
        codes = set(report.codes())
        # uninit read, dead write, unwritten-output coverage, bounds
        assert {"RPR001", "RPR002", "RPR003"} <= codes


class TestRegistryAppendOnly:
    """The registry is an append-only public contract, pinned exactly.

    Adding a code means appending one ``(code, message)`` pair here.
    Any other diff to this baseline — a renamed code, a reworded
    message, a reordered entry — is a contract break this test exists
    to catch.
    """

    BASELINE = (
        ("RPR001", "read of an uninitialized cell"),
        ("RPR002", "dead write (overwritten or never read)"),
        ("RPR003", "cell address outside the array geometry"),
        ("RPR004", "read-out tag / output coverage violation"),
        ("RPR005", "compiled gate level is not hazard-free"),
        ("RPR006", "write/read profile not conserved across representations"),
        ("RPR007", "balance mapping is not a valid permutation"),
        ("RPR008", "schedule violates the lane-load bounds"),
        ("RPR009", "hardware re-mapping has no spare bit"),
        ("RPR010", "invalid balance configuration"),
        ("RPR011", "configuration not eligible for steady-state fast-forward"),
        (
            "RPR012",
            "shard plan is not a disjoint exact cover of the population",
        ),
        (
            "RPR013",
            "plan-level race: overlapping worker write regions or a "
            "parent reduction reading outside fixed shard offsets",
        ),
        ("RPR014", "no-death window bound is unsound for this spec"),
        ("RPR015", "seeded RNG substream key collision or reuse"),
        (
            "RPR016",
            "window-batched draw order can diverge from the serial stream",
        ),
        ("RPR017", "versioned artifact schema violation"),
        ("RPR018", "repo invariant violated (self-lint)"),
        ("RPR019", "run horizon leaves float64's exact integer range (2^53)"),
    )

    def test_registry_matches_baseline_exactly(self):
        assert tuple(CODES.items()) == self.BASELINE

    def test_codes_are_contiguous_and_ascending(self):
        assert list(CODES) == [
            f"RPR{i:03d}" for i in range(1, len(CODES) + 1)
        ]


class TestRPR015StreamKeys:
    def test_collision_across_consumers(self):
        (d,) = check_stream_keys([("a", (7, 1)), ("b", (7, 1))])
        assert d.code == "RPR015"
        assert "collides with" in d.message

    def test_reuse_by_one_consumer(self):
        (d,) = check_stream_keys([("a", (7, 1)), ("a", (7, 1))])
        assert d.code == "RPR015"
        assert "reused by" in d.message

    def test_fleet_spec_streams_are_disjoint(self):
        from repro.fleet import (
            CohortSpec,
            FleetSpec,
            PopulationSpec,
            TrafficSpec,
        )

        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=6,
                technology_mix=(("MRAM", 1.0),),
                cohorts=(CohortSpec(workload="add"),),
                endurance_sigma=0.3,
            ),
            traffic=TrafficSpec(model="poisson", rate=1e6),
            days=10,
            seed=7,
        )
        keys = derive_stream_keys(spec)
        assert check_stream_keys(keys) == []
        # traffic plus one budget stream per array
        assert len(keys) == 1 + spec.population.n_arrays


class TestRPR019Horizon:
    """Past 2^53 total writes the float64 counters round silently."""

    def test_boundary_both_ways(self):
        from repro.verify.api import _check_horizon

        assert _check_horizon("w", 1.0, 2**53 - 1) == []
        (d,) = _check_horizon("w", 1.0, 2**53)
        assert d.code == "RPR019"
        assert d.severity is Severity.ERROR
        assert d.location.place == "workload w"
        # The product is exact, not a float64 that rounds onto 2^53.
        assert _check_horizon("w", 3.0, (2**53 - 2) // 3) == []
        assert _check_horizon("w", 3.0, (2**53 + 1) // 3)

    def test_paper_horizon_passes_and_the_bound_is_tight(self):
        from repro.array.architecture import default_architecture
        from repro.core.simulator import mapping_for
        from repro.verify import verify_mapping
        from repro.workloads.registry import get_workload

        mapping = mapping_for(get_workload("mult"), default_architecture())
        config = BalanceConfig.from_label("BsxBs")
        assert verify_mapping(
            mapping, config, functional=False, iterations=100_000
        ).ok
        per_iteration = int(mapping.writes_per_iteration)
        assert per_iteration == mapping.writes_per_iteration
        first_refused = -(-(2**53) // per_iteration)
        assert "RPR019" not in verify_mapping(
            mapping, config, functional=False, iterations=first_refused - 1
        ).codes()
        assert "RPR019" in verify_mapping(
            mapping, config, functional=False, iterations=first_refused
        ).codes()

    def test_simulator_and_engine_refuse_before_running(self, tiny_arch):
        from repro.core.simulator import EnduranceSimulator
        from repro.engine import JobSpec
        from repro.verify import VerificationError, verify_spec
        from repro.workloads.multiply import ParallelMultiplication

        workload = ParallelMultiplication(bits=8)
        config = BalanceConfig.from_label("BsxBs")
        with pytest.raises(VerificationError) as err:
            EnduranceSimulator(tiny_arch).run(workload, config, 2**53)
        assert err.value.report.codes() == ["RPR019"]
        spec = JobSpec(
            workload=workload, architecture=tiny_arch, config=config,
            iterations=2**53,
        )
        assert verify_spec(spec).codes() == ["RPR019"]


    def test_tracked_reads_bound_the_horizon_too(self):
        # Without pre-sets every NAND reads two cells and writes one, so
        # a multiply's reads outnumber its writes: a horizon past the
        # read bound but inside the write bound is refused only when the
        # run tracks reads.
        from repro.array.architecture import PINATUBO
        from repro.core.settings import SimulationSettings
        from repro.core.simulator import EnduranceSimulator, mapping_for
        from repro.engine import JobSpec
        from repro.verify import VerificationError, verify_mapping, verify_spec
        from repro.workloads.multiply import ParallelMultiplication

        arch = PINATUBO.resized(64, 16)
        workload = ParallelMultiplication(bits=8)
        mapping = mapping_for(workload, arch)
        writes = int(mapping.writes_per_iteration)
        reads = int(mapping.reads_per_iteration)
        assert reads > writes
        horizon = -(-(2**53) // reads)  # first horizon past the read bound
        assert horizon * writes < 2**53
        config = BalanceConfig.from_label("StxSt")

        def codes(track_reads):
            return verify_mapping(
                mapping, config, functional=False, iterations=horizon,
                track_reads=track_reads,
            ).codes()

        assert codes(False) == []
        assert codes(True) == ["RPR019"]
        (diagnostic,) = verify_mapping(
            mapping, config, functional=False, iterations=horizon,
            track_reads=True,
        ).errors
        assert f"{reads} reads/iteration" in diagnostic.message
        assert "RPR019" not in verify_mapping(
            mapping, config, functional=False, iterations=horizon - 1,
            track_reads=True,
        ).codes()

        writes_only = SimulationSettings(track_reads=False)
        result = EnduranceSimulator(arch, writes_only).run(
            workload, config, horizon
        )
        assert result.state.write_counts.sum() == horizon * writes
        with pytest.raises(VerificationError) as err:
            EnduranceSimulator(arch, SimulationSettings()).run(
                workload, config, horizon
            )
        assert err.value.report.codes() == ["RPR019"]
        for track_reads, expected in ((False, []), (True, ["RPR019"])):
            spec = JobSpec(
                workload=workload, architecture=arch, config=config,
                iterations=horizon, track_reads=track_reads,
            )
            assert verify_spec(spec).codes() == expected


class TestRPR017Schemas:
    def _checkpoint(self, **overrides):
        payload = {
            "version": 2,
            "campaign_hash": "cafe",
            "day": 3,
            "state": {
                "day": 3,
                "cumulative": np.array([1.0, 2.0]),
                "death_day": np.array([-1, -1], dtype=np.int64),
                "served": 10,
                "dropped": 0,
                "traffic_state": None,
                "rng_state": {},
            },
        }
        payload.update(overrides)
        return payload

    def test_valid_checkpoint_is_clean(self):
        assert check_checkpoint(self._checkpoint()) == []

    def test_version_drift(self):
        (d,) = check_checkpoint(self._checkpoint(version=99))
        assert d.code == "RPR017"
        assert "CHECKPOINT_VERSION" in d.message

    def test_missing_state_keys(self):
        broken = self._checkpoint()
        del broken["state"]["rng_state"]
        (d,) = check_checkpoint(broken)
        assert d.code == "RPR017"
        assert "rng_state" in d.message

    def test_vector_length_disagreement(self):
        broken = self._checkpoint()
        broken["state"]["death_day"] = np.array([-1], dtype=np.int64)
        (d,) = check_checkpoint(broken)
        assert d.code == "RPR017"
        assert "disagree" in d.message

    @pytest.mark.parametrize(
        "key, vector",
        [
            ("cumulative", [1.0, 2.0]),
            ("cumulative", np.array([1, 2])),
            ("cumulative", np.zeros((1, 2))),
            ("death_day", np.array([-1.0, -1.0])),
            ("death_day", np.array([-1, -1], dtype=np.int32)),
        ],
    )
    def test_vector_not_a_1d_array_of_its_dtype(self, key, vector):
        broken = self._checkpoint()
        broken["state"][key] = vector
        (d,) = check_checkpoint(broken)
        assert d.code == "RPR017"
        assert key in d.message and "1-D" in d.message

    def test_manifest_missing_keys(self):
        (d,) = check_manifest({"content_hash": "cafe"})
        assert d.code == "RPR017"
        assert "missing required key(s)" in d.message

    def test_trace_lines_located_individually(self):
        lines = [
            '{"event": "sim_start"',  # unparsable
            "",  # blank lines are fine
            '{"no_event_field": true}',  # schema violation
        ]
        diagnostics = check_trace(lines)
        assert [d.code for d in diagnostics] == ["RPR017", "RPR017"]
        assert diagnostics[0].location.place == "line 1"
        assert diagnostics[1].location.place == "line 3"


class TestRPR018SelfLint:
    def test_shipped_tree_is_clean(self):
        assert self_lint() == []

    def test_undeclared_event_and_counter(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            'tele.emit("no_such_event", x=1)\n'
            'tele.count("no.such.counter")\n'
        )
        diagnostics = self_lint(pkg)
        assert [d.code for d in diagnostics] == ["RPR018", "RPR018"]
        assert "EVENT_FIELDS" in diagnostics[0].message
        assert "KNOWN_COUNTERS" in diagnostics[1].message
        assert diagnostics[0].location.place == "pkg/mod.py:1"

    def test_phantom_dunder_all_export(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            'def real():\n    pass\n\n__all__ = ["real", "phantom"]\n'
        )
        (d,) = self_lint(pkg)
        assert d.code == "RPR018"
        assert "phantom" in d.message

    def test_unregistered_diagnostic_code(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            'd = Diagnostic("RPR999", severity, "message")\n'
        )
        (d,) = self_lint(pkg)
        assert d.code == "RPR018"
        assert "RPR999" in d.message

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def broken(:\n")
        (d,) = self_lint(pkg)
        assert d.code == "RPR018"
        assert "does not parse" in d.message
