"""Tests for the trace-driven workload frontend.

Covers the parser (typed IR, line-numbered errors), the address-mapping
bijections (property-tested per policy), the lowering golden path
(parse -> lower -> verify clean), functional equivalence of the lowered
GEMV network, and bit-determinism through the simulator, engine, and
fleet cohorts.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.gates.library import NAND_LIBRARY
from repro.verify import verify_mapping, verify_network
from repro.workloads.base import evaluate_networked
from repro.workloads.trace import (
    MAPPING_POLICIES,
    PIMULATOR_FORMAT,
    AddressFormat,
    AddressMapping,
    TraceLoweringError,
    TraceOp,
    TraceParseError,
    TraceWorkload,
    fixture_path,
    gemv_addresses,
    iter_trace,
    load_gemv_fixture,
    parse_trace,
    write_gemv_trace,
)

DETERMINISM_CONFIGS = ("StxSt", "RaxRa", "BsxBs+Hw")


def small_gemv(tmp_path, rows=4, cols=4):
    """A 4x4 GEMV trace workload (fast enough for simulator tests)."""
    path = write_gemv_trace(tmp_path / "small.trace", rows=rows, cols=cols)
    return TraceWorkload.from_file(path, name="gemv-small")


class TestParser:
    def test_fixture_parses_to_typed_ir(self):
        instructions = parse_trace(fixture_path())
        ops = [instr.op for instr in instructions]
        assert ops.count(TraceOp.PIM_MAC) == 256
        assert ops.count(TraceOp.MEM_WRITE) == 16
        assert ops[-1] is TraceOp.PIM_EXIT
        mac = next(i for i in instructions if i.op is TraceOp.PIM_MAC)
        assert mac.dst == mac.operands[0]
        assert mac.sources == mac.operands[1:]
        assert mac.line > 0

    def test_comments_and_blank_lines_tolerated(self):
        text = (
            "# full-line hash comment\n"
            "// full-line slash comment\n"
            "\n"
            "PIM ADD 0x10 0x20 0x30  # trailing comment\n"
            "PIM EXIT // done\n"
        )
        instructions = parse_trace(text)
        assert [i.op for i in instructions] == [
            TraceOp.PIM_ADD, TraceOp.PIM_EXIT,
        ]

    def test_mem_accepts_both_address_forms(self):
        composed = PIMULATOR_FORMAT.compose(row=7)
        decomposed = parse_trace("W MEM 0 0 7\nPIM EXIT\n")[0]
        direct = parse_trace(f"W MEM 0x{composed:X}\nPIM EXIT\n")[0]
        assert decomposed.op is TraceOp.MEM_WRITE
        assert decomposed.operands == direct.operands

    def test_register_and_scratchpad_ops(self):
        text = "W GPR 3\nR CFR 1\nSB W [0x100]\nPIM EXIT\n"
        ops = [i.op for i in parse_trace(text)]
        assert TraceOp.GPR_WRITE in ops
        assert TraceOp.CFR_READ in ops

    def test_stops_after_exit(self):
        text = "PIM EXIT\nPIM ADD 0x10 0x20 0x30\n"
        assert [i.op for i in parse_trace(text)] == [TraceOp.PIM_EXIT]

    def test_errors_carry_line_numbers(self):
        text = "PIM ADD 0x10 0x20 0x30\nPIM FROBNICATE 0x1\n"
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text)
        assert excinfo.value.line == 2
        assert "trace line 2" in str(excinfo.value)

    def test_arity_checked(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_trace("PIM ADD 0x10\n")

    def test_address_outside_format_is_a_parse_error(self):
        text = "PIM ADD 0x10 0x20 0x30\nPIM ADD 0x10 0x20 0xFFFFFFFFFFFF\n"
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text)
        assert excinfo.value.line == 2

    def test_only_newlines_end_lines(self):
        # \x0b and \u2028 split str.splitlines() but not a file line.
        text = "# a\x0b# b\u2028# c\nPIM FROBNICATE\n"
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text)
        assert excinfo.value.line == 2

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"W MEM 0 0 1\r\nPIM NOP \xff\nPIM EXIT\n")
        with pytest.raises(TraceParseError, match="UTF-8") as excinfo:
            parse_trace(path)
        assert excinfo.value.line == 2

    def test_non_strict_skips_unknown_dialect(self):
        text = "PIM FROBNICATE 0x1\nPIM ADD 0x10 0x20 0x30\nPIM EXIT\n"
        ops = [i.op for i in iter_trace(text, strict=False)]
        assert ops == [TraceOp.PIM_ADD, TraceOp.PIM_EXIT]


#: Byte strings the fuzzer splices into trace lines: parser keywords,
#: numbers at and past the address width, comment markers, and line
#: separators that only ``str.splitlines`` (not a file) breaks at.
FUZZ_TOKENS = [
    b"PIM", b"MEM", b"GPR", b"CFR", b"SB", b"W", b"R", b"EXIT", b"MAD",
    b"0x", b"-1", b"0", b"0x0000FFFFFFFFF", b"0x1FFFFFFFFF", b"[0x10]",
    b"1_0", b"99999999999999999999", b"#", b"//", b"\t", b"\x0b",
    b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode(), "\u00df".encode(),
    b"\xff", b"\xc3",
]

_fuzz_bytes = st.one_of(
    st.sampled_from(FUZZ_TOKENS),
    st.text(
        st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\r\n"
        ),
        max_size=6,
    ).map(str.encode),
    st.binary(max_size=3).map(
        lambda b: b.replace(b"\n", b"").replace(b"\r", b"")
    ),
)


def _mutate(data, line: bytes) -> bytes:
    """Apply 1-3 random splices, deletions or token swaps to ``line``."""
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["insert", "delete", "token"]))
        if kind == "insert":
            at = data.draw(st.integers(0, len(line)))
            line = line[:at] + data.draw(_fuzz_bytes) + line[at:]
        elif kind == "delete" and line:
            at = data.draw(st.integers(0, len(line) - 1))
            line = line[:at] + line[at + data.draw(st.integers(1, 4)):]
        else:
            tokens = line.split(b" ")
            at = data.draw(st.integers(0, len(tokens) - 1))
            tokens[at] = data.draw(_fuzz_bytes)
            line = b" ".join(tokens)
    return line


def _gemv_file_lines():
    """The lines of a small generated GEMV trace file, as bytes."""
    with tempfile.TemporaryDirectory() as scratch:
        path = write_gemv_trace(Path(scratch) / "base.trace", rows=3, cols=2)
        return path.read_bytes().split(b"\n")[:-1]


class TestParserFuzz:
    """Mutated lines of a generated trace either parse or raise
    :class:`TraceParseError` at the mutated line, and nothing else."""

    BASE = _gemv_file_lines()

    @staticmethod
    def _write(scratch, lines) -> Path:
        path = Path(scratch) / "fuzz.trace"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_lines_parse_or_fail_at_their_line(self, data):
        lines = list(self.BASE)
        mutated = data.draw(
            st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=2)
        )
        for index in mutated:
            lines[index] = _mutate(data, lines[index])
        with tempfile.TemporaryDirectory() as scratch:
            path = self._write(scratch, lines)
            for strict in (True, False):
                try:
                    parse_trace(path, strict=strict)
                except TraceParseError as error:
                    assert error.line in [index + 1 for index in mutated]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_file_and_text_sources_agree(self, data):
        lines = list(self.BASE)
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = _mutate(data, lines[index])
        try:
            text = b"\n".join(lines).decode("utf-8") + "\n"
        except UnicodeDecodeError:
            return
        outcomes = []
        with tempfile.TemporaryDirectory() as scratch:
            path = self._write(scratch, lines)
            for source in (path, text, text.replace("\n", "\r\n")):
                try:
                    outcomes.append(parse_trace(source))
                except TraceParseError as error:
                    outcomes.append({"line": error.line, "why": error.reason})
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        if isinstance(outcomes[0], dict):
            assert outcomes[0]["line"] == index + 1


class TestAddressFormat:
    def test_pimulator_layout(self):
        assert PIMULATOR_FORMAT.total_bits == 35
        assert PIMULATOR_FORMAT.index_bits == 24

    def test_compose_decompose_roundtrip(self):
        address = PIMULATOR_FORMAT.compose(
            rank=1, channel=5, bankgroup=2, bank=3, row=1000, column=17,
            offset=9,
        )
        fields = PIMULATOR_FORMAT.decompose(address)
        assert (fields.rank, fields.channel, fields.bankgroup,
                fields.bank, fields.row, fields.column,
                fields.offset) == (1, 5, 2, 3, 1000, 17, 9)

    def test_flat_index_ignores_rank_column_offset(self):
        base = PIMULATOR_FORMAT.compose(channel=2, bank=1, row=9)
        shifted = PIMULATOR_FORMAT.compose(
            rank=1, channel=2, bank=1, row=9, column=3, offset=4
        )
        assert PIMULATOR_FORMAT.flat_index(base) == \
            PIMULATOR_FORMAT.flat_index(shifted)


SMALL_FORMATS = st.builds(
    AddressFormat,
    channel_bits=st.integers(min_value=1, max_value=3),
    bankgroup_bits=st.integers(min_value=0, max_value=2),
    bank_bits=st.integers(min_value=0, max_value=2),
    row_bits=st.integers(min_value=1, max_value=5),
)


class TestAddressMappingBijectivity:
    @pytest.mark.parametrize("policy", MAPPING_POLICIES)
    @given(address_format=SMALL_FORMATS)
    @settings(max_examples=25, deadline=None)
    def test_policy_permutation_is_bijective(self, policy, address_format):
        mapping = AddressMapping(
            lane_count=4, policy=policy, address_format=address_format
        )
        space = 1 << address_format.index_bits
        images = {mapping.permute(i) for i in range(space)}
        assert images == set(range(space))

    @given(
        address_format=SMALL_FORMATS,
        lane_count=st.integers(min_value=1, max_value=9),
        policy=st.sampled_from(MAPPING_POLICIES),
    )
    @settings(max_examples=50, deadline=None)
    def test_lane_of_is_total_and_in_range(
        self, address_format, lane_count, policy
    ):
        mapping = AddressMapping(
            lane_count=lane_count, policy=policy,
            address_format=address_format,
        )
        for flat in range(1 << address_format.index_bits):
            lane = mapping.permute(flat) % lane_count
            assert 0 <= lane < lane_count

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown mapping policy"):
            AddressMapping(lane_count=4, policy="zigzag")

    def test_out_of_range_index_rejected(self):
        mapping = AddressMapping(lane_count=4)
        with pytest.raises(ValueError, match="outside"):
            mapping.permute(1 << PIMULATOR_FORMAT.index_bits)


class TestGoldenRoundTrip:
    """Bundled fixture: parse -> lower -> verify, zero diagnostics."""

    def test_fixture_lowers_and_verifies_clean(self):
        arch = default_architecture(256, 64)
        workload = load_gemv_fixture()
        mapping = workload.build(arch)
        assert len(mapping.assignment) == 32
        mapping.validate_schedule()  # raises on an inconsistent schedule
        for label in ("StxSt", "BsxBs", "BsxBs+Hw"):
            report = verify_mapping(
                mapping, BalanceConfig.from_label(label), functional=True
            )
            assert report.ok, report.render_text()

    def test_functional_network_verifies_clean(self):
        workload = load_gemv_fixture()
        programs, order = workload.build_functional(
            NAND_LIBRARY, 64, capacity=255
        )
        report = verify_network(programs, order=order)
        assert not report.errors, report.render_text()

    def test_lowered_network_computes_gemv(self):
        workload = load_gemv_fixture()
        programs, order = workload.build_functional(
            NAND_LIBRARY, 64, capacity=255
        )
        out, matrix, vector = gemv_addresses()
        rng = random.Random(7)
        weights = [[rng.randrange(256) for _ in range(16)] for _ in range(16)]
        x = [rng.randrange(256) for _ in range(16)]
        operands = {
            lane: {name: 0 for name in program.inputs}
            for lane, program in programs.items()
        }
        for i in range(16):
            for j in range(16):
                operands[i][f"m{matrix[i][j]:x}"] = weights[i][j]
        for j in range(16):
            operands[16 + j][f"m{vector[j]:x}"] = x[j]
        outputs, _pool = evaluate_networked(programs, operands, order)
        for i in range(16):
            want = sum(weights[i][j] * x[j] for j in range(16))
            assert outputs[i][f"out_{out[i]:x}"] == want


class TestTraceWorkload:
    def test_signature_is_content_addressed(self, tmp_path):
        bundled = load_gemv_fixture()
        copy_path = tmp_path / "copy.trace"
        copy_path.write_text(fixture_path().read_text())
        again = TraceWorkload.from_file(copy_path, name="elsewhere")
        assert bundled.trace_hash == again.trace_hash
        other = small_gemv(tmp_path)
        assert bundled.trace_hash != other.trace_hash
        assert f"trace={bundled.trace_hash}" in bundled.signature

    def test_from_text_equivalent_to_from_file(self, tmp_path):
        text = fixture_path().read_text()
        assert TraceWorkload.from_text(text).trace_hash == \
            load_gemv_fixture().trace_hash

    def test_validation_rejects_bad_parameters(self):
        text = "PIM ADD 0x10 0x20 0x30\nPIM EXIT\n"
        with pytest.raises(ValueError, match="bits"):
            TraceWorkload.from_text(text, bits=1)
        with pytest.raises(ValueError, match="policy"):
            TraceWorkload.from_text(text, policy="zigzag")
        with pytest.raises(TraceLoweringError):
            TraceWorkload.from_text("W GPR 1\nPIM EXIT\n")

    def test_minimum_footprint_supported(self, tmp_path):
        from repro.core.failure import minimum_footprint

        arch = default_architecture(256, 64)
        footprint = minimum_footprint(small_gemv(tmp_path), arch)
        assert 0 < footprint <= arch.lane_size


def test_dataflow_proved_once_per_program(tmp_path, monkeypatch):
    # The build's verify_network and every later verify_mapping share
    # one dataflow memo on each program.
    import repro.verify.api as api

    proved = []
    original = api.check_dataflow

    def counting(program):
        proved.append(program)
        return original(program)

    monkeypatch.setattr(api, "check_dataflow", counting)
    mapping = small_gemv(tmp_path).build(default_architecture(256, 64))
    programs = mapping.distinct_programs()
    assert len(proved) == len(programs)
    for label in ("StxSt", "RaxRa+Hw"):
        for functional in (True, False):
            assert not verify_mapping(
                mapping, BalanceConfig.from_label(label), functional
            ).errors
    assert sorted(map(id, proved)) == sorted(map(id, programs))


class TestDeterminism:
    """Same seed, same trace => bit-identical wear, per balance config."""

    @pytest.mark.parametrize("label", DETERMINISM_CONFIGS)
    def test_simulator_bit_deterministic(self, tmp_path, label):
        arch = default_architecture(256, 64)
        workload = small_gemv(tmp_path)
        config = BalanceConfig.from_label(label)
        counts = []
        for _ in range(2):
            sim = EnduranceSimulator(
                arch, settings=SimulationSettings(seed=11)
            )
            result = sim.run(workload, config, 40)
            counts.append(np.array(result.state.write_counts, copy=True))
        assert np.array_equal(counts[0], counts[1])

    def test_engine_matches_direct_simulation(self, tmp_path):
        from repro.engine import run_simulation

        arch = default_architecture(256, 64)
        workload = small_gemv(tmp_path)
        config = BalanceConfig.from_label("BsxBs")
        settings = SimulationSettings(seed=11)
        direct = EnduranceSimulator(arch, settings=settings).run(
            workload, config, 40
        )
        routed = run_simulation(workload, config, arch, 40, settings=settings)
        assert np.array_equal(
            direct.state.write_counts, routed.state.write_counts
        )

    def test_fleet_cohort_runs_gemv_trace(self):
        from repro.fleet import (
            CohortSpec,
            FleetSpec,
            PopulationSpec,
            TrafficSpec,
            run_campaign,
        )

        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=2,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("gemv-trace"),),
            ),
            traffic=TrafficSpec(model="deterministic", rate=100.0),
            days=2,
            seed=3,
            rows=256,
            cols=64,
            cohort_iterations=25,
        )
        def canonical(report):
            payload = report.to_json()
            # wall-clock timing is the one legitimately nondeterministic
            # field; everything else must be bit-stable.
            def strip(node):
                if isinstance(node, dict):
                    return {
                        k: strip(v) for k, v in node.items() if k != "wall_s"
                    }
                if isinstance(node, list):
                    return [strip(v) for v in node]
                return node

            return json.dumps(strip(payload), sort_keys=True)

        assert canonical(run_campaign(spec)) == canonical(run_campaign(spec))


class TestCapacityExhaustion:
    def test_overfull_lane_raises_memoryerror(self):
        # 16 MACs accumulate into one lane; a tiny lane cannot hold them.
        arch = default_architecture(32, 8)
        with pytest.raises(MemoryError):
            load_gemv_fixture().build(arch)


def test_fixture_file_matches_generator(tmp_path):
    regenerated = write_gemv_trace(tmp_path / "regen.trace")
    assert regenerated.read_text() == fixture_path().read_text()


def test_fixture_hash_pinned():
    """The bundled fixture is part of the benchmark contract (E35)."""
    digest = hashlib.sha256(fixture_path().read_bytes()).hexdigest()
    assert load_gemv_fixture().trace_hash  # content hash derives from IR
    assert len(digest) == 64
