"""The flat-column static checks against their per-instruction oracles.

``check_dataflow`` proves RPR001/002/004 clean over a program's columns
and runs the per-instruction walk (the reporter) only when a finding
exists; RPR005 proves race-freedom over flat level ids and cuts
per-level views for :func:`check_level_segments` only on a race. These
tests pin each fast path to its oracle: a mutation corpus of shipped
programs for the dataflow report, fabricated racy schedules for RPR005,
and spies showing clean programs never pay the slow path.
"""

import numpy as np
import pytest

from repro.array.architecture import default_architecture
from repro.gates.gate import Gate
from repro.gates.library import (
    MAJ_LIBRARY,
    MINIMAL_LIBRARY,
    NAND_LIBRARY,
    NOR_LIBRARY,
)
from repro.synth.multiplier import multiply
from repro.synth.program import (
    ConstBit,
    ExternalBit,
    LaneProgram,
    LaneProgramBuilder,
    ReadInstr,
    WriteInstr,
)
from repro.verify import check_dataflow, check_level_segments, check_levels
from repro.verify import dataflow
from repro.verify.api import verify_mapping, verify_network
from repro.verify.dataflow import _walk_dataflow, check_level_columns
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.vectoradd import VectorAdd

#: Mutants drawn per shipped program.
MUTANTS_PER_PROGRAM = 120


def _multiply_program(library, bits=4):
    builder = LaneProgramBuilder(library, name=f"mult-{library.name}")
    a = builder.input_vector("a", bits)
    b = builder.input_vector("b", bits)
    product = multiply(builder, a, b)
    builder.mark_output("p", product)
    builder.read_out(product, tag="p")
    return builder.finish()


def _shipped_programs():
    arch = default_architecture(64, 64)
    libraries = (NAND_LIBRARY, MINIMAL_LIBRARY, NOR_LIBRARY, MAJ_LIBRARY)
    programs = [_multiply_program(library) for library in libraries]
    for workload in (
        ParallelMultiplication(bits=4),
        VectorAdd(bits=8),
        DotProduct(n_elements=4, bits=4),
    ):
        programs.extend(workload.build(arch).distinct_programs())
    return programs


def _rebuilt(program, instructions=None, outputs=None, footprint=None):
    return LaneProgram(
        program.name,
        program.instructions if instructions is None else instructions,
        program.footprint if footprint is None else footprint,
        program.inputs,
        program.outputs if outputs is None else outputs,
    )


def _mutant(program, rng):
    """One random edit of ``program`` that still constructs."""
    instructions = list(program.instructions)
    outputs = dict(program.outputs)
    footprint = program.footprint
    at = int(rng.integers(len(instructions)))
    instr = instructions[at]
    edit = int(rng.integers(9))
    if edit == 0:
        del instructions[at]
    elif edit == 1:
        instructions.insert(at, instr)
    elif edit == 2:
        other = int(rng.integers(len(instructions)))
        instructions[at], instructions[other] = instr, instructions[at]
    elif edit == 3:
        address = int(rng.integers(footprint))
        if isinstance(instr, Gate):
            slot = int(rng.integers(len(instr.inputs) + 1))
            inputs = list(instr.inputs)
            output = instr.output
            if slot == len(inputs):
                output = address
            else:
                inputs[slot] = address
            if output in inputs:
                return None
            instructions[at] = Gate(instr.op, tuple(inputs), output)
        elif isinstance(instr, WriteInstr):
            instructions[at] = WriteInstr(address, instr.source)
        else:
            instructions[at] = ReadInstr(address, instr.tag, instr.index)
    elif edit == 4:
        reads = [
            i for i, x in enumerate(instructions)
            if isinstance(x, ReadInstr) and x.tag is not None
        ]
        if not reads:
            return None
        at = reads[int(rng.integers(len(reads)))]
        read = instructions[at]
        index = max(0, read.index + int(rng.choice([-1, 1, 3])))
        instructions[at] = ReadInstr(read.address, read.tag, index)
    elif edit == 5:
        if not isinstance(instr, WriteInstr):
            return None
        source = None if instr.source is not None else ConstBit(1)
        instructions[at] = WriteInstr(instr.address, source)
    elif edit == 6:
        if not outputs:
            return None
        name = sorted(outputs)[int(rng.integers(len(outputs)))]
        addresses = list(outputs[name])
        del addresses[int(rng.integers(len(addresses)))]
        outputs[name] = tuple(addresses)
    elif edit == 7:
        outputs["extra"] = (int(rng.integers(footprint)),)
    else:
        # A declared output on a cell no instruction touches.
        outputs["extra"] = (footprint,)
        footprint += 1
    return _rebuilt(program, instructions, outputs, footprint)


class TestDataflowFastPath:
    def test_mutation_corpus_reports_exactly_as_the_walk(self):
        rng = np.random.default_rng(2026)
        with_findings = clean = 0
        for program in _shipped_programs():
            made = 0
            while made < MUTANTS_PER_PROGRAM:
                mutant = _mutant(program, rng)
                if mutant is None:
                    continue
                made += 1
                expected = _walk_dataflow(mutant)
                assert check_dataflow(mutant) == expected, mutant.name
                if expected:
                    with_findings += 1
                else:
                    clean += 1
        # Both outcomes are well represented.
        assert with_findings > 300
        assert clean > 100

    def test_clean_programs_never_run_the_walk(self, monkeypatch):
        def refuse(program):
            raise AssertionError(f"walked clean program {program.name}")

        monkeypatch.setattr(dataflow, "_walk_dataflow", refuse)
        for program in _shipped_programs():
            assert check_dataflow(_rebuilt(program)) == []
        mapping = DotProduct(n_elements=4, bits=4).build(
            default_architecture(64, 64)
        )
        assert verify_mapping(mapping).ok
        assert verify_network({0: _multiply_program(MAJ_LIBRARY)}, [0]).ok

    def test_a_finding_runs_the_walk(self, monkeypatch):
        calls = []
        walk = dataflow._walk_dataflow

        def spy(program):
            calls.append(program.name)
            return walk(program)

        monkeypatch.setattr(dataflow, "_walk_dataflow", spy)
        program = LaneProgram(
            "dead", [WriteInstr(0, ConstBit(1))], 1, {}, {}
        )
        (finding,) = check_dataflow(program)
        assert finding.code == "RPR002"
        assert calls == ["dead"]


class _Level:
    def __init__(self, inputs, outputs):
        self.input_addresses = np.asarray(inputs, dtype=np.int64)
        self.output_addresses = np.asarray(outputs, dtype=np.int64)


class TestRPR005FlatLevels:
    @pytest.mark.parametrize(
        "levels, outputs, inputs, views",
        [
            pytest.param(
                [0, 0], [5, 5], [[0, 1, -1], [2, 3, -1]],
                [([0, 1, 2, 3], [5, 5])],
                id="write-write",
            ),
            pytest.param(
                [0, 0, 0], [7, 8, 9], [[0, -1, -1], [7, 1, -1], [2, 3, 4]],
                [([0, 7, 1, 2, 3, 4], [7, 8, 9])],
                id="read-write",
            ),
            pytest.param(
                [0, 0, 1, 1, 1],
                [5, 5, 7, 8, 9],
                [[0, 1, -1], [2, 3, -1], [0, -1, -1], [7, 1, -1], [2, 3, 4]],
                [([0, 1, 2, 3], [5, 5]), ([0, 7, 1, 2, 3, 4], [7, 8, 9])],
                id="both",
            ),
        ],
    )
    def test_racy_columns_fall_back_to_the_reporter(
        self, levels, outputs, inputs, views
    ):
        found = check_level_columns(levels, outputs, inputs, "bad")
        expected = check_level_segments(
            [_Level(ins, outs) for ins, outs in views], "bad"
        )
        assert found
        assert {d.code for d in found} == {"RPR005"}
        assert found == expected

    def test_corrupted_compiled_levels_are_reported(self):
        program = _multiply_program(NAND_LIBRARY)
        compiled = program.compiled()
        assert check_levels(program) == []
        # Merge every level into one: the fused level now races.
        merged = np.zeros_like(compiled.gate_levels)
        compiled.gate_levels = merged
        diagnostics = check_levels(program)
        assert diagnostics
        assert {d.code for d in diagnostics} == {"RPR005"}
        assert {d.location.place for d in diagnostics} == {"level 0"}

    def test_clean_columns_never_cut_views(self, monkeypatch):
        def refuse(segments, name):
            raise AssertionError("cut views of a race-free schedule")

        monkeypatch.setattr(dataflow, "check_level_segments", refuse)
        for program in _shipped_programs():
            assert check_levels(program) == []

    def test_no_gates_no_findings(self):
        empty = np.zeros(0, dtype=np.int64)
        assert check_level_columns(empty, empty, empty, "none") == []


@pytest.mark.parametrize("tag_index", [0, 1])
def test_network_wiring_reads_the_columns(tag_index):
    # A consumer reading slot 1 of a 1-bit stream is flagged; slot 0 is
    # fine. The wiring pass reads the source and tag columns.
    producer = LaneProgram(
        "producer",
        [WriteInstr(0, ConstBit(1)), ReadInstr(0, tag="x", index=0)],
        1,
        {},
        {},
    )
    consumer = LaneProgram(
        "consumer",
        [WriteInstr(0, ExternalBit("x", tag_index))],
        1,
        {},
        {"r": (0,)},
    )
    report = verify_network({0: producer, 1: consumer}, [0, 1])
    messages = [d.message for d in report]
    if tag_index:
        assert messages == [
            "lane 1 reads slot 1 of transfer tag 'x', which carries only "
            "1 bit(s)"
        ]
    else:
        assert messages == []
