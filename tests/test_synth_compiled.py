"""Property tests: the compiled SWAR evaluator against the interpreter.

``CompiledProgram.evaluate_batch`` / ``switch_counts_batch`` must be
bit-identical, per draw, to ``LaneProgram.evaluate`` and the
per-instruction switching loop — for any gate library, operand widths,
external streams, and stuck-at fault maps. The strategies below generate
random gate DAGs (including in-place ``gate_into`` overwrites that force
the hazard leveling to split ranks) and compare both paths exhaustively.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.switching import (
    _measure_switching_interpreted,
    measure_switching,
)
from repro.gates.library import (
    MAJ_LIBRARY,
    MINIMAL_LIBRARY,
    NAND_LIBRARY,
    NOR_LIBRARY,
)
from repro.gates.gate import Gate
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.compiled import (
    CompiledProgram,
    _object_levels,
    compile_program,
    gate_levels,
    pack_bitplanes,
    unpack_bitplanes,
)
from repro.synth.multiplier import multiply
from repro.synth.program import (
    GATE_OPS,
    ConstBit,
    LaneProgram,
    LaneProgramBuilder,
    OperandBit,
    ReadInstr,
    WriteInstr,
)

LIBRARIES = (NAND_LIBRARY, MINIMAL_LIBRARY, NOR_LIBRARY, MAJ_LIBRARY)

#: Batch sizes straddling the 64-draw word boundary.
BATCH_SIZES = (1, 3, 64, 65, 130)


@st.composite
def random_programs(draw):
    """A random gate DAG over 1-2 operands, optional externals/read-outs."""
    library = draw(st.sampled_from(LIBRARIES))
    builder = LaneProgramBuilder(library, name="prop")
    widths = {"a": draw(st.integers(1, 4))}
    if draw(st.booleans()):
        widths["b"] = draw(st.integers(1, 4))
    live = []
    for name, width in widths.items():
        live.extend(builder.input_vector(name, width))
    ext_width = draw(st.integers(0, 3))
    if ext_width:
        live.extend(builder.receive_vector("net", ext_width))
    if draw(st.booleans()):
        live.append(builder.const_bit(draw(st.integers(0, 1))))
    ops = sorted(library.native_ops, key=lambda op: op.value)
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(ops))
        inputs = [draw(st.sampled_from(live)) for _ in range(op.arity)]
        if draw(st.booleans()):
            live.append(builder.gate(op, *inputs))
        else:
            # In-place overwrite of a live bit: forces hazard splits in
            # the compiled gate leveling.
            candidates = [bit for bit in live if bit not in inputs]
            if not candidates:
                live.append(builder.gate(op, *inputs))
                continue
            target = draw(st.sampled_from(candidates))
            builder.gate_into(op, target, *inputs)
    out_bits = draw(
        st.lists(st.sampled_from(live), min_size=1, max_size=3, unique=True)
    )
    builder.mark_output("out", BitVector(out_bits))
    if draw(st.booleans()):
        obs = draw(
            st.lists(
                st.sampled_from(live), min_size=1, max_size=3, unique=True
            )
        )
        builder.read_out(BitVector(obs), tag="obs")
    return builder.finish(), widths, ext_width


def _draw_batch_inputs(draw, widths, ext_width, n):
    operands = {
        name: [draw(st.integers(0, 2**width - 1)) for _ in range(n)]
        for name, width in widths.items()
    }
    externals = None
    if ext_width:
        externals = {
            "net": np.array(
                [
                    [draw(st.integers(0, 1)) for _ in range(ext_width)]
                    for _ in range(n)
                ],
                dtype=np.uint8,
            )
        }
    return operands, externals


class TestBitplanePacking:
    @given(
        n=st.integers(1, 200),
        rows=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, n, rows, seed):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(rows, n), dtype=np.uint8
        )
        assert np.array_equal(unpack_bitplanes(pack_bitplanes(bits), n), bits)


class TestEvaluateBatchEquivalence:
    @given(
        data=st.data(),
        spec=random_programs(),
        n=st.sampled_from(BATCH_SIZES),
        stuck_mode=st.sampled_from(["none", "uniform", "per-draw"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_interpreter_per_draw(self, data, spec, n, stuck_mode):
        program, widths, ext_width = spec
        operands, externals = _draw_batch_inputs(
            data.draw, widths, ext_width, n
        )
        if stuck_mode == "none":
            stuck = None
        else:
            def one_map():
                count = data.draw(st.integers(0, 2))
                addresses = data.draw(
                    st.lists(
                        st.integers(0, program.footprint - 1),
                        min_size=count,
                        max_size=count,
                        unique=True,
                    )
                )
                return {
                    address: data.draw(st.integers(0, 1))
                    for address in addresses
                }

            stuck = (
                one_map()
                if stuck_mode == "uniform"
                else [one_map() for _ in range(n)]
            )

        batch_outputs, batch_readouts = program.compiled().evaluate_batch(
            operands, externals=externals, stuck=stuck, draws=n
        )
        for index in range(n):
            per_draw_stuck = (
                None
                if stuck is None
                else (stuck if isinstance(stuck, dict) else stuck[index])
            )
            outputs, readouts = program.evaluate(
                {name: values[index] for name, values in operands.items()},
                externals=(
                    {"net": list(externals["net"][index])}
                    if externals
                    else None
                ),
                stuck=per_draw_stuck,
            )
            for name, value in outputs.items():
                assert int(batch_outputs[name][index]) == value
            for tag, bits in readouts.items():
                assert list(batch_readouts[tag][index]) == list(bits)

    def test_uninitialized_read_raises_like_interpreter(self):
        program = LaneProgram(
            name="uninit",
            instructions=[
                WriteInstr(0, OperandBit("a", 0)),
                Gate(GateOp.AND, (0, 1), 2),
            ],
            footprint=3,
            inputs={"a": (0,)},
            outputs={"out": (2,)},
        )
        with pytest.raises((KeyError, ValueError)):
            program.evaluate({"a": 1})
        with pytest.raises(ValueError, match="uninitialized"):
            program.compiled().evaluate_batch({"a": [1, 0]})

    def test_object_dtype_is_exact_beyond_64_bits(self):
        # A 33-bit output value cannot be represented if intermediate
        # planes were collapsed through int64 incorrectly.
        builder = LaneProgramBuilder(MINIMAL_LIBRARY, name="wide")
        a = builder.input_vector("a", 70)
        builder.mark_output("out", a)
        program = builder.finish()
        value = (1 << 69) | 5
        outputs, _ = program.compiled().evaluate_batch({"a": [value]})
        assert int(outputs["out"][0]) == value


class TestSwitchCountsBatch:
    @given(
        data=st.data(),
        spec=random_programs(),
        seed=st.integers(0, 500),
        samples=st.sampled_from([1, 5, 64, 70]),
    )
    @settings(max_examples=40, deadline=None)
    def test_measure_switching_backends_agree(self, data, spec, seed, samples):
        program, widths, ext_width = spec
        ext = {"net": ext_width} if ext_width else None
        compiled = measure_switching(
            program, samples=samples, rng=seed, externals_width=ext
        )
        interpreted = _measure_switching_interpreted(
            program, samples=samples, rng=seed, externals_width=ext
        )
        assert np.array_equal(compiled.switches, interpreted.switches)
        assert np.array_equal(compiled.writes, interpreted.writes)


class TestCompiledStructure:
    def test_event_counts_match_program_counts(self):
        builder = LaneProgramBuilder(NAND_LIBRARY, name="counts")
        a = builder.input_vector("a", 3)
        b = builder.input_vector("b", 3)
        x = builder.gate(GateOp.NAND, a[0], b[0])
        y = builder.gate(GateOp.AND, x, a[1])
        builder.read_out(BitVector([y]), tag="z")
        program = builder.finish()
        compiled = compile_program(program)
        size = program.footprint
        assert np.array_equal(
            compiled.write_event_counts(size, writes_per_gate=1),
            program.write_counts(size, include_presets=False),
        )
        assert np.array_equal(
            compiled.write_event_counts(size, writes_per_gate=2),
            program.write_counts(size, include_presets=True),
        )
        assert np.array_equal(
            compiled.read_event_counts(size), program.read_counts(size)
        )

    def test_compile_is_cached_per_program(self):
        builder = LaneProgramBuilder(NAND_LIBRARY, name="cache")
        a = builder.input_vector("a", 2)
        builder.mark_output("out", a)
        program = builder.finish()
        assert program.compiled() is program.compiled()
        assert compile_program(program) is program.compiled()
        assert isinstance(program.compiled(), CompiledProgram)

    def test_external_tags_recorded(self):
        builder = LaneProgramBuilder(NAND_LIBRARY, name="tags")
        net = builder.receive_vector("partial", 2)
        builder.mark_output("out", net)
        builder.read_out(net, tag="echo")
        program = builder.finish()
        compiled = program.compiled()
        assert compiled.external_tags == frozenset({"partial"})
        assert compiled.readout_sizes == {"echo": 2}

    def test_readout_streams_preallocated_to_max_index(self):
        # Sparse tagged reads (index 2 never preceded by 0/1) used to
        # trigger a quadratic pad loop; both paths must zero-fill.
        program = LaneProgram(
            name="sparse",
            instructions=[
                WriteInstr(0, OperandBit("a", 0)),
                ReadInstr(0, tag="s", index=2),
            ],
            footprint=1,
            inputs={"a": (0,)},
            outputs={},
        )
        assert program.compiled().readout_sizes == {"s": 3}
        _, readouts = program.evaluate({"a": 1})
        assert readouts["s"] == [0, 0, 1]
        _, batch_readouts = program.compiled().evaluate_batch({"a": [1, 0]})
        assert batch_readouts["s"].tolist() == [[0, 0, 1], [0, 0, 0]]

    def test_levels_split_on_hazards(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY, name="levels")
        a = builder.input_vector("a", 2)
        x = builder.gate(GateOp.AND, a[0], a[1])   # level 1
        y = builder.gate(GateOp.OR, x, a[0])       # reads x -> level 2
        builder.mark_output("out", BitVector([y]))
        program = builder.finish()
        assert program.compiled().levels == 2


@st.composite
def interleaved_streams(draw):
    """Raw instruction streams: gates over any cells, with writes and
    (tagged) reads interleaved — every RAW, WAW and WAR hazard shape,
    including gates that read one cell twice."""
    library = draw(st.sampled_from(LIBRARIES))
    ops = sorted(library.native_ops, key=lambda op: op.value)
    footprint = draw(st.integers(4, 9))
    cells = st.integers(0, footprint - 1)
    instructions = []
    for _ in range(draw(st.integers(1, 40))):
        step = draw(st.sampled_from(["gate"] * 6 + ["write", "read"]))
        if step == "write":
            instructions.append(
                WriteInstr(draw(cells), ConstBit(draw(st.integers(0, 1))))
            )
        elif step == "read":
            instructions.append(
                ReadInstr(draw(cells), tag=draw(st.sampled_from([None, "t"])))
            )
        else:
            op = draw(st.sampled_from(ops))
            output = draw(cells)
            others = st.integers(0, footprint - 1).filter(
                lambda a: a != output
            )
            inputs = tuple(draw(others) for _ in range(op.arity))
            instructions.append(Gate(op, inputs, output))
    return LaneProgram("levels", instructions, footprint, {}, {})


def _array_groups(compiled):
    """Per level, opcode -> gate outputs, from the compiled offsets."""
    bounds = compiled._group_bounds
    groups = [{} for _ in range(compiled.levels)]
    for group, op_id in enumerate(compiled._group_ops.tolist()):
        begin, end = bounds[group], bounds[group + 1]
        level = int(compiled.gate_levels[begin])
        groups[level][GATE_OPS[op_id]] = (
            compiled._group_outputs[begin:end].tolist()
        )
    return groups


def _assert_schedule_matches_oracle(program):
    oracle = _object_levels(program)
    compiled = program.compiled()
    sizes = [sum(len(gates) for gates in level.values()) for level in oracle]
    assert compiled.gate_levels.tolist() == np.repeat(
        np.arange(len(oracle)), sizes
    ).tolist()
    assert compiled.levels == len(oracle)
    assert _array_groups(compiled) == [
        {op: [gate.output for gate in gates] for op, gates in level.items()}
        for level in oracle
    ]


class TestArrayLevelSchedule:
    """The array-built schedule against the gate-by-gate scheduler."""

    @given(program=interleaved_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_object_scheduler(self, program):
        _assert_schedule_matches_oracle(program)

    @given(spec=random_programs())
    @settings(max_examples=60, deadline=None)
    def test_matches_object_scheduler_on_built_programs(self, spec):
        _assert_schedule_matches_oracle(spec[0])

    @pytest.mark.parametrize(
        "library", LIBRARIES, ids=lambda library: library.name
    )
    def test_matches_on_an_8bit_multiply(self, library):
        builder = LaneProgramBuilder(library, name="mult8")
        a = builder.input_vector("a", 8)
        b = builder.input_vector("b", 8)
        builder.mark_output("p", multiply(builder, a, b))
        _assert_schedule_matches_oracle(builder.finish())

    def test_empty_and_gateless_programs(self):
        empty = LaneProgram("empty", [], 1, {}, {})
        assert gate_levels(empty.columns).size == 0
        assert empty.compiled().levels == 0
        loads = LaneProgram(
            "loads",
            [WriteInstr(0, ConstBit(1)), ReadInstr(0, tag="s")],
            1,
            {},
            {},
        )
        assert loads.compiled().levels == 0
        _, readouts = loads.compiled().evaluate_batch(draws=3)
        assert readouts["s"].tolist() == [[1], [1], [1]]
