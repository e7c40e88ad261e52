"""The row builder and its templates against the per-gate object builder.

:class:`LaneProgramBuilder` appends :class:`ProgramColumns` rows and, on a
ring lane, stamps cached multiply/add templates. ``_ObjectBuilder`` is the
per-gate builder over ``Gate``/``WriteInstr``/``ReadInstr`` objects it
replaced, kept as the oracle. Every program here must come out the same
from both: columns (values and dtypes), tags, footprint, declared
vectors, the decoded instruction view, and the per-bit counts.
"""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.gates.gate import Gate
from repro.gates.library import (
    MAJ_LIBRARY,
    MINIMAL_LIBRARY,
    NAND_LIBRARY,
    NOR_LIBRARY,
)
from repro.gates.ops import GateOp
from repro.synth.adders import ripple_carry_add
from repro.synth.bits import AllocationPolicy, BitVector
from repro.synth.multiplier import multiply
from repro.synth.program import (
    GATE_OPS,
    LaneProgram,
    LaneProgramBuilder,
    _ObjectBuilder,
    _object_read_counts,
    _object_write_counts,
)
from repro.workloads.registry import available_workloads, get_workload

LIBRARIES = (NAND_LIBRARY, MINIMAL_LIBRARY, NOR_LIBRARY, MAJ_LIBRARY)
COLUMNS = ("kind", "op", "address", "inputs", "source", "arg", "bit")


def assert_same_program(program: LaneProgram, oracle: LaneProgram) -> None:
    for field in COLUMNS:
        got = getattr(program.columns, field)
        want = getattr(oracle.columns, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
    assert program.columns.tags == oracle.columns.tags
    assert program.footprint == oracle.footprint
    assert program.inputs == oracle.inputs
    assert list(program.inputs) == list(oracle.inputs)
    assert program.outputs == oracle.outputs
    assert program.name == oracle.name
    assert program.instructions == oracle.instructions
    assert [type(i) for i in program.instructions] == [
        type(i) for i in oracle.instructions
    ]
    assert program.sequential_ops == len(oracle.instructions)
    assert_counts_match_object_walk(program)


def assert_counts_match_object_walk(program: LaneProgram) -> None:
    for size in (program.footprint, program.footprint + 3):
        for presets in (False, True):
            assert np.array_equal(
                program.write_counts(size, presets),
                _object_write_counts(program, size, presets),
            )
        assert np.array_equal(
            program.read_counts(size), _object_read_counts(program, size)
        )


# ----------------------------------------------------------------------
# Gate checks at call time
# ----------------------------------------------------------------------


def _message(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


class TestGateChecksAtCallTime:
    """The builder never builds a ``Gate``, so it repeats the record's
    checks itself; the messages must be the record's own."""

    @pytest.mark.parametrize("builder_class", [LaneProgramBuilder, _ObjectBuilder])
    def test_wrong_arity(self, builder_class):
        builder = builder_class(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 2)
        got = _message(lambda: builder.gate(GateOp.AND, a[0]))
        assert "takes 2 inputs" in got
        assert got == _message(lambda: Gate(GateOp.AND, (a[0],), 2))
        got = _message(
            lambda: builder.gate_into(GateOp.NOT, a[1], a[0], a[0])
        )
        assert got == _message(lambda: Gate(GateOp.NOT, (a[0], a[0]), a[1]))

    @pytest.mark.parametrize("builder_class", [LaneProgramBuilder, _ObjectBuilder])
    def test_output_among_inputs(self, builder_class):
        builder = builder_class(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 2)
        got = _message(lambda: builder.gate_into(GateOp.AND, a[1], a[0], a[1]))
        assert "must differ" in got
        assert got == _message(lambda: Gate(GateOp.AND, (a[0], a[1]), a[1]))
        # A fresh output lands on an input that is no longer allocated.
        builder.free(a[0])
        got = _message(lambda: builder.gate(GateOp.NOT, a[0]))
        assert got == _message(lambda: Gate(GateOp.NOT, (a[0],), a[0]))

    @pytest.mark.parametrize("builder_class", [LaneProgramBuilder, _ObjectBuilder])
    def test_negative_address(self, builder_class):
        builder = builder_class(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        got = _message(lambda: builder.gate(GateOp.AND, a[0], -3))
        assert "negative bit address -3" in got
        assert got == _message(lambda: Gate(GateOp.AND, (a[0], -3), 1))
        target = builder.gate(GateOp.NOT, a[0])
        got = _message(lambda: builder.gate_into(GateOp.NOT, target, -1))
        assert got == _message(lambda: Gate(GateOp.NOT, (-1,), target))

    def test_const_bit_value(self):
        for builder_class in (LaneProgramBuilder, _ObjectBuilder):
            builder = builder_class(MINIMAL_LIBRARY)
            with pytest.raises(ValueError, match="must be 0 or 1"):
                builder.const_bit(2)


# ----------------------------------------------------------------------
# Random instruction streams
# ----------------------------------------------------------------------

#: One stream step: (action, a, b, c), interpreted against the live bits.
STEP = st.tuples(
    st.integers(0, 10), st.integers(0, 999), st.integers(0, 999),
    st.integers(0, 999),
)


def _drive(builder, library, steps) -> None:
    """Apply ``steps`` to ``builder``; both builders see the same calls
    as long as their allocators agree."""
    live = []  # bits this stream owns, in allocation order
    natives = [op for op in GATE_OPS if library.supports(op)]
    operands = tags = 0
    pick = lambda k: live[k % len(live)]  # noqa: E731
    for action, x, y, z in steps:
        if action == 0 or not live:
            vector = builder.input_vector(f"v{operands}", 1 + x % 4)
            operands += 1
            live.extend(vector)
            if x % 3 == 0:
                builder.mark_output(f"o{operands}", vector)
        elif action == 1:
            live.extend(builder.receive_vector(f"t{y % 3}", 1 + x % 3))
        elif action == 2:
            live.append(builder.const_bit(x % 2))
        elif action == 3:
            op = natives[x % len(natives)]
            sources = [pick(y + i * (z + 1)) for i in range(op.arity)]
            live.append(builder.gate(op, *sources))
        elif action == 4 and len(live) >= 2:
            op = natives[x % len(natives)]
            target = pick(y)
            sources = [
                a for a in (pick(z + i) for i in range(len(live)))
                if a != target
            ][: op.arity]
            if len(sources) == op.arity:
                builder.gate_into(op, target, *sources)
        elif action == 5:
            address = pick(x)
            live.remove(address)
            builder.free(address)
        elif action == 6:
            bits = [pick(x + i) for i in range(1 + y % 3)]
            builder.send_vector(BitVector(dict.fromkeys(bits)), f"r{tags}")
            tags += 1
        elif action == 7:
            # Shared and never freed: kept out of the stream's own bits.
            builder.zero_bit()
        elif action in (8, 9):
            width = 2 + x % 3
            if len(live) < 2 * width:
                live.extend(builder.input_vector(f"v{operands}", 2 * width))
                operands += 1
            start = y % (len(live) - 2 * width + 1)
            a = BitVector(live[start:start + width])
            b = BitVector(live[start + width:start + 2 * width])
            free_inputs = z % 4 == 0
            synthesize = multiply if action == 8 else ripple_carry_add
            result = synthesize(builder, a, b, free_inputs=free_inputs)
            if free_inputs:
                for address in a.addresses + b.addresses:
                    live.remove(address)
            live.extend(result)
        else:
            live.append(builder.copy_bit(pick(x)))


def _both(library, policy, capacity, steps):
    programs = []
    failures = []
    for builder_class in (LaneProgramBuilder, _ObjectBuilder):
        builder = builder_class(
            library, capacity=capacity, name="stream", policy=policy
        )
        try:
            _drive(builder, library, steps)
            failures.append(None)
        except MemoryError as error:
            failures.append(str(error))
        programs.append(builder.finish())
    return programs, failures


class TestRandomStreams:
    @pytest.mark.parametrize(
        "policy", list(AllocationPolicy), ids=lambda policy: policy.value
    )
    @given(
        library=st.sampled_from(LIBRARIES),
        capacity=st.integers(24, 600),
        steps=st.lists(STEP, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_builder_matches_object_builder(
        self, policy, library, capacity, steps
    ):
        (program, oracle), failures = _both(library, policy, capacity, steps)
        assert failures[0] == failures[1]
        assert_same_program(program, oracle)


# ----------------------------------------------------------------------
# Both sides of the stamping condition
# ----------------------------------------------------------------------


def _stamps(monkeypatch):
    """Count the calls that were stamped from a template."""
    from repro.synth.bits import BitAllocator

    calls = []
    claim = BitAllocator.claim_run

    def spy(self, run, live):
        calls.append(run.size)
        return claim(self, run, live)

    monkeypatch.setattr(BitAllocator, "claim_run", spy)
    return calls


def _ring_pair(library, capacity, drive):
    programs = []
    for builder_class in (LaneProgramBuilder, _ObjectBuilder):
        builder = builder_class(
            library, capacity=capacity, name="ring",
            policy=AllocationPolicy.RING,
        )
        drive(builder)
        programs.append(builder.finish())
    assert_same_program(*programs)
    return programs[0]


def _mac(builder, width=4, free_inputs=False, repeats=3):
    a = builder.input_vector("a", width)
    b = builder.input_vector("b", width)
    total = None
    for _ in range(repeats):
        product = multiply(builder, a, b, free_inputs=False)
        if total is None:
            total = product
            continue
        summed = ripple_carry_add(builder, total, product, free_inputs=free_inputs)
        if not free_inputs:
            builder.free_vector(total)
            builder.free_vector(product)
        total = BitVector(summed[: 2 * width])
        builder.free(summed[2 * width])
    builder.mark_output("total", total)
    builder.read_out(total, "total")


class TestStampingCondition:
    @pytest.mark.parametrize(
        "library", LIBRARIES, ids=lambda lib: lib.name
    )
    def test_calls_that_fit_are_stamped(self, library, monkeypatch):
        stamps = _stamps(monkeypatch)
        program = _ring_pair(library, 1023, _mac)
        # The majority library's first AND allocates the zero cell, so
        # its first multiply runs gate by gate.
        first = 1 if library is MAJ_LIBRARY else 0
        assert len(stamps) == 5 - first
        outputs, _ = program.evaluate({"a": 13, "b": 11})
        assert outputs["total"] == (3 * 13 * 11) % 256

    def test_a_call_that_wraps_runs_gate_by_gate(self, monkeypatch):
        stamps = _stamps(monkeypatch)
        # A 4-bit NAND multiply makes 124 allocations, more than the 92
        # cells a 100-cell ring has free, so it wraps and is built gate
        # by gate; each 8-bit add makes 68 of the 76 free and is stamped.
        program = _ring_pair(NAND_LIBRARY, 100, _mac)
        assert stamps == [68, 68]
        assert program.evaluate({"a": 9, "b": 7})[0]["total"] == 3 * 63

    def test_recording_stops_at_the_ring_size(self, monkeypatch):
        from repro.synth import program as module
        from repro.synth.adders import _ripple_carry_add
        from repro.synth.multiplier import _multiply

        monkeypatch.setattr(module, "_TEMPLATES", {})
        monkeypatch.setattr(module, "_OVERSIZED", {})
        recorded = []
        alloc = module._FreshAllocator.alloc

        def spy(self):
            recorded.append(1)
            return alloc(self)

        monkeypatch.setattr(module._FreshAllocator, "alloc", spy)
        for _ in range(2):
            _ring_pair(NAND_LIBRARY, 100, _mac)
        # The 124-allocation multiply overruns a 100-cell ring once (its
        # 101st allocation raises) and is never recorded again; the
        # 68-allocation add is recorded once (9 and 17 operand and zero
        # slots).
        assert module._OVERSIZED == {(_multiply, NAND_LIBRARY, 4, 4): 100}
        assert list(module._TEMPLATES) == [
            (_ripple_carry_add, NAND_LIBRARY, 8, 8)
        ]
        assert len(recorded) == (9 + 101) + (17 + 68)

    def test_free_inputs_runs_gate_by_gate(self, monkeypatch):
        stamps = _stamps(monkeypatch)
        _ring_pair(
            NAND_LIBRARY, 1023, functools.partial(_mac, free_inputs=True)
        )
        assert len(stamps) == 3  # the multiplies only

    def test_majority_zero_cell_before_and_after(self, monkeypatch):
        stamps = _stamps(monkeypatch)

        def drive(builder):
            a = builder.input_vector("a", 3)
            b = builder.input_vector("b", 3)
            assert builder._zero_bit is None
            first = ripple_carry_add(builder, a, b)  # allocates the zero
            assert builder._zero_bit is not None
            second = ripple_carry_add(builder, a, b)  # reads it as a slot
            builder.read_out(first, "first")
            builder.read_out(second, "second")

        program = _ring_pair(MAJ_LIBRARY, 255, drive)
        assert len(stamps) == 1
        _, readouts = program.evaluate({"a": 5, "b": 6})
        assert readouts["first"] == readouts["second"] == [1, 1, 0, 1]

    def test_template_free_library_stamps_before_any_zero(self, monkeypatch):
        stamps = _stamps(monkeypatch)

        def drive(builder):
            a = builder.input_vector("a", 3)
            b = builder.input_vector("b", 3)
            builder.read_out(ripple_carry_add(builder, a, b), "sum")

        _ring_pair(NAND_LIBRARY, 255, drive)
        assert len(stamps) == 1

    @pytest.mark.parametrize("builder_class", [LaneProgramBuilder, _ObjectBuilder])
    def test_a_dead_operand_runs_gate_by_gate(self, builder_class):
        # a[0] is freed and the cursor sits on it, so the add's first
        # gate output lands on its own input: the per-gate path refuses
        # that, and a stamp must not paper over it.
        builder = builder_class(
            NAND_LIBRARY, capacity=40, policy=AllocationPolicy.RING
        )
        a = builder.input_vector("a", 3)
        b = builder.input_vector("b", 3)
        junk = builder.allocator.alloc_many(34)
        builder.free_many(junk[:23])
        builder.free(a[0])
        with pytest.raises(ValueError, match="must differ"):
            ripple_carry_add(builder, a, b)

    def test_stamped_allocator_state_matches(self):
        allocators = []
        for builder_class in (LaneProgramBuilder, _ObjectBuilder):
            builder = builder_class(
                NOR_LIBRARY, capacity=300, policy=AllocationPolicy.RING
            )
            _mac(builder, width=3)
            allocators.append(builder.allocator)
        stamped, oracle = allocators
        assert stamped._cursor == oracle._cursor
        assert stamped._live == oracle._live
        assert stamped.high_water_mark == oracle.high_water_mark


# ----------------------------------------------------------------------
# Every registry workload, and the bundled trace at two geometries
# ----------------------------------------------------------------------


def _patch_builders(monkeypatch) -> None:
    """Point every module that builds lane programs at the oracle."""
    import repro.balance.access_aware  # noqa: F401
    import repro.workloads.trace.lowering  # noqa: F401

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.")
            and getattr(module, "LaneProgramBuilder", None)
            is LaneProgramBuilder
            and name != "repro.synth.program"
        ):
            monkeypatch.setattr(module, "LaneProgramBuilder", _ObjectBuilder)


@functools.lru_cache(maxsize=None)
def _architecture(rows, cols):
    return default_architecture(rows, cols)


CORPUS = [(name, 1024, 1024) for name in available_workloads()] + [
    ("gemv-trace", 256, 64),
]


@pytest.mark.parametrize(
    "name,rows,cols", CORPUS, ids=[f"{n}-{r}x{c}" for n, r, c in CORPUS]
)
def test_registry_workloads_match_the_oracle(name, rows, cols, monkeypatch):
    architecture = _architecture(rows, cols)
    mapping = get_workload(name).build(architecture)
    with monkeypatch.context() as patch:
        _patch_builders(patch)
        oracle = get_workload(name).build(architecture)
    assert list(mapping.assignment) == list(oracle.assignment)
    # Lanes in the same role share one program; compare each pair once.
    pairs = {
        id(program): (program, oracle.assignment[lane])
        for lane, program in mapping.assignment.items()
    }
    assert len(pairs) == len({id(p) for p in oracle.assignment.values()})
    for program, expected in pairs.values():
        assert program is not expected
        assert_same_program(program, expected)
