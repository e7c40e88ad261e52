"""Tests for the accumulation dtype: float32 exactly where a bound proves it.

A run accumulates in float32 when ``2B <= 2^24`` and ``iterations <=
2^24`` hold for every tracked kind, ``B`` being the a-priori bound on
any one cell's count (:func:`repro.core.kernel.cell_bounds`); otherwise
it falls back to float64. These tests recompute ``B`` from the public
profiles, put runs just under and just over the float32 edge, and pin
each to the dtype it must take and to the float64 per-epoch oracle bit
for bit. They also check ``B`` against every simulated peak, the
narrowing check's verdicts in either dtype, and the pooled planes'
lane records across a dtype change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
import repro.core.simulator as simulator
from repro.array.architecture import PINATUBO, default_architecture
from repro.array.state import COUNT_DTYPES, InexactCountError, _narrow
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.hardware import remapper_for
from repro.core.kernel import FLOAT32_EXACT_LIMIT, epoch_lengths
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.registry import available_workloads, get_workload

#: Pre-sets on, writes are the hotter kind; sense amplifiers (no
#: pre-sets), reads are. Five programs cover the 16 lanes, so the
#: reference set's column and signed GEMMs into the plane both run.
ARCHS = {
    "cram": default_architecture(64, 16),
    "pinatubo": PINATUBO.resized(64, 16),
}
WORKLOAD = DotProduct(n_elements=16, bits=8)

#: St, Ra and Bs between lanes, with and without hardware re-mapping;
#: a long recompile interval keeps a horizon of ~10^5 iterations to a
#: few hundred epochs, with a short remainder epoch.
EDGE_LABELS = ["StxSt", "StxRa", "StxBs", "StxSt+Hw", "StxRa+Hw", "StxBs+Hw"]
INTERVAL = 1000


def _kinds(track_reads):
    return ("write", "read") if track_reads else ("write",)


def _reference_bound(arch, config, iterations, kind):
    """``B`` for ``kind`` from the programs' public profiles."""
    programs = [program for program, _ in mapping_for(WORKLOAD, arch).roles.values()]
    if not config.hardware:
        return iterations * max(
            int(
                program.write_profile(include_presets=arch.presets_output).max()
                if kind == "write"
                else program.read_profile().max()
            )
            for program in programs
        )
    index = _kinds(True).index(kind)
    lengths, epochs = np.unique(
        epoch_lengths(config, iterations), return_counts=True
    )
    return sum(
        int(count) * max(
            int(
                remapper_for(program, arch.lane_size, arch.presets_output)
                .profile(int(length))[index]
                .max()
            )
            for program in programs
        )
        for length, count in zip(lengths, epochs)
    )


def _fits(arch, config, iterations, track_reads):
    """Whether the reference bounds admit float32 at this horizon."""
    return iterations <= FLOAT32_EXACT_LIMIT and all(
        2 * _reference_bound(arch, config, iterations, kind)
        <= FLOAT32_EXACT_LIMIT
        for kind in _kinds(track_reads)
    )


def _edge(arch, config, track_reads):
    """The longest horizon whose bounds admit float32 (the bound grows
    with the horizon, so the next one does not)."""
    low, high = 1, FLOAT32_EXACT_LIMIT
    while low < high:
        middle = (low + high + 1) // 2
        if _fits(arch, config, middle, track_reads):
            low = middle
        else:
            high = middle - 1
    return low


def _run_counting_dtypes(sim, workload, config, iterations, run_settings):
    """A production run and its ``kernel.float{32,64}_runs`` counters."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        result = sim.run(workload, config, iterations, settings=run_settings)
    finally:
        set_telemetry(previous)
    counters = fresh.counters
    return result, (
        counters.get("kernel.float32_runs", 0),
        counters.get("kernel.float64_runs", 0),
    )


def _assert_same_counts(a, b):
    for name in ("write_counts", "read_counts"):
        assert np.array_equal(
            getattr(a.state, name), getattr(b.state, name)
        ), name


class TestTheFloat32Edge:
    @pytest.mark.parametrize("track_reads", [True, False])
    @pytest.mark.parametrize("label", EDGE_LABELS)
    @pytest.mark.parametrize("arch_name", sorted(ARCHS))
    def test_each_side_takes_its_dtype_and_equals_the_oracle(
        self, arch_name, label, track_reads
    ):
        arch = ARCHS[arch_name]
        config = BalanceConfig.from_label(label, recompile_interval=INTERVAL)
        edge = _edge(arch, config, track_reads)
        run_settings = SimulationSettings(seed=4, track_reads=track_reads)
        sim = EnduranceSimulator(arch)
        mapping = mapping_for(WORKLOAD, arch)
        for iterations, dtype in ((edge, np.float32), (edge + 1, np.float64)):
            assert kernel.cell_bounds(
                arch, config, mapping.roles,
                sim._prepare(WORKLOAD, config, iterations, run_settings).remappers,
                iterations, track_reads,
            ) == {
                kind: _reference_bound(arch, config, iterations, kind)
                for kind in _kinds(track_reads)
            }
            production, counts = _run_counting_dtypes(
                sim, WORKLOAD, config, iterations, run_settings
            )
            assert counts == ((1, 0) if dtype is np.float32 else (0, 1))
            _assert_same_counts(
                production,
                sim._run_epoch_loop(
                    WORKLOAD, config, iterations, settings=run_settings
                ),
            )
            assert production.state.write_counts.sum() == (
                iterations * mapping.writes_per_iteration
            )

    def test_the_edge_is_where_the_hotter_kind_says(self):
        # With reads tracked on sense amplifiers, reads close the
        # float32 range first; untracked, the writes' edge is later.
        arch = ARCHS["pinatubo"]
        config = BalanceConfig.from_label("StxSt")
        assert _edge(arch, config, True) < _edge(arch, config, False)
        cram = ARCHS["cram"]
        assert _edge(cram, config, True) == _edge(cram, config, False)

    def test_a_horizon_past_the_range_falls_back_whole(self):
        # Both kinds far past 2^24, every count equal to the oracle's.
        arch = ARCHS["cram"]
        config = BalanceConfig.from_label("StxSt+Hw")
        iterations = 2**24 + 3
        sim = EnduranceSimulator(arch)
        production, counts = _run_counting_dtypes(
            sim, WORKLOAD, config, iterations, SimulationSettings(seed=4)
        )
        assert counts == (0, 1)
        assert production.state.max_writes > FLOAT32_EXACT_LIMIT
        _assert_same_counts(
            production, sim._run_epoch_loop(WORKLOAD, config, iterations)
        )

    def test_the_paper_grid_accumulates_in_float32(self):
        # mult and conv at 100,000 iterations on the paper's array: every
        # one of the 18 configurations is within the float32 range.
        arch = default_architecture()
        sim = EnduranceSimulator(arch)
        for name in ("mult", "conv"):
            mapping = mapping_for(get_workload(name), arch)
            for config in all_configurations():
                run = sim._prepare(
                    get_workload(name), config, 100_000, sim.settings
                )
                assert run.state.dtype == np.float32, (name, config.label)
                bounds = kernel.cell_bounds(
                    arch, config, mapping.roles, run.remappers, 100_000, True
                )
                assert 2 * max(bounds.values()) <= FLOAT32_EXACT_LIMIT


#: Registry workloads too wide for 128 x 128 lanes, in small forms.
STAND_INS = {
    "mult": ParallelMultiplication(bits=8),
    "dot": DotProduct(n_elements=32, bits=8),
}


def _grid_workloads(arch):
    workloads = dict(STAND_INS)
    for name in available_workloads():
        try:
            mapping_for(get_workload(name), arch)
        except (MemoryError, ValueError):
            continue
        workloads[name] = get_workload(name)
    return workloads


class TestTheBoundHoldsOnTheGrid:
    def test_every_workload_maps_or_has_a_stand_in(self, small_arch):
        workloads = _grid_workloads(small_arch)
        assert {"add", "conv", "gemv-trace", "matvec"} <= set(workloads)
        assert set(STAND_INS) <= set(workloads)

    @pytest.mark.parametrize(
        "config", all_configurations(recompile_interval=7),
        ids=lambda c: c.label,
    )
    def test_simulated_peaks_and_partial_sums_stay_within(
        self, small_arch, config
    ):
        # The finished peak of each kind is at most B; while the run
        # accumulates, the reference column is at most B and every plane
        # entry (a signed sum over the other sets) at most 2B.
        iterations = 250
        run_settings = SimulationSettings(seed=6)
        sim = EnduranceSimulator(small_arch)
        for name, workload in _grid_workloads(small_arch).items():
            run = sim._prepare(workload, config, iterations, run_settings)
            bounds = kernel.cell_bounds(
                small_arch, config, run.groups, run.remappers, iterations,
                True,
            )
            kernel.run_batched_epochs(
                small_arch, config, run.state, run.rng, run.groups,
                iterations, remappers=run.remappers,
                lane_loads=run.lane_loads,
            )
            for kind, plane in (
                ("write", run.state.write_counts),
                ("read", run.state.read_counts),
            ):
                column = run.state.columns.get(kind)
                if column is not None:
                    assert column.max() <= bounds[kind], (name, kind)
                assert np.abs(plane).max() <= 2 * bounds[kind], (name, kind)
            finished = run.state.finish(small_arch.orientation)
            assert finished.max_writes <= bounds["write"], name
            assert finished.read_counts.max() <= bounds["read"], name


def _narrow_before(block):
    """What ``_narrow`` did before it compared in the block's dtype: the
    same cast, checked by ``np.array_equal`` on the promoted pair."""
    if not block.size:
        return block.astype(np.uint8), 0.0
    low, high = block.min(), block.max()
    if low >= 0:
        for dtype, limit in COUNT_DTYPES:
            if high <= limit:
                narrow = block.astype(dtype)
                if np.array_equal(narrow, block):
                    return narrow, float(high)
                break
    raise InexactCountError("inexact")


def _verdict(narrow, block):
    try:
        cast, peak = narrow(block)
    except InexactCountError:
        return "inexact"
    return cast.dtype, cast.tolist(), peak


#: Values around every dtype limit and the float32 and float64 exact
#: ranges, plus every kind of inexact value.
SPECIAL = [
    0.0, 1.0, 255.0, 256.0, 65535.0, 65536.0, 2.0**24 - 1, 2.0**24,
    2.0**24 + 1, 2.0**24 + 2, 2.0**32 - 1, 2.0**32, 2.0**53, 2.0**53 + 2,
    2.0**63, 2.0**64, 0.5, 255.5, 65536.5, 2.0**23 + 0.5, -1.0, -0.5,
    float("nan"), float("inf"), float("-inf"),
]


class TestNarrowingInEitherDtype:
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        values=st.lists(
            st.one_of(
                st.sampled_from(SPECIAL),
                st.integers(0, 2**40).map(float),
                st.floats(-2.0**30, 2.0**30),
            ),
            min_size=0,
            max_size=12,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_verdicts_as_before(self, dtype, values):
        with np.errstate(invalid="ignore", over="ignore"):
            block = np.array(values, dtype=dtype).reshape(-1, 1)
            assert _verdict(_narrow, block) == _verdict(_narrow_before, block)

    @pytest.mark.parametrize("value", [0.5, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inexact_values_raise(self, dtype, value):
        block = np.array([[3.0, value]], dtype=dtype)
        with pytest.raises(InexactCountError):
            _narrow(block)

    def test_float64_above_the_float32_range_narrows_exactly(self):
        block = np.array([[2.0**24 + 1, 2.0**40 + 3]])
        cast, peak = _narrow(block)
        assert cast.dtype == np.uint64
        assert cast.tolist() == [[2**24 + 1, 2**40 + 3]]
        assert peak == 2.0**40 + 3


class TestPlanesOfBothDtypes:
    def test_a_fallback_run_keeps_the_float32_lane_record(self, small_arch):
        # A float32 run on 3 lanes, a float64 fallback run on 10, then a
        # float32 run on 10: the float32 plane clears just the first
        # run's 3 lanes, and both later runs equal fresh planes.
        sim = EnduranceSimulator(small_arch)
        config = BalanceConfig()
        few = ParallelMultiplication(bits=4, lanes=3)
        more = ParallelMultiplication(bits=4, lanes=10)
        long_run = 2**24
        POOL.clear()
        sim.run(few, config, 50)
        shape = (small_arch.geometry.rows, small_arch.geometry.cols)
        before = {
            slot: simulator._WRITTEN_LANES[(slot, shape, "<f4")]
            for slot in ("state.writes", "state.reads")
        }
        fallback, counts = _run_counting_dtypes(
            sim, more, config, long_run, sim.settings
        )
        assert counts == (0, 1)
        for slot, record in before.items():
            assert simulator._WRITTEN_LANES[(slot, shape, "<f4")] is record
            assert simulator._WRITTEN_LANES[(slot, shape, "<f8")][2].size == 10
        after, counts = _run_counting_dtypes(
            sim, more, config, 50, sim.settings
        )
        assert counts == (1, 0)
        POOL.clear()
        _assert_same_counts(after, sim.run(more, config, 50))
        _assert_same_counts(fallback, sim.run(more, config, long_run))
