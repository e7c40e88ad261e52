"""The process-wide scratch pool: reuse semantics and counter flushing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.scratch import POOL, BufferPool, flush_pool_counters
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads import ParallelMultiplication


class TestBufferPool:
    def test_same_key_returns_same_buffer(self):
        pool = BufferPool()
        a = pool.get("scratch", (4, 4))
        b = pool.get("scratch", (4, 4))
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_distinct_shapes_get_distinct_buffers(self):
        pool = BufferPool()
        a = pool.get("scratch", (4, 4))
        b = pool.get("scratch", (2, 4))
        assert a is not b
        assert len(pool) == 2

    def test_distinct_dtypes_get_distinct_buffers(self):
        pool = BufferPool()
        a = pool.get("scratch", (4,), np.float64)
        b = pool.get("scratch", (4,), np.int64)
        assert a.dtype == np.float64 and b.dtype == np.int64
        assert a is not b

    def test_zero_refills(self):
        pool = BufferPool()
        a = pool.get("scratch", (3,), zero=True)
        a[:] = 7.0
        b = pool.get("scratch", (3,), zero=True)
        assert b is a
        assert np.array_equal(b, np.zeros(3))

    def test_without_zero_contents_persist(self):
        pool = BufferPool()
        a = pool.get("scratch", (3,))
        a[:] = 7.0
        assert np.array_equal(pool.get("scratch", (3,)), np.full(3, 7.0))

    def test_clear_drops_buffers(self):
        pool = BufferPool()
        pool.get("scratch", (3,))
        pool.clear()
        assert len(pool) == 0


class TestPoolCounterFlush:
    """Pool hit/miss totals publish to telemetry as deltas only."""

    @pytest.fixture
    def tele(self):
        # Earlier tests' pool traffic is flushed into a throwaway
        # registry, so the fresh one sees only this test's deltas.
        previous = set_telemetry(Telemetry())
        flush_pool_counters()
        fresh = Telemetry()
        set_telemetry(fresh)
        try:
            yield fresh
        finally:
            set_telemetry(previous)

    def test_flush_publishes_deltas_not_totals(self, tele):
        POOL.get("test.flush", (4,))  # miss
        POOL.get("test.flush", (4,))  # hit
        flush_pool_counters()
        assert tele.counters["pool.hits"] == 1
        assert tele.counters["pool.misses"] == 1

        # A second flush with no pool traffic adds nothing.
        flush_pool_counters()
        assert tele.counters["pool.hits"] == 1
        assert tele.counters["pool.misses"] == 1

        # Only the increments since the last flush are counted.
        POOL.get("test.flush", (4,))  # hit
        flush_pool_counters()
        assert tele.counters["pool.hits"] == 2
        assert tele.counters["pool.misses"] == 1

    def test_quiet_flush_writes_no_counter_keys(self, tele):
        flush_pool_counters()
        assert "pool.hits" not in tele.counters
        assert "pool.misses" not in tele.counters

    def test_module_flush_covers_kernel_traffic(self, tele, tiny_arch):
        # The kernel draws its scratch from the one process pool, so a
        # single module-level flush publishes a simulator run's traffic.
        hits, misses = POOL.hits, POOL.misses
        EnduranceSimulator(tiny_arch).run(
            ParallelMultiplication(bits=4),
            BalanceConfig.from_label("RaxRa"),
            40,
            settings=SimulationSettings(seed=1),
        )
        assert POOL.hits + POOL.misses > hits + misses
        flush_pool_counters()
        assert tele.counters.get("pool.hits", 0) == POOL.hits - hits
        assert tele.counters.get("pool.misses", 0) == POOL.misses - misses


def test_repeat_run_reuses_every_kernel_buffer(tiny_arch):
    """Why the pool stays: a second batched run on the same shapes
    allocates no scratch, it only reuses what the first one pooled."""
    simulator = EnduranceSimulator(tiny_arch)
    settings = SimulationSettings(seed=1)
    workload = ParallelMultiplication(bits=4)
    config = BalanceConfig.from_label("RaxRa")
    simulator.run(workload, config, 40, settings=settings)
    hits, misses = POOL.hits, POOL.misses
    simulator.run(workload, config, 40, settings=settings)
    assert POOL.misses == misses
    assert POOL.hits > hits
