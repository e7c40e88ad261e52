"""Arrival models: determinism, RNG discipline, and state round-trips."""

import numpy as np
import pytest

from repro.fleet import (
    TrafficSpec,
    TrafficState,
    draw_day,
    split_requests,
)
from repro.fleet.traffic import (
    BURST,
    CALM,
    capacity_iterations,
    rng_state_from_json,
    rng_state_to_json,
)


class TestSpecs:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            TrafficSpec(model="pareto")

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(model="bursty", p_burst=1.5)

    def test_identity_omits_burst_fields_for_simple_models(self):
        assert "burst_factor" not in TrafficSpec(model="poisson").identity()
        assert "burst_factor" in TrafficSpec(model="bursty").identity()

    def test_mean_rate_stationary_mixture(self):
        spec = TrafficSpec(
            model="bursty", rate=100.0, burst_factor=10.0,
            p_burst=0.25, p_calm=0.75,
        )
        # Stationary burst share = 0.25 / (0.25 + 0.75) = 0.25.
        assert spec.mean_rate == pytest.approx(
            100.0 * 0.75 + 1000.0 * 0.25
        )
        assert TrafficSpec(model="poisson", rate=42.0).mean_rate == 42.0


class TestDrawDay:
    def test_deterministic_consumes_no_rng(self):
        spec = TrafficSpec(model="deterministic", rate=500.0)
        rng = np.random.default_rng(0)
        before = rng_state_to_json(rng)
        state = TrafficState()
        assert draw_day(spec, state, rng) == 500
        assert rng_state_to_json(rng) == before

    def test_poisson_reproducible_per_seed(self):
        spec = TrafficSpec(model="poisson", rate=100.0)
        a = [
            draw_day(spec, TrafficState(), np.random.default_rng(1))
            for _ in range(3)
        ]
        assert a[0] == a[1] == a[2]

    def test_bursty_flips_states_and_boosts_rate(self):
        spec = TrafficSpec(
            model="bursty", rate=100.0, burst_factor=50.0,
            p_burst=1.0, p_calm=1.0,
        )
        rng = np.random.default_rng(2)
        state = TrafficState()
        calm_day = draw_day(spec, state, rng)
        assert state.state == BURST  # p_burst=1 always flips
        burst_day = draw_day(spec, state, rng)
        assert state.state == CALM  # p_calm=1 flips back
        assert burst_day > calm_day * 5  # 50x rate dominates noise


class TestSplitRequests:
    def test_single_cohort_takes_all_without_rng(self):
        rng = np.random.default_rng(0)
        before = rng_state_to_json(rng)
        out = split_requests(77, np.array([1.0]), rng)
        assert out.tolist() == [77]
        assert rng_state_to_json(rng) == before

    def test_zero_requests_short_circuit(self):
        rng = np.random.default_rng(0)
        out = split_requests(0, np.array([0.5, 0.5]), rng)
        assert out.tolist() == [0, 0]

    def test_multinomial_conserves_total(self):
        rng = np.random.default_rng(3)
        out = split_requests(1000, np.array([0.2, 0.3, 0.5]), rng)
        assert out.sum() == 1000


class TestCapacity:
    def test_full_duty_day(self):
        assert capacity_iterations(1.0, 1.0) == 86400.0

    def test_duty_cycle_scales_linearly(self):
        assert capacity_iterations(2.0, 0.5) == 21600.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            capacity_iterations(0.0, 1.0)
        with pytest.raises(ValueError):
            capacity_iterations(1.0, 0.0)
        with pytest.raises(ValueError):
            capacity_iterations(1.0, 1.5)


class TestRngRoundTrip:
    def test_state_restores_bit_identically(self):
        rng = np.random.default_rng(9)
        rng.poisson(100.0, size=17)  # advance
        payload = rng_state_to_json(rng)

        import json

        restored = rng_state_from_json(json.loads(json.dumps(payload)))
        assert restored.poisson(55.5, size=8).tolist() == (
            rng.poisson(55.5, size=8).tolist()
        )

    def test_traffic_state_round_trip(self):
        state = TrafficState(state=BURST)
        assert TrafficState.from_json(state.to_json()).state == BURST
        assert TrafficState.from_json(TrafficState().to_json()).state == CALM
