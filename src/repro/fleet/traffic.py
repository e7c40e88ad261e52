"""Stochastic request traffic for fleet campaigns.

Arrival processes draw a fleet-wide request count per **virtual day**,
which the service splits over cohorts (by cohort weight) and dispatches
to arrays as iteration budgets. Three models:

``deterministic``
    Exactly ``rate`` requests every day. Consumes no RNG — this is the
    degenerate mode the bit-exact cross-check against
    :func:`repro.core.failure.failure_timeline` runs in.

``poisson``
    ``N_day ~ Poisson(rate)`` — the memoryless baseline.

``bursty``
    A two-state Markov-modulated Poisson process (MMPP): each day the
    process sits in a *calm* or *burst* state; the day's count is
    Poisson at ``rate`` or ``rate * burst_factor`` respectively, and
    the state flips with the configured probabilities at the day
    boundary. Bursts capture the diurnal/flash-crowd traffic that
    SoftWear-style observed access patterns exhibit and that a plain
    Poisson average hides — burst days concentrate wear.

All draws come from a generator the caller owns (the campaign's
``TRAFFIC_STREAM``), and the per-day consumption pattern is fixed per
model, so a checkpoint that captures the generator state resumes the
arrival sequence bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

#: The recognized arrival models.
TRAFFIC_MODELS = ("deterministic", "poisson", "bursty")

#: MMPP state labels, index-aligned with :class:`TrafficState.state`.
CALM, BURST = 0, 1


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative arrival-process description.

    Attributes:
        model: One of :data:`TRAFFIC_MODELS`.
        rate: Mean requests per virtual day in the calm state.
        burst_factor: Rate multiplier while the MMPP is bursting.
        p_burst: Daily calm→burst transition probability.
        p_calm: Daily burst→calm transition probability.
    """

    model: str = "deterministic"
    rate: float = 1000.0
    burst_factor: float = 8.0
    p_burst: float = 0.1
    p_calm: float = 0.5

    def __post_init__(self) -> None:
        if self.model not in TRAFFIC_MODELS:
            raise ValueError(
                f"unknown traffic model {self.model!r}; "
                f"choose from {TRAFFIC_MODELS}"
            )
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        for name in ("p_burst", "p_calm"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        payload = {"model": self.model, "rate": self.rate}
        if self.model == "bursty":
            payload.update(
                burst_factor=self.burst_factor,
                p_burst=self.p_burst,
                p_calm=self.p_calm,
            )
        return payload

    @property
    def mean_rate(self) -> float:
        """Long-run mean requests/day (MMPP stationary mixture)."""
        if self.model != "bursty":
            return self.rate
        denom = self.p_burst + self.p_calm
        if denom == 0:
            return self.rate  # absorbing calm start state
        burst_share = self.p_burst / denom
        return self.rate * (1 - burst_share) + (
            self.rate * self.burst_factor * burst_share
        )


@dataclass
class TrafficState:
    """Mutable per-campaign arrival-process state (checkpointed).

    Only the MMPP uses it (``state`` = :data:`CALM` or :data:`BURST`);
    the other models keep it for a uniform checkpoint shape.
    """

    state: int = CALM

    def to_json(self) -> Dict[str, int]:
        """Checkpoint payload."""
        return {"state": int(self.state)}

    @classmethod
    def from_json(cls, payload: Dict[str, int]) -> "TrafficState":
        """Restore from a checkpoint payload."""
        return cls(state=int(payload["state"]))


def draw_day(
    spec: TrafficSpec,
    state: TrafficState,
    rng: np.random.Generator,
) -> int:
    """The request count for one virtual day; advances ``state``.

    The deterministic model consumes no RNG draws at all — the generator
    state after a deterministic day equals the state before it, which is
    what lets deterministic campaigns be replayed from any point without
    an RNG checkpoint mattering.
    """
    if spec.model == "deterministic":
        return int(round(spec.rate))
    if spec.model == "poisson":
        return int(rng.poisson(spec.rate))
    # bursty: draw at the current state's rate, then flip the state.
    rate = spec.rate * (spec.burst_factor if state.state == BURST else 1.0)
    count = int(rng.poisson(rate))
    flip_p = spec.p_calm if state.state == BURST else spec.p_burst
    if rng.random() < flip_p:
        state.state = BURST if state.state == CALM else CALM
    return count


def split_requests(
    total: int,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Split a day's requests over cohorts.

    One cohort takes everything without touching the RNG (keeping the
    single-cohort degenerate case draw-free); otherwise a multinomial
    over the normalized cohort weights.
    """
    if len(weights) == 1:
        return np.array([total], dtype=np.int64)
    if total == 0:
        return np.zeros(len(weights), dtype=np.int64)
    return rng.multinomial(total, weights).astype(np.int64)


def capacity_iterations(
    iteration_latency_s: float, duty_cycle: float
) -> float:
    """How many workload iterations one array can serve per virtual day.

    The Bitlet-style throughput litmus: an array at ``duty_cycle``
    utilization of an 86400-second day, each iteration costing
    ``iteration_latency_s`` seconds of array time.
    """
    if iteration_latency_s <= 0:
        raise ValueError("iteration_latency_s must be positive")
    if not 0.0 < duty_cycle <= 1.0:
        raise ValueError("duty_cycle must be in (0, 1]")
    return duty_cycle * 86400.0 / iteration_latency_s


def rng_state_to_json(rng: np.random.Generator) -> dict:
    """The generator's bit-generator state as a JSON-able dict.

    PCG64 state is a nested dict of Python ints (arbitrary precision —
    JSON carries them exactly), so a round trip restores the generator
    bit-identically.
    """
    return rng.bit_generator.state


def rng_state_from_json(payload: dict) -> np.random.Generator:
    """Rebuild a generator from :func:`rng_state_to_json` output."""
    rng = np.random.Generator(getattr(np.random, payload["bit_generator"])())
    rng.bit_generator.state = payload
    return rng


def traffic_rng(seed: int) -> np.random.Generator:
    """The campaign's dedicated arrival-process generator."""
    from repro.fleet.population import TRAFFIC_STREAM

    return np.random.default_rng([seed, TRAFFIC_STREAM])
