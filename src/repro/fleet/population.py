"""Fleet populations: many arrays, heterogeneous technologies and cohorts.

A fleet is a population of PIM arrays. Each array belongs to a **cohort**
— one (workload, balance-config) pair whose calibrated wear profile is
simulated once and shared by every array in the cohort — and carries a
**technology** preset (MRAM/RRAM/PCM, :mod:`repro.devices.technology`)
plus optional per-cell lognormal endurance variation
(:class:`~repro.devices.endurance.LognormalEndurance`).

The per-array death threshold (iterations until the array is dead)
follows the closed forms of :mod:`repro.core.failure` over the cohort's
per-iteration rate matrix. Without endurance variation it *is* that
arithmetic (:func:`cell_failure_times`, then minima per lane offset),
so every array reproduces :func:`repro.core.failure.failure_timeline`
bit for bit. With lognormal variation each array's threshold is one
draw from the cohort's first-failure survival function
(:mod:`repro.fleet.thresholds`): the same distribution as the per-cell
budgets, without drawing them (pinned distributionally by
``tests/test_fleet_population.py``).

Assignment of cohorts and technologies to array slots is deterministic
(largest-remainder proportional allocation, interleaved), so a
population is a pure function of its spec; all randomness lives in the
endurance draws, whose RNG streams derive from
``(campaign seed, BUDGET_STREAM, array index)`` and are therefore
independent of visitation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.array.geometry import Orientation
from repro.balance.config import BalanceConfig
from repro.core.failure import cell_failure_times
from repro.devices.endurance import (
    EnduranceModel,
    LognormalEndurance,
    UniformEndurance,
)
from repro.devices.technology import Technology, technology_by_name
from repro.distinct import distinct
from repro.fleet.thresholds import first_failure_quantile
from repro.workloads.registry import (
    UnknownWorkloadError,
    get_workload,
    get_workload_factory,
)

#: Spawn-key tags for the independent RNG streams a campaign derives from
#: its base seed (``np.random.default_rng([seed, TAG, ...])``). Keeping
#: the budget and traffic streams disjoint means per-cell endurance draws
#: never perturb the arrival process and vice versa.
BUDGET_STREAM = 0xB0D6
TRAFFIC_STREAM = 0x7AFF


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous slice of the fleet.

    Attributes:
        workload: Kernel name, resolved through
            :mod:`repro.workloads.registry` — any registered built-in,
            trace workload, or user plug-in can serve fleet traffic.
        config: Balance-configuration label (``BalanceConfig.from_label``).
        weight: Relative share of arrays *and* of request traffic.
        iterations_per_request: Workload iterations one request costs.
    """

    workload: str
    config: str = "StxSt"
    weight: float = 1.0
    iterations_per_request: int = 1

    def __post_init__(self) -> None:
        try:
            get_workload_factory(self.workload)
        except UnknownWorkloadError as exc:
            # Cohort specs have always raised ValueError; re-wrap with
            # the registry's richer message (suggestion + provenance).
            raise ValueError(str(exc)) from None
        BalanceConfig.from_label(self.config)  # validates the label
        if self.weight <= 0:
            raise ValueError("cohort weight must be positive")
        if self.iterations_per_request <= 0:
            raise ValueError("iterations_per_request must be positive")

    @property
    def key(self) -> str:
        """Stable identifier (also the result-store shard key)."""
        return f"{self.workload}-{self.config}"

    def build_workload(self):
        """A fresh workload instance for this cohort."""
        return get_workload(self.workload)

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "weight": self.weight,
            "iterations_per_request": self.iterations_per_request,
        }


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative description of a fleet population.

    Attributes:
        n_arrays: Population size.
        technology_mix: ``((name, weight), ...)`` technology shares.
        cohorts: The cohort slices (weights double as traffic shares).
        endurance_sigma: Per-cell lognormal endurance spread (0 =
            the paper's uniform-endurance assumption).
        repacking: Die at the fault-aware repacking horizon
            (:func:`repro.core.failure.failure_timeline` semantics)
            instead of at first cell failure.
    """

    n_arrays: int = 64
    technology_mix: Tuple[Tuple[str, float], ...] = (("MRAM", 1.0),)
    cohorts: Tuple[CohortSpec, ...] = (CohortSpec("mult"),)
    endurance_sigma: float = 0.0
    repacking: bool = False

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValueError("n_arrays must be positive")
        if self.n_arrays > 2**32:
            # Budget streams key each array by one 32-bit entropy word.
            raise ValueError("n_arrays must be at most 2**32")
        if not self.technology_mix:
            raise ValueError("technology_mix must not be empty")
        for name, weight in self.technology_mix:
            technology_by_name(name)  # validates the preset
            if weight <= 0:
                raise ValueError(f"technology weight for {name} must be > 0")
        if not self.cohorts:
            raise ValueError("at least one cohort is required")
        keys = [cohort.key for cohort in self.cohorts]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate cohort keys: {sorted(keys)}")
        if self.endurance_sigma < 0:
            raise ValueError("endurance_sigma must be non-negative")

    def identity(self) -> dict:
        """JSON-able canonical form (feeds the fleet spec hash)."""
        return {
            "n_arrays": self.n_arrays,
            "technology_mix": [list(pair) for pair in self.technology_mix],
            "cohorts": [cohort.identity() for cohort in self.cohorts],
            "endurance_sigma": self.endurance_sigma,
            "repacking": self.repacking,
        }

    @property
    def cohort_weights(self) -> np.ndarray:
        """Normalized cohort weights (traffic and population shares)."""
        weights = np.array([c.weight for c in self.cohorts], dtype=float)
        return weights / weights.sum()


def proportional_counts(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` slots over ``weights``.

    Deterministic, exact (counts sum to ``total``), and stable: ties in
    the fractional remainders break toward the earlier entry.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    if remainder:
        # Stable sort descending by fractional part; earlier entries win ties.
        fractional = quotas - counts
        order = np.argsort(-fractional, kind="stable")
        for index in order[:remainder]:
            counts[index] += 1
    return counts.tolist()


def interleaved_assignment(weights: Sequence[float], total: int) -> np.ndarray:
    """Per-slot category assignment that interleaves categories evenly.

    Greedy largest-deficit scheduling: slot ``i`` goes to the category
    whose assigned count lags its quota the most. Category totals match
    :func:`proportional_counts`; within any prefix the mix stays close
    to the target, so e.g. an 8-array 50/50 fleet alternates rather than
    splitting into two blocks.
    """
    counts = proportional_counts(weights, total)
    weights = np.asarray(weights, dtype=float)
    # Python floats carry the same float64 arithmetic as a numpy row,
    # without a numpy call per slot.
    share = (weights / weights.sum()).tolist()
    categories = range(len(counts))
    assigned = [0] * len(counts)
    out = []
    for slot in range(1, total + 1):
        best, best_deficit = 0, -math.inf
        for category in categories:
            if assigned[category] < counts[category]:  # else exhausted
                deficit = share[category] * slot - assigned[category]
                if deficit > best_deficit:  # the first maximum wins
                    best, best_deficit = category, deficit
        out.append(best)
        assigned[best] += 1
    return np.array(out, dtype=int)


@dataclass(frozen=True)
class Population:
    """A concrete fleet population: per-array cohort and technology.

    Built deterministically from a :class:`PopulationSpec` — no RNG is
    consumed — so two builds of the same spec are identical.
    """

    spec: PopulationSpec
    cohort_index: np.ndarray = field(repr=False)
    technology_index: np.ndarray = field(repr=False)
    technologies: Tuple[Technology, ...]

    @classmethod
    def build(cls, spec: PopulationSpec) -> "Population":
        """Assign each array slot a cohort and a technology."""
        cohort_index = interleaved_assignment(
            [c.weight for c in spec.cohorts], spec.n_arrays
        )
        # Lay the interleaved technology sequence over the arrays in
        # cohort-grouped order, not slot order: two lockstep
        # interleavings would correlate perfectly (e.g. a 50/50 cohort
        # split times a 50/50 technology split puts every PCM array in
        # one cohort). Grouping first gives each cohort its own
        # proportional technology mix.
        technology_sequence = interleaved_assignment(
            [w for _, w in spec.technology_mix], spec.n_arrays
        )
        technology_index = np.empty(spec.n_arrays, dtype=int)
        technology_index[np.argsort(cohort_index, kind="stable")] = (
            technology_sequence
        )
        technologies = tuple(
            technology_by_name(name) for name, _ in spec.technology_mix
        )
        return cls(
            spec=spec,
            cohort_index=cohort_index,
            technology_index=technology_index,
            technologies=technologies,
        )

    @property
    def n_arrays(self) -> int:
        """Population size."""
        return self.spec.n_arrays

    def arrays_in_cohort(self, cohort: int) -> np.ndarray:
        """Indices of the arrays belonging to cohort ``cohort``."""
        return np.flatnonzero(self.cohort_index == cohort)

    def technology_of(self, array: int) -> Technology:
        """The technology preset of array ``array``."""
        return self.technologies[int(self.technology_index[array])]

    def endurance_model_for(self, array: int, seed: int) -> EnduranceModel:
        """The per-cell endurance model of one array.

        With ``endurance_sigma == 0`` this is the paper's uniform
        assumption at the array's technology endurance; otherwise a
        lognormal with that endurance as the median, seeded from
        ``(seed, BUDGET_STREAM, array)`` so draws are independent of the
        order arrays are processed in.
        """
        technology = self.technology_of(array)
        if self.spec.endurance_sigma == 0:
            return UniformEndurance(technology.endurance_writes)
        return LognormalEndurance(
            technology.endurance_writes,
            sigma=self.spec.endurance_sigma,
            rng=self._budget_rng(array, seed),
        )

    def death_thresholds(
        self,
        cohort_results: Sequence,
        seed: int,
        required_offsets: Optional[Sequence[Optional[int]]] = None,
    ) -> np.ndarray:
        """Per-array iterations-to-death under each cohort's wear pattern.

        The cohort simulation's accumulated counters give the long-run
        per-cell wear rate, and the array dies at its first cell failure
        — or, with ``repacking``, at the order-statistic repacking
        horizon over ``required_offsets`` — as in
        :func:`repro.core.failure.failure_timeline`.

        With ``endurance_sigma == 0`` the threshold is deterministic and
        computed once per (cohort, technology) by that closed form, bit
        for bit. Otherwise no per-cell budget is drawn: each array's
        threshold is one inverse-survival draw
        (:func:`~repro.fleet.thresholds.first_failure_quantile`) from its
        ``(seed, BUDGET_STREAM, array)`` stream — one ``random()``, or
        with repacking one per lane offset followed by the order
        statistic — exactly distributed as the per-cell lognormal model
        of :meth:`endurance_model_for`.

        Args:
            cohort_results: One (possibly store-restored) simulation
                result per cohort, in cohort order.
            seed: Campaign base seed (drives the budget streams).
            required_offsets: Per-cohort minimum footprint; required
                when the spec enables repacking.
        """
        if len(cohort_results) != len(self.spec.cohorts):
            raise ValueError(
                f"expected {len(self.spec.cohorts)} cohort results, "
                f"got {len(cohort_results)}"
            )
        repacking = self.spec.repacking
        if repacking and (
            required_offsets is None
            or any(offsets is None for offsets in required_offsets)
        ):
            raise ValueError("repacking requires per-cohort required_offsets")
        thresholds = np.empty(self.n_arrays, dtype=float)
        medians = np.array([t.endurance_writes for t in self.technologies])
        for cohort, result in enumerate(cohort_results):
            members = self.arrays_in_cohort(cohort)
            if not len(members):
                continue
            rate = result.state.write_counts / result.iterations
            architecture = result.architecture
            # The array dies at the k-th death among its independent cell
            # sets: the whole array (k = 1), or with repacking its lane
            # offsets, which hold disjoint cells.
            if repacking:
                k = architecture.lane_size - int(required_offsets[cohort]) + 1
                cell_sets = (
                    rate
                    if architecture.orientation is Orientation.COLUMN_PARALLEL
                    else rate.T
                )
            else:
                k, cell_sets = 1, rate.reshape(1, -1)
            techs = self.technology_index[members]
            if self.spec.endurance_sigma == 0:
                # Deterministic: the closed form once per technology.
                deaths = np.empty((len(members), len(cell_sets)))
                for technology in distinct(techs):
                    same = techs == technology
                    model = self.endurance_model_for(members[same][0], seed)
                    times = cell_failure_times(
                        cell_sets, model.sample_budgets(cell_sets.shape)
                    )
                    deaths[same] = times.min(axis=1)
            else:
                # One uniform per cell set from the array's stream; sets
                # with equal rate multisets share one survival table.
                uniforms = _budget_uniforms(seed, members, len(cell_sets))
                shared = {}
                for index, cells in enumerate(np.sort(cell_sets, axis=1)):
                    entry = shared.setdefault(cells.tobytes(), (cells, []))
                    entry[1].append(index)
                deaths = np.empty_like(uniforms)
                for cells, sets in shared.values():
                    quantile = first_failure_quantile(
                        cells, self.spec.endurance_sigma
                    )
                    deaths[:, sets] = quantile(
                        uniforms[:, sets], medians[techs, None]
                    )
            thresholds[members] = np.sort(deaths, axis=1)[:, k - 1]
        return thresholds

    @staticmethod
    def _budget_rng(array: int, seed: int) -> np.random.Generator:
        """The array's budget stream, independent of visitation order."""
        return np.random.default_rng([seed, BUDGET_STREAM, int(array)])


# ----------------------------------------------------------------------
# Budget streams for many arrays at once
# ----------------------------------------------------------------------
#
# ``default_rng([seed, BUDGET_STREAM, array])`` is a SeedSequence over
# the entropy words, seeding a PCG64 generator. Constructing one per
# array costs about 24 us, which made it most of ``fleet.thresholds``.
# ``_budget_uniforms`` replays the same arithmetic over numpy uint64
# lanes, one lane per array; ``Population._budget_rng`` stays the
# oracle, and every call checks its first row against it.

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT16, _SHIFT32 = _U64(16), _U64(32)
# SeedSequence's hash and mix constants (pool of four uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U64(0xCA01F9DD), _U64(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MOD128 = 1 << 128
# Draws per block of lanes (about 256 KiB per uint64 temporary).
_BLOCK_DRAWS = 1 << 15


def _uint32_words(value: int) -> List[int]:
    """``value`` as little-endian 32-bit words, as SeedSequence splits it."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _split128(values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as (high, low) uint64 rows."""
    high = np.array([v >> 64 for v in values], dtype=np.uint64)
    low = np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64)
    return high, low


def _mul128(a, b):
    """``a * b mod 2**128`` over (high, low) uint64 lanes.

    The low words' full product is assembled from 32-bit limbs; numpy
    array arithmetic wraps modulo ``2**64`` without warnings.
    """
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0 = a_lo >> _SHIFT32, a_lo & _MASK32
    b1, b0 = b_lo >> _SHIFT32, b_lo & _MASK32
    cross_ab, cross_ba = a0 * b1, a1 * b0
    middle = (
        ((a0 * b0) >> _SHIFT32) + (cross_ab & _MASK32) + (cross_ba & _MASK32)
    )
    carry = (
        a1 * b1 + (cross_ab >> _SHIFT32) + (cross_ba >> _SHIFT32)
        + (middle >> _SHIFT32)
    )
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a, b):
    """``a + b mod 2**128`` over (high, low) uint64 lanes."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]).astype(np.uint64), low


def _budget_uniforms(seed: int, arrays: Sequence[int], n: int) -> np.ndarray:
    """``n`` budget-stream uniforms per array, without a generator each.

    Returns exactly ``np.stack([Population._budget_rng(a, seed).random(n)
    for a in arrays])`` as a ``(len(arrays), n)`` float64 array, for
    array indices below ``2**32`` (one entropy word each).

    Raises:
        ValueError: A negative seed (as ``default_rng``), or an array
            index outside ``[0, 2**32)``.
        RuntimeError: numpy's default generator no longer matches this
            arithmetic (checked against the first array's stream).
    """
    seed = int(seed)
    seed_words = _uint32_words(seed)
    lanes = np.asarray(arrays, dtype=np.int64).reshape(-1, 1)
    if lanes.min() < 0 or lanes.max() > 0xFFFFFFFF:
        raise ValueError("budget-stream array indices must be in [0, 2**32)")
    lanes = lanes.astype(np.uint64)

    # SeedSequence: hash the entropy words into the pool, then mix
    # every pool word into every other. The hash multiplier advances
    # identically on every lane, so it stays a Python int.
    entropy = [
        np.full_like(lanes, word)
        for word in seed_words + [BUDGET_STREAM]
    ] + [lanes]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U64(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = (value * _U64(hash_const)) & _MASK32
        return value ^ (value >> _SHIFT16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _SHIFT16)

    padded = entropy + [np.zeros_like(lanes)] * _POOL_SIZE
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in entropy[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(word))

    # generate_state(4, uint64): eight hashed uint32 words, paired
    # little-endian into (initstate high, low, initseq high, low).
    hash_const = _INIT_B
    state = []
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ _U64(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = (value * _U64(hash_const)) & _MASK32
        state.append(value ^ (value >> _SHIFT16))
    words = [state[2 * i] | (state[2 * i + 1] << _SHIFT32) for i in range(4)]

    # PCG64 srandom: inc = 2 * initseq + 1 and s_0 = (inc + initstate) *
    # M + inc. Draw k then reads s_k = M**(k+1) * t + G(k+1) * inc with
    # t = inc + initstate and G(j) = M**0 + ... + M**(j-1): all draws
    # of a block of lanes in one pass, over per-draw constants.
    inc = (
        (words[2] << _U64(1)) | (words[3] >> _U64(63)),
        (words[3] << _U64(1)) | _U64(1),
    )
    start = _add128(inc, (words[0], words[1]))
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n):
        total = (total + power) % _MOD128
        power = power * _PCG_MULT % _MOD128
        powers.append(power)
        sums.append(total)
    powers, sums = _split128(powers), _split128(sums)
    uniforms = np.empty((len(lanes), n))
    # Row blocks keep the 128-bit temporaries cache-sized.
    step = max(1, _BLOCK_DRAWS // max(n, 1))
    for first in range(0, len(lanes), step):
        rows = slice(first, first + step)
        high, low = _add128(
            _mul128((start[0][rows], start[1][rows]), powers),
            _mul128((inc[0][rows], inc[1][rows]), sums),
        )
        # XSL-RR output, then random()'s 53-bit conversion.
        folded = high ^ low
        rotation = high >> _U64(58)
        output = (folded >> rotation) | (
            folded << ((_U64(64) - rotation) & _U64(63))
        )
        uniforms[rows] = (output >> _U64(11)).astype(np.float64) * 2.0**-53

    expected = Population._budget_rng(int(lanes[0, 0]), seed).random(n)
    if uniforms[0].tobytes() != expected.tobytes():
        raise RuntimeError(
            "vectorized budget streams disagree with "
            f"np.random.default_rng under numpy {np.__version__}"
        )
    return uniforms
