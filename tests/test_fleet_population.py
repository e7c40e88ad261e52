"""Population assembly and the death thresholds.

With endurance variation the thresholds are inverse-survival draws
(:mod:`repro.fleet.thresholds`); their one slow oracle is the per-cell
Monte Carlo of :func:`repro.core.failure.failure_timeline` over a
:class:`LognormalEndurance`, pinned here distributionally.

The set-up fast paths are pinned bit for bit to their oracles:
``_budget_uniforms`` to one ``Population._budget_rng`` generator per
array, and ``interleaved_assignment`` to the per-slot numpy loop below.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.failure import failure_timeline, minimum_footprint
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance, UniformEndurance
from repro.fleet import (
    BUDGET_STREAM,
    CohortSpec,
    Population,
    PopulationSpec,
    interleaved_assignment,
    proportional_counts,
)
from repro.fleet import population as population_module
from repro.fleet.population import _budget_uniforms
from repro.fleet.thresholds import (
    TABLE_MEMO_SIZE,
    FirstFailureQuantile,
    first_failure_quantile,
)
from repro.workloads.vectoradd import VectorAdd


@pytest.fixture(scope="module")
def add_result():
    arch_module = pytest.importorskip("repro.array.architecture")
    arch = arch_module.default_architecture(128, 128)
    sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=0))
    return sim.run(VectorAdd(bits=32), BalanceConfig(), 200)


class TestApportionment:
    def test_counts_sum_to_total(self):
        assert sum(proportional_counts([3, 2, 1], 100)) == 100
        assert sum(proportional_counts([0.1, 0.9], 7)) == 7

    def test_exact_split(self):
        assert proportional_counts([1, 1], 10) == [5, 5]
        assert proportional_counts([2, 1, 1], 8) == [4, 2, 2]

    def test_largest_remainder_breaks_ties_to_earlier(self):
        # 3 slots over equal thirds: quotas are all 1.0, no remainder.
        assert proportional_counts([1, 1, 1], 3) == [1, 1, 1]
        # 1 slot over equal halves: earlier entry wins the tie.
        assert proportional_counts([1, 1], 1) == [1, 0]

    def test_rejects_degenerate_weights(self):
        with pytest.raises(ValueError):
            proportional_counts([0, 0], 4)
        with pytest.raises(ValueError):
            proportional_counts([-1, 2], 4)

    def test_interleaving_alternates_even_mixes(self):
        assignment = interleaved_assignment([1, 1], 8)
        assert assignment.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_interleaving_matches_proportional_totals(self):
        weights = [5, 2, 3]
        assignment = interleaved_assignment(weights, 41)
        counts = np.bincount(assignment, minlength=3).tolist()
        assert counts == proportional_counts(weights, 41)


def interleaved_assignment_oracle(weights, total):
    """The per-slot numpy loop ``interleaved_assignment`` replaced."""
    counts = np.asarray(proportional_counts(weights, total), dtype=int)
    weights = np.asarray(weights, dtype=float)
    share = weights / weights.sum()
    assigned = np.zeros(len(counts), dtype=int)
    out = np.empty(total, dtype=int)
    for slot in range(total):
        deficit = share * (slot + 1) - assigned
        deficit[assigned >= counts] = -np.inf  # category exhausted
        out[slot] = int(np.argmax(deficit))
        assigned[out[slot]] += 1
    return out


class TestInterleavingOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(
                st.integers(1, 7),
                st.floats(0.01, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        total=st.integers(1, 3000),
    )
    @example(weights=[1, 1], total=2048)
    @example(weights=[0.3, 0.3, 0.4], total=3000)
    @example(weights=[1, 2, 3, 4, 5, 6], total=7)
    def test_equals_numpy_loop(self, weights, total):
        fast = interleaved_assignment(weights, total)
        oracle = interleaved_assignment_oracle(weights, total)
        assert fast.dtype == oracle.dtype
        assert np.array_equal(fast, oracle)


def budget_stream_oracle(seed, arrays, n):
    """One ``default_rng`` per array: what ``_budget_uniforms`` replays."""
    return np.stack(
        [Population._budget_rng(a, seed).random(n) for a in arrays]
    )


class TestBudgetUniforms:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]),
        arrays=st.lists(
            st.one_of(
                st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)
            ),
            min_size=1,
            max_size=8,
        ),
        n=st.sampled_from([1, 2, 128]),
    )
    def test_equals_default_rng_stack(self, seed, arrays, n):
        fast = _budget_uniforms(seed, arrays, n)
        oracle = budget_stream_oracle(seed, arrays, n)
        assert fast.shape == oracle.shape == (len(arrays), n)
        assert fast.dtype == np.float64
        assert np.array_equal(fast.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.parametrize(
        "arrays, n",
        [
            (np.arange(2048), 5),
            # 1,024 draws a lane: several row blocks, the last partial.
            (np.arange(1000, 0, -3), 1024),
        ],
    )
    def test_equals_default_rng_stack_over_a_fleet(self, arrays, n):
        for seed in (1, 7, 2**40 + 3):
            fast = _budget_uniforms(seed, arrays, n)
            oracle = budget_stream_oracle(seed, arrays, n)
            assert np.array_equal(fast.view(np.uint64), oracle.view(np.uint64))

    def test_negative_seed_rejected_like_default_rng(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, BUDGET_STREAM, 0])
        with pytest.raises(ValueError):
            _budget_uniforms(-1, [0], 1)

    @pytest.mark.parametrize("array", [-1, 2**32])
    def test_array_index_outside_one_word_rejected(self, array):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _budget_uniforms(0, [0, array], 1)

    def test_population_over_one_word_of_arrays_rejected(self):
        with pytest.raises(ValueError, match="n_arrays"):
            PopulationSpec(n_arrays=2**32 + 1)

    def test_mismatch_with_default_rng_raises(self, monkeypatch):
        # A stream that is not PCG64 under SeedSequence: the vector path
        # must refuse rather than silently draw different thresholds.
        def other_stream(array, seed):
            return np.random.Generator(
                np.random.MT19937([seed, BUDGET_STREAM, int(array)])
            )

        monkeypatch.setattr(
            Population, "_budget_rng", staticmethod(other_stream)
        )
        with pytest.raises(RuntimeError, match=np.__version__):
            _budget_uniforms(1, [0, 1], 2)


class TestSpecs:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CohortSpec("sorting")

    def test_bad_config_label_rejected(self):
        with pytest.raises(Exception):
            CohortSpec("add", config="NotAConfig")

    def test_duplicate_cohort_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate cohort keys"):
            PopulationSpec(
                cohorts=(CohortSpec("add"), CohortSpec("add"))
            )

    def test_unknown_technology_rejected(self):
        with pytest.raises(KeyError):
            PopulationSpec(technology_mix=(("FeRAM", 1.0),))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PopulationSpec(endurance_sigma=-0.1)

    def test_identity_is_json_able_and_stable(self):
        import json

        spec = PopulationSpec(
            n_arrays=10,
            technology_mix=(("MRAM", 2.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv", weight=2.0)),
            endurance_sigma=0.25,
        )
        a = json.dumps(spec.identity(), sort_keys=True)
        b = json.dumps(spec.identity(), sort_keys=True)
        assert a == b


class TestPopulationBuild:
    def test_build_is_deterministic(self):
        spec = PopulationSpec(
            n_arrays=12,
            technology_mix=(("MRAM", 1.0), ("RRAM", 1.0), ("PCM", 2.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
        )
        a = Population.build(spec)
        b = Population.build(spec)
        assert np.array_equal(a.cohort_index, b.cohort_index)
        assert np.array_equal(a.technology_index, b.technology_index)

    def test_technology_shares_respected(self):
        spec = PopulationSpec(
            n_arrays=8, technology_mix=(("MRAM", 3.0), ("PCM", 1.0))
        )
        population = Population.build(spec)
        names = [
            population.technology_of(i).name for i in range(8)
        ]
        assert names.count("MRAM") == 6
        assert names.count("PCM") == 2

    def test_technology_mix_decorrelated_from_cohorts(self):
        # Two lockstep 50/50 interleavings would put every PCM array in
        # one cohort; each cohort must get its own proportional mix.
        spec = PopulationSpec(
            n_arrays=8,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
        )
        population = Population.build(spec)
        for cohort in range(2):
            members = population.arrays_in_cohort(cohort)
            names = [population.technology_of(i).name for i in members]
            assert names.count("MRAM") == 2
            assert names.count("PCM") == 2

    def test_uniform_model_when_sigma_zero(self):
        population = Population.build(PopulationSpec(n_arrays=2))
        model = population.endurance_model_for(0, seed=5)
        assert isinstance(model, UniformEndurance)

    def test_lognormal_models_differ_per_array_not_per_call(self):
        population = Population.build(
            PopulationSpec(n_arrays=2, endurance_sigma=0.3)
        )
        a1 = population.endurance_model_for(0, seed=5).sample_budgets((4, 4))
        a2 = population.endurance_model_for(0, seed=5).sample_budgets((4, 4))
        b = population.endurance_model_for(1, seed=5).sample_budgets((4, 4))
        assert np.array_equal(a1, a2)  # fresh stream per call, same seed
        assert not np.array_equal(a1, b)  # distinct stream per array


class TestDeathThresholds:
    def test_uniform_matches_first_failure(self, add_result):
        population = Population.build(
            PopulationSpec(n_arrays=1, cohorts=(CohortSpec("add"),))
        )
        thresholds = population.death_thresholds([add_result], seed=0)
        closed_form = failure_timeline(add_result, required_offsets=1)
        assert thresholds[0] == closed_form.first_failure_iterations

    def test_repacking_requires_offsets(self, add_result):
        population = Population.build(
            PopulationSpec(
                n_arrays=1, cohorts=(CohortSpec("add"),), repacking=True
            )
        )
        with pytest.raises(ValueError, match="required_offsets"):
            population.death_thresholds([add_result], seed=0)

    def test_result_count_mismatch_rejected(self, add_result):
        population = Population.build(PopulationSpec(n_arrays=1))
        with pytest.raises(ValueError, match="cohort results"):
            population.death_thresholds([add_result, add_result], seed=0)


# -- the inverse-survival sampler against its per-cell oracle ------------

SIGMA = 0.3
#: Arrays per (cohort, technology) pair in the mixed test fleet.
PAIR_ARRAYS = 512
#: Seeds pooled per pair: 4 x 512 = 2048 thresholds.
SEEDS = (0, 1, 2, 3)
#: Two-sample KS critical value coefficient at the 1% level.
KS_C_001 = 1.628


def mixed_population(sigma=SIGMA, repacking=False):
    """2 cohorts x 2 technologies, PAIR_ARRAYS arrays per pair."""
    return Population.build(
        PopulationSpec(
            n_arrays=4 * PAIR_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
            endurance_sigma=sigma,
            repacking=repacking,
        )
    )


@pytest.fixture(scope="module")
def mixed_cohorts():
    """Calibrated add/conv cohorts on a 128x32 array and footprints."""
    arch = default_architecture(128, 32)
    results, footprints = [], []
    for name in ("add", "conv"):
        workload = CohortSpec(name).build_workload()
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=0))
        results.append(sim.run(workload, BalanceConfig(), 200))
        footprints.append(
            minimum_footprint(CohortSpec(name).build_workload(), arch)
        )
    return results, footprints


@pytest.fixture(scope="module")
def oracle_samples(mixed_cohorts):
    """Per-cell Monte Carlo thresholds, 2048 per (cohort, technology).

    Maps ``(cohort, technology, repacking)`` to the sample. One
    :func:`failure_timeline` call yields both horizons.
    """
    results, footprints = mixed_cohorts
    population = mixed_population()
    samples = {}
    for cohort, result in enumerate(results):
        for tech, technology in enumerate(population.technologies):
            rng = np.random.default_rng([2024, cohort, tech])
            first, unusable = [], []
            for _ in range(len(SEEDS) * PAIR_ARRAYS):
                timeline = failure_timeline(
                    result,
                    required_offsets=footprints[cohort],
                    endurance_model=LognormalEndurance(
                        technology.endurance_writes, sigma=SIGMA, rng=rng
                    ),
                )
                first.append(timeline.first_failure_iterations)
                unusable.append(timeline.unusable_iterations)
            samples[cohort, tech, False] = np.array(first)
            samples[cohort, tech, True] = np.array(unusable)
    return samples


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / len(a)
    cdf_b = np.searchsorted(b, points, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def pooled_fast_samples(mixed_cohorts, repacking):
    """Fast-path thresholds pooled over SEEDS, keyed by (cohort, tech)."""
    results, footprints = mixed_cohorts
    population = mixed_population(repacking=repacking)
    pooled = {}
    for seed in SEEDS:
        thresholds = population.death_thresholds(
            results, seed=seed, required_offsets=footprints
        )
        for cohort in range(2):
            for tech in range(2):
                members = (population.cohort_index == cohort) & (
                    population.technology_index == tech
                )
                pooled.setdefault((cohort, tech), []).append(
                    thresholds[members]
                )
    return {key: np.concatenate(parts) for key, parts in pooled.items()}


class TestThresholdDistribution:
    """Inverse-survival thresholds match the per-cell oracle in law."""

    @pytest.mark.parametrize("repacking", [False, True])
    def test_pooled_ks_and_mean_match_oracle(
        self, mixed_cohorts, oracle_samples, repacking
    ):
        fast = pooled_fast_samples(mixed_cohorts, repacking)
        for (cohort, tech), sample in fast.items():
            oracle = oracle_samples[cohort, tech, repacking]
            assert len(sample) >= 2000 and len(oracle) >= 2000
            critical = KS_C_001 * math.sqrt(
                (len(sample) + len(oracle)) / (len(sample) * len(oracle))
            )
            statistic = ks_statistic(sample, oracle)
            assert statistic < critical, (cohort, tech, statistic, critical)
            assert sample.mean() == pytest.approx(oracle.mean(), rel=0.01)

    def test_threshold_inverts_survival_to_1e_9(self, mixed_cohorts):
        results, footprints = mixed_cohorts
        population = mixed_population()
        seed = 5
        thresholds = population.death_thresholds(results, seed=seed)
        rates = [r.state.write_counts / r.iterations for r in results]
        distinct = [
            np.unique(rate[rate > 0], return_counts=True) for rate in rates
        ]
        for array in range(population.n_arrays):
            u = np.random.default_rng([seed, BUDGET_STREAM, array]).random()
            median = population.technology_of(array).endurance_writes
            values, counts = distinct[int(population.cohort_index[array])]
            log_s = 0.0
            for rate, count in zip(values.tolist(), counts.tolist()):
                z = math.log(thresholds[array] * rate / median) / SIGMA
                tail = 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
                log_s += count * (
                    math.log(tail) if z > 0 else math.log1p(-tail)
                )
            expected = math.log1p(-u)
            assert abs(log_s - expected) <= 1e-9 * abs(expected), array

    def test_no_per_cell_budget_is_drawn(self, mixed_cohorts, monkeypatch):
        results, footprints = mixed_cohorts

        def refuse(self, shape):
            raise AssertionError("per-cell budgets drawn")

        monkeypatch.setattr(LognormalEndurance, "sample_budgets", refuse)
        for repacking in (False, True):
            thresholds = mixed_population(
                repacking=repacking
            ).death_thresholds(results, seed=1, required_offsets=footprints)
            assert np.all(np.isfinite(thresholds) & (thresholds > 0))

    @pytest.mark.parametrize("repacking", [False, True])
    def test_equal_to_per_array_generators(
        self, mixed_cohorts, monkeypatch, repacking
    ):
        results, footprints = mixed_cohorts
        population = mixed_population(repacking=repacking)
        fast = population.death_thresholds(
            results, seed=11, required_offsets=footprints
        )
        monkeypatch.setattr(
            population_module, "_budget_uniforms", budget_stream_oracle
        )
        oracle = population.death_thresholds(
            results, seed=11, required_offsets=footprints
        )
        assert population.n_arrays == 2048
        assert np.array_equal(fast.view(np.uint64), oracle.view(np.uint64))

    def test_draws_depend_on_seed_not_call(self, mixed_cohorts):
        results, _ = mixed_cohorts
        population = mixed_population()
        a = population.death_thresholds(results, seed=3)
        b = population.death_thresholds(results, seed=3)
        c = population.death_thresholds(results, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("repacking", [False, True])
    def test_sigma_zero_is_bit_identical_to_failure_timeline(
        self, mixed_cohorts, repacking
    ):
        results, footprints = mixed_cohorts
        population = mixed_population(sigma=0.0, repacking=repacking)
        thresholds = population.death_thresholds(
            results, seed=9, required_offsets=footprints
        )
        for array in range(population.n_arrays):
            cohort = int(population.cohort_index[array])
            timeline = failure_timeline(
                results[cohort],
                required_offsets=footprints[cohort],
                endurance_model=UniformEndurance(
                    population.technology_of(array).endurance_writes
                ),
            )
            expected = (
                timeline.unusable_iterations
                if repacking
                else timeline.first_failure_iterations
            )
            assert thresholds[array] == expected

    def test_unwritten_cohort_never_dies(self, mixed_cohorts):
        results, footprints = mixed_cohorts
        idle = SimpleNamespace(
            state=SimpleNamespace(
                write_counts=np.zeros_like(results[1].state.write_counts)
            ),
            iterations=results[1].iterations,
            architecture=results[1].architecture,
        )
        for repacking in (False, True):
            population = mixed_population(repacking=repacking)
            thresholds = population.death_thresholds(
                [results[0], idle], seed=0, required_offsets=footprints
            )
            idle_arrays = population.cohort_index == 1
            assert np.all(np.isinf(thresholds[idle_arrays]))
            assert np.all(np.isfinite(thresholds[~idle_arrays]))


class TestFirstFailureQuantile:
    @pytest.fixture
    def quantile(self, mixed_cohorts):
        results, _ = mixed_cohorts
        rate = results[1].state.write_counts / results[1].iterations
        return FirstFailureQuantile(rate, SIGMA), rate

    @staticmethod
    def log_survival(rate, t):
        values, counts = np.unique(rate[rate > 0], return_counts=True)
        total = 0.0
        for value, count in zip(values.tolist(), counts.tolist()):
            z = math.log(t * value) / SIGMA
            tail = 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
            total += count * (math.log(tail) if z > 0 else math.log1p(-tail))
        return total

    def test_zero_uniform_gives_zero(self, quantile):
        table, _ = quantile
        assert table(np.array([0.0]))[0] == 0.0

    def test_extreme_uniforms_are_inverted_not_clamped(self, quantile):
        table, rate = quantile
        top = 1.0 - 2.0**-53
        bottom = 2.0**-53
        times = table(np.array([bottom, 2 * bottom, 1.0 - 2.0**-52, top]))
        assert np.all(np.diff(times) > 0)
        for u, t in ((bottom, times[0]), (top, times[-1])):
            expected = math.log1p(-u)
            assert abs(self.log_survival(rate, t) - expected) <= 1e-9 * abs(
                expected
            )

    @pytest.mark.parametrize("bad", [1.0, -1e-9, float("nan")])
    def test_uniform_outside_unit_interval_rejected(self, quantile, bad):
        table, _ = quantile
        with pytest.raises(ValueError, match="uniforms"):
            table(np.array([0.5, bad]))

    def test_median_scales_time(self, quantile):
        table, _ = quantile
        u = np.array([0.1, 0.5, 0.9])
        assert np.allclose(table(u, 1e8), 1e8 * table(u), rtol=1e-15)

    def test_unwritten_cells_never_fail(self):
        table = FirstFailureQuantile(np.zeros((4, 4)), SIGMA)
        assert np.all(np.isinf(table(np.array([0.0, 0.5]), 1e6)))

    def test_memo_shares_tables_by_content(self, quantile):
        _, rate = quantile
        table = first_failure_quantile(rate, SIGMA)
        assert first_failure_quantile(rate.T.copy(), SIGMA) is table
        assert first_failure_quantile(rate, 2 * SIGMA) is not table
        for scale in range(TABLE_MEMO_SIZE):
            first_failure_quantile(rate * (scale + 2), SIGMA)
        # The least recently used table was dropped: it builds again.
        assert first_failure_quantile(rate, SIGMA) is not table

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            FirstFailureQuantile(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="negative"):
            FirstFailureQuantile(np.array([1.0, -1.0]), SIGMA)
