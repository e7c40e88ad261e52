"""FleetService campaigns: the degenerate closed-form pin, pinned
campaign hashes, checkpoint kill/resume determinism, store sharding,
and dispatch policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.failure import failure_timeline
from repro.devices.endurance import UniformEndurance
from repro.engine import ResultStore
from repro.fleet import (
    CheckpointManager,
    CohortSpec,
    FleetService,
    FleetSpec,
    PopulationSpec,
    TrafficSpec,
    canonical_hash,
    capacity_iterations,
    kaplan_meier,
    run_campaign,
)
from repro.telemetry import capture, get_telemetry


def one_array_spec(**overrides):
    """A single-array, deterministic-traffic PCM fleet (dies in days)."""
    defaults = dict(
        population=PopulationSpec(
            n_arrays=1,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"),),
        ),
        traffic=TrafficSpec(model="deterministic", rate=5e5),
        days=10,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def small_fleet_spec(**overrides):
    """A 4-array PCM fleet with endurance variation."""
    defaults = dict(
        population=PopulationSpec(
            n_arrays=4,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"),),
            endurance_sigma=0.5,
        ),
        traffic=TrafficSpec(model="poisson", rate=2e5),
        days=12,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def unsound_config_spec():
    """A cohort whose within-lane strategy is wear-aware (RPR010)."""
    return small_fleet_spec(
        population=PopulationSpec(
            n_arrays=4,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add", config="WaxSt"),),
        ),
    )


class TestDegenerateClosedFormPin:
    """One array + deterministic traffic must reproduce failure_timeline."""

    def test_death_day_matches_closed_form_accumulation(self):
        spec = one_array_spec()
        service = FleetService(spec)
        calibration = service.calibrate()
        result = calibration["results"][0]

        # The closed-form lifetime for this array's technology.
        technology = service.population.technology_of(0)
        timeline = failure_timeline(
            result,
            required_offsets=1,
            endurance_model=UniformEndurance(technology.endurance_writes),
        )
        threshold = timeline.first_failure_iterations

        # Replay the day loop's arithmetic exactly: one array takes the
        # whole (integer) daily request count, clipped at capacity.
        daily_iterations = min(
            float(int(round(spec.traffic.rate))),
            capacity_iterations(
                calibration["ops_per_iteration"][0] * technology.op_latency_s,
                spec.duty_cycle,
            ),
        )
        cumulative, expected_day = 0.0, None
        for day in range(1, spec.days + 1):
            cumulative += daily_iterations
            if cumulative >= threshold:
                expected_day = day
                break
        assert expected_day is not None  # the spec is tuned to die

        report = service.run()
        assert report.death_days == [expected_day]
        assert report.curve.days == [expected_day]
        assert report.curve.survival == [0.0]

    def test_curve_is_bit_exact_kaplan_meier_of_closed_form_day(self):
        report = FleetService(one_array_spec()).run()
        [death_day] = report.death_days
        expected = kaplan_meier([death_day], report.spec_identity["days"])
        assert report.curve.content_hash() == expected.content_hash()

    def test_deterministic_campaign_is_rng_free_and_reproducible(self):
        a = FleetService(one_array_spec()).run()
        b = FleetService(one_array_spec()).run()
        assert a.content_hash() == b.content_hash()
        assert a.to_json()["report_hash"] == b.to_json()["report_hash"]

    def test_report_hash_ignores_runtime(self):
        a = FleetService(one_array_spec()).run()
        b = FleetService(one_array_spec(), jobs=1).run()
        assert a.runtime["wall_s"] != b.runtime["wall_s"] or True
        assert a.content_hash() == b.content_hash()


class TestPinnedCampaigns:
    """Report hashes pinned for a deterministic and a stochastic fleet.

    The day loop's arithmetic (dispatch order, float accumulation, RNG
    consumption) is the campaign's identity: any change to it shows up
    here as a moved hash.
    """

    def test_smoke_fleet_hashes(self):
        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=8,
                technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
                cohorts=(CohortSpec("add"), CohortSpec("conv")),
                endurance_sigma=0.3,
            ),
            traffic=TrafficSpec(model="deterministic", rate=8e6),
            days=3,
            seed=7,
            rows=128,
            cols=128,
            cohort_iterations=200,
        )
        report = FleetService(spec).run()
        assert report.curve.content_hash() == (
            "6d8cb0f505121c54fc432b6090a0f8448df35f1864b9d9bebbf51d14db7ca618"
        )
        assert report.content_hash() == (
            "50a7374fa9c63440fef6565b361cf37822262909f1a2f745a7fbe93e1128c4df"
        )
        assert report.curve.survival == [0.5]

    def test_stochastic_least_worn_fleet_hashes(self):
        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=12,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"), CohortSpec("conv")),
                endurance_sigma=0.5,
            ),
            traffic=TrafficSpec(model="poisson", rate=8e5),
            days=25,
            seed=3,
            dispatch="least_worn",
            rows=128,
            cols=128,
            cohort_iterations=200,
        )
        report = FleetService(spec).run()
        assert report.curve.content_hash() == (
            "7f49f8ef3b5b193ad1723ecfd4dc88ebbd1853d37a29f16507d7629fcee65113"
        )
        assert report.content_hash() == (
            "d1ad3a67f439e30391a25f225593623ad3ed7ea1ad8e3f93f940d1e3595d6905"
        )
        assert report.n_deaths == 12


class TestCheckpointResume:
    def test_pause_then_resume_matches_uninterrupted(self, tmp_path):
        spec = small_fleet_spec()
        uninterrupted = FleetService(spec).run()

        paused = FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=2
        ).run(stop_after_day=5)
        assert paused is None

        resumed_service = FleetService(spec, checkpoint_dir=tmp_path)
        resumed = resumed_service.run()
        assert resumed is not None
        assert resumed.content_hash() == uninterrupted.content_hash()
        assert resumed.runtime["resumed_from_day"] == 5

    def test_resume_parameter_is_gone(self, tmp_path):
        # A service with a checkpoint_dir always resumes.
        service = FleetService(small_fleet_spec(), checkpoint_dir=tmp_path)
        with pytest.raises(TypeError, match="resume"):
            service.run(resume=False)

    def test_checkpoint_cadence_writes_expected_files(self, tmp_path):
        spec = small_fleet_spec(days=9)
        service = FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=3
        )
        report = service.run()
        assert report.runtime["checkpoints_written"] == 3
        assert service.checkpoints.days() == [3, 6, 9]

    def test_stop_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FleetService(small_fleet_spec()).run(stop_after_day=2)

    def test_stale_checkpoint_from_other_spec_is_ignored(self, tmp_path):
        spec_a = small_fleet_spec(seed=3)
        spec_b = small_fleet_spec(seed=4)
        FleetService(
            spec_a, checkpoint_dir=tmp_path, checkpoint_every=2
        ).run(stop_after_day=2)
        # A different campaign sharing the directory must not resume
        # from spec_a's checkpoint.
        report = FleetService(spec_b, checkpoint_dir=tmp_path).run()
        assert report.runtime["resumed_from_day"] is None


    def test_checkpoint_from_before_the_knob_removal_restarts(self, tmp_path):
        # Written verbatim by a paused run of this spec built with
        # kernel="epoch", chunk_size=64, fastforward=True, before those
        # knobs were removed. It is a version 1 (JSON) checkpoint, so it
        # is not read, under its own name or under a current one: the
        # campaign restarts from day 0 and still reaches the straight
        # run's report, pinned from the same release.
        spec = small_fleet_spec(
            traffic=TrafficSpec(model="poisson", rate=6e4), days=10
        )
        campaign = (
            "f493a9181f1aaec2d3479842b5556f7d1ddbcb03418bb5565645004a6476b0b3"
        )
        assert spec.content_hash == campaign
        old = (
            '{"campaign_hash": "' + campaign + '", "day": 4, "state": '
            '{"cumulative": [60001.75, 60001.75, 60001.75, 60001.75], '
            '"day": 4, "death_day": [-1, -1, -1, -1], "dropped": 0, '
            '"rng_state": {"bit_generator": "PCG64", "has_uint32": 0, '
            '"state": {"inc": 180057942716375760114678310360467455973, '
            '"state": 327102480610105737419010852224278321496}, '
            '"uinteger": 0}, "served": 240007, '
            '"traffic_state": {"state": 0}}, "version": 1}'
        )
        (tmp_path / "fleet-f493a9181f1a-day000004.json").write_text(old)
        manager = CheckpointManager(tmp_path / "renamed", campaign)
        manager.path_for(4).write_text(old)
        for directory in (tmp_path, tmp_path / "renamed"):
            assert CheckpointManager(directory, campaign).latest() is None
            report = FleetService(spec, checkpoint_dir=directory).run()
            assert report.runtime["resumed_from_day"] is None
            assert report.n_deaths == 4
            assert report.content_hash() == (
                "23f206443f4697af6c0c2f6034d931970ad7b4365b89b8edcce8f7678fe2b59c"
            )

    def test_checkpoint_resumes_from_its_own_day(self, tmp_path):
        # A current checkpoint is read, not skipped: the resumed run
        # starts from the saved day, with the saved vectors.
        spec = small_fleet_spec()
        FleetService(
            spec, checkpoint_dir=tmp_path, checkpoint_every=3
        ).run(stop_after_day=3)
        manager = CheckpointManager(tmp_path, spec.content_hash)
        assert manager.path_for(3).suffix == ".ckpt"
        day, state = manager.latest()
        assert day == state["day"] == 3
        assert state["cumulative"].dtype == np.float64
        assert state["cumulative"].shape == (4,)
        assert state["death_day"].dtype == np.int64
        assert state["cumulative"].sum() > 0
        report = FleetService(spec, checkpoint_dir=tmp_path).run()
        assert report.runtime["resumed_from_day"] == 3
        assert report.content_hash() == FleetService(spec).run().content_hash()

    def test_version_one_checkpoint_is_ignored(self, tmp_path):
        # fleet_version 2 marks the move to inverse-survival thresholds:
        # a checkpoint of the same campaign written under version 1
        # carries the old thresholds' progress and must not be resumed.
        spec = small_fleet_spec()
        old_hash = canonical_hash(dict(spec.identity(), fleet_version=1))
        assert spec.identity()["fleet_version"] == 2
        assert old_hash != spec.content_hash
        FleetService(
            spec, checkpoint_dir=tmp_path / "v2", checkpoint_every=2
        ).run(stop_after_day=4)
        state = CheckpointManager(tmp_path / "v2", spec.content_hash).load(4)
        CheckpointManager(tmp_path / "shared", old_hash).save(4, state)
        report = FleetService(spec, checkpoint_dir=tmp_path / "shared").run()
        assert report.runtime["resumed_from_day"] is None
        assert report.content_hash() == FleetService(spec).run().content_hash()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestCheckpointEncoding:
    @settings(max_examples=60, deadline=None)
    @given(
        cumulative=st.lists(
            st.one_of(
                finite_floats,
                st.floats(0, 2.0**60),
                st.sampled_from([0.0, 1.0 / 3.0, 2.0**52 + 1.0, 1e-300]),
            ),
            min_size=0,
            max_size=40,
        ),
        data=st.data(),
        served=st.integers(0, 10**15),
        dropped=st.integers(0, 10**15),
        traffic=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(0, 7),
    )
    def test_state_round_trips_bit_for_bit(
        self, tmp_path_factory, cumulative, data, served, dropped, traffic,
        seed, draws,
    ):
        from repro.fleet.service import _CampaignState
        from repro.fleet.traffic import TrafficState, traffic_rng

        death_day = data.draw(
            st.lists(
                st.one_of(st.just(-1), st.integers(-1, 2**62)),
                min_size=len(cumulative),
                max_size=len(cumulative),
            )
        )
        rng = traffic_rng(seed)
        # Mid-stream, with a buffered 32-bit half (has_uint32) on odd
        # draw counts.
        rng.random(draws)
        rng.integers(0, 2**32, size=draws % 2, dtype=np.uint32)
        state = _CampaignState(
            day=len(cumulative),
            cumulative=np.array(cumulative, dtype=np.float64),
            death_day=np.array(death_day, dtype=np.int64),
            served=served,
            dropped=dropped,
            traffic_state=TrafficState(traffic),
            rng=rng,
        )
        manager = CheckpointManager(
            tmp_path_factory.mktemp("ckpt"), "c" * 64
        )
        manager.save(state.day, state.to_checkpoint())
        restored = _CampaignState.from_checkpoint(manager.load(state.day))
        assert restored.day == state.day
        assert (
            restored.cumulative.tobytes() == state.cumulative.tobytes()
        )
        assert restored.cumulative.dtype == np.float64
        assert restored.death_day.tobytes() == state.death_day.tobytes()
        assert restored.death_day.dtype == np.int64
        assert restored.cumulative.flags.writeable
        assert restored.death_day.flags.writeable
        assert (restored.served, restored.dropped) == (served, dropped)
        assert restored.traffic_state == state.traffic_state

        def next_draws(generator):
            return b"".join(
                draws.tobytes()
                for draws in (
                    generator.integers(0, 2**32, size=3, dtype=np.uint32),
                    generator.random(5),
                    generator.poisson(4e6, size=2),
                )
            )

        assert next_draws(restored.rng) == next_draws(state.rng)


class TestSpecIdentity:
    def test_execution_knobs_excluded_from_hash(self):
        # Pinned before the kernel knobs were removed (they never
        # entered the hash); naming one now is a TypeError.
        assert one_array_spec().content_hash == (
            "e3e3063a4ecbabac973f91b9a9a0322bb9774b05bdc70ff3e62b69aace400f46"
        )
        for knob in ("kernel", "chunk_size", "fastforward"):
            with pytest.raises(TypeError, match=knob):
                one_array_spec(**{knob: None})

    def test_result_changing_knobs_change_hash(self):
        base = one_array_spec()
        assert base.content_hash != one_array_spec(seed=4).content_hash
        assert base.content_hash != one_array_spec(days=11).content_hash
        assert (
            base.content_hash
            != one_array_spec(dispatch="least_worn").content_hash
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            one_array_spec(dispatch="round_robin")
        with pytest.raises(ValueError, match="duty_cycle"):
            one_array_spec(duty_cycle=0.0)
        with pytest.raises(ValueError, match="slo"):
            one_array_spec(slo=1.0)
        with pytest.raises(ValueError, match="days"):
            one_array_spec(days=0)
        with pytest.raises(ValueError, match="cohort_iterations"):
            one_array_spec(cohort_iterations=0)


class TestStoreIntegration:
    def test_calibration_shards_by_cohort_and_caches(self, tmp_path):
        spec = one_array_spec()
        store = ResultStore(tmp_path)
        cold = FleetService(spec, store=store).run()
        assert cold.runtime["calibration_statuses"] == ["completed"]
        assert (store.root / "shards" / "add-StxSt").is_dir()
        assert cold.runtime["manifests"] >= 1

        warm = FleetService(spec, store=store).run()
        assert warm.runtime["calibration_statuses"] == ["cached"]
        assert warm.content_hash() == cold.content_hash()

    def test_run_campaign_accepts_store_path(self, tmp_path):
        report = run_campaign(one_array_spec(), store=str(tmp_path))
        assert report.runtime["manifests"] >= 1


class TestDispatchAndCapacity:
    def test_least_worn_levels_wear_across_the_cohort(self):
        # Even dispatch lets weak arrays die first; least_worn shifts
        # load toward fresh arrays so the cohort retires together. The
        # load puts deaths near day 25, so whole-day death days resolve
        # the spread of the thresholds.
        def death_spread(dispatch):
            spec = small_fleet_spec(
                traffic=TrafficSpec(model="deterministic", rate=2e4),
                days=40,
                dispatch=dispatch,
            )
            days = FleetService(spec).run().death_days
            assert all(d >= 0 for d in days)  # everyone dies in 40 days
            return max(days) - min(days)

        assert death_spread("least_worn") < death_spread("even")

    def test_capacities_equal_per_array_expressions(self):
        # One capacity per (cohort, technology) pair, gathered per
        # array, equals the scalar expression evaluated array by array.
        spec = small_fleet_spec(
            population=PopulationSpec(
                n_arrays=11,
                technology_mix=(("MRAM", 2.0), ("PCM", 1.0), ("RRAM", 1.0)),
                cohorts=(CohortSpec("add"), CohortSpec("conv", weight=2.0)),
            ),
            duty_cycle=0.7,
        )
        service = FleetService(spec)
        ops = [1234.5, 98.25]
        population = service.population
        expected = [
            capacity_iterations(
                ops[int(population.cohort_index[array])]
                * population.technology_of(array).op_latency_s,
                spec.duty_cycle,
            )
            for array in range(population.n_arrays)
        ]
        capacities = service._capacities(ops)
        assert capacities.dtype == np.float64
        assert capacities.tolist() == expected

    def test_day_loop_reuses_cohort_membership(self, monkeypatch):
        # Membership is fixed for a campaign: the day loop and the
        # report's demand estimate index by arrays computed once, not by
        # a scan over the population per cohort-day.
        from repro.fleet.population import Population

        calls = []
        scan = Population.arrays_in_cohort

        def spy(population, cohort):
            calls.append(cohort)
            return scan(population, cohort)

        monkeypatch.setattr(Population, "arrays_in_cohort", spy)
        advance = FleetService._advance_day_serial
        demand = FleetService._demand_arrays
        during = []

        def watched(method):
            def wrapper(*args, **kwargs):
                before = len(calls)
                value = method(*args, **kwargs)
                during.append(len(calls) - before)
                return value

            return wrapper

        monkeypatch.setattr(
            FleetService, "_advance_day_serial", watched(advance)
        )
        monkeypatch.setattr(FleetService, "_demand_arrays", watched(demand))
        spec = small_fleet_spec(
            population=PopulationSpec(
                n_arrays=6,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"), CohortSpec("conv")),
                endurance_sigma=0.5,
            ),
        )
        report = FleetService(spec).run()
        assert report.days_simulated == spec.days
        assert len(during) == spec.days + 1
        assert sum(during) == 0

    def test_capacity_pressure_drops_requests(self):
        spec = one_array_spec(duty_cycle=1e-6, days=2)
        report = FleetService(spec).run()
        assert report.requests_dropped > 0
        assert report.requests_served < 2 * int(round(spec.traffic.rate))

    def test_dead_cohort_drops_everything(self):
        # After the single array dies (day 2), all later traffic drops.
        report = FleetService(one_array_spec(days=6)).run()
        assert report.death_days == [2]
        assert report.requests_dropped >= 4 * int(
            round(5e5)
        )  # days 3..6 fully dropped


class TestTelemetry:
    def test_campaign_emits_fleet_events(self):
        spec = one_array_spec(days=3)
        with capture() as sink:
            FleetService(spec).run()
        [start] = sink.of("fleet_start")
        assert start["arrays"] == 1
        assert start["days"] == 3
        days = sink.of("fleet_day")
        assert [r["day"] for r in days] == [1, 2, 3]
        assert all("alive" in r and "served" in r for r in days)
        [end] = sink.of("fleet_end")
        assert end["deaths"] == 1
        assert end["alive"] == 0

    def test_checkpoint_events_fire_at_boundaries(self, tmp_path):
        spec = small_fleet_spec(days=4)
        with capture() as sink:
            FleetService(
                spec, checkpoint_dir=tmp_path, checkpoint_every=2
            ).run()
        assert [r["day"] for r in sink.of("fleet_checkpoint")] == [2, 4]

    def test_counters_event_carries_fleet_counters(self):
        spec = small_fleet_spec()
        with capture() as sink:
            FleetService(spec).run()
        [counters] = sink.of("counters")[-1:]
        assert counters["counters"]["fleet.days"] >= spec.days


    def test_threshold_draw_is_its_own_phase(self):
        spec = small_fleet_spec()
        counters = get_telemetry().counters
        before = counters.get("fleet.threshold_draws", 0)
        with capture() as sink:
            FleetService(spec).run()
        phases = [r["name"] for r in sink.of("phase")]
        assert phases.count("fleet.thresholds") == 1
        assert phases.index("fleet.calibrate") < phases.index(
            "fleet.thresholds"
        ) < phases.index("fleet.advance")
        assert counters["fleet.threshold_draws"] - before == 4


class TestReportShape:
    def test_census_and_json_are_consistent(self):
        spec = small_fleet_spec(days=6)
        report = FleetService(spec).run()
        assert report.n_arrays == 4
        assert report.n_deaths + report.n_alive == 4
        assert report.deaths_by(report.technology_names) == {
            "PCM": {"dead": report.n_deaths, "total": 4}
        }
        payload = report.to_json()
        assert payload["report_hash"] == report.content_hash()
        assert payload["curve"]["horizon_days"] == 6
        assert len(payload["death_days"]) == 4
        assert isinstance(report.annual_replacement_rate, float)
        assert np.isfinite(report.annual_replacement_rate)


class TestVerificationGate:
    """Every campaign passes through verify_fleet_spec before a single
    day runs: a statically unsound spec is rejected up front."""

    def test_unsound_config_rejected_before_running(self):
        from repro.verify import VerificationError

        spec = unsound_config_spec()
        with capture() as sink:
            with pytest.raises(VerificationError) as err:
                FleetService(spec).run()
        assert "RPR010" in err.value.report.codes()
        # rejection happened statically: no fleet day ever started
        assert sink.of("fleet_start") == []
        assert sink.of("fleet_day") == []
        # the findings were published for the stats census
        [event] = sink.of("verify_report")
        assert "RPR010" in event["codes"]

    def test_rejection_is_counted(self):
        from repro.telemetry import get_telemetry
        from repro.verify import VerificationError

        tele = get_telemetry()
        before = tele.counters.get("fleet.rejected", 0)
        with pytest.raises(VerificationError):
            FleetService(unsound_config_spec()).run()
        assert tele.counters.get("fleet.rejected", 0) == before + 1

    def test_clean_spec_verifies_quietly_and_runs(self):
        with capture() as sink:
            report = FleetService(small_fleet_spec(days=3)).run()
        assert report.n_arrays == 4
        # a clean verification emits no verify_report event
        assert sink.of("verify_report") == []

    def test_gate_verdict_is_memoized_per_spec(self):
        from repro.verify import verify_fleet_spec

        spec = small_fleet_spec()
        first = verify_fleet_spec(spec)
        assert verify_fleet_spec(spec) is first
        assert verify_fleet_spec(spec, use_cache=False) is not first
