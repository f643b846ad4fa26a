"""Tests for the population-scale campaign engine (repro.campaign)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignAggregate,
    CampaignContext,
    CampaignError,
    CohortAggregate,
    PersonaSampler,
    PopulationError,
    PopulationSpec,
    cell_order,
    default_shard_count,
    merge_campaigns,
    parse_cohort_dims,
    plan_shards,
    render_campaign,
    run_campaign,
)
from repro.device.phone import Permission
from repro.experiment.scripts import InteractionScript, persona_script, standard_script
from repro.services.catalog import build_catalog

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small, fast study geometry shared by the simulation tests.
SERVICE_SLUGS = ("weather", "grubhub", "cnn")


def small_services():
    wanted = set(SERVICE_SLUGS)
    return [spec for spec in build_catalog() if spec.slug in wanted]


def small_spec(**overrides):
    base = dict(
        services_per_user=(1, 2),
        sessions_per_service=(1, 1),
        session_duration=20.0,
        bootstrap_replicates=10,
    )
    base.update(overrides)
    return PopulationSpec(**base)


@pytest.fixture(scope="module")
def services():
    return small_services()


@pytest.fixture(scope="module")
def reference(services):
    """The serial shards=1 reference campaign."""
    return run_campaign(
        10,
        seed=7,
        population_spec=small_spec(),
        services=services,
        executor=1,
        shards=1,
    )


class TestPopulationSpec:
    def test_default_is_valid(self):
        spec = PopulationSpec()
        assert spec.os_share["android"] > 0
        assert 0 < spec.app_preference < 1

    def test_json_round_trip(self):
        spec = small_spec()
        assert PopulationSpec.from_dict(spec.to_dict()) == spec

    def test_save_load(self, tmp_path):
        path = tmp_path / "pop.json"
        spec = small_spec(app_preference=0.4)
        spec.save(path)
        assert PopulationSpec.load(path) == spec
        # The file is plain JSON, editable by hand.
        payload = json.loads(path.read_text())
        assert payload["app_preference"] == 0.4

    def test_rejects_unknown_os(self):
        with pytest.raises(PopulationError):
            PopulationSpec(os_share={"windows-phone": 1.0})

    def test_rejects_bad_fraction(self):
        with pytest.raises(PopulationError):
            PopulationSpec(app_preference=1.5)

    def test_rejects_bad_ranges(self):
        with pytest.raises(PopulationError):
            PopulationSpec(services_per_user=(3, 1))
        with pytest.raises(PopulationError):
            PopulationSpec(sessions_per_service=(0, 1))
        with pytest.raises(PopulationError):
            PopulationSpec(intensity_range=(0.0, 1.0))

    def test_rejects_unknown_permission(self):
        with pytest.raises(PopulationError):
            PopulationSpec(permission_grant_rates={"telepathy": 0.5})

    def test_rejects_unknown_field(self):
        with pytest.raises(PopulationError):
            PopulationSpec.from_dict({"not_a_field": 1})


class TestPersonaSampler:
    def test_same_seed_same_stream(self, services):
        a = PersonaSampler(small_spec(), services, seed=11)
        b = PersonaSampler(small_spec(), services, seed=11)
        for user_id in range(12):
            left, right = a.user(user_id), b.user(user_id)
            assert left == right
            assert a.bootstrap_weights(user_id) == b.bootstrap_weights(user_id)

    def test_different_seeds_differ(self, services):
        a = PersonaSampler(small_spec(), services, seed=11)
        b = PersonaSampler(small_spec(), services, seed=12)
        assert any(a.user(i) != b.user(i) for i in range(8))

    def test_users_are_pure_functions_of_id(self, services):
        """Sampling out of order or twice changes nothing."""
        sampler = PersonaSampler(small_spec(), services, seed=3)
        backwards = [sampler.user(i) for i in reversed(range(8))]
        forwards = [sampler.user(i) for i in range(8)]
        assert list(reversed(backwards)) == forwards

    def test_sub_rng_labels_independent(self, services):
        """Different component labels must yield independent streams."""
        sampler = PersonaSampler(small_spec(), services, seed=5)
        streams = {
            label: [sampler._rng(label, i).random() for i in range(6)]
            for label in ("persona", "mix", "grants", "boot", "script")
        }
        values = list(streams.values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert values[i] != values[j]

    def test_plans_respect_spec_bounds(self, services):
        spec = small_spec(services_per_user=(1, 2), sessions_per_service=(1, 1))
        sampler = PersonaSampler(spec, services, seed=9)
        for user_id in range(20):
            user = sampler.user(user_id)
            assert 1 <= len(user.services) <= 2
            assert len(user.plans) == len(user.services)
            for plan in user.plans:
                assert plan.os_name == user.os_name
                assert plan.medium in ("app", "web")
                assert plan.duration > 0

    def test_os_share_zero_excludes_os(self, services):
        spec = small_spec(os_share={"ios": 1.0})
        sampler = PersonaSampler(spec, services, seed=2)
        assert all(sampler.user(i).os_name == "ios" for i in range(10))

    def test_grant_rates_zero_and_one(self, services):
        all_grants = small_spec(
            permission_grant_rates={Permission.LOCATION: 1.0}
        )
        none_grants = small_spec(
            permission_grant_rates={Permission.LOCATION: 0.0}
        )
        assert all(
            Permission.LOCATION in PersonaSampler(all_grants, services, 1).user(i).grants
            for i in range(5)
        )
        assert all(
            Permission.LOCATION not in PersonaSampler(none_grants, services, 1).user(i).grants
            for i in range(5)
        )

    def test_hash_seed_independence(self, services):
        """The sampler must not depend on Python's hash randomization."""
        script = (
            "from repro.campaign import PersonaSampler, PopulationSpec; "
            "from repro.services.catalog import build_catalog; "
            f"services = [s for s in build_catalog() if s.slug in {set(SERVICE_SLUGS)!r}]; "
            "sampler = PersonaSampler(PopulationSpec(), services, seed=4); "
            "users = [sampler.user(i) for i in range(5)]; "
            "print([(u.persona.email, u.os_name, u.services, sorted(u.grants), "
            "sampler.bootstrap_weights(u.user_id)) for u in users])"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_cohort_labels(self, services):
        sampler = PersonaSampler(small_spec(), services, seed=6)
        user = sampler.user(0)
        assert user.cohort(()) == "all"
        assert user.cohort(("os",)) == user.os_name
        assert user.cohort(("os", "medium")) == (
            f"{user.os_name}/{user.preferred_medium}-first"
        )
        with pytest.raises(PopulationError):
            user.cohort(("zodiac",))


class TestShardPlanning:
    @given(st.integers(min_value=1, max_value=5000))
    def test_plan_covers_population(self, population):
        ranges = plan_shards(population)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == population
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert all(stop > start for start, stop in ranges)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=32),
    )
    def test_explicit_shards_clamped(self, population, shards):
        ranges = plan_shards(population, shards)
        assert len(ranges) == min(shards, population)
        assert ranges[-1][1] == population

    def test_default_count_pure_function_of_population(self):
        assert default_shard_count(1) == 1
        assert default_shard_count(256) == 1
        assert default_shard_count(257) == 2

    def test_rejects_empty_population(self):
        with pytest.raises(CampaignError):
            plan_shards(0)

    def test_cell_order_pure_and_distinct(self):
        seen = set()
        for index in range(3):
            for os_name in ("android", "ios"):
                for medium in ("app", "web"):
                    order = cell_order(index, os_name, medium)
                    assert order == cell_order(index, os_name, medium)
                    seen.add(order)
        assert len(seen) == 12

    def test_parse_cohort_dims(self):
        assert parse_cohort_dims("none") == ()
        assert parse_cohort_dims(None) == ()
        assert parse_cohort_dims("os") == ("os",)
        assert parse_cohort_dims("os, medium") == ("os", "medium")
        with pytest.raises(PopulationError):
            parse_cohort_dims("os,bogus")


class TestCampaignDeterminism:
    def test_shard_count_invariance(self, services, reference):
        sharded = run_campaign(
            10,
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=1,
            shards=3,
        )
        assert sharded.canonical_bytes() == reference.canonical_bytes()

    def test_rows_equals_columnar(self, services, reference):
        """Cohort studies folded row-wise (repro.qa.reference) equal the
        production encode + kernel fold."""
        from repro.qa.reference import fold_rows

        class RowsContext(CampaignContext):
            def fold_cells(self, study, cells):
                fold_rows(study, self.metas, cells)

        context = RowsContext(small_spec(), services, 7, dims=("os",))
        rows = merge_campaigns(
            context.run_shard(start, stop) for start, stop in plan_shards(10, 3)
        )
        assert rows.canonical_bytes() == reference.canonical_bytes()

    def test_merge_order_invariance(self, services, reference):
        context = CampaignContext(small_spec(), services, 7, dims=("os",))
        partials = [
            context.run_shard(start, stop) for start, stop in plan_shards(10, 4)
        ]
        forward = merge_campaigns(partials).canonical_bytes()
        reverse = merge_campaigns(list(reversed(partials))).canonical_bytes()
        assert forward == reference.canonical_bytes()
        assert reverse == reference.canonical_bytes()

    def test_process_pool_matches_serial(self, services, reference):
        pooled = run_campaign(
            10,
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=2,
            shards=3,
        )
        assert pooled.canonical_bytes() == reference.canonical_bytes()

    def test_map_sessions_is_streaming(self, services):
        """The serial fan-out yields shard partials lazily."""
        from repro.par import Executor, tasks

        context = CampaignContext(small_spec(), services, 7)
        stream = Executor(1).imap(tasks.campaign_chunk, plan_shards(4, 4), context=context)
        assert iter(stream) is stream  # a generator, not a list
        _elapsed, first = next(stream)
        assert first.users == 1


class TestAggregates:
    def test_round_trip_exact(self, reference):
        restored = CampaignAggregate.from_dict(reference.to_dict())
        assert restored.canonical_bytes() == reference.canonical_bytes()
        # Round-tripped partials must stay exactly mergeable.
        doubled = CampaignAggregate.from_dict(reference.to_dict()).merge(restored)
        assert doubled.users == 2 * reference.users

    def test_cohorts_partition_population(self, reference):
        overall = reference.overall()
        assert overall.users == reference.users == 10
        assert sum(c.users for c in reference.ordered_cohorts()) == 10
        assert overall.sessions == sum(
            c.sessions for c in reference.ordered_cohorts()
        )

    def test_intervals_bracket_estimates(self, reference):
        overall = reference.overall()
        low, high = overall.leak_interval()
        assert 0.0 <= low <= overall.leak_fraction() <= high <= 1.0
        for key in ("sessions", "leak_events"):
            blow, bhigh = overall.metric_interval(key)
            assert blow <= bhigh

    def test_merge_rejects_mismatched_config(self, reference):
        other = CampaignAggregate(seed=99, dims=("os",), replicates=10)
        with pytest.raises(CampaignError):
            CampaignAggregate.from_dict(reference.to_dict()).merge(other)

    def test_cohort_merge_rejects_other_label(self):
        with pytest.raises(CampaignError):
            CohortAggregate("a", 4).merge(CohortAggregate("b", 4))

    def test_permission_grants_change_leaks(self, services):
        """Deny-everything users must leak strictly less from apps than
        grant-everything users (location gating is live end-to-end)."""
        deny = small_spec(
            os_share={"android": 1.0},
            app_preference=1.0,
            preference_strength=1.0,
            permission_grant_rates={
                Permission.LOCATION: 0.0,
                Permission.PHONE_STATE: 0.0,
            },
        )
        grant = small_spec(
            os_share={"android": 1.0},
            app_preference=1.0,
            preference_strength=1.0,
            permission_grant_rates={
                Permission.LOCATION: 1.0,
                Permission.PHONE_STATE: 1.0,
            },
        )
        denied = run_campaign(
            6, seed=3, population_spec=deny, services=services, executor=1
        )
        granted = run_campaign(
            6, seed=3, population_spec=grant, services=services, executor=1
        )
        denied_events = denied.overall().user_moments["leak_events"].sum()
        granted_events = granted.overall().user_moments["leak_events"].sum()
        assert denied_events < granted_events


class TestScripts:
    def test_persona_script_deterministic(self, services):
        import random

        spec = services[0]
        a = persona_script(spec, 30.0, random.Random(5))
        b = persona_script(spec, 30.0, random.Random(5))
        assert a == b
        assert a.duration == 30.0

    def test_persona_scripts_vary_by_rng(self, services):
        import random

        spec = services[0]
        cycles = {
            persona_script(spec, 30.0, random.Random(seed)).cycle
            for seed in range(20)
        }
        assert len(cycles) > 1

    def test_standard_script_unchanged(self, services):
        spec = services[0]
        script = standard_script(spec, duration=240.0)
        actions = []
        gen = script.actions()
        for _ in range(10):
            actions.append(next(gen))
        assert actions[0] == "open"

    def test_cycle_validation(self):
        with pytest.raises(ValueError):
            InteractionScript("x", False, cycle=())
        with pytest.raises(ValueError):
            InteractionScript("x", False, cycle=("fly",))


class TestReportAndCli:
    def test_render_contains_digest_and_cohorts(self, reference):
        text = render_campaign(reference)
        assert f"campaign digest {reference.digest()}" in text
        assert "users leaking PII" in text
        for cohort in reference.ordered_cohorts():
            assert f"cohort {cohort.label}:" in text

    def test_render_tables(self, reference):
        text = render_campaign(reference, tables=True)
        assert "Table 1 (" in text
        assert "Table 3 (" in text

    def test_cli_campaign(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--population",
                "4",
                "--seed",
                "7",
                "--services",
                ",".join(SERVICE_SLUGS),
                "--workers",
                "1",
                "--duration",
                "20",
                "--bootstrap",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign digest " in out
        assert "population: 4 users" in out

    def test_cli_population_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "pop.json"
        small_spec(os_share={"ios": 1.0}).save(path)
        code = main(
            [
                "campaign",
                "--population",
                "3",
                "--services",
                ",".join(SERVICE_SLUGS),
                "--workers",
                "1",
                "--population-spec",
                str(path),
                "--cohorts",
                "os",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cohort ios:" in out
        assert "cohort android:" not in out

    def test_cli_rejects_bad_population(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--population", "0"])

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A finished 2-user campaign's checkpoint directory."""
        from repro.cli import main

        directory = tmp_path_factory.mktemp("campaign-checkpoint")
        code = main(self._argv("--checkpoint-dir", str(directory)))
        assert code == 0 and (directory / "state.json").exists()
        return directory

    @staticmethod
    def _argv(*extra):
        return [
            "campaign",
            "--population",
            "2",
            "--seed",
            "7",
            "--services",
            ",".join(SERVICE_SLUGS),
            "--workers",
            "1",
            "--duration",
            "20",
            "--bootstrap",
            "10",
            *extra,
        ]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--duration", "-5"], "session_duration must be positive"),
            (["--population-spec", "{spec}"], "os_share must be an object"),
            (["--seed", "8"], "different campaign configuration"),
        ],
        ids=["negative-duration", "os-share-not-object", "other-configuration"],
    )
    def test_cli_input_error_is_one_line_and_writes_nothing(
        self, checkpoint, tmp_path, capsys, extra, message
    ):
        from repro.cli import main

        spec_path = tmp_path / "pop.json"
        spec_path.write_text(json.dumps({"os_share": 7}))
        before = {path.name: path.read_bytes() for path in checkpoint.iterdir()}
        extra = [arg.format(spec=spec_path) for arg in extra]
        with pytest.raises(SystemExit) as excinfo:
            main(self._argv("--checkpoint-dir", str(checkpoint), "--resume", *extra))
        error = str(excinfo.value.code)
        assert message in error and "\n" not in error
        assert capsys.readouterr().out == ""
        assert {path.name: path.read_bytes() for path in checkpoint.iterdir()} == before

    def test_from_dict_type_errors_are_population_errors(self):
        with pytest.raises(PopulationError, match="os_share must be an object"):
            PopulationSpec.from_dict({"os_share": 7})
        with pytest.raises(PopulationError, match="must be an object"):
            PopulationSpec.from_dict(["os_share"])
        with pytest.raises(PopulationError):
            PopulationSpec.from_dict({"session_duration": "long"})
        with pytest.raises(PopulationError):
            PopulationSpec.from_dict({"services_per_user": 3})


class TestCampaignCodec:
    """KIND_CAGG frames: exact round trips, strict failure on damage."""

    def test_round_trip_is_exact(self, reference):
        from repro.net import codec

        blob = codec.encode_campaign(reference)
        decoded = codec.decode_campaign(blob)
        assert decoded.to_dict() == reference.to_dict()
        assert decoded.canonical_bytes() == reference.canonical_bytes()

    def test_reencode_is_byte_identical(self, reference):
        from repro.net import codec

        blob = codec.encode_campaign(reference)
        assert codec.encode_campaign(codec.decode_campaign(blob)) == blob

    def test_truncation_raises_codec_error(self, reference):
        from repro.net import codec
        from repro.net.codec import CodecError

        blob = codec.encode_campaign(reference)
        for cut in (0, 1, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CodecError):
                codec.decode_campaign(blob[:cut])

    def test_trailing_garbage_raises_codec_error(self, reference):
        from repro.net import codec
        from repro.net.codec import CodecError

        blob = codec.encode_campaign(reference)
        with pytest.raises(CodecError):
            codec.decode_campaign(blob + b"\x00")

    def test_file_round_trip(self, reference, tmp_path):
        from repro.net import codec

        path = tmp_path / "partial.cagg"
        codec.write_campaign(path, reference)
        assert (
            codec.read_campaign(path).canonical_bytes()
            == reference.canonical_bytes()
        )

    def test_corrupt_frame_rejected(self, reference, tmp_path):
        from repro.net import codec
        from repro.net.codec import CodecError

        path = tmp_path / "partial.cagg"
        codec.write_campaign(path, reference)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF  # break the magic
        path.write_bytes(bytes(data))
        with pytest.raises(CodecError):
            codec.read_campaign(path)


class TestWorkerReduce:
    """Pool workers folding chunks locally must be byte-identical to
    the serial fold, for a pinned and for an adaptive chunk plan."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_fixed_geometry_matches_reference(
        self, services, reference, workers
    ):
        from repro.campaign import run_campaign

        campaign = run_campaign(
            10,
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=workers,
            shards=4,
        )
        assert campaign.canonical_bytes() == reference.canonical_bytes()

    def test_adaptive_geometry_matches_reference(self, services, reference):
        from repro.campaign import run_campaign

        campaign = run_campaign(
            10,
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=2,  # a pool and no shards= -> AdaptiveSharder plans chunks
        )
        assert campaign.canonical_bytes() == reference.canonical_bytes()

    def test_unknown_reduce_mode_rejected(self, services):
        """The chunk plan follows from ``shards=`` and the worker count
        alone, so every reduce mode is unknown."""
        from repro.campaign import run_campaign

        for mode in ("master", "worker", "gossip"):
            with pytest.raises(TypeError):
                run_campaign(
                    4,
                    population_spec=small_spec(),
                    services=services,
                    reduce=mode,
                )


class TestAdaptiveSharder:
    def test_ranges_partition_population_exactly(self):
        from repro.campaign import AdaptiveSharder

        sharder = AdaptiveSharder(10_000, workers=4)
        ranges = []
        while True:
            shard_range = sharder.next_range()
            if shard_range is None:
                break
            ranges.append(shard_range)
            sharder.observe(shard_range[1] - shard_range[0], 0.1)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 10_000
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_feedback_resizes_within_clamps(self):
        from repro.campaign import AdaptiveSharder

        fast = AdaptiveSharder(10**9, workers=2, min_users=32, max_users=8192)
        fast.next_range()
        fast.observe(8192, 0.001)  # absurdly fast worker
        start, stop = fast.next_range()
        assert stop - start == 8192  # clamped at max_users

        slow = AdaptiveSharder(10**9, workers=2, min_users=32, max_users=8192)
        slow.next_range()
        slow.observe(1, 100.0)  # glacial worker
        start, stop = slow.next_range()
        assert stop - start == 32  # clamped at min_users

    def test_tail_splits_across_workers(self):
        from repro.campaign import AdaptiveSharder

        sharder = AdaptiveSharder(100, workers=4, initial=4096)
        start, stop = sharder.next_range()
        # the tail rule caps the chunk at ceil(100 / (4 * 2)) = 13,
        # clamped up to min_users=32... min(initial, tail=max(32,13), 100)
        assert stop - start == 32

    def test_start_offset_respected(self):
        from repro.campaign import AdaptiveSharder

        sharder = AdaptiveSharder(100, workers=1, start=60)
        start, _ = sharder.next_range()
        assert start == 60


class TestCheckpointResume:
    """Kill + resume must be byte-identical to the uninterrupted run."""

    def _kwargs(self, services):
        return dict(
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=1,
        )

    def test_abort_then_resume_is_byte_identical(
        self, services, reference, tmp_path
    ):
        from repro.campaign import CampaignAborted, run_campaign

        kwargs = self._kwargs(services)
        with pytest.raises(CampaignAborted):
            run_campaign(
                10,
                shards=5,
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                abort_after_users=4,
                **kwargs,
            )
        # resume under a *different* chunk geometry: boundaries move,
        # bytes must not.
        resumed = run_campaign(
            10,
            shards=2,
            checkpoint_dir=tmp_path,
            resume=True,
            **kwargs,
        )
        assert resumed.canonical_bytes() == reference.canonical_bytes()

    def test_resume_of_finished_run_returns_immediately(
        self, services, reference, tmp_path
    ):
        from repro.campaign import run_campaign

        kwargs = self._kwargs(services)
        first = run_campaign(10, shards=2, checkpoint_dir=tmp_path, **kwargs)
        again = run_campaign(
            10, shards=2, checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert first.canonical_bytes() == reference.canonical_bytes()
        assert again.canonical_bytes() == reference.canonical_bytes()

    def test_resume_with_different_config_rejected(self, services, tmp_path):
        from repro.campaign import CampaignAborted, run_campaign

        kwargs = self._kwargs(services)
        with pytest.raises(CampaignAborted):
            run_campaign(
                10,
                shards=5,
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                abort_after_users=4,
                **kwargs,
            )
        kwargs["seed"] = 8  # changes the checkpoint key
        with pytest.raises(CampaignError):
            run_campaign(
                10, shards=5, checkpoint_dir=tmp_path, resume=True, **kwargs
            )

    def test_resume_requires_checkpoint_dir(self, services):
        from repro.campaign import run_campaign

        with pytest.raises(CampaignError):
            run_campaign(
                4,
                population_spec=small_spec(),
                services=services,
                resume=True,
            )

    def test_worker_reduce_abort_resume_is_byte_identical(
        self, services, reference, tmp_path
    ):
        from repro.campaign import CampaignAborted, run_campaign

        kwargs = self._kwargs(services)
        kwargs.update(executor=2)
        with pytest.raises(CampaignAborted):
            run_campaign(
                10,
                shards=5,
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                abort_after_users=4,
                **kwargs,
            )
        resumed = run_campaign(
            10, checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert resumed.canonical_bytes() == reference.canonical_bytes()


class TestTreeReduce:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_blob_reduction_matches_reference(
        self, services, reference, workers
    ):
        from repro.campaign import reduce_campaign_blobs
        from repro.net import codec

        context = CampaignContext(small_spec(), services, 7)
        blobs = [
            codec.encode_campaign(context.run_shard(start, stop))
            for start, stop in plan_shards(10, 5)
        ]
        merged = reduce_campaign_blobs(blobs, executor=workers, window=2)
        assert merged.canonical_bytes() == reference.canonical_bytes()

    def test_no_blobs_rejected(self):
        from repro.campaign import reduce_campaign_blobs

        with pytest.raises(CampaignError):
            reduce_campaign_blobs([])


class TestProgressLog:
    def test_log_lines_keep_stable_format(self, services):
        import re

        from repro.campaign import run_campaign

        lines = []
        run_campaign(
            6,
            seed=7,
            population_spec=small_spec(),
            services=services,
            executor=1,
            shards=3,
            log=lines.append,
        )
        assert len(lines) == 3
        pattern = re.compile(
            r"^shard \d+/3: \d+/6 users simulated"
            r"( \| \d+\.\d users/s, ETA \d+s)?$"
        )
        for line in lines:
            assert pattern.match(line), line
        assert lines[-1].startswith("shard 3/3: 6/6 users simulated")
