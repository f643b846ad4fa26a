"""Tests for the execution engine (repro.par): equivalence and lifecycle."""

import multiprocessing
import re
import threading

import pytest

from repro.core import pipeline
from repro.core.pipeline import analyze_dataset
from repro.experiment.runner import ExperimentRunner
from repro.par import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorError,
    default_executor_name,
    resolve_executor,
    tasks,
)
from repro.qa.oracle import canonical_bytes
from repro.qa.scenarios import generate_scenario
from repro.services.world import build_world
from repro.stream.analyzer import stream_dataset


@pytest.fixture(scope="module")
def small_world():
    scenario = generate_scenario(0, max_services=2)
    specs = scenario.build_specs()
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=scenario.study_seed)
    dataset = runner.run_study(specs, duration=scenario.duration)
    return scenario, specs, dataset


@pytest.fixture(scope="module")
def reference_bytes(small_world):
    scenario, specs, dataset = small_world
    return canonical_bytes(
        analyze_dataset(dataset, specs, train_recon=scenario.train_recon, workers=1)
    )


def _live():
    """Snapshot of live threads and child processes."""
    return set(threading.enumerate()), set(multiprocessing.active_children())


def _assert_nothing_leaked(before) -> None:
    threads_before, children_before = before
    leaked_threads = [
        t for t in threading.enumerate() if t not in threads_before and t.is_alive()
    ]
    assert leaked_threads == []
    leaked_children = [
        p for p in multiprocessing.active_children() if p not in children_before
    ]
    assert leaked_children == []


class TestResolve:
    def test_names_resolve_to_expected_types(self):
        assert resolve_executor("serial").name == "serial"
        assert resolve_executor("serial", workers=4).workers == 1
        for name in ("thread", "process"):  # "thread" is an alias
            engine = resolve_executor(name, workers=4)
            assert (engine.name, engine.workers) == ("process", 4)
        assert resolve_executor("process", workers=1).name == "serial"

    def test_instance_passes_through(self):
        engine = Executor(1)
        assert resolve_executor(engine) is engine

    def test_legacy_default_matches_workers(self):
        assert resolve_executor(None, workers=1).name == "serial"
        engine = resolve_executor(None, workers=4)
        assert (engine.name, engine.workers) == ("process", 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError):
            resolve_executor("gpu")

    def test_default_name_is_known(self):
        assert default_executor_name() in EXECUTOR_NAMES

    def test_auto_resolves(self):
        engine = resolve_executor("auto", workers=2)
        assert isinstance(engine, Executor)

    @pytest.mark.parametrize("usable", [1, 3])
    def test_auto_counts_usable_cpus(self, monkeypatch, usable):
        """A process pinned to fewer CPUs than the host has sizes ``auto``
        and ``--workers 0`` from its affinity, not ``os.cpu_count()``."""
        import os

        from repro.cli import _resolve_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False
        )
        assert resolve_executor("auto", workers=1).workers == usable
        assert default_executor_name() == ("serial" if usable == 1 else "process")
        assert _resolve_workers(0) == usable


class TestBackendEquivalence:
    """Every executor must produce byte-identical studies.

    The QA oracle pins the same property over fuzzed scenarios; these
    are the fast deterministic anchors that run on every test pass.
    """

    @pytest.mark.parametrize(
        "executor,workers",
        [
            ("serial", 1),
            ("thread", 2),  # the legacy alias: a process pool
            ("thread", 4),
            ("process", 1),  # one worker: runs in-process
            ("process", 2),  # real fork/spawn workers + codec transport
        ],
    )
    def test_analyze_dataset_byte_identical(
        self, small_world, reference_bytes, executor, workers
    ):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset,
            specs,
            train_recon=scenario.train_recon,
            workers=workers,
            executor=executor,
        )
        assert canonical_bytes(study) == reference_bytes

    def test_streaming_process_backend_byte_identical(
        self, small_world, reference_bytes
    ):
        scenario, specs, dataset = small_world
        study = stream_dataset(
            dataset,
            specs,
            shards=2,
            train_recon=scenario.train_recon,
            executor=Executor(workers=2),
        )
        assert canonical_bytes(study) == reference_bytes

    def test_explicit_instance_accepted_by_pipeline(
        self, small_world, reference_bytes
    ):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset,
            specs,
            train_recon=scenario.train_recon,
            executor=Executor(workers=3),
        )
        assert canonical_bytes(study) == reference_bytes

    def test_one_worker_runs_on_live_objects(
        self, small_world, reference_bytes, monkeypatch
    ):
        """In-process tasks never touch the wire forms: no codec
        encode/decode, no dict round trip of results, and no pool-worker
        initializer."""
        from repro.core.leaks import LeakRecord
        from repro.core.pipeline import SessionAnalysis
        from repro.net import codec

        def forbidden(*args, **kwargs):
            raise AssertionError("wire form used on the in-process path")

        scenario, specs, dataset = small_world
        with monkeypatch.context() as patch:
            for owner, name in (
                (codec, "encode_record"),
                (codec, "decode_record"),
                (SessionAnalysis, "to_dict"),
                (SessionAnalysis, "from_dict"),
                (LeakRecord, "to_dict"),
                (LeakRecord, "from_dict"),
                (tasks, "init_worker"),
                (tasks, "init_campaign"),
            ):
                patch.setattr(owner, name, forbidden)
            study = analyze_dataset(
                dataset, specs, train_recon=scenario.train_recon, executor="serial"
            )
        assert canonical_bytes(study) == reference_bytes


@pytest.fixture(scope="module")
def campaign_world():
    """Tiny campaign geometry for exercising campaign-chunk lifecycles."""
    from repro.campaign import CampaignContext, PopulationSpec
    from repro.services.catalog import build_catalog

    specs = [spec for spec in build_catalog() if spec.slug == "weather"]
    spec = PopulationSpec(
        services_per_user=(1, 1),
        sessions_per_service=(1, 1),
        session_duration=5.0,
        bootstrap_replicates=5,
    )
    context = CampaignContext(spec, specs, 7)
    return specs, context.config()


def _campaign_chunks(name, specs, config, ranges):
    from repro.campaign import CampaignContext

    engine = resolve_executor(name, workers=2)
    context = CampaignContext.from_config(specs, config)
    return engine.imap(tasks.campaign_chunk, ranges, context=context, window=4)


class TestMapSessionsLifecycle:
    """Campaign chunks over ``imap``: early close and mid-stream failure.

    Closing the stream early or hitting a worker exception must still
    tear the pool down (no leaked threads, no orphaned processes) and
    failures must name the shard range that died.
    """

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_early_close_tears_down_pool(self, campaign_world, name):
        specs, config = campaign_world
        before = _live()
        stream = _campaign_chunks(name, specs, config, [(i, i + 1) for i in range(6)])
        _elapsed, first = next(stream)
        assert first.users == 1
        stream.close()
        _assert_nothing_leaked(before)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_worker_exception_names_failing_shard(self, campaign_world, name):
        specs, config = campaign_world
        # "zodiac" survives context construction but is rejected when the
        # shard folds its first persona, so the error surfaces mid-stream
        # from inside a live worker, not at submission time.
        bad = dict(config, dims=["zodiac"])
        with pytest.raises(ExecutorError, match=r"campaign shard \[0, 2\)"):
            list(_campaign_chunks(name, specs, bad, [(0, 2), (2, 4)]))

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_worker_exception_leaves_no_orphans(self, campaign_world, name):
        specs, config = campaign_world
        bad = dict(config, dims=["zodiac"])
        before = _live()
        with pytest.raises(ExecutorError):
            list(_campaign_chunks(name, specs, bad, [(0, 2), (2, 4)]))
        _assert_nothing_leaked(before)


@pytest.mark.parametrize("name", ["serial", "process"])
class TestImapLifecycle:
    """The primitive's contract for every task, in-process and pooled."""

    def test_early_close_leaves_nothing_running(self, small_world, name):
        _scenario, specs, dataset = small_world
        before = _live()
        engine = resolve_executor(name, workers=2)
        stream = engine.imap(tasks.label, list(dataset), window=2)
        next(stream)
        stream.close()
        _assert_nothing_leaked(before)

    @pytest.mark.parametrize(
        "task_name,target",
        [
            ("analyze", "analyze_session"),
            ("label", "label_record"),
            ("rescan", "rescan_session"),
        ],
    )
    def test_failure_names_the_session(
        self, small_world, monkeypatch, name, task_name, target
    ):
        _scenario, specs, dataset = small_world
        records = sorted(dataset, key=lambda record: record.key)
        bad = records[2]
        original = getattr(pipeline, target)

        def fail_on_bad(record, *args, **kwargs):
            if record.key == bad.key:
                raise RuntimeError("planted failure")
            return original(record, *args, **kwargs)

        # Tasks resolve the stage at call time; forked workers inherit the patch.
        monkeypatch.setattr(pipeline, target, fail_on_bad)
        before = _live()
        engine = resolve_executor(name, workers=2)
        message = f"session {'/'.join(bad.key)} failed: RuntimeError: planted failure"
        with pytest.raises(ExecutorError, match=re.escape(message)):
            list(
                engine.imap(
                    getattr(tasks, task_name),
                    records,
                    context=tasks.AnalysisContext(specs),
                    window=2,
                )
            )
        _assert_nothing_leaked(before)

    def test_lazy_input_pulled_at_most_window_ahead(self, small_world, name):
        _scenario, specs, dataset = small_world
        records = sorted(dataset, key=lambda record: record.key)
        pulled = []

        def source():
            for record in records:
                pulled.append(record)
                yield record

        window = 3
        results = []
        with resolve_executor(name, workers=2).pool() as pool:
            for result in pool.imap(tasks.label, source(), window=window):
                results.append(result)
                assert len(pulled) - len(results) <= window
        assert len(results) == len(records)
        assert results == Executor(1).map(tasks.label, records)

    def test_ingest_shutdown_reaps_pool(self, small_world, tmp_path, name):
        from repro.ingest import IngestService
        from repro.net import codec

        _scenario, specs, dataset = small_world
        body = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(list(dataset)))
        before = _live()
        service = IngestService(tmp_path, executor=name, workers=2, specs=specs)
        job = service.submit(body, tenant="t")
        assert service.run_pending() == 1
        assert service.job_status(job.job_id)["state"] == "done"
        if name == "process":  # the pool outlives the job until shutdown
            assert set(multiprocessing.active_children()) - before[1]
        service.shutdown()
        _assert_nothing_leaked(before)
