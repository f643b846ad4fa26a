"""Tests for the execution engine (repro.par): equivalence and lifecycle."""

import multiprocessing
import os
import re
import threading

import pytest

from repro.core import pipeline
from repro.core.pipeline import analyze_dataset
from repro.experiment.runner import ExperimentRunner
from repro.par import Executor, ExecutorError, resolve_executor, tasks, usable_cpus
from repro.qa.faults import write_journal
from repro.qa.oracle import canonical_bytes
from repro.qa.scenarios import generate_scenario
from repro.services.world import build_world
from repro.stream import dataset_from_journal


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
        analyze_dataset(dataset, specs, train_recon=scenario.train_recon)
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
    """The worker count is the one fan-out setting: 1 runs in-process,
    N > 1 runs N processes, 0 is every usable CPU."""

    def test_names_resolve_to_expected_types(self):
        engine = resolve_executor(1)
        assert (engine.name, engine.workers) == ("serial", 1)
        for count in (2, 4):
            engine = resolve_executor(count)
            assert (engine.name, engine.workers) == ("process", count)
        assert resolve_executor("serial").workers == 1

    def test_instance_passes_through(self):
        engine = Executor(1)
        assert resolve_executor(engine) is engine

    def test_legacy_default_matches_workers(self):
        """The library default is one in-process worker; the old CLI
        default ``resolve_executor("auto", 1)`` is ``--workers 0``."""
        assert resolve_executor().workers == 1
        assert resolve_executor("auto", 1).workers == resolve_executor(0).workers

    def test_unknown_name_rejected(self):
        for name in ("gpu", "thread", "process"):
            with pytest.raises(ExecutorError):
                resolve_executor(name)
        with pytest.raises(ExecutorError, match="must be >= 0"):
            Executor(-1)

    def test_default_name_is_known(self):
        assert resolve_executor().name == "serial"
        assert Executor(0).name == ("serial" if usable_cpus() == 1 else "process")

    def test_auto_resolves(self):
        engine = resolve_executor("auto", 1)
        assert isinstance(engine, Executor)

    @pytest.mark.parametrize("usable", [1, 3])
    def test_auto_counts_usable_cpus(self, monkeypatch, usable):
        """A process pinned to fewer CPUs than the host has sizes
        ``--workers 0`` (and the old ``auto``) from its affinity, not
        ``os.cpu_count()``."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False
        )
        assert Executor(0).workers == usable
        assert resolve_executor("auto", 1).workers == usable
        assert Executor(0).name == ("serial" if usable == 1 else "process")


class TestBackendEquivalence:
    """Every worker count must produce byte-identical studies.

    The QA oracle pins the same property over fuzzed scenarios; these
    are the fast deterministic anchors that run on every test pass.
    """

    @pytest.mark.parametrize(
        "workers",
        [1, 2, 4],  # in-process; real fork/spawn workers + codec transport
        ids=["serial-1", "process-2", "process-4"],
    )
    def test_analyze_dataset_byte_identical(
        self, small_world, reference_bytes, workers
    ):
        scenario, specs, dataset = small_world
        study = analyze_dataset(
            dataset, specs, train_recon=scenario.train_recon, executor=workers
        )
        assert canonical_bytes(study) == reference_bytes

    def test_streaming_process_backend_byte_identical(
        self, small_world, reference_bytes, tmp_path
    ):
        """A journal read back analyzes identically on the process pool."""
        scenario, specs, dataset = small_world
        write_journal(dataset, tmp_path / "journal.jsonl")
        study = analyze_dataset(
            dataset_from_journal(tmp_path / "journal.jsonl"),
            specs,
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
                dataset, specs, train_recon=scenario.train_recon, executor=1
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


def _campaign_chunks(workers, specs, config, ranges):
    from repro.campaign import CampaignContext

    context = CampaignContext.from_config(specs, config)
    with Executor(workers).pool(context) as pool:
        yield from pool.imap(tasks.campaign_chunk, ranges, window=4)


class TestMapSessionsLifecycle:
    """Campaign chunks over ``imap``: early close and mid-stream failure.

    Closing the stream early or hitting a worker exception must still
    tear the pool down (no leaked threads, no orphaned processes) and
    failures must name the shard range that died.
    """

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_early_close_tears_down_pool(self, campaign_world, workers):
        specs, config = campaign_world
        before = _live()
        stream = _campaign_chunks(workers, specs, config, [(i, i + 1) for i in range(6)])
        _elapsed, first = next(stream)
        assert first.users == 1
        stream.close()
        _assert_nothing_leaked(before)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_worker_exception_names_failing_shard(self, campaign_world, workers):
        specs, config = campaign_world
        # "zodiac" survives context construction but is rejected when the
        # shard folds its first persona, so the error surfaces mid-stream
        # from inside a live worker, not at submission time.
        bad = dict(config, dims=["zodiac"])
        with pytest.raises(ExecutorError, match=r"campaign shard \[0, 2\)"):
            list(_campaign_chunks(workers, specs, bad, [(0, 2), (2, 4)]))

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_worker_exception_leaves_no_orphans(self, campaign_world, workers):
        specs, config = campaign_world
        bad = dict(config, dims=["zodiac"])
        before = _live()
        with pytest.raises(ExecutorError):
            list(_campaign_chunks(workers, specs, bad, [(0, 2), (2, 4)]))
        _assert_nothing_leaked(before)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
class TestImapLifecycle:
    """The primitive's contract for every task, in-process and pooled."""

    def test_early_close_leaves_nothing_running(self, small_world, workers):
        _scenario, specs, dataset = small_world
        before = _live()
        with Executor(workers).pool() as pool:
            stream = pool.imap(tasks.label, list(dataset), window=2)
            next(stream)
            stream.close()
        _assert_nothing_leaked(before)

    @pytest.mark.parametrize(
        "task_name,target",
        [
            ("analyze", "analyze_session"),
            ("label", "label_record"),
        ],
    )
    def test_failure_names_the_session(
        self, small_world, monkeypatch, workers, task_name, target
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
        message = f"session {'/'.join(bad.key)} failed: RuntimeError: planted failure"
        with pytest.raises(ExecutorError, match=re.escape(message)):
            with Executor(workers).pool(tasks.AnalysisContext(specs)) as pool:
                list(pool.imap(getattr(tasks, task_name), records, window=2))
        _assert_nothing_leaked(before)

    def test_lazy_input_pulled_at_most_window_ahead(self, small_world, workers):
        _scenario, specs, dataset = small_world
        records = sorted(dataset, key=lambda record: record.key)
        pulled = []

        def source():
            for record in records:
                pulled.append(record)
                yield record

        window = 3
        results = []
        with Executor(workers).pool() as pool:
            for result in pool.imap(tasks.label, source(), window=window):
                results.append(result)
                assert len(pulled) - len(results) <= window
        assert len(results) == len(records)
        assert results == [tasks.label(None, record) for record in records]

    def test_ingest_shutdown_reaps_pool(self, small_world, tmp_path, workers):
        from repro.ingest import IngestService
        from repro.net import codec

        _scenario, specs, dataset = small_world
        body = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(list(dataset)))
        before = _live()
        service = IngestService(tmp_path, executor=workers, specs=specs)
        job = service.submit(body, tenant="t")
        assert service.run_pending() == 1
        assert service.job_status(job.job_id)["state"] == "done"
        if workers > 1:  # the pool outlives the job until shutdown
            assert set(multiprocessing.active_children()) - before[1]
        service.shutdown()
        _assert_nothing_leaked(before)
