"""Tests for the ingest data plane (`repro.ingest`).

The acceptance surface of the analysis-as-a-service PR:

- **Byte identity**: an uploaded bundle's final result bytes equal the
  offline ``analyze_dataset`` study assembled through the same payload
  builder — in-process and on a process pool, over HTTP, and with 1 or
  4 uploads in flight at once.
- **Crash safety**: a worker crash mid-analysis or a restart before any
  processing leaves the job resumable; the resumed run skips records
  already journaled and produces the identical bytes.
- **Atomic admission**: malformed, oversized, unknown-service, or
  duplicate-session uploads are rejected with *no* trace — no job
  directory, no journal line, no queue slot.
- **Backpressure**: per-tenant caps 429, the global cap 503s, both with
  a Retry-After hint; the store and queue units underneath are
  exercised directly.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro.core.pipeline import analyze_dataset, run_study
from repro.ingest import (
    IngestError,
    IngestService,
    Job,
    JobStore,
    JobStoreError,
    QueueFull,
    RateLimited,
    TenantQueue,
    UploadTooLarge,
    WorkerCrash,
    decode_upload,
    job_result_payload,
)
from repro.net import codec
from repro.net.codec import CodecError
from repro.par import tasks
from repro.qa.faults import TORN_MODES, tear_journal
from repro.serve import (
    BackgroundServer,
    LruTtlCache,
    ResultStore,
    ServeApp,
    canonical_json,
)
from repro.services.catalog import build_catalog

SLUGS = ("weather", "cnn")


def _specs(slugs=SLUGS):
    # Catalog order, exactly like cmd_analyze and the ingest service —
    # service ordering is part of the byte-identity contract.
    return [spec for spec in build_catalog() if spec.slug in slugs]


@pytest.fixture(scope="module")
def seeded_study():
    return run_study(services=_specs(), seed=2016, duration=40.0, train_recon=False)


@pytest.fixture(scope="module")
def records(seeded_study):
    return list(seeded_study.dataset)


@pytest.fixture(scope="module")
def upload_body(records):
    return codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(records))


@pytest.fixture(scope="module")
def offline_study(seeded_study):
    """The ingest reference: the no-recon batch study of the same records."""
    return analyze_dataset(seeded_study.dataset, _specs(), train_recon=False)


def expected_bytes(job, records, offline_study) -> bytes:
    payload = job_result_payload(job.job_id, job.etag, len(records), offline_study)
    return canonical_json(payload) + b"\n"


# ---------------------------------------------------------------------------
# units: queue


class TestTenantQueue:
    def test_fifo_within_tenant(self):
        queue = TenantQueue(per_tenant=4, total=8)
        for job_id in ("a", "b", "c"):
            queue.reserve("t")
            queue.push("t", job_id)
        assert [queue.take()[1] for _ in range(3)] == ["a", "b", "c"]
        assert queue.take() is None

    def test_round_robin_across_tenants(self):
        queue = TenantQueue(per_tenant=4, total=8)
        for tenant, job_id in (("a", "a1"), ("a", "a2"), ("b", "b1")):
            queue.reserve(tenant)
            queue.push(tenant, job_id)
        order = [queue.take()[1] for _ in range(3)]
        assert order == ["a1", "b1", "a2"]

    def test_per_tenant_cap_rejects_not_blocks(self):
        queue = TenantQueue(per_tenant=1, total=8)
        queue.reserve("t")
        with pytest.raises(QueueFull) as excinfo:
            queue.reserve("t")
        assert excinfo.value.scope == "tenant"
        assert queue.stats()["rejected_tenant"] == 1

    def test_global_cap_rejects(self):
        queue = TenantQueue(per_tenant=4, total=2)
        queue.reserve("a")
        queue.reserve("b")
        with pytest.raises(QueueFull) as excinfo:
            queue.reserve("c")
        assert excinfo.value.scope == "global"
        assert queue.stats()["rejected_global"] == 1

    def test_check_sheds_without_claiming(self):
        queue = TenantQueue(per_tenant=1, total=8)
        queue.check("t")  # capacity available: claims nothing
        queue.reserve("t")  # the slot is still free to claim
        with pytest.raises(QueueFull) as excinfo:
            queue.check("t")
        assert excinfo.value.scope == "tenant"
        assert queue.stats()["rejected_tenant"] == 1

    def test_cancel_releases_reservation(self):
        queue = TenantQueue(per_tenant=1, total=1)
        queue.reserve("t")
        queue.cancel("t")
        queue.reserve("t")  # does not raise
        queue.push("t", "x")
        assert queue.take() == ("t", "x")

    def test_take_releases_capacity(self):
        queue = TenantQueue(per_tenant=1, total=1)
        queue.reserve("t")
        queue.push("t", "x")
        assert queue.take() == ("t", "x")
        queue.reserve("t")  # slot freed by take()

    def test_restore_bypasses_bounds(self):
        queue = TenantQueue(per_tenant=1, total=1)
        queue.restore("t", "x")
        queue.restore("t", "y")  # over both caps, still accepted
        assert queue.pending() == 2
        assert [queue.take()[1] for _ in range(2)] == ["x", "y"]


# ---------------------------------------------------------------------------
# units: job store


class TestJobStore:
    def test_create_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("t", b"blob", 3)
        assert job.state == "queued"
        assert job.seq == 1
        assert store.load(job.job_id) == job
        assert store.upload_blob(job.job_id) == b"blob"

    def test_seq_survives_restart(self, tmp_path):
        first = JobStore(tmp_path)
        job = first.create("t", b"one", 1)
        again = JobStore(tmp_path)
        assert again.create("t", b"two", 1).seq == job.seq + 1

    def test_transition_and_recover_order(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.create("t", b"a", 1)
        b = store.create("t", b"b", 1)
        done = store.create("t", b"c", 1)
        store.transition(a, "running")
        store.transition(done, "done")
        recovered = JobStore(tmp_path).recover()
        assert [job.job_id for job in recovered] == [a.job_id, b.job_id]
        assert all(job.state == "queued" for job in recovered)

    def test_recover_tolerates_torn_journal_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("t", b"a", 1)
        with open(store.journal_path, "ab") as handle:
            handle.write(b'{"seq": 2, "job": "tor')  # crash mid-append
        recovered = JobStore(tmp_path).recover()
        assert [j.job_id for j in recovered] == [job.job_id]

    def test_recovers_journal_less_directory(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("t", b"a", 1)
        store.journal_path.unlink()  # crash between job.json and journal
        recovered = JobStore(tmp_path).recover()
        assert [j.job_id for j in recovered] == [job.job_id]

    def test_results_roundtrip_and_torn_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("t", b"a", 2)
        store.append_result(job, 0, {"x": 1})
        store.append_result(job, 1, {"x": 2})
        path = store.job_dir(job.job_id) / "results.jsonl"
        with open(path, "ab") as handle:
            handle.write(b'{"index": 2, "anal')
        assert store.load_results(job.job_id) == {0: {"x": 1}, 1: {"x": 2}}

    def test_result_bytes_absent_until_written(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create("t", b"a", 1)
        assert store.result_bytes(job.job_id) is None
        store.write_result(job, b"body\n")
        assert store.result_bytes(job.job_id) == b"body\n"

    @pytest.mark.parametrize("bad", ("../escape", "a/b", ".", ".."))
    def test_rejects_traversal_job_ids(self, tmp_path, bad):
        store = JobStore(tmp_path)
        with pytest.raises(JobStoreError):
            store.job_dir(bad)
        assert store.load(bad) is None


# ---------------------------------------------------------------------------
# admission


class TestAdmission:
    def test_decode_upload_single_record(self, records):
        body = codec.frame(codec.KIND_RECORD, codec.encode_record(records[0]))
        decoded = decode_upload(body)
        assert len(decoded) == 1
        assert decoded[0].key == records[0].key

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"not framed at all",
            b'{"json": "payload"}',
        ],
    )
    def test_unframed_bodies_rejected(self, body):
        with pytest.raises(CodecError):
            decode_upload(body)

    def test_wrong_kind_rejected(self, records):
        framed = codec.frame(codec.KIND_TRACE, codec.encode_trace(records[0].trace))
        with pytest.raises(CodecError):
            decode_upload(framed)

    def test_rejection_leaves_no_trace(self, tmp_path, upload_body):
        service = IngestService(tmp_path)
        with pytest.raises(CodecError):
            service.submit(upload_body[:-3], tenant="t")
        assert list(service.store.jobs_dir.iterdir()) == []
        assert not service.store.journal_path.exists()
        assert service.queue.pending() == 0

    def test_unknown_service_rejected(self, tmp_path, records):
        service = IngestService(tmp_path, specs=_specs(("cnn",)))
        body = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(records))
        with pytest.raises(IngestError, match="unknown service"):
            service.submit(body, tenant="t")

    def test_duplicate_session_rejected(self, tmp_path, records):
        body = codec.frame(
            codec.KIND_BUNDLE, codec.encode_bundle([records[0], records[0]])
        )
        service = IngestService(tmp_path)
        with pytest.raises(IngestError, match="duplicate session"):
            service.submit(body, tenant="t")

    def test_oversized_upload_rejected(self, tmp_path, upload_body):
        service = IngestService(tmp_path, max_upload_bytes=16)
        with pytest.raises(UploadTooLarge):
            service.submit(upload_body, tenant="t")

    def test_record_cap_rejected(self, tmp_path, upload_body):
        service = IngestService(tmp_path, max_records=2)
        with pytest.raises(IngestError, match="limit 2"):
            service.submit(upload_body, tenant="t")

    def test_tenant_rate_limit(self, tmp_path, upload_body):
        clock = [0.0]
        service = IngestService(
            tmp_path,
            tenant_rate=1.0,
            tenant_burst=1,
            clock=lambda: clock[0],
        )
        service.submit(upload_body, tenant="t")
        with pytest.raises(RateLimited) as excinfo:
            service.submit(upload_body, tenant="t")
        assert excinfo.value.retry_after > 0


# ---------------------------------------------------------------------------
# the differential: upload == offline, any worker count


class TestDifferential:
    @pytest.mark.parametrize("workers", (1, 2), ids=("serial", "process"))
    def test_result_bytes_match_offline(
        self, tmp_path, upload_body, records, offline_study, workers
    ):
        service = IngestService(tmp_path / str(workers), executor=workers)
        job = service.submit(upload_body, tenant="t")
        assert service.run_pending() == 1
        status = service.job_status(job.job_id)
        assert status["state"] == "done"
        assert status["done_records"] == len(records)
        actual = service.store.result_bytes(job.job_id)
        assert actual == expected_bytes(job, records, offline_study)

    def test_recommendations_match_offline_json(
        self, tmp_path, upload_body, offline_study
    ):
        """The payload's recommendations section re-serializes to the
        exact bytes ``repro recommend --json`` prints for this study —
        the invariant the CI smoke job diffs."""
        from repro.cli import _recommend_json_payload
        from repro.core.recommend import PrivacyPreferences

        service = IngestService(tmp_path)
        job = service.submit(upload_body, tenant="t")
        service.run_pending()
        payload = json.loads(service.store.result_bytes(job.job_id))
        offline = _recommend_json_payload(offline_study, PrivacyPreferences())
        assert canonical_json(payload["recommendations"]) == canonical_json(offline)

    def test_single_record_upload(self, tmp_path, records):
        body = codec.frame(codec.KIND_RECORD, codec.encode_record(records[0]))
        service = IngestService(tmp_path)
        job = service.submit(body, tenant="t")
        service.run_pending()
        payload = json.loads(service.store.result_bytes(job.job_id))
        assert payload["records"] == 1
        key = f"{records[0].service}|{records[0].os_name}|{records[0].medium}"
        assert list(payload["analyses"]) == [key]

    def test_failed_job_records_error(self, tmp_path, upload_body, monkeypatch):
        service = IngestService(tmp_path)
        job = service.submit(upload_body, tenant="t")
        monkeypatch.setattr(
            tasks, "analyze", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        service.run_pending()
        status = service.job_status(job.job_id)
        assert status["state"] == "failed"
        assert "RuntimeError: boom" in status["error"]


# ---------------------------------------------------------------------------
# kill / restart


class TestKillRestart:
    def test_restart_before_processing_requeues(
        self, tmp_path, upload_body, records, offline_study
    ):
        first = IngestService(tmp_path)
        job = first.submit(upload_body, tenant="t")
        # "Kill" before any record ran: a fresh service over the same
        # root recovers the job from the journal and replays it.
        resumed = IngestService(tmp_path)
        assert resumed.run_pending() == 1
        actual = resumed.store.result_bytes(job.job_id)
        assert actual == expected_bytes(job, records, offline_study)

    @pytest.mark.parametrize(
        "workers,torn",
        [(1, ""), (2, "")] + [(1, mode) for mode in TORN_MODES],
        ids=["serial", "process"] + [f"serial-torn-{mode}" for mode in TORN_MODES],
    )
    def test_crash_mid_job_resumes_byte_identical(
        self, tmp_path, upload_body, records, offline_study, workers, torn
    ):
        root = tmp_path / str(workers)
        service = IngestService(root, executor=workers)
        job = service.submit(upload_body, tenant="t")
        service.crash_after = 2
        with pytest.raises(WorkerCrash):
            service.run_pending()
        # The crash left the job 'running' with partial results on disk.
        crashed = service.store.load(job.job_id)
        assert crashed.state == "running"
        partial = service.store.load_results(job.job_id)
        assert len(partial) == 2
        if torn:
            # The kill also tore the results file mid-append: the resumed
            # worker must cut the tail off before its first append.
            tear_journal(service.store.job_dir(job.job_id) / "results.jsonl", torn)
        # Restart: recovery requeues; resume skips the journaled records
        # and the final bytes equal an uninterrupted offline run.
        resumed = IngestService(root, executor=workers)
        assert resumed.run_pending() == 1
        actual = resumed.store.result_bytes(job.job_id)
        assert actual == expected_bytes(job, records, offline_study)

    def test_resume_skips_already_analyzed_records(
        self, tmp_path, upload_body, records, monkeypatch
    ):
        service = IngestService(tmp_path)
        job = service.submit(upload_body, tenant="t")
        service.crash_after = 2
        with pytest.raises(WorkerCrash):
            service.run_pending()
        resumed = IngestService(tmp_path)
        analyzed = []
        original = tasks.analyze

        def spy(context, record):
            analyzed.append(record)
            return original(context, record)

        monkeypatch.setattr(tasks, "analyze", spy)
        resumed.run_pending()
        assert len(analyzed) == len(records) - 2

    def test_drain_parks_job_durably(self, tmp_path, upload_body, records, offline_study):
        service = IngestService(tmp_path)
        job = service.submit(upload_body, tenant="t")
        # Draining mid-job: the worker finishes the record in flight,
        # parks the job back to 'queued', and stops.
        service._draining.set()
        service.run_pending()
        parked = service.store.load(job.job_id)
        assert parked.state == "queued"
        assert service.jobs_parked == 1
        assert 0 < len(service.store.load_results(job.job_id)) < len(records)
        resumed = IngestService(tmp_path)
        assert resumed.run_pending() == 1
        assert resumed.store.result_bytes(job.job_id) == expected_bytes(
            job, records, offline_study
        )


# ---------------------------------------------------------------------------
# HTTP end to end


@pytest.fixture(scope="module")
def result_dir(seeded_study, tmp_path_factory):
    directory = tmp_path_factory.mktemp("ingest-serve") / "study"
    seeded_study.dataset.save(directory)
    return directory


@pytest.fixture()
def live_ingest(result_dir, tmp_path):
    store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
    ingest = IngestService(tmp_path / "ingest")
    app = ServeApp(store, cache=LruTtlCache(maxsize=64, ttl=60.0), ingest=ingest)
    with BackgroundServer(
        app,
        request_timeout=30.0,
        drain_timeout=5.0,
        max_body_bytes=ingest.max_upload_bytes + 64 * 1024,
    ) as background:
        ingest.start(threads=1)
        try:
            yield background, ingest
        finally:
            ingest.shutdown(timeout=10.0)


def _http(background) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(background.host, background.port, timeout=30)


def _upload(conn, body, tenant="t"):
    conn.request(
        "POST",
        "/v1/traces",
        body=body,
        headers={"X-Client-Id": tenant, "Content-Type": "application/octet-stream"},
    )
    return conn.getresponse()


def _poll_done(conn, job_id, deadline=60.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        conn.request("GET", f"/v1/jobs/{job_id}")
        response = conn.getresponse()
        status = json.loads(response.read())
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {deadline}s")


class TestHttpIngest:
    def test_upload_poll_result_roundtrip(
        self, live_ingest, upload_body, records, offline_study
    ):
        background, ingest = live_ingest
        conn = _http(background)
        try:
            response = _upload(conn, upload_body)
            assert response.status == 202
            accepted = json.loads(response.read())
            job_id = accepted["job"]
            assert response.getheader("Location") == f"/v1/jobs/{job_id}"
            assert accepted["records"] == len(records)

            status = _poll_done(conn, job_id)
            assert status["state"] == "done"

            conn.request("GET", f"/v1/jobs/{job_id}/result")
            result = conn.getresponse()
            assert result.status == 200
            etag = result.getheader("ETag")
            body = result.read()
            job = ingest.store.load(job_id)
            assert body == expected_bytes(job, records, offline_study)
            assert etag == f'"{job.etag}"'

            # Conditional revalidation on the result's content ETag.
            conn.request(
                "GET",
                f"/v1/jobs/{job_id}/result",
                headers={"If-None-Match": etag},
            )
            revalidated = conn.getresponse()
            assert revalidated.status == 304
            revalidated.read()
        finally:
            conn.close()

    def test_four_concurrent_uploads_byte_identical(
        self, live_ingest, upload_body, records, offline_study
    ):
        """4 tenants upload the same bundle at once; every job's result
        bytes must equal the offline reference — concurrency must not
        perturb a single byte."""
        background, ingest = live_ingest
        results = {}
        errors = []

        def upload_and_fetch(tenant):
            conn = _http(background)
            try:
                response = _upload(conn, upload_body, tenant=tenant)
                if response.status != 202:
                    errors.append((tenant, response.status, response.read()))
                    return
                job_id = json.loads(response.read())["job"]
                status = _poll_done(conn, job_id)
                if status["state"] != "done":
                    errors.append((tenant, "failed", status))
                    return
                conn.request("GET", f"/v1/jobs/{job_id}/result")
                result = conn.getresponse()
                results[tenant] = (job_id, result.read())
            finally:
                conn.close()

        threads = [
            threading.Thread(target=upload_and_fetch, args=(f"tenant-{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert len(results) == 4
        for job_id, body in results.values():
            job = ingest.store.load(job_id)
            assert body == expected_bytes(job, records, offline_study)

    def test_bad_upload_maps_to_400(self, live_ingest):
        background, _ = live_ingest
        conn = _http(background)
        try:
            response = _upload(conn, b"definitely not a codec frame")
            assert response.status == 400
            payload = json.loads(response.read())
            assert "error" in payload
            # Nothing was registered for the rejected upload.
            assert list(background.server.app.ingest.store.jobs_dir.iterdir()) == []
        finally:
            conn.close()

    def test_unknown_job_404s(self, live_ingest):
        background, _ = live_ingest
        conn = _http(background)
        try:
            conn.request("GET", "/v1/jobs/00000042-cafecafecafe")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_read_only_server_has_no_job_routes(self, result_dir):
        store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
        app = ServeApp(store)  # no ingest wired
        with BackgroundServer(app) as background:
            conn = _http(background)
            try:
                response = _upload(conn, b"x")
                assert response.status == 404
            finally:
                conn.close()


class TestBackpressure:
    def test_tenant_429_and_global_503_with_retry_after(
        self, result_dir, tmp_path, upload_body
    ):
        store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
        # No worker threads: the queue only fills.  One slot per tenant,
        # two total.
        ingest = IngestService(tmp_path / "ingest", per_tenant=1, max_queued=2)
        app = ServeApp(store, ingest=ingest)
        with BackgroundServer(
            app, max_body_bytes=ingest.max_upload_bytes + 64 * 1024
        ) as background:
            conn = _http(background)
            try:
                assert _upload(conn, upload_body, tenant="a").read() is not None
                over_tenant = _upload(conn, upload_body, tenant="a")
                assert over_tenant.status == 429
                assert int(over_tenant.getheader("Retry-After")) >= 1
                over_tenant.read()

                second = _upload(conn, upload_body, tenant="b")
                assert second.status == 202
                second.read()
                over_global = _upload(conn, upload_body, tenant="c")
                assert over_global.status == 503
                assert int(over_global.getheader("Retry-After")) >= 1
                over_global.read()
            finally:
                conn.close()
        stats = ingest.stats()["queue"]
        assert stats["rejected_tenant"] == 1
        assert stats["rejected_global"] == 1

    def test_oversized_body_maps_to_413(self, result_dir, tmp_path):
        store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
        ingest = IngestService(tmp_path / "ingest", max_upload_bytes=64)
        app = ServeApp(store, ingest=ingest)
        with BackgroundServer(app) as background:
            conn = _http(background)
            try:
                response = _upload(conn, b"x" * 256)
                assert response.status == 413
                response.read()
            finally:
                conn.close()


# ---------------------------------------------------------------------------
# retention: TTL sweep of finished jobs


class TestSweep:
    def _age(self, service, job_id, seconds):
        """Backdate a job's last transition (job.json mtime is the age)."""
        path = service.store.job_dir(job_id) / "job.json"
        stamp = time.time() - seconds
        os.utime(path, (stamp, stamp))

    def test_expired_done_job_answers_404(self, tmp_path, upload_body):
        service = IngestService(tmp_path, ttl_seconds=60.0)
        job = service.submit(upload_body, tenant="t")
        service.run_pending()
        assert service.job_status(job.job_id)["state"] == "done"

        self._age(service, job.job_id, 120.0)
        assert service.sweep() == [job.job_id]
        assert service.job_status(job.job_id) is None
        assert service.store.result_bytes(job.job_id) is None
        assert not service.store.job_dir(job.job_id).exists()

    def test_young_job_untouched(self, tmp_path, upload_body):
        service = IngestService(tmp_path, ttl_seconds=3600.0)
        job = service.submit(upload_body, tenant="t")
        service.run_pending()
        expected = service.store.result_bytes(job.job_id)

        assert service.sweep() == []
        assert service.job_status(job.job_id)["state"] == "done"
        assert service.store.result_bytes(job.job_id) == expected

    def test_queued_job_never_swept(self, tmp_path, upload_body):
        service = IngestService(tmp_path, ttl_seconds=1.0)
        job = service.submit(upload_body, tenant="t")  # accepted, not run
        self._age(service, job.job_id, 9999.0)
        assert service.sweep() == []
        assert service.job_status(job.job_id)["state"] == "queued"

    def test_zero_ttl_disables_sweeping(self, tmp_path, upload_body):
        service = IngestService(tmp_path)
        job = service.submit(upload_body, tenant="t")
        service.run_pending()
        self._age(service, job.job_id, 9999.0)
        assert service.sweep() == []
        assert service.store.sweep(0.0) == []
        assert service.job_status(job.job_id)["state"] == "done"

    def test_failed_jobs_are_eligible(self, tmp_path, upload_body, monkeypatch):
        service = IngestService(tmp_path, ttl_seconds=60.0)
        job = service.submit(upload_body, tenant="t")
        monkeypatch.setattr(
            tasks, "analyze", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        service.run_pending()
        assert service.job_status(job.job_id)["state"] == "failed"
        self._age(service, job.job_id, 120.0)
        assert service.sweep() == [job.job_id]
        assert service.job_status(job.job_id) is None

    def test_restart_after_sweep_recovers_cleanly(self, tmp_path, upload_body):
        """The journal still names the swept job; recovery must shrug."""
        service = IngestService(tmp_path, ttl_seconds=60.0)
        job = service.submit(upload_body, tenant="t")
        service.run_pending()
        self._age(service, job.job_id, 120.0)
        service.sweep()

        reborn = IngestService(tmp_path)
        assert reborn.job_status(job.job_id) is None
        fresh = reborn.submit(upload_body, tenant="t")
        assert reborn.run_pending() == 1
        assert reborn.job_status(fresh.job_id)["state"] == "done"
