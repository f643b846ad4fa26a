"""Ingest-under-load benchmarks: reads must stay fast while uploads run.

Two measurements over the live asyncio server with an
:class:`~repro.ingest.IngestService` wired in:

- **Mixed read/ingest** — :func:`benchmarks.loadgen.run_mixed_load`
  drives a warm-cache ``/v1/recommend`` read class and a ``/v1/traces``
  upload class concurrently, each closed-loop on its own keep-alive
  connections, while a background worker thread drains the job queue.
  The hard acceptance bar: the read path's p50 latency under concurrent
  ingest may degrade by at most 20% over a read-only baseline measured
  against the same server — upload admission and background analysis
  must not ruin interactive reads.
- **Job round-trip** — service-level submit → analyze → assemble
  latency for one small bundle, the per-job cost ``retry_after``
  estimates are built from.

Numbers land in each benchmark's ``extra_info``, recorded into
``BENCH_ingest.json`` by ``make bench-ingest`` and guarded against
regression by ``check_regression.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import run_study
from repro.ingest import IngestService
from repro.net import codec
from repro.serve import BackgroundServer, LruTtlCache, ResultStore, ServeApp
from repro.services.catalog import build_catalog

from .loadgen import WorkloadClass, run_load, run_mixed_load

READ_SUBSET = ("weather", "grubhub", "cnn")
UPLOAD_SUBSET = ("weather",)

#: Hard acceptance bar: mixed-load read p50 / read-only read p50.
MAX_READ_P50_DEGRADATION = 1.20

WARM_BODY = json.dumps({"os": "android"}).encode()


def _specs(slugs):
    wanted = set(slugs)
    return [spec for spec in build_catalog() if spec.slug in wanted]


@pytest.fixture(scope="module")
def upload_body():
    """A small single-service bundle: enough work to keep the ingest
    worker busy without swamping the event loop per request."""
    study = run_study(
        services=_specs(UPLOAD_SUBSET), seed=7, duration=20.0, train_recon=False
    )
    return codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(list(study.dataset)))


@pytest.fixture(scope="module")
def served_ingest(tmp_path_factory):
    """A live server over the 3-service study with ingest enabled.

    The tenant queue is kept small on purpose: once it fills, further
    uploads are shed with 429/503 *before* the body is decoded, so the
    queue stays topped up and the background worker analyzes
    continuously for the whole measurement window while rejection stays
    near free.

    The worker uses a two-process pool — the serving configuration
    this benchmark exists to pin.  One in-process worker runs the
    pure-Python analysis inside the server process, and the GIL starves
    the event loop (read p50 degrades ~30x); shipping records to one
    long-lived pool of child processes keeps the serving thread
    responsive, and the worker paces itself (see ``IngestService.pace``)
    so job coordination never monopolizes the GIL.
    """
    study = run_study(
        services=_specs(READ_SUBSET), seed=2016, duration=240.0, train_recon=False
    )
    directory = tmp_path_factory.mktemp("bench-ingest") / "study"
    study.dataset.save(directory)
    store = ResultStore(directory, train_recon=False, check_interval=60.0)
    ingest = IngestService(
        tmp_path_factory.mktemp("bench-ingest-jobs"),
        executor=2,
        per_tenant=8,
        max_queued=16,
    )
    app = ServeApp(store, cache=LruTtlCache(maxsize=4096, ttl=600.0), ingest=ingest)
    with BackgroundServer(
        app,
        max_concurrency=32,
        max_body_bytes=ingest.max_upload_bytes + 64 * 1024,
    ) as background:
        ingest.start(threads=1)
        try:
            yield background, ingest
        finally:
            ingest.shutdown(timeout=30.0)


def _read_load(background, requests=1500):
    return run_load(
        background.host,
        background.port,
        body=WARM_BODY,
        concurrency=4,
        requests=requests,
        warmup=100,
    )


def test_bench_read_p50_under_concurrent_ingest(benchmark, served_ingest, upload_body):
    """Mixed workload; hard assert on read-latency interference."""
    background, ingest = served_ingest
    # Long enough (~1s of reads per round) that p50 is stable against
    # scheduler noise and the upload class cycles accept -> shed ->
    # accept within every round.
    requests = 4000

    # Read-only baseline first, against the same server before any
    # upload traffic exists.  Best-of-3 to shed scheduler noise.
    baseline = min((_read_load(background) for _ in range(3)), key=lambda r: r.p50_ms)
    assert baseline.errors == 0

    runs = []

    def mixed():
        # The upload class runs in the background for exactly the read
        # window and honors Retry-After (capped) on 429/503 — the
        # protocol-correct client the backpressure design assumes.  A
        # client that ignores Retry-After and hammers half-megabyte
        # bodies at line rate is a bandwidth flood the latency SLO does
        # not cover (that path is pinned separately: shedding answers
        # without decoding, and admission runs off the event loop).
        reports = run_mixed_load(
            background.host,
            background.port,
            classes=[
                WorkloadClass(
                    name="read",
                    method="POST",
                    path="/v1/recommend",
                    body=WARM_BODY,
                    concurrency=4,
                ),
                WorkloadClass(
                    name="ingest",
                    method="POST",
                    path="/v1/traces",
                    body=upload_body,
                    headers={
                        "X-Client-Id": "bench",
                        "Content-Type": "application/octet-stream",
                    },
                    concurrency=1,
                    background=True,
                    backoff_cap_s=0.2,
                    warmup=2,
                ),
            ],
            requests=requests,
            warmup=50,
        )
        runs.append(reports)
        return reports

    benchmark.pedantic(mixed, rounds=3, iterations=1)

    best = min(runs, key=lambda r: r["read"].p50_ms)
    read, upload = best["read"], best["ingest"]
    assert read.errors == 0
    assert read.status_counts == {200: requests}
    # Every upload was answered by the ingest API: accepted or
    # backpressured, never an error path.
    assert set(upload.status_counts) <= {202, 429, 503}
    assert upload.status_counts.get(202, 0) > 0

    degradation = read.p50_ms / baseline.p50_ms if baseline.p50_ms else 1.0
    benchmark.extra_info["read_only_p50_ms"] = round(baseline.p50_ms, 3)
    benchmark.extra_info["mixed_read_p50_ms"] = round(read.p50_ms, 3)
    benchmark.extra_info["mixed_read_p99_ms"] = round(read.p99_ms, 3)
    benchmark.extra_info["read_degradation"] = round(degradation, 3)
    benchmark.extra_info["uploads_accepted"] = upload.status_counts.get(202, 0)
    benchmark.extra_info["uploads_backpressured"] = upload.status_counts.get(
        429, 0
    ) + upload.status_counts.get(503, 0)
    benchmark.extra_info["jobs_done"] = ingest.stats()["jobs_done"]
    print(
        f"\n  read p50 {baseline.p50_ms:.3f} ms alone -> {read.p50_ms:.3f} ms "
        f"under ingest (x{degradation:.2f}); "
        f"{upload.status_counts.get(202, 0)} uploads accepted, "
        f"{ingest.stats()['jobs_done']} jobs analyzed"
    )
    assert degradation < MAX_READ_P50_DEGRADATION, (
        f"read p50 degraded x{degradation:.2f} under concurrent ingest "
        f"({baseline.p50_ms:.3f} ms -> {read.p50_ms:.3f} ms; "
        f"bar x{MAX_READ_P50_DEGRADATION})"
    )


def test_bench_ingest_job_roundtrip(benchmark, upload_body, tmp_path_factory):
    """Service-level submit -> analyze -> assemble latency, one bundle."""
    root = tmp_path_factory.mktemp("bench-ingest-direct")
    service = IngestService(root, per_tenant=1024, max_queued=4096)

    def run():
        job = service.submit(upload_body, tenant="bench")
        service.run_pending()
        return service.store.result_bytes(job.job_id)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result is not None and result.endswith(b"\n")
    benchmark.extra_info["jobs_done"] = service.stats()["jobs_done"]
