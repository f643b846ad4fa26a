"""Serving-layer benchmarks: closed-loop load against a live server.

Each benchmark boots the real asyncio server over a seeded 3-service
study and drives it with :func:`benchmarks.loadgen.run_load`
(``concurrency`` keep-alive connections, next request only after the
previous response — closed loop).  Two paths are measured:

- **warm cache** — every request carries the same preferences, so after
  the warmup the server answers from the preference-keyed response
  cache.  The acceptance bar is >= 1,000 req/s sustained.
- **cold cache** — every request carries distinct preference weights,
  so every request scores the study and serializes fresh bytes.  The
  warm path must beat it, or the cache isn't earning its keep.

Per-request p50/p99 latency and req/s land in each benchmark's
``extra_info``, recorded into ``BENCH_serve.json`` by ``make
bench-serve`` and guarded against regression by ``check_regression.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import run_study
from repro.serve import BackgroundServer, LruTtlCache, ResultStore, ServeApp
from repro.services.catalog import build_catalog

from .loadgen import LoadReport, _Connection, run_load

SUBSET = ("weather", "grubhub", "cnn")

#: The acceptance floor for the warm-cache path (requests/second).
WARM_RPS_FLOOR = 1000.0

WARM_BODY = json.dumps({"os": "android"}).encode()


def _specs(slugs=SUBSET):
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in slugs]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live server over the saved 3-service subset study."""
    specs = _specs()
    study = run_study(services=specs, seed=2016, duration=240.0, train_recon=False)
    directory = tmp_path_factory.mktemp("bench-serve") / "study"
    study.dataset.save(directory)
    store = ResultStore(directory, train_recon=False, check_interval=60.0)
    app = ServeApp(store, cache=LruTtlCache(maxsize=4096, ttl=600.0))
    with BackgroundServer(app, max_concurrency=32) as background:
        yield background, app


def _cold_bodies(count: int) -> list:
    """Distinct preference weights per request: every one is a cache miss."""
    bodies = []
    for i in range(count):
        weight = i / 1_000_000.0  # unique per index, always in [0, 1]
        bodies.append(
            json.dumps({"os": "android", "preferences": {"weights": {"email": weight}}}).encode()
        )
    return bodies


def test_loadgen_round_trip(served):
    """The load generator itself: every request answered and counted."""
    background, _ = served
    report = run_load(
        background.host,
        background.port,
        body=b'{"os": "android"}',
        concurrency=2,
        requests=60,
        warmup=5,
    )
    assert report.errors == 0
    assert report.requests == 60
    assert report.status_counts == {200: 60}
    assert report.p50_ms <= report.p99_ms


def test_bench_serve_recommend_warm(benchmark, served):
    """Warm-cache /v1/recommend throughput (the >= 1,000 req/s bar)."""
    background, app = served
    requests = 2000

    def run():
        return run_load(
            background.host,
            background.port,
            body=WARM_BODY,
            concurrency=4,
            requests=requests,
            warmup=100,
        )

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.errors == 0
    assert report.status_counts == {200: requests}
    benchmark.extra_info["rps"] = round(report.rps, 1)
    benchmark.extra_info["p50_ms"] = round(report.p50_ms, 3)
    benchmark.extra_info["p99_ms"] = round(report.p99_ms, 3)
    print(
        f"\n  warm cache: {report.rps:,.0f} req/s "
        f"(p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms)"
    )
    assert report.rps >= WARM_RPS_FLOOR, (
        f"warm-cache serving sustained only {report.rps:,.0f} req/s "
        f"(acceptance floor {WARM_RPS_FLOOR:,.0f})"
    )


def test_bench_serve_recommend_cold_vs_warm(benchmark, served):
    """Cold-cache scoring path, compared against a warm run in-test."""
    background, app = served
    requests = 600
    state = {"round": 0}

    def run_cold():
        # Shift the weight sequence each round so no request ever hits
        # a previous round's cache entries.
        offset = state["round"] * requests
        state["round"] += 1
        bodies = _cold_bodies(offset + requests)[offset:]
        return run_load_multi(background, bodies)

    cold = benchmark.pedantic(run_cold, rounds=3, iterations=1)
    warm = run_load(
        background.host,
        background.port,
        body=WARM_BODY,
        concurrency=4,
        requests=requests,
        warmup=100,
    )
    assert cold.errors == 0 and warm.errors == 0
    benchmark.extra_info["cold_p50_ms"] = round(cold.p50_ms, 3)
    benchmark.extra_info["warm_p50_ms"] = round(warm.p50_ms, 3)
    benchmark.extra_info["cold_rps"] = round(cold.rps, 1)
    benchmark.extra_info["warm_rps"] = round(warm.rps, 1)
    print(
        f"\n  cold p50 {cold.p50_ms:.3f} ms vs warm p50 {warm.p50_ms:.3f} ms "
        f"({cold.rps:,.0f} vs {warm.rps:,.0f} req/s)"
    )
    # The cache path must be measurably faster than rescoring.
    assert warm.p50_ms < cold.p50_ms
    assert warm.rps > cold.rps


def run_load_multi(background, bodies):
    """Closed-loop run where each request gets its own body."""
    import threading
    import time

    concurrency = 4
    chunks = [bodies[i::concurrency] for i in range(concurrency)]
    lock = threading.Lock()
    latencies: list = []
    status_counts: dict = {}
    errors = [0]

    def worker(chunk):
        conn = _Connection(background.host, background.port, timeout=10.0)
        local = []
        counts: dict = {}
        failed = 0
        headers = {"Connection": "keep-alive", "Content-Type": "application/json"}
        try:
            for body in chunk:
                started = time.perf_counter()
                try:
                    status, _body, _retry = conn.request("POST", "/v1/recommend", body, headers)
                except OSError:
                    failed += 1
                    conn.close()
                    continue
                local.append((time.perf_counter() - started) * 1000.0)
                counts[status] = counts.get(status, 0) + 1
        finally:
            conn.close()
        with lock:
            latencies.extend(local)
            for status, count in counts.items():
                status_counts[status] = status_counts.get(status, 0) + count
            errors[0] += failed

    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in chunks]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return LoadReport(
        requests=len(latencies),
        errors=errors[0],
        elapsed=elapsed,
        latencies_ms=latencies,
        status_counts=status_counts,
    )
