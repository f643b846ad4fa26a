"""Tests for the serving layer (`repro.serve`).

Covers the acceptance surface of the serve PR: endpoint contracts
against a seeded study, byte-identical recommendations vs the library,
cache hit-after-miss and TTL expiry, 429 on burst, ETag/304
revalidation, store hot-reload (dataset and journal sources), and
graceful shutdown finishing in-flight requests.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core.pipeline import analyze_dataset, run_study
from repro.core.recommend import PrivacyPreferences, preferences_from_dict
from repro.serve import (
    BackgroundServer,
    LruTtlCache,
    RateLimiter,
    Registry,
    Request,
    ResultStore,
    ServeApp,
    StoreError,
    canonical_json,
    recommend_payload,
    run_load,
)
from repro.services.catalog import build_catalog
from repro.stream import dataset_from_journal, stream_dataset

SLUGS = ("weather", "cnn")


def _specs(slugs=SLUGS):
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in slugs]


@pytest.fixture(scope="module")
def seeded_study():
    specs = _specs()
    return run_study(services=specs, seed=2016, duration=40.0, train_recon=False)


@pytest.fixture(scope="module")
def result_dir(seeded_study, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve") / "study"
    seeded_study.dataset.save(directory)
    return directory


@pytest.fixture()
def store(result_dir):
    return ResultStore(result_dir, train_recon=False, check_interval=0.0)


@pytest.fixture()
def app(store):
    return ServeApp(store, cache=LruTtlCache(maxsize=64, ttl=60.0))


def post_recommend(app, payload, client="t", headers=None):
    body = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
    merged = {"x-client-id": client}
    merged.update(headers or {})
    return app.handle(Request(method="POST", path="/v1/recommend", headers=merged, body=body))


# ---------------------------------------------------------------------------
# store


class TestResultStore:
    def test_rejects_empty_directory(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(tmp_path)

    def test_loads_dataset_directory(self, store, seeded_study):
        snapshot = store.snapshot
        assert snapshot.source == "dataset"
        assert snapshot.version == 1
        assert {r.spec.slug for r in snapshot.study.services} == set(SLUGS)
        batch = {(a.service, a.os_name, a.medium): a for a in seeded_study.analyses()}
        for analysis in snapshot.study.analyses():
            assert batch[(analysis.service, analysis.os_name, analysis.medium)] == analysis

    def test_journal_source_matches_dataset(self, seeded_study, tmp_path):
        stream_dataset(
            seeded_study.dataset, _specs(), train_recon=False, checkpoint_dir=tmp_path
        )
        rebuilt = dataset_from_journal(tmp_path / "journal.jsonl")
        assert len(rebuilt) == len(seeded_study.dataset)
        journal_store = ResultStore(tmp_path, train_recon=False)
        assert journal_store.snapshot.source == "journal"
        batch = analyze_dataset(seeded_study.dataset, _specs(), train_recon=False)
        expected = {(a.service, a.os_name, a.medium): a for a in batch.analyses()}
        for analysis in journal_store.snapshot.study.analyses():
            assert expected[(analysis.service, analysis.os_name, analysis.medium)] == analysis

    def test_etag_is_content_derived(self, result_dir, store, seeded_study, tmp_path):
        twin = tmp_path / "twin"
        seeded_study.dataset.save(twin)
        assert ResultStore(twin, train_recon=False).snapshot.etag == store.snapshot.etag

    def test_hot_reload_on_change(self, seeded_study, tmp_path):
        directory = tmp_path / "study"
        seeded_study.dataset.save(directory)
        store = ResultStore(directory, train_recon=False, check_interval=0.0)
        first = store.snapshot
        assert store.maybe_reload() is first  # unchanged -> same snapshot

        smaller = run_study(
            services=_specs(("weather",)), seed=2016, duration=40.0, train_recon=False
        )
        smaller.dataset.save(directory)
        second = store.maybe_reload()
        assert second is not first
        assert second.version == first.version + 1
        assert second.etag != first.etag
        assert store.reloads == 1
        assert {r.spec.slug for r in second.study.services} == {"weather"}

    def test_reload_check_is_rate_limited(self, result_dir):
        clock = FakeClock()
        store = ResultStore(result_dir, train_recon=False, check_interval=5.0, clock=clock)
        first = store.snapshot
        clock.advance(1.0)
        assert store.maybe_reload() is first  # within check_interval: no stat


# ---------------------------------------------------------------------------
# cache / rate limiter units


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLruTtlCache:
    def test_hit_after_miss(self):
        cache = LruTtlCache(maxsize=4, ttl=60.0)
        assert cache.get("k") is None
        cache.put("k", b"v")
        assert cache.get("k") == b"v"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = LruTtlCache(maxsize=4, ttl=10.0, clock=clock)
        cache.put("k", b"v")
        clock.advance(9.9)
        assert cache.get("k") == b"v"
        clock.advance(0.2)
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1

    def test_lru_eviction(self):
        cache = LruTtlCache(maxsize=2, ttl=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # freshen a
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1


class TestRateLimiter:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=3, clock=clock)
        assert [limiter.allow("c") for _ in range(3)] == [True, True, True]
        assert limiter.allow("c") is False
        assert limiter.retry_after("c") == pytest.approx(1.0)
        clock.advance(1.0)
        assert limiter.allow("c") is True
        assert limiter.stats()["dropped"] == 1

    def test_clients_are_independent(self):
        limiter = RateLimiter(rate=0.001, burst=1)
        assert limiter.allow("a") is True
        assert limiter.allow("a") is False
        assert limiter.allow("b") is True

    def test_client_table_is_bounded(self):
        limiter = RateLimiter(rate=0.001, burst=1, max_clients=10)
        for i in range(50):
            limiter.allow(f"client-{i}")
        assert limiter.stats()["clients"] <= 10


# ---------------------------------------------------------------------------
# endpoint contracts (transport-free)


class TestEndpoints:
    def test_healthz(self, app):
        response = app.handle(Request(method="GET", path="/healthz"))
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["status"] == "ok"
        assert payload["services"] == len(SLUGS)
        assert payload["etag"] == app.store.snapshot.etag

    def test_services_list(self, app):
        response = app.handle(Request(method="GET", path="/v1/services"))
        assert response.status == 200
        payload = json.loads(response.body)
        assert {s["service"] for s in payload["services"]} == set(SLUGS)
        for entry in payload["services"]:
            assert set(entry) == {
                "service", "name", "category", "rank", "oses",
                "leaks_via_app", "leaks_via_web",
            }

    def test_service_detail(self, app, seeded_study):
        response = app.handle(Request(method="GET", path="/v1/services/weather"))
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["service"] == "weather"
        cell = payload["cells"]["android/app"]
        analysis = seeded_study.by_slug("weather").cell("android", "app")
        assert cell["flows_total"] == analysis.flows_total
        assert cell["aa_domains"] == sorted(analysis.aa_domains)
        assert cell["leak_types"] == sorted(t.value for t in analysis.leak_types)

    def test_service_detail_unknown(self, app):
        response = app.handle(Request(method="GET", path="/v1/services/nope"))
        assert response.status == 404

    def test_unknown_route_and_method(self, app):
        assert app.handle(Request(method="GET", path="/nope")).status == 404
        response = app.handle(Request(method="DELETE", path="/v1/services"))
        assert response.status == 405
        assert response.headers["Allow"] == "GET"
        assert app.handle(Request(method="GET", path="/v1/recommend")).status == 405

    def test_recommend_defaults(self, app):
        response = post_recommend(app, {})
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["os"] == "android"
        assert len(payload["recommendations"]) == len(SLUGS)
        assert sum(payload["summary"].values()) == len(SLUGS)

    def test_recommend_bad_inputs(self, app):
        assert post_recommend(app, b"{not json").status == 400
        assert post_recommend(app, b"[]").status == 400
        assert post_recommend(app, {"os": "windows"}).status == 400
        assert post_recommend(app, {"services": ["nope"]}).status == 400
        assert post_recommend(app, {"bogus": 1}).status == 400
        assert post_recommend(app, {"preferences": {"weights": {"nope": 1}}}).status == 400
        assert post_recommend(app, {"preferences": {"weights": {"email": 7}}}).status == 400

    def test_recommend_bytes_identical_to_library(self, app, seeded_study):
        """The acceptance criterion: served bytes == direct core.recommend."""
        prefs_json = {"weights": {"location": 1.0, "email": 0.1}, "tracker_aversion": 0.2}
        response = post_recommend(app, {"os": "ios", "preferences": prefs_json})
        assert response.status == 200

        preferences = preferences_from_dict(prefs_json)
        direct = recommend_payload(
            app.store.snapshot.study, preferences, "ios", etag=app.store.snapshot.etag
        )
        assert response.body == canonical_json(direct) + b"\n"

        # and the scores inside are exactly the library's floats
        from repro.core.recommend import Recommender

        served = {r["service"]: r for r in json.loads(response.body)["recommendations"]}
        recommender = Recommender(seeded_study, preferences)
        for rec in recommender.recommend_all("ios"):
            assert served[rec.service]["app_score"] == rec.app_score
            assert served[rec.service]["web_score"] == rec.web_score
            assert served[rec.service]["choice"] == rec.choice

    def test_recommend_service_filter(self, app):
        response = post_recommend(app, {"services": ["weather"]})
        payload = json.loads(response.body)
        assert [r["service"] for r in payload["recommendations"]] == ["weather"]

    def test_preferences_change_the_answer_key(self, app):
        a = post_recommend(app, {"preferences": {"weights": {"location": 1.0}}})
        b = post_recommend(app, {"preferences": {"weights": {"location": 0.0}}})
        assert a.body != b.body


class TestCachingAndEtag:
    def test_cache_miss_then_hit_same_bytes(self, app):
        first = post_recommend(app, {"os": "android"})
        assert first.headers["X-Cache"] == "miss"
        second = post_recommend(app, {"os": "android"})
        assert second.headers["X-Cache"] == "hit"
        assert second.body == first.body
        assert app.cache.stats()["hits"] == 1

    def test_equivalent_preferences_share_an_entry(self, app):
        post_recommend(app, {"preferences": {}})
        response = post_recommend(app, {"preferences": {"weights": {}}})
        assert response.headers["X-Cache"] == "hit"

    def test_cache_ttl_expiry_rescores(self, store):
        clock = FakeClock()
        app = ServeApp(store, cache=LruTtlCache(maxsize=8, ttl=10.0, clock=clock))
        post_recommend(app, {})
        clock.advance(11.0)
        response = post_recommend(app, {})
        assert response.headers["X-Cache"] == "miss"
        assert app.cache.stats()["expirations"] == 1

    def test_etag_and_304(self, app):
        response = app.handle(Request(method="GET", path="/v1/services"))
        etag = response.headers["ETag"]
        assert etag == f'"{app.store.snapshot.etag}"'
        revalidation = app.handle(
            Request(method="GET", path="/v1/services", headers={"if-none-match": etag})
        )
        assert revalidation.status == 304
        assert revalidation.body == b""
        assert revalidation.headers["ETag"] == etag
        stale = app.handle(
            Request(method="GET", path="/v1/services", headers={"if-none-match": '"old"'})
        )
        assert stale.status == 200

    def test_recommend_stamped_with_etag(self, app):
        response = post_recommend(app, {})
        assert response.headers["ETag"] == f'"{app.store.snapshot.etag}"'
        assert json.loads(response.body)["etag"] == app.store.snapshot.etag

    def test_reload_invalidates_cache_key_and_etag(self, seeded_study, tmp_path):
        directory = tmp_path / "study"
        seeded_study.dataset.save(directory)
        store = ResultStore(directory, train_recon=False, check_interval=0.0)
        app = ServeApp(store)
        first = post_recommend(app, {})
        etag_1 = first.headers["ETag"]

        smaller = run_study(
            services=_specs(("weather",)), seed=2016, duration=40.0, train_recon=False
        )
        smaller.dataset.save(directory)
        second = post_recommend(app, {})
        assert second.headers["ETag"] != etag_1
        assert second.headers["X-Cache"] == "miss"
        assert len(json.loads(second.body)["recommendations"]) == 1


class TestRateLimitedApp:
    def test_429_on_burst_with_retry_after(self, store):
        app = ServeApp(store, limiter=RateLimiter(rate=0.5, burst=2))
        assert post_recommend(app, {}, client="burst").status == 200
        assert post_recommend(app, {}, client="burst").status == 200
        limited = post_recommend(app, {}, client="burst")
        assert limited.status == 429
        assert int(limited.headers["Retry-After"]) >= 1
        # another client is unaffected, health/metrics stay reachable
        assert post_recommend(app, {}, client="other").status == 200
        assert app.handle(Request(method="GET", path="/healthz")).status == 200
        assert app.handle(Request(method="GET", path="/metrics")).status == 200
        assert app.ratelimit_dropped_total.value() == 1


class TestMetrics:
    def test_exposition_counts_requests(self, app):
        post_recommend(app, {})
        post_recommend(app, {})
        app.handle(Request(method="GET", path="/v1/services"))
        response = app.handle(Request(method="GET", path="/metrics"))
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body.decode()
        assert 'repro_serve_requests_total{route="/v1/recommend",status="200"} 2' in text
        assert 'repro_serve_requests_total{route="/v1/services",status="200"} 1' in text
        assert "repro_serve_cache_hits_total 1" in text
        assert "repro_serve_cache_misses_total 1" in text
        assert "repro_serve_store_version 1" in text

    def test_histogram_exposition_shape(self):
        registry = Registry()
        histogram = registry.histogram("t_seconds", "test", ("route",), buckets=(0.1, 1.0))
        histogram.observe(0.05, labels=("/x",))
        histogram.observe(0.5, labels=("/x",))
        histogram.observe(5.0, labels=("/x",))
        text = registry.render()
        assert 't_seconds_bucket{route="/x",le="0.1"} 1' in text
        assert 't_seconds_bucket{route="/x",le="1"} 2' in text
        assert 't_seconds_bucket{route="/x",le="+Inf"} 3' in text
        assert 't_seconds_count{route="/x"} 3' in text


# ---------------------------------------------------------------------------
# the real server (sockets, keep-alive, drain)


@pytest.fixture()
def live(app):
    with BackgroundServer(app, request_timeout=5.0, drain_timeout=5.0) as background:
        yield background, app


def _http(background) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(background.host, background.port, timeout=5)


class TestServer:
    def test_keep_alive_round_trips(self, live):
        background, app = live
        conn = _http(background)
        try:
            for _ in range(3):
                conn.request("POST", "/v1/recommend", body=b"{}")
                response = conn.getresponse()
                assert response.status == 200
                body = response.read()
                assert b"recommendations" in body
        finally:
            conn.close()
        assert background.server.requests_served >= 3

    def test_request_latency_histogram_observed(self, live):
        background, app = live
        conn = _http(background)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
        finally:
            conn.close()
        assert app.request_seconds.count(("/healthz",)) >= 1

    def test_malformed_request_gets_400(self, live):
        background, _ = live
        import socket

        with socket.create_connection((background.host, background.port), timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            assert b"400" in sock.recv(1024)

    def test_loadgen_round_trip(self, live):
        background, _ = live
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

    def test_graceful_drain_finishes_inflight(self, app):
        """SIGTERM-equivalent shutdown must not drop an in-flight response."""
        app.handler_delay = 0.3
        with BackgroundServer(app, drain_timeout=10.0) as background:
            result = {}

            def slow_request():
                conn = _http(background)
                try:
                    conn.request("POST", "/v1/recommend", body=b"{}")
                    response = conn.getresponse()
                    result["status"] = response.status
                    result["body"] = response.read()
                finally:
                    conn.close()

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.1)  # request is now in the 0.3s handler delay
            background.server.request_shutdown_threadsafe()
            thread.join(timeout=10)
            assert result["status"] == 200
            assert b"recommendations" in result["body"]
        app.handler_delay = 0.0
        # server is down: a fresh connection must fail
        with pytest.raises(OSError):
            http.client.HTTPConnection(
                background.host, background.port, timeout=1
            ).request("GET", "/healthz")

    def test_rate_limited_over_http(self, store):
        app = ServeApp(store, limiter=RateLimiter(rate=0.5, burst=5))
        with BackgroundServer(app) as background:
            report = run_load(
                background.host,
                background.port,
                body=b"{}",
                headers={"X-Client-Id": "hammer"},
                concurrency=1,
                requests=10,
                warmup=0,
            )
        assert report.status_counts.get(200, 0) == 5
        assert report.status_counts.get(429, 0) == 5
