"""Tests for the serving layer (`repro.serve`).

Covers the acceptance surface of the serve PR: endpoint contracts
against a seeded study, byte-identical recommendations vs the library,
cache hit-after-miss and TTL expiry, 429 on burst, ETag/304
revalidation, store hot-reload (dataset and journal sources), and
graceful shutdown finishing in-flight requests.  The store's streamed
build is pinned byte-identical to ``analyze_dataset`` and bounded to two
decoded traces at a time; a damaged result directory (a malformed
journal line included) ends in ``StoreError`` at start-up and keeps the
previous snapshot on reload;
list and detail bodies are rendered once per snapshot.  Uncached
recommends score from the snapshot's exposure table without reading a
leak record, and only awaited dispatches (uploads) run under the
request timeout.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.leaks import LeakRecord
from repro.core.pipeline import analyze_dataset, run_study
from repro.experiment.dataset import Dataset, read_manifest
from repro.ioutil import atomic_write_json
from repro.net.trace import Trace
from repro.par import ExecutorError, tasks
from repro.qa.faults import write_journal
from repro.qa.oracle import canonical_bytes
from repro.core.recommend import (
    Exposure,
    PrivacyPreferences,
    exposure_table,
    preferences_from_dict,
)
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
)
from repro.services.catalog import build_catalog
from repro.stream import dataset_from_journal

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
        write_journal(seeded_study.dataset, tmp_path / "journal.jsonl")
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

    def test_reload_frees_a_frozen_snapshot(self, result_dir):
        """``repro serve`` freezes the start-up heap (``gc.freeze``); the
        snapshot a reload replaces must still be freed, which for frozen
        objects takes reference counting alone."""
        store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
        gc.freeze()
        try:
            old = weakref.ref(store.snapshot.study)
            store.reload()
            assert old() is None
        finally:
            gc.unfreeze()

    def test_reload_check_is_rate_limited(self, result_dir):
        clock = FakeClock()
        store = ResultStore(result_dir, train_recon=False, check_interval=5.0, clock=clock)
        first = store.snapshot
        clock.advance(1.0)
        assert store.maybe_reload() is first  # within check_interval: no stat


class TestStreamedBuild:
    """The store analyzes a saved dataset one decoded session at a time."""

    @pytest.mark.parametrize("recon", (False, True), ids=("no-recon", "recon"))
    def test_dataset_source_matches_batch_bytes(self, result_dir, recon):
        store = ResultStore(result_dir, train_recon=recon)
        batch = analyze_dataset(Dataset.load(result_dir), _specs(), train_recon=recon)
        assert canonical_bytes(store.snapshot.study) == canonical_bytes(batch)
        assert store.snapshot.study.dataset is None

    @pytest.mark.parametrize("recon", (False, True), ids=("no-recon", "recon"))
    def test_journal_source_matches_batch_bytes(self, seeded_study, tmp_path, recon):
        write_journal(seeded_study.dataset, tmp_path / "journal.jsonl")
        store = ResultStore(tmp_path, train_recon=recon)
        rebuilt = dataset_from_journal(tmp_path / "journal.jsonl")
        batch = analyze_dataset(rebuilt, _specs(), train_recon=recon)
        assert store.snapshot.source == "journal"
        assert canonical_bytes(store.snapshot.study) == canonical_bytes(batch)
        assert store.snapshot.study.dataset is None

    @pytest.mark.parametrize("recon", (False, True), ids=("no-recon", "recon"))
    def test_build_holds_at_most_two_traces(self, result_dir, monkeypatch, recon):
        alive: set = set()
        decoded = []
        peak = [0]
        load = Trace.load.__func__

        def spy(cls, path):
            trace = load(cls, path)
            token = len(decoded)
            decoded.append(path)
            alive.add(token)
            peak[0] = max(peak[0], len(alive))
            weakref.finalize(trace, alive.discard, token)
            return trace

        monkeypatch.setattr(Trace, "load", classmethod(spy))
        store = ResultStore(result_dir, train_recon=recon)
        sessions = read_manifest(result_dir)
        training = 4 if recon else 0  # cnn's four sessions, read again to train
        assert len(decoded) == len(sessions) + training
        assert peak[0] <= 2, peak[0]
        assert store.snapshot.study.dataset is None


def _drop_sessions(directory: Path) -> None:
    (directory / "manifest.json").write_text(json.dumps({"format": 1}))


def _duplicate_session(directory: Path) -> None:
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["sessions"].append(manifest["sessions"][0])
    atomic_write_json(directory / "manifest.json", manifest)


def _last_trace(directory: Path) -> Path:
    return directory / read_manifest(directory)[-1].trace_file


def _missing_trace(directory: Path) -> None:
    _last_trace(directory).unlink()


def _truncated_trace(directory: Path) -> None:
    trace = _last_trace(directory)
    trace.write_bytes(trace.read_bytes()[: trace.stat().st_size // 2])


DAMAGE = {
    "no-sessions": _drop_sessions,
    "duplicate-session": _duplicate_session,
    "missing-trace": _missing_trace,
    "truncated-trace": _truncated_trace,
}


def _touch_manifest(directory: Path) -> None:
    """Rewrite the manifest with new bytes, so the store sees a change."""
    path = directory / "manifest.json"
    atomic_write_json(path, json.loads(path.read_text()), indent=None)


class TestMalformedJournal:
    """A complete journal line that is not a valid event ends in
    ``StoreError`` naming its ``path:line`` at start-up, a one-line
    ``repro serve`` exit, and a kept snapshot on reload."""

    BAD_LINE = b'{"seq": 3, "kind": "flow", "session": 5, "flow": {}}\n'

    @pytest.fixture()
    def journal_dir(self, seeded_study, tmp_path):
        write_journal(seeded_study.dataset, tmp_path / "journal.jsonl")
        return tmp_path

    def _spoil(self, directory: Path) -> str:
        path = directory / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + self.BAD_LINE + b"".join(lines[2:]))
        return f"{path}:3: session is not [service, os, medium]"

    def test_start_up_raises_store_error(self, journal_dir):
        where = self._spoil(journal_dir)
        with pytest.raises(StoreError, match="CheckpointError") as excinfo:
            ResultStore(journal_dir, train_recon=False)
        assert where in str(excinfo.value)

    def test_serve_exits_with_one_line(self, journal_dir):
        where = self._spoil(journal_dir)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--result", str(journal_dir), "--no-recon", "--port", "0"])
        message = str(excinfo.value.code)
        assert message.startswith("repro serve: cannot load ") and where in message
        assert "\n" not in message

    def test_reload_keeps_previous_snapshot(self, journal_dir, caplog):
        store = ResultStore(journal_dir, train_recon=False, check_interval=0.0)
        first = store.snapshot
        with (journal_dir / "journal.jsonl").open("ab") as handle:
            handle.write(self.BAD_LINE)  # a complete line, not a torn tail
        with caplog.at_level(logging.WARNING, logger="repro.serve.store"):
            assert store.maybe_reload() is first
            assert store.maybe_reload() is first
        (record,) = caplog.records
        assert "CheckpointError" in record.getMessage()
        assert record.getMessage().endswith("; still serving version 1")


class TestDamagedDirectory:
    """A damaged result directory ends in ``StoreError``, never a
    traceback or a 500.  The trace cases damage the last session in
    analysis order, so the build fails after analyzing all the others."""

    @pytest.fixture()
    def saved(self, seeded_study, tmp_path):
        directory = tmp_path / "study"
        seeded_study.dataset.save(directory)
        return directory

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_start_up_raises_store_error(self, saved, damage):
        DAMAGE[damage](saved)
        with pytest.raises(StoreError):
            ResultStore(saved, train_recon=False)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_serve_exits_with_one_line(self, saved, damage):
        DAMAGE[damage](saved)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--result", str(saved), "--no-recon", "--port", "0"])
        message = str(excinfo.value.code)
        assert message.startswith("repro serve: cannot load ")
        assert "\n" not in message

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_reload_keeps_previous_snapshot(self, saved, damage, caplog):
        store = ResultStore(saved, train_recon=False, check_interval=0.0)
        app = ServeApp(store)
        first = store.snapshot
        before = app.handle(Request(method="GET", path="/v1/services"))
        DAMAGE[damage](saved)
        if damage not in ("no-sessions", "duplicate-session"):
            _touch_manifest(saved)
        with caplog.at_level(logging.WARNING, logger="repro.serve.store"):
            for _ in range(3):  # the first request's reload fails; no retry
                after = app.handle(Request(method="GET", path="/v1/services"))
                assert after.status == 200
                assert after.body == before.body
        assert store.snapshot is first
        assert store.reloads == 0
        (record,) = caplog.records  # logged once, on one line
        assert record.getMessage().startswith(f"cannot load {saved}: ")
        assert record.getMessage().endswith("; still serving version 1")
        assert "\n" not in record.getMessage()
        with pytest.raises(StoreError):
            store.reload()  # an explicit reload still builds and raises

    def test_failed_reload_waits_for_the_source_to_change(
        self, saved, seeded_study, monkeypatch
    ):
        store = ResultStore(saved, train_recon=False, check_interval=0.0)
        first = store.snapshot
        _truncated_trace(saved)
        _touch_manifest(saved)
        with pytest.raises(StoreError):
            store.reload()
        decoded = []
        load = Trace.load.__func__

        def spy(cls, path):
            decoded.append(path)
            return load(cls, path)

        monkeypatch.setattr(Trace, "load", classmethod(spy))
        for _ in range(3):
            assert store.maybe_reload() is first
        assert decoded == []  # the damaged files are not decoded again
        seeded_study.dataset.save(saved)  # repaired: a new manifest
        repaired = store.maybe_reload()
        assert repaired is not first and store.reloads == 1
        assert repaired.etag == first.etag  # the same bytes as at start-up
        assert len(decoded) == len(read_manifest(saved))

    def test_analysis_failure_is_not_damage(self, saved, monkeypatch):
        """A bug in the analysis of an intact directory keeps its type
        and traceback, at start-up and on reload (where the server logs
        it as a 500), and a reload does not retry it."""
        store = ResultStore(saved, train_recon=False, check_interval=0.0)
        first = store.snapshot
        calls = []

        def broken(context, record):
            calls.append(record.key)
            raise TypeError("analysis bug")

        monkeypatch.setattr(tasks, "analyze", broken)
        with pytest.raises(ExecutorError, match="TypeError: analysis bug"):
            ResultStore(saved, train_recon=False)
        _touch_manifest(saved)
        with pytest.raises(ExecutorError):
            store.maybe_reload()
        assert store.maybe_reload() is first
        assert len(calls) == 2

    def test_serve_process_prints_no_traceback(self, saved):
        _truncated_trace(saved)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--result", str(saved),
             "--no-recon", "--port", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


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

    @pytest.mark.parametrize(
        "preferences",
        [
            b'{"tracker_aversion": NaN}',
            b'{"plaintext_aversion": Infinity}',
            b'{"tracker_aversion": 1e999}',
            b'{"weights": {"email": NaN}}',
        ],
    )
    def test_recommend_non_finite_preferences_are_400_and_not_cached(
        self, app, preferences
    ):
        """Python's ``json`` reads these non-JSON tokens as floats; none
        may reach scoring, where NaN compares false both ways."""
        response = post_recommend(app, b'{"preferences": ' + preferences + b"}")
        assert response.status == 400, response.body
        assert b"finite" in response.body or b"[0, 1]" in response.body
        assert len(app.cache) == 0
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

    def test_snapshot_carries_the_exposure_table(self, store):
        snapshot = store.snapshot
        assert snapshot.exposures == exposure_table(snapshot.study)
        assert len(snapshot.exposures) == len(snapshot.study.analyses())

    def test_uncached_recommends_read_no_leak_record(self, app, monkeypatch):
        """Scoring reads the snapshot's exposure table, never a leak."""
        reads = []
        for name in ("pii_type", "plaintext"):
            getter = getattr(LeakRecord, name).fget

            def spy(record, _getter=getter, _name=name):
                reads.append(_name)
                return _getter(record)

            monkeypatch.setattr(LeakRecord, name, property(spy))
        for weight in (0.1, 0.2, 0.3):
            for os_name in ("android", "ios"):
                response = post_recommend(
                    app,
                    {"os": os_name, "preferences": {"weights": {"email": weight}}},
                )
                assert response.status == 200
                assert response.headers["X-Cache"] == "miss"
        assert reads == []
        # The spy does see a walk over the leak records.
        cell = next(a for a in app.store.snapshot.study.analyses() if a.leaks)
        Exposure.of(cell)
        assert reads

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


class TestRenderOnce:
    """List and detail bodies are rendered once per snapshot."""

    PATHS = ("/v1/services", "/v1/services/weather")

    @pytest.mark.parametrize("path", PATHS)
    def test_memoized_bytes_equal_a_fresh_render(self, store, path):
        app = ServeApp(store)
        first = app.handle(Request(method="GET", path=path))
        second = app.handle(Request(method="GET", path=path))
        fresh = ServeApp(store).handle(Request(method="GET", path=path))
        assert first.status == second.status == 200
        assert second.body is first.body  # not rendered again
        assert first.body == fresh.body
        # Each request gets its own Response: _api stamps headers on it.
        assert second is not first and second.headers is not first.headers
        first.headers["X-Test"] = "1"
        assert "X-Test" not in app.handle(Request(method="GET", path=path)).headers

    @pytest.mark.parametrize("path", PATHS)
    def test_revalidation_and_unknown_slug_after_memo(self, store, path):
        app = ServeApp(store)
        etag = app.handle(Request(method="GET", path=path)).headers["ETag"]
        revalidation = app.handle(
            Request(method="GET", path=path, headers={"if-none-match": etag})
        )
        assert revalidation.status == 304 and revalidation.body == b""
        assert app.handle(Request(method="GET", path="/v1/services/nope")).status == 404
        assert app.handle(Request(method="GET", path="/v1/services/nope")).status == 404

    def test_reload_serves_the_new_snapshot(self, seeded_study, tmp_path):
        directory = tmp_path / "study"
        seeded_study.dataset.save(directory)
        store = ResultStore(directory, train_recon=False, check_interval=0.0)
        app = ServeApp(store)
        old = {path: app.handle(Request(method="GET", path=path)) for path in self.PATHS}

        smaller = run_study(
            services=_specs(("weather",)), seed=2016, duration=40.0, train_recon=False
        )
        smaller.dataset.save(directory)
        new = {path: app.handle(Request(method="GET", path=path)) for path in self.PATHS}
        snapshot = store.snapshot
        assert snapshot.version == 2
        for path in self.PATHS:
            fresh = ServeApp(store).handle(Request(method="GET", path=path))
            assert new[path].body == fresh.body != old[path].body
            assert new[path].headers["ETag"] == f'"{snapshot.etag}"'
            assert json.loads(new[path].body)["etag"] == snapshot.etag
        assert [s["service"] for s in json.loads(new["/v1/services"].body)["services"]] == [
            "weather"
        ]
        assert app.handle(Request(method="GET", path="/v1/services/cnn")).status == 404


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

    def test_awaited_dispatch_still_times_out(self, app):
        """A request whose awaited part outlasts ``request_timeout`` gets 503."""
        app.handler_delay = 0.5
        with BackgroundServer(app, request_timeout=0.05) as background:
            conn = _http(background)
            try:
                conn.request("POST", "/v1/recommend", body=b"{}")
                response = conn.getresponse()
                assert response.status == 503
                assert json.loads(response.read()) == {"error": "request timed out"}
            finally:
                conn.close()

    def test_only_awaited_dispatches_run_under_wait_for(
        self, result_dir, tmp_path, seeded_study, monkeypatch
    ):
        """Synchronous handlers run inline; an upload's executor hop is
        the one dispatch a timeout can interrupt."""
        from repro.ingest import IngestService
        from repro.net import codec

        calls = []
        wait_for = asyncio.wait_for

        def spy(awaitable, timeout):
            calls.append(timeout)
            return wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", spy)
        store = ResultStore(result_dir, train_recon=False, check_interval=0.0)
        ingest = IngestService(tmp_path / "ingest")  # no job threads: jobs queue
        app = ServeApp(store, ingest=ingest)
        upload = codec.frame(
            codec.KIND_BUNDLE, codec.encode_bundle(list(seeded_study.dataset)[:1])
        )
        with BackgroundServer(
            app, max_body_bytes=ingest.max_upload_bytes + 64 * 1024
        ) as background:
            conn = _http(background)
            try:
                reads = [
                    ("POST", "/v1/recommend", b'{"os": "ios"}'),
                    ("POST", "/v1/recommend", b'{"os": "ios"}'),
                    ("GET", "/v1/services/weather", None),
                    ("GET", "/v1/services", None),
                ]
                for method, path, body in reads:
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                assert calls == []
                for expected in (1, 2):
                    conn.request("POST", "/v1/traces", body=upload)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 202
                    assert len(calls) == expected
            finally:
                conn.close()
        ingest.shutdown(timeout=5.0)

    def test_rate_limited_over_http(self, store):
        app = ServeApp(store, limiter=RateLimiter(rate=0.5, burst=5))
        statuses = []
        with BackgroundServer(app) as background:
            conn = _http(background)
            try:
                for _ in range(10):
                    conn.request(
                        "POST", "/v1/recommend", body=b"{}",
                        headers={"X-Client-Id": "hammer"},
                    )
                    response = conn.getresponse()
                    response.read()
                    statuses.append(response.status)
            finally:
                conn.close()
        assert statuses.count(200) == 5
        assert statuses.count(429) == 5
