"""HTTP routing and handlers for the recommender service.

Transport-free by design: :meth:`ServeApp.handle` maps a parsed
:class:`Request` to a :class:`Response`, so the full API contract is
testable without sockets and the asyncio server in
:mod:`repro.serve.server` stays a thin byte shuffler.

Request path for the API routes: hot-reload check on the store (one
``os.stat`` amortized), per-client token bucket (429 on empty), then
the handler — which for ``POST /v1/recommend`` consults the
preference-keyed response cache before scoring.  Every response is
stamped with the store snapshot's content ETag; conditional GETs
(``If-None-Match``) short-circuit to 304.  ``GET /v1/services`` and
``GET /v1/services/{name}`` depend on the snapshot alone, so their
bodies are rendered once per snapshot (:class:`_SnapshotBodies`) and
each request wraps the memoized bytes in a fresh :class:`Response`.

Recommendation responses are built by :func:`recommend_payload` straight
from :mod:`repro.core.recommend` dataclasses, scored from the snapshot's
exposure table (built once per snapshot), and serialized with one
canonical ``json.dumps`` configuration — which is what makes the served
bytes reproducible against a direct library call (pinned in
``tests/test_serve.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.recommend import (
    PrivacyPreferences,
    Recommender,
    preferences_from_dict,
    preferences_key,
)
from ..experiment.dataset import OSES
from .cache import LruTtlCache
from .metrics import Registry
from .ratelimit import RateLimiter
from .store import ResultStore, StoreSnapshot

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body (a preference object is < 1 KiB).
MAX_BODY_BYTES = 64 * 1024


def canonical_json(payload) -> bytes:
    """The one serialization every response goes through.

    ``sort_keys`` + fixed separators make the bytes a pure function of
    the payload — the property both the response cache and the
    byte-identical acceptance test lean on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class Request:
    """One parsed HTTP request (transport-independent)."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)  # lower-cased names
    body: bytes = b""
    client: str = "local"

    @property
    def client_id(self) -> str:
        """Rate-limit identity: explicit header first, else peer address."""
        return self.headers.get("x-client-id", self.client)


@dataclass
class Response:
    status: int
    body: bytes = b""
    content_type: str = JSON_TYPE
    headers: dict = field(default_factory=dict)
    route: str = "other"  # normalized route label for metrics


def json_response(status: int, payload, route: str, headers: Optional[dict] = None) -> Response:
    return Response(
        status=status,
        body=canonical_json(payload) + b"\n",
        headers=dict(headers or {}),
        route=route,
    )


def error_response(status: int, message: str, route: str, headers: Optional[dict] = None) -> Response:
    return json_response(status, {"error": message}, route, headers)


def _summarize_cell(analysis) -> dict:
    """The per-cell detail ``GET /v1/services/{name}`` exposes."""
    plaintext_types = sorted({r.pii_type.value for r in analysis.leaks if r.plaintext})
    return {
        "flows_total": analysis.flows_total,
        "leak_types": sorted(t.value for t in analysis.leak_types),
        "leak_events": len(analysis.leaks),
        "plaintext_leak_types": plaintext_types,
        "leak_domains": sorted(analysis.leak_domains),
        "aa_domains": sorted(analysis.aa_domains),
        "aa_flows": analysis.aa_flows,
        "aa_bytes": analysis.aa_bytes,
        "third_party_domains": len(analysis.third_party_domains),
    }


def recommend_payload(
    study,
    preferences: PrivacyPreferences,
    os_name: str,
    services: Optional[list] = None,
    etag: str = "",
    exposures: Optional[dict] = None,
) -> dict:
    """Build the ``POST /v1/recommend`` response payload.

    Exposed at module level so a direct library caller produces the
    exact structure (and therefore, through :func:`canonical_json`, the
    exact bytes) the service returns.  ``exposures`` is the study's
    :func:`~repro.core.recommend.exposure_table` when the caller holds
    one; otherwise it is built here.
    """
    recommender = Recommender(study, preferences, exposures)
    if services:
        results = [study.by_slug(slug) for slug in services]
    else:
        results = study.services
    recommendations = []
    summary = {"app": 0, "web": 0, "either": 0}
    for result in results:
        recommendation = recommender.recommend_service(result, os_name)
        if recommendation is None:
            continue
        recommendations.append(recommendation.to_dict())
        summary[recommendation.choice] += 1
    return {
        "etag": etag,
        "os": os_name,
        "recommendations": recommendations,
        "summary": summary,
    }


def _services_body(snapshot: StoreSnapshot) -> bytes:
    """The ``GET /v1/services`` body for one snapshot."""
    services = []
    for result in snapshot.study.services:
        spec = result.spec
        services.append(
            {
                "service": spec.slug,
                "name": spec.name,
                "category": spec.category,
                "rank": spec.rank,
                "oses": sorted({os_name for os_name, _ in result.sessions}),
                "leaks_via_app": result.leaked_via("app"),
                "leaks_via_web": result.leaked_via("web"),
            }
        )
    return canonical_json({"etag": snapshot.etag, "services": services}) + b"\n"


def _detail_body(snapshot: StoreSnapshot, result) -> bytes:
    """The ``GET /v1/services/{name}`` body for one service of a snapshot."""
    cells = {
        f"{os_name}/{medium}": _summarize_cell(analysis)
        for (os_name, medium), analysis in sorted(result.sessions.items())
    }
    payload = {
        "etag": snapshot.etag,
        "service": result.spec.slug,
        "name": result.spec.name,
        "category": result.spec.category,
        "rank": result.spec.rank,
        "cells": cells,
    }
    return canonical_json(payload) + b"\n"


class _SnapshotBodies:
    """List and detail bodies of one snapshot, each rendered on first use.

    Tied to the snapshot object itself: a request compares it by
    identity with the snapshot it already holds, so a reload can never
    hand out bytes rendered from another snapshot.
    """

    __slots__ = ("snapshot", "services", "details")

    def __init__(self, snapshot: StoreSnapshot) -> None:
        self.snapshot = snapshot
        self.services: Optional[bytes] = None
        self.details: dict = {}  # slug -> body; known slugs only


class ServeApp:
    """Routes requests over one :class:`ResultStore`."""

    def __init__(
        self,
        store: ResultStore,
        cache: Optional[LruTtlCache] = None,
        limiter: Optional[RateLimiter] = None,
        registry: Optional[Registry] = None,
        ingest=None,
        clock=time.monotonic,
    ) -> None:
        self.store = store
        self.cache = cache if cache is not None else LruTtlCache()
        self.limiter = limiter  # None = rate limiting disabled
        self.ingest = ingest  # None = upload path disabled (read-only server)
        self.registry = registry if registry is not None else Registry()
        self._clock = clock
        self._started_at = clock()
        #: Test/ops hook: artificial per-request latency (seconds) the
        #: asyncio server awaits before dispatch — lets drain and
        #: timeout behavior be exercised deterministically.
        self.handler_delay = 0.0
        self._bodies: Optional[_SnapshotBodies] = None

        reg = self.registry
        self.requests_total = reg.counter(
            "repro_serve_requests_total", "Requests handled", ("route", "status")
        )
        self.request_seconds = reg.histogram(
            "repro_serve_request_seconds", "Request latency by route", ("route",)
        )
        self.cache_hits_total = reg.counter(
            "repro_serve_cache_hits_total", "Recommendation cache hits"
        )
        self.cache_misses_total = reg.counter(
            "repro_serve_cache_misses_total", "Recommendation cache misses"
        )
        self.ratelimit_dropped_total = reg.counter(
            "repro_serve_ratelimit_dropped_total", "Requests rejected with 429"
        )
        self.inflight = reg.gauge(
            "repro_serve_inflight_requests", "Requests currently being served"
        )
        self.cache_size = reg.gauge(
            "repro_serve_cache_entries", "Live recommendation cache entries"
        )
        self.store_version = reg.gauge(
            "repro_serve_store_version", "Result store snapshot version"
        )
        self.store_reloads = reg.gauge(
            "repro_serve_store_reloads_total", "Successful store hot reloads"
        )
        self.ingest_accepted_total = reg.counter(
            "repro_serve_ingest_accepted_total", "Uploads accepted as jobs"
        )
        self.ingest_rejected_total = reg.counter(
            "repro_serve_ingest_rejected_total", "Uploads rejected", ("reason",)
        )

    # -- dispatch ----------------------------------------------------------

    def blocking(self, request: Request) -> bool:
        """True when a request's handler does real work (decode + fsync)
        and the server should dispatch it off the event loop."""
        return (
            self.ingest is not None
            and request.method == "POST"
            and request.path.split("?", 1)[0] == "/v1/traces"
        )

    def handle(self, request: Request) -> Response:
        response = self._route(request)
        self.requests_total.inc(labels=(response.route, str(response.status)))
        return response

    def _route(self, request: Request) -> Response:
        path = request.path.split("?", 1)[0]
        if path == "/healthz":
            return self._only(request, "GET", "/healthz", self._handle_healthz)
        if path == "/metrics":
            return self._only(request, "GET", "/metrics", self._handle_metrics)
        if path == "/v1/services":
            return self._api(request, "GET", "/v1/services", self._handle_services)
        if path.startswith("/v1/services/"):
            slug = path[len("/v1/services/") :]
            return self._api(
                request,
                "GET",
                "/v1/services/{name}",
                lambda req, snap: self._handle_service_detail(req, snap, slug),
            )
        if path == "/v1/recommend":
            return self._api(request, "POST", "/v1/recommend", self._handle_recommend)
        if path == "/v1/traces":
            return self._ingest_api(request, "POST", "/v1/traces", self._handle_upload)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/result") and "/" not in rest[: -len("/result")]:
                job_id = rest[: -len("/result")]
                return self._ingest_api(
                    request,
                    "GET",
                    "/v1/jobs/{id}/result",
                    lambda req: self._handle_job_result(req, job_id),
                )
            if rest and "/" not in rest:
                return self._ingest_api(
                    request,
                    "GET",
                    "/v1/jobs/{id}",
                    lambda req: self._handle_job_status(req, rest),
                )
        return error_response(404, f"no route for {path}", "other")

    def _ingest_api(self, request: Request, method: str, route: str, handler) -> Response:
        """Ingest path: method check + rate limit, no store snapshot.

        Job responses are versioned by the *job's* content ETag, not
        the result store's — an upload's result does not change when
        the precomputed store hot-reloads.
        """
        if self.ingest is None:
            return error_response(404, "ingest is disabled on this server", route)
        if request.method != method:
            return error_response(
                405, f"{route} supports {method} only", route, {"Allow": method}
            )
        if self.limiter is not None and not self.limiter.allow(request.client_id):
            self.ratelimit_dropped_total.inc()
            retry_after = max(1, round(self.limiter.retry_after(request.client_id)))
            return error_response(
                429, "rate limit exceeded", route, {"Retry-After": str(retry_after)}
            )
        return handler(request)

    def _only(self, request: Request, method: str, route: str, handler) -> Response:
        if request.method != method:
            return error_response(
                405, f"{route} supports {method} only", route, {"Allow": method}
            )
        return handler(request)

    def _api(self, request: Request, method: str, route: str, handler) -> Response:
        """Common API path: method check, hot reload, rate limit, ETag."""
        if request.method != method:
            return error_response(
                405, f"{route} supports {method} only", route, {"Allow": method}
            )
        if self.limiter is not None and not self.limiter.allow(request.client_id):
            self.ratelimit_dropped_total.inc()
            retry_after = max(1, round(self.limiter.retry_after(request.client_id)))
            return error_response(
                429, "rate limit exceeded", route, {"Retry-After": str(retry_after)}
            )
        snapshot = self.store.maybe_reload()
        etag = f'"{snapshot.etag}"'
        if method == "GET":
            if_none_match = request.headers.get("if-none-match", "")
            if etag in {tag.strip() for tag in if_none_match.split(",")}:
                response = Response(status=304, route=route, headers={"ETag": etag})
                return response
        response = handler(request, snapshot)
        response.headers.setdefault("ETag", etag)
        return response

    # -- handlers ----------------------------------------------------------

    def _handle_healthz(self, request: Request) -> Response:
        snapshot = self.store.maybe_reload()
        payload = {
            "status": "ok",
            "etag": snapshot.etag,
            "source": snapshot.source,
            "store_version": snapshot.version,
            "services": snapshot.service_count,
            "uptime_seconds": round(self._clock() - self._started_at, 3),
        }
        return json_response(200, payload, "/healthz", {"ETag": f'"{snapshot.etag}"'})

    def _handle_metrics(self, request: Request) -> Response:
        # Pull-style gauges are refreshed at scrape time.
        self.cache_size.set(len(self.cache))
        self.store_version.set(self.store.snapshot.version)
        self.store_reloads.set(self.store.reloads)
        cache_stats = self.cache.stats()
        self.cache_hits_total_sync(cache_stats)
        return Response(
            status=200,
            body=self.registry.render().encode("utf-8"),
            content_type=METRICS_TYPE,
            route="/metrics",
        )

    def cache_hits_total_sync(self, cache_stats: dict) -> None:
        """Mirror the cache's own counters into the exposition.

        The cache counts internally (it is also used without an app, by
        unit tests and the CLI); the exposition shows the cache's totals
        rather than double-counting on the request path.
        """
        current_hits = self.cache_hits_total.value()
        current_misses = self.cache_misses_total.value()
        self.cache_hits_total.inc(cache_stats["hits"] - current_hits)
        self.cache_misses_total.inc(cache_stats["misses"] - current_misses)

    def _bodies_for(self, snapshot: StoreSnapshot) -> _SnapshotBodies:
        bodies = self._bodies
        if bodies is None or bodies.snapshot is not snapshot:
            bodies = self._bodies = _SnapshotBodies(snapshot)
        return bodies

    def _handle_services(self, request: Request, snapshot: StoreSnapshot) -> Response:
        bodies = self._bodies_for(snapshot)
        if bodies.services is None:
            bodies.services = _services_body(snapshot)
        return Response(status=200, body=bodies.services, route="/v1/services")

    def _handle_service_detail(
        self, request: Request, snapshot: StoreSnapshot, slug: str
    ) -> Response:
        route = "/v1/services/{name}"
        bodies = self._bodies_for(snapshot)
        body = bodies.details.get(slug)
        if body is None:
            try:
                result = snapshot.study.by_slug(slug)
            except KeyError:
                return error_response(404, f"unknown service {slug!r}", route)
            body = bodies.details[slug] = _detail_body(snapshot, result)
        return Response(status=200, body=body, route=route)

    def _handle_recommend(self, request: Request, snapshot: StoreSnapshot) -> Response:
        route = "/v1/recommend"
        if len(request.body) > MAX_BODY_BYTES:
            return error_response(413, "request body too large", route)
        try:
            data = json.loads(request.body.decode("utf-8")) if request.body.strip() else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, f"invalid JSON body: {exc}", route)
        if not isinstance(data, dict):
            return error_response(400, "body must be a JSON object", route)
        unknown = sorted(set(data) - {"os", "services", "preferences"})
        if unknown:
            return error_response(400, f"unknown field(s): {', '.join(unknown)}", route)

        os_name = data.get("os", "android")
        if os_name not in OSES:
            return error_response(
                400, f"unknown os {os_name!r} (valid: {', '.join(OSES)})", route
            )
        services = data.get("services")
        if services is not None:
            if not isinstance(services, list) or not all(
                isinstance(s, str) for s in services
            ):
                return error_response(400, "'services' must be a list of slugs", route)
            known = {result.spec.slug for result in snapshot.study.services}
            missing = sorted(set(services) - known)
            if missing:
                return error_response(
                    400, f"unknown service(s): {', '.join(missing)}", route
                )
        try:
            preferences = preferences_from_dict(data.get("preferences") or {})
        except ValueError as exc:
            return error_response(400, str(exc), route)

        cache_key = (
            snapshot.etag,
            os_name,
            tuple(services) if services else None,
            preferences_key(preferences),
        )
        body = self.cache.get(cache_key)
        cache_state = "hit"
        if body is None:
            cache_state = "miss"
            payload = recommend_payload(
                snapshot.study,
                preferences,
                os_name,
                services,
                etag=snapshot.etag,
                exposures=snapshot.exposures,
            )
            body = canonical_json(payload) + b"\n"
            self.cache.put(cache_key, body)
        return Response(
            status=200,
            body=body,
            route=route,
            headers={"X-Cache": cache_state},
        )

    # -- ingest handlers ---------------------------------------------------

    def _handle_upload(self, request: Request) -> Response:
        # Imported here, not at module top: repro.ingest.service imports
        # this module for canonical_json/recommend_payload.
        from ..ingest import IngestError, QueueFull, RateLimited, UploadTooLarge
        from ..net.codec import CodecError

        route = "/v1/traces"
        ingest = self.ingest
        if len(request.body) > ingest.max_upload_bytes:
            self.ingest_rejected_total.inc(labels=("too_large",))
            return error_response(
                413,
                f"upload of {len(request.body)} bytes exceeds "
                f"limit {ingest.max_upload_bytes}",
                route,
            )
        try:
            job = ingest.submit(request.body, tenant=request.client_id)
        except UploadTooLarge as exc:
            self.ingest_rejected_total.inc(labels=("too_large",))
            return error_response(413, str(exc), route)
        except (CodecError, IngestError) as exc:
            self.ingest_rejected_total.inc(labels=("invalid",))
            return error_response(400, str(exc), route)
        except RateLimited as exc:
            self.ingest_rejected_total.inc(labels=("rate",))
            retry_after = max(1, round(exc.retry_after))
            return error_response(
                429, str(exc), route, {"Retry-After": str(retry_after)}
            )
        except QueueFull as exc:
            scope = exc.scope
            self.ingest_rejected_total.inc(labels=(f"queue_{scope}",))
            status = 429 if scope == "tenant" else 503
            return error_response(
                status, str(exc), route, {"Retry-After": str(ingest.retry_after())}
            )
        self.ingest_accepted_total.inc()
        payload = {
            "job": job.job_id,
            "state": job.state,
            "tenant": job.tenant,
            "records": job.records,
            "etag": job.etag,
        }
        return json_response(
            202, payload, route, {"Location": f"/v1/jobs/{job.job_id}"}
        )

    def _handle_job_status(self, request: Request, job_id: str) -> Response:
        route = "/v1/jobs/{id}"
        status = self.ingest.job_status(job_id)
        if status is None:
            return error_response(404, f"unknown job {job_id!r}", route)
        return json_response(200, status, route)

    def _handle_job_result(self, request: Request, job_id: str) -> Response:
        from ..ingest import partial_result_payload

        route = "/v1/jobs/{id}/result"
        ingest = self.ingest
        job = ingest.store.load(job_id)
        if job is None:
            return error_response(404, f"unknown job {job_id!r}", route)
        if job.state == "failed":
            return error_response(409, f"job failed: {job.error}", route)
        if job.state != "done":
            # Incremental results; no ETag while the body is still moving.
            payload = partial_result_payload(job, ingest.store.load_results(job_id))
            return json_response(200, payload, route)
        etag = f'"{job.etag}"'
        if_none_match = request.headers.get("if-none-match", "")
        if etag in {tag.strip() for tag in if_none_match.split(",")}:
            return Response(status=304, route=route, headers={"ETag": etag})
        cache_key = ("job", job_id, job.etag)
        body = self.cache.get(cache_key)
        cache_state = "hit"
        if body is None:
            cache_state = "miss"
            body = ingest.store.result_bytes(job_id)
            if body is None:
                return error_response(503, "result not yet durable; retry", route)
            self.cache.put(cache_key, body)
        return Response(
            status=200,
            body=body,
            route=route,
            headers={"ETag": etag, "X-Cache": cache_state},
        )
