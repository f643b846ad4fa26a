"""Production serving layer: the paper's recommender as a live service.

The deliverable end users actually touched was the interactive
app-vs-web recommender (https://recon.meddle.mobi/appvsweb/); this
package is that deployment surface for the reproduction.  It serves
precomputed study results — a saved dataset or a capture's flow
journal — over a dependency-free asyncio HTTP API:

========================  ====================================================
``GET /healthz``          liveness + store version/ETag
``GET /metrics``          Prometheus text exposition
``GET /v1/services``      the studied services and where they leak
``GET /v1/services/{s}``  per-cell (OS x medium) leak and A&A detail
``POST /v1/recommend``    app-or-web verdicts under caller preferences
``POST /v1/traces``       upload a codec-framed trace bundle for analysis
``GET /v1/jobs/{id}``     ingest job state + progress
``GET /v1/jobs/{id}/result``  incremental or final job results (ETagged)
========================  ====================================================

The three job routes exist when the server is started with an
:class:`repro.ingest.IngestService` (``repro serve --ingest-dir``); see
:mod:`repro.ingest` for the upload data plane.

Layering (see DESIGN §5d): :class:`ResultStore` (versioned, hot-
reloading study snapshots) → :class:`LruTtlCache` (preference-keyed
response bytes) → :class:`ServeApp` (routing/handlers, 429s via
:class:`RateLimiter`) → :class:`ServeServer` (asyncio lifecycle,
bounded concurrency, graceful drain).
"""

from .app import Request, Response, ServeApp, canonical_json, recommend_payload
from .cache import LruTtlCache
from .metrics import Counter, Gauge, Histogram, Registry
from .ratelimit import RateLimiter
from .server import BackgroundServer, ServeServer
from .store import ResultStore, StoreError, StoreSnapshot

__all__ = [
    "BackgroundServer",
    "Counter",
    "Gauge",
    "Histogram",
    "LruTtlCache",
    "RateLimiter",
    "Registry",
    "Request",
    "Response",
    "ResultStore",
    "ServeApp",
    "ServeServer",
    "StoreError",
    "StoreSnapshot",
    "canonical_json",
    "recommend_payload",
]
