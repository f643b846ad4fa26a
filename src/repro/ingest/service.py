"""The ingest engine: uploads in, byte-pinned analysis results out.

:class:`IngestService` is the server's second execution engine — where
:mod:`repro.serve` otherwise reads precomputed results, this accepts a
codec-framed upload (a single session record or a bundle of them),
parks it durably in a :class:`~repro.ingest.jobs.JobStore`, fans the
per-record analysis onto a :mod:`repro.par` executor, and assembles the
final response with the exact same functions the offline pipeline uses.
The contract, pinned by ``tests/test_ingest.py`` and the QA oracle: the
result bytes for an uploaded dataset are identical to running
``analyze_dataset`` offline on the same records, for any worker count,
and across a kill/restart mid-job.

Admission is all-or-nothing.  An upload is decoded and validated
*before* any state is created — a malformed blob, unknown service, or
duplicate session key raises and leaves no trace — and capacity is
reserved on the :class:`~repro.ingest.queue.TenantQueue` before the
job store writes, so a rejected upload can never occupy disk and a
persisted job can never be over quota.

Draining (SIGTERM) is cooperative at record granularity: a worker
finishes the record in flight, parks the job (state back to ``queued``
with its per-record progress journaled), and exits; the next service
instance requeues parked jobs in submission order and skips the records
already analyzed.  Because each record's analysis is a pure function,
the resumed job's bytes match an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from typing import Dict, List, Optional

from ..core.pipeline import SessionAnalysis, StudyResult, assemble_study
from ..core.recommend import PrivacyPreferences, exposure_table
from ..experiment.dataset import OSES, APP, WEB
from ..net import codec
from ..net.codec import CodecError
from ..par import resolve_executor, tasks
from ..serve.app import canonical_json, recommend_payload
from ..serve.ratelimit import RateLimiter
from .jobs import Job, JobStore
from .queue import QueueFull, TenantQueue

DEFAULT_MAX_UPLOAD_BYTES = 8 * 1024 * 1024
DEFAULT_MAX_RECORDS = 512

#: Retry-After clamp (seconds) for 429/503 rejections.
MIN_RETRY_AFTER = 1
MAX_RETRY_AFTER = 60


class IngestError(Exception):
    """Invalid upload content (maps to 400; no job was registered)."""


class UploadTooLarge(IngestError):
    """Upload body over the configured cap (maps to 413)."""


class RateLimited(Exception):
    """Per-tenant submission rate exceeded (maps to 429)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__("tenant submission rate exceeded")
        self.retry_after = retry_after


class WorkerCrash(Exception):
    """Test/chaos hook: simulate a worker dying mid-job (no cleanup)."""


def decode_upload(body: bytes) -> list:
    """Decode a framed upload into its session records (strict).

    Accepts a framed ``KIND_RECORD`` (one session) or ``KIND_BUNDLE``
    (many); anything else — bare blobs included — is a
    :class:`CodecError`.  Strictness is what makes the 400 mapping
    total: a mutated byte either still decodes to a valid upload or
    fails here, before any job state exists.
    """
    if len(body) < codec.HEADER_SIZE or not codec.is_binary(body):
        raise CodecError("upload is not a codec-framed blob (bad magic)")
    kind = body[len(codec.MAGIC) + 1]
    if kind == codec.KIND_RECORD:
        return [codec.decode_record(codec.unframe(body, codec.KIND_RECORD, "<upload>"))]
    if kind == codec.KIND_BUNDLE:
        return codec.decode_bundle(codec.unframe(body, codec.KIND_BUNDLE, "<upload>"))
    raise CodecError(
        f"<upload>: payload kind {kind} is not uploadable "
        f"(expected record {codec.KIND_RECORD} or bundle {codec.KIND_BUNDLE})"
    )


def job_result_payload(job_id: str, etag: str, records: int, study: StudyResult) -> dict:
    """The completed-job response payload.

    ``analyses`` carries every cell's full analysis;
    ``recommendations`` reuses :func:`repro.serve.app.recommend_payload`
    under default preferences per OS present in the upload, with an
    empty inner etag — so extracting that section re-serializes to the
    exact bytes an offline ``repro recommend --json`` prints for the
    same study (the CI smoke diff).
    """
    analyses = {
        f"{a.service}|{a.os_name}|{a.medium}": a.to_dict() for a in study.analyses()
    }
    oses = sorted(
        {os_name for result in study.services for (os_name, _medium) in result.sessions}
    )
    exposures = exposure_table(study)
    recommendations = {
        os_name: recommend_payload(
            study, PrivacyPreferences(), os_name, etag="", exposures=exposures
        )
        for os_name in oses
    }
    return {
        "job": job_id,
        "etag": etag,
        "state": "done",
        "records": records,
        "analyses": analyses,
        "recommendations": recommendations,
    }


def partial_result_payload(job: Job, results: Dict[int, dict]) -> dict:
    """Incremental results for a queued/running job."""
    analyses = {}
    for payload in results.values():
        key = f"{payload.get('service')}|{payload.get('os_name')}|{payload.get('medium')}"
        analyses[key] = payload
    return {
        "job": job.job_id,
        "etag": job.etag,
        "state": job.state,
        "records": job.records,
        "done_records": len(results),
        "analyses": analyses,
    }


class IngestService:
    """Accepts uploads, runs them through the executor, serves results."""

    def __init__(
        self,
        root,
        executor=1,
        specs: Optional[list] = None,
        per_tenant: int = 8,
        max_queued: int = 64,
        tenant_rate: float = 0.0,
        tenant_burst: int = 0,
        max_upload_bytes: int = DEFAULT_MAX_UPLOAD_BYTES,
        max_records: int = DEFAULT_MAX_RECORDS,
        pace: float = 2.0,
        ttl_seconds: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.store = JobStore(root)
        self.queue = TenantQueue(per_tenant=per_tenant, total=max_queued)
        self.engine = resolve_executor(executor)
        self.max_upload_bytes = max_upload_bytes
        self.max_records = max_records
        #: Background-worker niceness: after each job a worker sleeps
        #: ``pace`` times the job's wall time (capped), bounding its GIL
        #: duty cycle to ~1/(1+pace) so interactive reads on the serving
        #: event loop keep latency priority over batch analysis.  Only
        #: the :meth:`start` worker loop paces; :meth:`run_pending`
        #: (tests, CLI one-shots) always runs flat out.
        self.pace = pace
        #: Job TTL in seconds (0 = keep forever): finished jobs older
        #: than this are pruned from disk by :meth:`sweep` — run
        #: opportunistically by the background worker loop between jobs.
        self.ttl_seconds = ttl_seconds
        self._last_sweep = 0.0
        self._clock = clock
        self.limiter = None
        if tenant_rate > 0:
            self.limiter = RateLimiter(
                rate=tenant_rate,
                burst=tenant_burst or max(1, int(tenant_rate)),
                clock=clock,
            )
        self._catalog = specs  # None = resolve lazily from the full catalog
        # One long-lived executor pool, opened on the first job and
        # closed by shutdown(): a fork per job would dominate job latency
        # and periodically stall the serving event loop.
        self._pool = None
        self._pool_scope = contextlib.ExitStack()
        # job_id -> decoded records, handed from admission to the worker
        # so the hot path decodes an upload once.  Entries are popped as
        # jobs are taken; recovery paths re-decode from the stored blob.
        self._hot: Dict[str, list] = {}
        self._threads: List[threading.Thread] = []
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._job_seconds = 0.0  # EWMA of wall seconds per completed job
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_parked = 0
        #: Chaos hook: raise :class:`WorkerCrash` after this many records
        #: of the *current* job have been analyzed (None = never).
        self.crash_after: Optional[int] = None
        for job in self.store.recover():
            self.queue.restore(job.tenant, job.job_id)

    # -- admission ---------------------------------------------------------

    def _spec_pool(self) -> list:
        if self._catalog is None:
            from ..services.catalog import build_catalog

            self._catalog = build_catalog()
        return self._catalog

    def _validate(self, records: list) -> None:
        if not records:
            raise IngestError("upload contains no session records")
        if len(records) > self.max_records:
            raise IngestError(
                f"upload has {len(records)} records (limit {self.max_records})"
            )
        known = {spec.slug for spec in self._spec_pool()}
        seen = set()
        for record in records:
            if record.service not in known:
                raise IngestError(f"unknown service {record.service!r}")
            if record.os_name not in OSES:
                raise IngestError(f"unknown os {record.os_name!r}")
            if record.medium not in (APP, WEB):
                raise IngestError(f"unknown medium {record.medium!r}")
            key = record.key
            if key in seen:
                raise IngestError(f"duplicate session {key}")
            seen.add(key)

    def submit(self, body: bytes, tenant: str = "local") -> Job:
        """Validate, durably register, and queue one upload.

        A saturated queue is checked *first*, before the size cap and
        the decode: shedding overload must cost near nothing, so a full
        queue answers 429/503 without paying to parse the body (an
        invalid upload sent while saturated is backpressured, not
        400'd).  With capacity available the order is decode/validate
        (400s), then rate limit (429), then the real reservation —
        persistence happens last, so no rejected upload ever leaves a
        partially-registered job behind.
        """
        self.queue.check(tenant)
        if len(body) > self.max_upload_bytes:
            raise UploadTooLarge(
                f"upload of {len(body)} bytes exceeds limit {self.max_upload_bytes}"
            )
        records = decode_upload(body)
        self._validate(records)
        if self.limiter is not None and not self.limiter.allow(tenant):
            raise RateLimited(self.limiter.retry_after(tenant))
        self.queue.reserve(tenant)
        try:
            job = self.store.create(tenant, body, len(records))
        except BaseException:
            self.queue.cancel(tenant)
            raise
        with self._lock:
            self._hot[job.job_id] = records
        self.queue.push(job.tenant, job.job_id)
        return job

    def retry_after(self) -> int:
        """Backpressure hint: EWMA job seconds x queue depth / workers."""
        with self._lock:
            per_job = self._job_seconds
        pending = max(1, self.queue.pending())
        workers = max(1, self.engine.workers)
        estimate = (per_job or 1.0) * pending / workers
        return max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, round(estimate)))

    # -- execution ---------------------------------------------------------

    def run_pending(self, max_jobs: Optional[int] = None) -> int:
        """Synchronously drain the queue (tests, oracle, CLI one-shots)."""
        done = 0
        while max_jobs is None or done < max_jobs:
            item = self.queue.take()
            if item is None:
                break
            self._process(item[0], item[1])
            done += 1
        return done

    def start(self, threads: int = 1) -> None:
        """Spawn background worker threads feeding off the queue.

        Worker coordination (upload decode, executor IPC, result
        assembly) is pure Python and competes with the serving event
        loop for the GIL.  At the default 5 ms switch interval one busy
        worker holds the GIL long enough to multiply sub-millisecond
        read latencies several-fold, so background workers drop the
        interval to 0.5 ms — bounding any single GIL slice and keeping
        read p50 within the bench-ingest interference budget.
        """
        sys.setswitchinterval(min(sys.getswitchinterval(), 0.0005))
        for index in range(threads):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-ingest-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def sweep(self) -> List[str]:
        """Prune finished jobs past :attr:`ttl_seconds`; swept job ids.

        A swept job's status and result answer 404 afterwards — the
        TTL is the retention contract, so expiry is indistinguishable
        from the job never having existed.  No-op when the TTL is 0.
        """
        if self.ttl_seconds <= 0:
            return []
        # No lock: only terminal jobs are eligible, and no worker ever
        # touches a done/failed job's directory again.
        return self.store.sweep(self.ttl_seconds)

    def _worker_loop(self) -> None:
        while True:
            if self._draining.is_set():
                return
            item = self.queue.take(timeout=0.1)
            if item is None:
                # Idle moment: at most one GC pass per TTL interval.
                if self.ttl_seconds > 0:
                    now = time.monotonic()
                    if now - self._last_sweep >= self.ttl_seconds:
                        self._last_sweep = now
                        self.sweep()
                continue
            started = time.monotonic()
            try:
                self._process(item[0], item[1])
            except WorkerCrash:
                return  # the simulated crash kills this worker thread
            if self.pace > 0:
                pause = min(self.pace * (time.monotonic() - started), 0.25)
                self._draining.wait(pause)  # wakes early on shutdown

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful drain: finish the record in flight, park, join."""
        self._draining.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
        with self._lock:
            self._pool = None
            self._pool_scope.close()  # waits out running records, reaps workers

    def _analyze_stream(self, records: list):
        """Per-record analyses for one job, streaming in record order,
        over the service's long-lived pool.  The pool's context is the
        *full* spec pool (``tasks.analyze`` resolves each record's spec
        by slug, so every job's subset is covered)."""
        with self._lock:
            if self._pool is None:
                context = tasks.AnalysisContext(self._spec_pool())
                self._pool = self._pool_scope.enter_context(self.engine.pool(context))
            pool = self._pool
        return pool.imap(tasks.analyze, records, window=2 * self.engine.workers)

    def _specs_for(self, records: list) -> list:
        slugs = {record.service for record in records}
        return [spec for spec in self._spec_pool() if spec.slug in slugs]

    def _process(self, tenant: str, job_id: str) -> None:
        job = self.store.load(job_id)
        if job is None or job.state in ("done", "failed"):
            return
        started = self._clock()
        try:
            job = self.store.transition(job, "running")
            with self._lock:
                records = self._hot.pop(job_id, None)
            if records is None:  # recovered or parked job: decode from disk
                records = decode_upload(self.store.upload_blob(job_id))
            specs = self._specs_for(records)
            existing = self.store.resume_results(job_id)
            todo = [
                (index, record)
                for index, record in enumerate(records)
                if index not in existing
            ]
            processed = 0
            analyses = self._analyze_stream([record for _index, record in todo])
            for (index, _record), analysis in zip(todo, analyses):
                self.store.append_result(job, index, analysis.to_dict())
                processed += 1
                if self.crash_after is not None and processed >= self.crash_after:
                    raise WorkerCrash(f"injected crash after {processed} record(s)")
                if self._draining.is_set() and processed < len(todo):
                    self.store.transition(job, "queued")
                    self.jobs_parked += 1
                    return
            self._finish(job, records, specs)
            elapsed = self._clock() - started
            with self._lock:
                self._job_seconds = (
                    elapsed
                    if self._job_seconds == 0.0
                    else 0.8 * self._job_seconds + 0.2 * elapsed
                )
                self.jobs_done += 1
        except WorkerCrash:
            raise  # leave the job 'running' with partial results, like a real crash
        except Exception as exc:
            if self._draining.is_set():
                # shutdown() cancels records still queued in the pool:
                # park the job for resume rather than failing it.
                self.store.transition(job, "queued")
                self.jobs_parked += 1
                return
            self.store.transition(job, "failed", error=f"{type(exc).__name__}: {exc}")
            with self._lock:
                self.jobs_failed += 1

    def _finish(self, job: Job, records: list, specs: list) -> None:
        # Reload every per-record analysis from the journal rather than
        # keeping them in memory: the resumed-after-crash path *must*
        # read from disk, so the uninterrupted path reads from disk too
        # and the two can never diverge.
        results = self.store.load_results(job.job_id)
        analyses = [SessionAnalysis.from_dict(results[i]) for i in range(len(records))]
        study = assemble_study(analyses, specs)
        payload = job_result_payload(job.job_id, job.etag, len(records), study)
        self.store.write_result(job, canonical_json(payload) + b"\n")
        self.store.transition(job, "done")

    # -- queries -----------------------------------------------------------

    def job_status(self, job_id: str) -> Optional[dict]:
        job = self.store.load(job_id)
        if job is None:
            return None
        status = job.to_dict()
        status["done_records"] = (
            job.records if job.state == "done" else len(self.store.load_results(job_id))
        )
        return status

    def stats(self) -> dict:
        with self._lock:
            done, failed, parked = self.jobs_done, self.jobs_failed, self.jobs_parked
        return {
            "queue": self.queue.stats(),
            "jobs_done": done,
            "jobs_failed": failed,
            "jobs_parked": parked,
            "executor": self.engine.name,
            "workers": self.engine.workers,
        }
