"""Crash-safe on-disk state for ingest analysis jobs.

Layout under the ingest root::

    journal.jsonl            append-only job transitions, in wall order
    jobs/<id>/upload.bin     the framed upload, exactly as received
    jobs/<id>/job.json       authoritative job state (atomic replace)
    jobs/<id>/results.jsonl  one line per analyzed record index
    jobs/<id>/result.json    final response bytes (atomic replace)

Durability follows the repo-wide discipline: every whole-file write
goes through :func:`repro.ioutil.atomic_write_bytes` (temp sibling +
``os.replace``), and both append-only files are read through
:func:`repro.ioutil.iter_jsonl` — a torn or garbage tail (the crash
left a partial line) is dropped, never propagated.  Each file's one
appender also cuts that tail off where it already reads the file, so
its next line never merges into the torn one: :class:`JobStore` opens
the job journal that way, and :meth:`JobStore.resume_results` is the
worker's read of ``results.jsonl`` before it resumes a job.  Appends
themselves never read.  The journal is the recovery index: replaying
it restores submission order so requeued jobs run in the sequence they
were accepted; ``job.json`` is the authoritative per-job state because
it is replaced atomically on every transition.  A job directory that
never made it into the journal (crash between the two writes) is still
recovered, ordered by its sequence number.

Re-running an interrupted job is safe by construction: analysis is a
pure function of the record, so a record index already present in
``results.jsonl`` is skipped on resume and the final assembled bytes
are identical whether the job ran once or was killed and resumed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..ioutil import atomic_write_bytes, atomic_write_json, iter_jsonl

JOB_STATES = ("queued", "running", "done", "failed")

#: etag length mirrors the result store's content ETags.
_ETAG_HEX = 16


class JobStoreError(Exception):
    """Raised on malformed job ids or unusable store state."""


@dataclass(frozen=True)
class Job:
    """One accepted upload (immutable snapshot of ``job.json``)."""

    job_id: str
    tenant: str
    state: str
    records: int
    etag: str
    seq: int
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "records": self.records,
            "etag": self.etag,
            "seq": self.seq,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            job_id=data["job"],
            tenant=data["tenant"],
            state=data["state"],
            records=int(data["records"]),
            etag=data["etag"],
            seq=int(data["seq"]),
            error=data.get("error", ""),
        )


class JobStore:
    """Directory-backed job persistence (thread-safe through atomicity).

    Callers serialize per-job transitions (one worker owns a job at a
    time); cross-job operations only touch the shared journal through
    appends of whole lines.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self._seq = 0
        for event in iter_jsonl(self.journal_path, truncate=True):
            try:
                self._seq = max(self._seq, int(event.get("seq", 0)))
            except (TypeError, ValueError):
                continue
        # A crash between job.json and the journal append can leave a
        # directory whose seq the journal never saw.
        for job in self._scan_jobs():
            self._seq = max(self._seq, job.seq)

    # -- paths -------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        if "/" in job_id or "\\" in job_id or job_id in (".", ".."):
            raise JobStoreError(f"invalid job id {job_id!r}")
        return self.jobs_dir / job_id

    # -- creation ----------------------------------------------------------

    def create(self, tenant: str, blob: bytes, records: int) -> Job:
        """Durably register a validated upload as a queued job."""
        self._seq += 1
        digest = hashlib.sha256(blob).hexdigest()
        job = Job(
            job_id=f"{self._seq:08d}-{digest[:12]}",
            tenant=tenant,
            state="queued",
            records=records,
            etag=digest[:_ETAG_HEX],
            seq=self._seq,
        )
        directory = self.job_dir(job.job_id)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(directory / "upload.bin", blob)
        atomic_write_json(directory / "job.json", job.to_dict())
        self._journal(job)
        return job

    def _journal(self, job: Job) -> None:
        line = json.dumps(
            {"seq": job.seq, "job": job.job_id, "tenant": job.tenant, "state": job.state},
            sort_keys=True,
        )
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- state -------------------------------------------------------------

    def load(self, job_id: str) -> Optional[Job]:
        try:
            path = self.job_dir(job_id) / "job.json"
        except JobStoreError:
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return Job.from_dict(data)
        except (OSError, ValueError, KeyError):
            return None

    def transition(self, job: Job, state: str, error: str = "") -> Job:
        if state not in JOB_STATES:
            raise JobStoreError(f"unknown job state {state!r}")
        updated = replace(job, state=state, error=error)
        atomic_write_json(self.job_dir(job.job_id) / "job.json", updated.to_dict())
        self._journal(updated)
        return updated

    # -- per-record results ------------------------------------------------

    def append_result(self, job: Job, index: int, analysis: dict) -> None:
        """Durably record one analyzed record (the resume unit)."""
        line = json.dumps({"index": index, "analysis": analysis}, sort_keys=True)
        path = self.job_dir(job.job_id) / "results.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_results(self, job_id: str) -> Dict[int, dict]:
        """Analyzed records so far, by index (torn tail dropped)."""
        return self._results(job_id, truncate=False)

    def resume_results(self, job_id: str) -> Dict[int, dict]:
        """:meth:`load_results` for the worker that owns the job: a torn
        tail is also cut off the file, so the appends that resume the
        job start on a fresh line.  Status readers, which may race a
        live append, use :meth:`load_results`."""
        return self._results(job_id, truncate=True)

    def _results(self, job_id: str, truncate: bool) -> Dict[int, dict]:
        path = self.job_dir(job_id) / "results.jsonl"
        return {
            int(event["index"]): event["analysis"]
            for event in iter_jsonl(path, truncate=truncate)
        }

    # -- payloads ----------------------------------------------------------

    def upload_blob(self, job_id: str) -> bytes:
        return (self.job_dir(job_id) / "upload.bin").read_bytes()

    def write_result(self, job: Job, body: bytes) -> None:
        atomic_write_bytes(self.job_dir(job.job_id) / "result.json", body)

    def result_bytes(self, job_id: str) -> Optional[bytes]:
        try:
            return (self.job_dir(job_id) / "result.json").read_bytes()
        except OSError:
            return None

    # -- garbage collection ------------------------------------------------

    def sweep(self, ttl: float, now: Optional[float] = None) -> List[str]:
        """Prune finished jobs older than ``ttl`` seconds; returns the
        swept job ids.

        Age is the ``job.json`` mtime — the file is atomically replaced
        on every transition, so it marks when the job last changed
        state.  Only terminal jobs (``done``/``failed``) are eligible:
        queued and running jobs are never swept, whatever their age.
        The whole job directory (upload blob, per-record results, final
        result bytes) is removed; the journal is untouched — recovery
        already tolerates journal entries whose directory is gone.
        """
        import shutil
        import time

        if ttl <= 0:
            return []
        cutoff = (time.time() if now is None else now) - ttl
        swept: List[str] = []
        for job in self._scan_jobs():
            if job.state not in ("done", "failed"):
                continue
            directory = self.job_dir(job.job_id)
            try:
                mtime = (directory / "job.json").stat().st_mtime
            except OSError:
                continue
            if mtime > cutoff:
                continue
            shutil.rmtree(directory, ignore_errors=True)
            swept.append(job.job_id)
        return swept

    # -- recovery ----------------------------------------------------------

    def _scan_jobs(self) -> List[Job]:
        jobs = []
        try:
            entries = sorted(self.jobs_dir.iterdir())
        except OSError:
            return jobs
        for entry in entries:
            job = self.load(entry.name)
            if job is not None:
                jobs.append(job)
        return jobs

    def recover(self) -> List[Job]:
        """Jobs accepted but not finished, in submission order.

        Each returned job has been reset to ``queued``; the caller
        requeues them.  Order comes from the journal first (tolerant of
        a torn tail), then any journal-less directories by sequence.
        """
        order: List[str] = []
        seen = set()
        for event in iter_jsonl(self.journal_path):
            job_id = event.get("job")
            if isinstance(job_id, str) and job_id not in seen:
                seen.add(job_id)
                order.append(job_id)
        extras = [job for job in self._scan_jobs() if job.job_id not in seen]
        recovered = []
        for job_id in order:
            job = self.load(job_id)
            if job is not None and job.state in ("queued", "running"):
                recovered.append(job)
        recovered.extend(
            job for job in sorted(extras, key=lambda j: j.seq)
            if job.state in ("queued", "running")
        )
        return [self.transition(job, "queued") for job in recovered]
