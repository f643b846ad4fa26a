"""Analysis-as-a-service: trace uploads through the serving layer.

The serving layer (:mod:`repro.serve`) reads precomputed results; this
package is the write path that turns it into a multi-tenant analysis
service — the deployment shape of ReCon's user-facing analyzer and
PrivacyProxy's crowdsourced upload model.  ``POST /v1/traces`` accepts
a codec-framed session record or bundle, admission is bounded per
tenant with reject-not-block backpressure, jobs persist crash-safely,
analysis fans out on a :mod:`repro.par` executor, and the completed
result's bytes are pinned identical to the offline pipeline on the same
records (see DESIGN §5j).

========================   ==================================================
``POST /v1/traces``        upload a framed record/bundle -> 202 + job id
``GET /v1/jobs/{id}``      job state + per-record progress
``GET /v1/jobs/{id}/result``  incremental results, or the final bytes + ETag
========================   ==================================================
"""

from .jobs import Job, JobStore, JobStoreError
from .queue import QueueFull, TenantQueue
from .service import (
    IngestError,
    IngestService,
    RateLimited,
    UploadTooLarge,
    WorkerCrash,
    decode_upload,
    job_result_payload,
    partial_result_payload,
)

__all__ = [
    "IngestError",
    "IngestService",
    "Job",
    "JobStore",
    "JobStoreError",
    "QueueFull",
    "RateLimited",
    "TenantQueue",
    "UploadTooLarge",
    "WorkerCrash",
    "decode_upload",
    "job_result_payload",
    "partial_result_payload",
]
