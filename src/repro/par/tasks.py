"""The named tasks a :mod:`repro.par` pool runs.

Each task is a module-level function ``task(context, item)`` over live
objects: the two per-session pipeline stages (analyze and ReCon
labeling), the columnar kernel, a timed campaign chunk, and the
campaign tree merge.  The streaming finalizer has no task of its own:
with ReCon on it replays its journal through ``analyze_dataset``, so
it runs ``label`` and ``analyze`` like the batch pipeline.  A
one-worker executor calls them in-process exactly as written.

A process pool can only ship module-level callables and plain data, so
each task also carries a :class:`Wire` — how the coordinator encodes an
item, how a worker decodes it, and how the result crosses back:

- session records travel in the compact binary form from
  :mod:`repro.net.codec` (one ``bytes`` object, far cheaper to pickle
  than the object graph);
- results return as the JSON-safe dict forms the streaming checkpoints
  already pin round-trip-faithful, or as exact KIND_CAGG blobs for
  campaign partials, so merging shipped partials in the parent stays
  bit-identical to an in-process reduction;
- the *context* a task needs (service specs and the trained ReCon
  classifier, or the bound campaign context) is installed once per
  worker by the initializer :func:`pool_initializer` picks — under the
  ``fork`` start method it is inherited without any serialization.

Worker-side caches (matcher, categorizer, decode memos) warm up
per-process and are reused across that worker's tasks.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from ..net import codec

#: The context this pool worker was initialized with (unused in-process).
_WORKER = {"context": None}


def _same(value):
    return value


class Wire(NamedTuple):
    """How one task's items and results cross the process boundary."""

    send: Callable = _same  # coordinator: item -> picklable payload
    receive: Callable = _same  # worker: payload -> item
    reply: Callable = _same  # worker: result -> picklable payload
    accept: Callable = _same  # coordinator: payload -> result
    describe: Optional[Callable] = None  # item -> name in failure messages


def _task(**wire):
    def register(fn):
        fn.wire = Wire(**wire)
        return fn

    return register


class AnalysisContext:
    """What the per-session tasks read: service specs by slug and the
    trained ReCon classifier (``None`` for matching only)."""

    def __init__(self, specs, recon=None) -> None:
        self.specs = list(specs)
        self.recon = recon
        self.by_slug = {spec.slug: spec for spec in self.specs}


def init_worker(specs: list, recon) -> None:
    """Pool initializer: install the per-worker analysis context."""
    _WORKER["context"] = AnalysisContext(specs, recon)


def init_campaign(specs: list, config: dict) -> None:
    """Pool initializer for campaign chunks: rebuild the bound context
    (sampler + specs) once per worker.  ``config`` is the
    JSON-safe :meth:`CampaignContext.config` dict, so fork and spawn
    workers construct identical contexts."""
    from ..campaign.engine import CampaignContext

    _WORKER["context"] = CampaignContext.from_config(specs, config)


def pool_initializer(context) -> tuple:
    """``(initializer, initargs)`` that rebuild ``context`` in a worker.

    The initializers are looked up when a pool starts, not at import.
    """
    if context is None:
        return None, ()
    if isinstance(context, AnalysisContext):
        return init_worker, (context.specs, context.recon)
    return init_campaign, (context.services, context.config())


def run_shipped(task, payload):
    """Worker side of a process pool: decode, run, encode."""
    wire = task.wire
    return wire.reply(task(_WORKER["context"], wire.receive(payload)))


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------


def _session_name(record) -> str:
    return "session " + "/".join(record.key)


def _to_dict(result) -> dict:
    return result.to_dict()


_RECORDS = dict(
    send=codec.encode_record, receive=codec.decode_record, describe=_session_name
)


def _analysis_from_dict(payload: dict):
    from ..core.pipeline import SessionAnalysis

    return SessionAnalysis.from_dict(payload)


def _aggregate_from_dict(payload: dict):
    from ..analysis.columnar import StudyAggregate

    return StudyAggregate.from_dict(payload)


def _chunk_to_blob(result) -> tuple:
    elapsed, partial = result
    return elapsed, codec.encode_campaign(partial)


def _chunk_from_blob(payload) -> tuple:
    elapsed, blob = payload
    return elapsed, codec.decode_campaign(blob)


def _shard_name(shard_range) -> str:
    start, stop = shard_range
    return f"campaign shard [{start}, {stop})"


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@_task(**_RECORDS, reply=_to_dict, accept=_analysis_from_dict)
def analyze(context: AnalysisContext, record):
    """Full per-session analysis -> ``SessionAnalysis``."""
    from ..core.pipeline import analyze_session

    spec = context.by_slug[record.service]
    return analyze_session(record, spec, recon=context.recon)


@_task(**_RECORDS)
def label(context, record) -> list:
    """ReCon labeling -> the session's ``TrainingExample`` list."""
    from ..core.pipeline import label_record

    return label_record(record)


@_task(reply=_to_dict, accept=_aggregate_from_dict)
def aggregate(context, blob: bytes):
    """Columnar kernel over one self-contained batch blob ->
    ``StudyAggregate`` (exact partials, so merges stay bit-identical)."""
    from ..analysis.columnar import aggregate_blob

    return aggregate_blob(blob)


@_task(reply=_chunk_to_blob, accept=_chunk_from_blob, describe=_shard_name)
def campaign_chunk(context, shard_range) -> tuple:
    """Simulate one contiguous user range ->
    ``(elapsed_seconds, CampaignAggregate)``.  The wall time is measured
    where the work runs, so the adaptive planner's feedback loop sees
    pure simulation cost, not queueing delay."""
    start, stop = shard_range
    began = time.perf_counter()
    partial = context.run_shard(start, stop)
    return time.perf_counter() - began, partial


@_task()
def merge(context, blobs: list) -> bytes:
    """Tree-reduction step: fold a window of KIND_CAGG blobs (in the
    given order) into one merged blob.  Context-free and exact, so a
    tree of these merges is bit-identical to a serial left fold."""
    from ..campaign.engine import merge_campaigns

    return codec.encode_campaign(
        merge_campaigns(codec.decode_campaign(blob) for blob in blobs)
    )
