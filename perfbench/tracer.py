"""Span tracing for the traced benchmark run, installed from outside.

:func:`install` wraps the public methods at each layer boundary of
``repro`` in the process that calls it: class attributes where the
boundary is a method, and every module that imported a boundary
function by name (patching only the defining module would miss those
callers).  A wrapper records one span per call -- name, start, end,
parent span, and a few counts taken from the arguments or the result --
into memory; :meth:`Tracer.dump` writes them as JSON when the process
ends.  Nothing under ``src/`` is changed.

:func:`summarize` folds the span files of one run (the main process,
forked pool workers, or the server) into the per-layer metrics listed
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

#: ``Response.route`` label -> per-layer route name.
ROUTES = {
    "/v1/recommend": "recommend",
    "/v1/services/{name}": "detail",
    "/v1/services": "list",
    "/v1/traces": "upload",
    "/v1/jobs/{id}": "job",
    "/v1/jobs/{id}/result": "job",
}
ROUTE_NAMES = ("recommend", "detail", "list", "upload", "job")

#: Per-layer metrics and units, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("experiment.sessions", "count"),
    ("experiment.session_s", "s"),
    ("services.worlds", "count"),
    ("services.world_build_s", "s"),
    ("proxy.flows", "count"),
    ("pii.recon.examples", "count"),
    ("pii.recon.fit_s", "s"),
    ("pii.label_s", "s"),
    ("pii.recon.predictions", "count"),
    ("pii.recon.predict_s", "s"),
    ("pii.recon.false_positives", "count"),
    ("pii.matcher.builds", "count"),
    ("pii.matcher.build_s", "s"),
    ("pii.detector.transactions", "count"),
    ("pii.detector.scan_s", "s"),
    ("trackerdb.flows", "count"),
    ("trackerdb.categorize_s", "s"),
    ("core.leaks.observations", "count"),
    ("core.leaks.leaks", "count"),
    ("core.leaks.classify_s", "s"),
]
PER_LAYER += [(f"serve.requests.{route}", "count") for route in ROUTE_NAMES]
PER_LAYER += [(f"serve.handle_s.{route}", "s") for route in ROUTE_NAMES]
PER_LAYER += [
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("core.recommend.calls", "count"),
    ("core.recommend_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.store_build_s", "s"),
    ("experiment.dataset_load_s", "s"),
    ("ingest.jobs", "count"),
    ("ingest.submit_s", "s"),
    ("ingest.queue_wait_s", "s"),
    ("ingest.job_s", "s"),
    ("ingest.journal_s", "s"),
    ("ingest.rejected", "count"),
    ("par.pool_start_s", "s"),
    ("par.chunks", "count"),
    ("par.worker_busy_s", "s"),
    ("par.wait_s", "s"),
    ("campaign.merge_s", "s"),
    ("net.codec.cagg_decode_s", "s"),
    ("net.codec.cagg_bytes", "bytes"),
    ("analysis.tables_s", "s"),
    ("analysis.columnar.fold_s", "s"),
    ("trace.spans", "count"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget spans inherited from the parent (forked workers)."""
        self.spans = []
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call.

        A span is ``(id, parent id, name, start, end, attrs, thread CPU
        seconds)``; ``attrs(args, kwargs, result)`` returns the dict
        stored with it, and a call that raises gets ``{"error": 1}``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            extra = {"error": 1}
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                extra = attrs(args, kwargs, result) if attrs is not None else None
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, extra, cpu))

        return traced

    def dump(self) -> Path:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        return path


def _patch(tracer: Tracer, owner, attr: str, name: str, attrs=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, attrs)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__, attrs)))
    else:
        setattr(owner, attr, tracer.wrap(name, raw, attrs))


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import multiprocessing.util

    from repro.analysis import columnar, tables
    from repro.campaign import engine as campaign_engine
    from repro.core import pipeline
    from repro.core.leaks import LeakPolicy
    from repro.core.recommend import Recommender
    from repro.experiment.dataset import Dataset
    from repro.experiment.runner import ExperimentRunner
    from repro.ingest.jobs import JobStore
    from repro.ingest.service import IngestService
    from repro.net import codec
    from repro.par import executor, tasks
    from repro.pii.detector import PiiDetector
    from repro.pii.matcher import GroundTruthMatcher
    from repro.pii.recon import ReconClassifier
    from repro.serve.app import ServeApp
    from repro.serve.store import ResultStore
    from repro.services import world
    from repro.trackerdb.categorize import Categorizer

    def session_attrs(args, kwargs, record):
        return {"flows": len(record.trace)}

    def scan_attrs(args, kwargs, report):
        return {
            "transactions": sum(len(flow.transactions) for flow in args[1]),
            "false_positives": report.recon_false_positives,
        }

    def classify_attrs(args, kwargs, leaks):
        return {"observations": _sized(args[1]), "leaks": len(leaks)}

    def handle_attrs(args, kwargs, response):
        out = {
            "route": ROUTES.get(response.route, "other"),
            "rid": args[1].headers.get("x-request-id"),
        }
        if response.route == "/v1/recommend":
            out["cache"] = response.headers.get("X-Cache")
        return out

    def job_attrs(args, kwargs, result):
        return {"job": args[1].job_id, "state": args[2] if len(args) > 2 else None}

    # capture
    _patch(tracer, ExperimentRunner, "run_session", "experiment.session", session_attrs)
    for module in (world, pipeline, campaign_engine):
        _patch(tracer, module, "build_world", "services.world_build")
    # ReCon training, prediction; matching; detection; categorization; leak rule
    _patch(
        tracer,
        ReconClassifier,
        "fit",
        "pii.recon.fit",
        lambda args, kwargs, result: {"examples": _sized(args[1])},
    )
    _patch(tracer, pipeline, "label_record", "pii.label")
    _patch(tracer, ReconClassifier, "predict", "pii.recon.predict")
    _patch(tracer, GroundTruthMatcher, "__init__", "pii.matcher.build")
    _patch(tracer, PiiDetector, "scan_trace", "pii.detector.scan", scan_attrs)
    _patch(tracer, Categorizer, "categorize_flow", "trackerdb.categorize")
    _patch(tracer, LeakPolicy, "classify_all", "core.leaks.classify", classify_attrs)
    # serving, recommender, store
    _patch(tracer, ServeApp, "handle", "serve.handle", handle_attrs)
    _patch(tracer, Recommender, "recommend_service", "core.recommend")
    _patch(tracer, ResultStore, "__init__", "serve.store_build")
    _patch(tracer, Dataset, "load", "experiment.dataset_load")
    # ingest
    _patch(
        tracer,
        IngestService,
        "submit",
        "ingest.submit",
        lambda args, kwargs, job: {"job": job.job_id},
    )
    _patch(tracer, JobStore, "create", "ingest.journal")
    _patch(tracer, JobStore, "transition", "ingest.transition", job_attrs)
    _patch(tracer, JobStore, "append_result", "ingest.journal")
    _patch(tracer, JobStore, "write_result", "ingest.journal")
    # pool, campaign merge, aggregate frames
    _patch(tracer, executor._ShardFuture, "result", "par.wait")
    _patch(tracer, campaign_engine.CampaignAggregate, "merge", "campaign.merge")
    _patch(
        tracer,
        codec,
        "decode_campaign",
        "net.codec.cagg_decode",
        lambda args, kwargs, result: {"bytes": len(args[0])},
    )
    _patch(tracer, tasks, "campaign_chunk", "par.chunk")
    init_campaign = tracer.wrap("par.worker_init", tasks.init_campaign)

    @functools.wraps(tasks.init_campaign)
    def worker_init(*args, **kwargs):
        # Runs first thing in each forked pool worker: drop the spans
        # copied from the coordinator and write this worker's own spans
        # when it exits (multiprocessing runs finalizers on exit).
        tracer.reset()
        multiprocessing.util.Finalize(None, tracer.dump, exitpriority=100)
        return init_campaign(*args, **kwargs)

    tasks.init_campaign = worker_init
    # aggregation
    for name in ("table1", "table2", "table3"):
        _patch(tracer, tables, name, "analysis.tables")
    for module in (columnar, campaign_engine):
        _patch(tracer, module, "aggregate_blob", "analysis.columnar.fold")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def load_spans(trace_dir) -> list:
    """``[(pid, spans)]`` for every span file in ``trace_dir``."""
    out = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        out.append((data["pid"], [tuple(span) for span in data["spans"]]))
    return out


def _self_times(spans: list) -> tuple:
    """Two maps span id -> (duration, thread CPU) minus that of its child spans."""
    self_time = {span[0]: span[4] - span[3] for span in spans}
    self_cpu = {span[0]: span[6] for span in spans}
    for _span_id, parent, _name, start, end, _extra, cpu in spans:
        if parent in self_time:
            self_time[parent] -= end - start
            self_cpu[parent] -= cpu
    return self_time, self_cpu


def _covered(spans: list, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``spans``."""
    intervals = sorted(
        (max(lo, span[3]), min(hi, span[4])) for span in spans if span[4] > lo and span[3] < hi
    )
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in intervals:
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


#: Span name -> (row of the printed table, count metric, self-time
#: metric, {span attribute: metric it adds to}).  Spans with extra
#: bookkeeping (handlers, ingest jobs, pool workers) are finished in
#: :func:`summarize`.
SPANS = {
    "experiment.session": (
        "capture (experiment..proxy)", "experiment.sessions", "experiment.session_s",
        {"flows": "proxy.flows"},
    ),
    "services.world_build": ("services.world", "services.worlds", "services.world_build_s", {}),
    "pii.recon.fit": ("pii.recon fit", None, "pii.recon.fit_s", {"examples": "pii.recon.examples"}),
    "pii.label": ("pii label", None, "pii.label_s", {}),
    "pii.recon.predict": ("pii.recon predict", "pii.recon.predictions", "pii.recon.predict_s", {}),
    "pii.matcher.build": ("pii.matcher", "pii.matcher.builds", "pii.matcher.build_s", {}),
    "pii.detector.scan": (
        "pii.detector", None, "pii.detector.scan_s",
        {"transactions": "pii.detector.transactions", "false_positives": "pii.recon.false_positives"},
    ),
    "trackerdb.categorize": ("trackerdb", "trackerdb.flows", "trackerdb.categorize_s", {}),
    "core.leaks.classify": (
        "core.leaks", None, "core.leaks.classify_s",
        {"observations": "core.leaks.observations", "leaks": "core.leaks.leaks"},
    ),
    "serve.handle": ("serve", None, None, {}),
    "core.recommend": ("core.recommend", "core.recommend.calls", "core.recommend_s", {}),
    "serve.store_build": ("serve.store", None, None, {}),
    "experiment.dataset_load": ("experiment.dataset", None, "experiment.dataset_load_s", {}),
    "ingest.submit": ("ingest", None, "ingest.submit_s", {}),
    "ingest.journal": ("ingest", None, "ingest.journal_s", {}),
    "ingest.transition": ("ingest", None, "ingest.journal_s", {}),
    "par.worker_init": ("par", None, None, {}),
    "par.chunk": ("par", "par.chunks", None, {}),
    "par.wait": ("par", None, "par.wait_s", {}),
    "campaign.merge": ("campaign", None, "campaign.merge_s", {}),
    "net.codec.cagg_decode": (
        "net.codec", None, "net.codec.cagg_decode_s", {"bytes": "net.codec.cagg_bytes"},
    ),
    "analysis.tables": ("analysis", None, "analysis.tables_s", {}),
    "analysis.columnar.fold": ("analysis", None, "analysis.columnar.fold_s", {}),
}


def summarize(processes: list, main_pid: int, phase: tuple, client=None) -> dict:
    """Per-layer metrics (every name in :data:`PER_LAYER`) for one run.

    ``processes`` is :func:`load_spans` output; ``main_pid`` the process
    whose timeline ``phase = (start, end)`` measures (the workload
    process, or the server); ``client`` maps request ids to client-side
    latencies in seconds (``serve`` only).  Time metrics are self time
    (span minus child spans), except ``serve.handle_s.*``,
    ``serve.store_build_s`` and ``par.worker_busy_s``, which are whole
    span times.  The ``"table"`` entry holds the printed per-layer rows:
    ``[spans, self time, self thread CPU, queueing ahead of the layer]``;
    the ``"request_classes"`` entry maps each class of the window's
    requests (``recommend_hit``, ``recommend_miss``, ``detail``,
    ``list``, ``upload``, ``job``) to ``[requests, handler seconds]`` --
    only window requests carry a request id.
    """
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    table = {row: [0, 0.0, 0.0, 0.0] for row, *_rest in SPANS.values()}
    submitted: dict = {}
    running: dict = {}
    finished: dict = {}
    worker_ready = []
    handled: dict = {}
    for _pid, spans in processes:
        self_time, self_cpu = _self_times(spans)
        for span_id, _parent, name, start, end, extra, _cpu in spans:
            extra = extra or {}
            row, count_metric, time_metric, attr_metrics = SPANS[name]
            own = self_time[span_id]
            table[row][0] += 1
            table[row][1] += own
            table[row][2] += self_cpu[span_id]
            if count_metric:
                metrics[count_metric] += 1
            if time_metric:
                metrics[time_metric] += own
            for attr, metric in attr_metrics.items():
                metrics[metric] += extra.get(attr, 0)
            if name == "serve.handle":
                route = extra.get("route")
                if route in ROUTE_NAMES:
                    metrics[f"serve.requests.{route}"] += 1
                    metrics[f"serve.handle_s.{route}"] += end - start
                if extra.get("cache") == "hit":
                    metrics["serve.cache.hits"] += 1
                elif extra.get("cache") == "miss":
                    metrics["serve.cache.misses"] += 1
                if extra.get("rid") is not None:
                    request_class = f"recommend_{extra.get('cache')}" if route == "recommend" else route
                    handled[extra["rid"]] = (end - start, request_class)
            elif name == "serve.store_build":
                metrics["serve.store_build_s"] += end - start
            elif name == "ingest.submit":
                if "error" in extra:
                    metrics["ingest.rejected"] += 1
                else:
                    metrics["ingest.jobs"] += 1
                    submitted[extra["job"]] = end
            elif name == "ingest.transition" and "state" in extra:
                if extra["state"] == "running":
                    running.setdefault(extra["job"], start)
                elif extra["state"] == "done":
                    finished[extra["job"]] = end
            elif name == "par.worker_init":
                worker_ready.append(end)
            elif name == "par.chunk":
                metrics["par.worker_busy_s"] += end - start

    for job, started in running.items():
        if job in submitted:
            metrics["ingest.queue_wait_s"] += max(0.0, started - submitted[job])
        if job in finished:
            metrics["ingest.job_s"] += finished[job] - started
    if worker_ready:
        metrics["par.pool_start_s"] = max(worker_ready) - phase[0]
    for rid, latency in (client or {}).items():
        if rid in handled:
            metrics["serve.queue_s"] += latency - handled[rid][0]
    request_classes: dict = {}
    for handle_s, request_class in handled.values():
        entry = request_classes.setdefault(request_class, [0, 0.0])
        entry[0] += 1
        entry[1] += handle_s
    metrics["request_classes"] = request_classes
    table["serve"][3] = metrics["serve.queue_s"]
    table["ingest"][3] = metrics["ingest.queue_wait_s"]
    main = next((spans for pid, spans in processes if pid == main_pid), [])
    metrics["trace.spans"] = sum(len(spans) for _pid, spans in processes)
    metrics["trace.uncovered_s"] = (phase[1] - phase[0]) - _covered(
        [span for span in main if span[1] == 0], *phase
    )
    metrics["table"] = table
    return metrics


def layer_table(metrics: dict) -> str:
    """The printed per-layer table.

    ``self_s`` is span time minus child spans, summed over every process
    (pool workers and threads overlap, so rows can add up to more than
    the wall time); ``cpu_s`` is the thread CPU inside that self time;
    ``wait_s`` is self time without CPU (the GIL, I/O, or blocking on
    pool workers) plus queueing ahead of the layer (``serve``: client
    latency minus handler time; ``ingest``: upload accepted to job
    started).
    """
    lines = [f"{'layer':30s} {'count':>8s} {'self_s':>10s} {'cpu_s':>10s} {'wait_s':>10s}"]
    for label, (count, own, cpu, queued) in metrics["table"].items():
        wait = max(0.0, own - cpu) + queued
        lines.append(f"{label:30s} {count:8d} {own:10.3f} {cpu:10.3f} {wait:10.3f}")
    lines.append(f"{'not covered by any layer':30s} {'':8s} {metrics['trace.uncovered_s']:10.3f}")
    lines.append(f"{'tracing overhead':30s} {'':8s} {metrics['trace.overhead_s']:10.3f}")
    return "\n".join(lines)
