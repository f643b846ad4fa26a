"""End-to-end study pipeline: collect → detect → classify → aggregate.

:func:`run_study` is the library's front door.  It builds the world,
runs the measurement campaign, trains the ReCon classifier on a held-out
slice of the captured traffic (labels come from ground-truth matching,
as in the controlled-experiment workflow), then produces one
:class:`SessionAnalysis` per captured cell and one
:class:`ServiceResult` per service — the structures every table, figure,
and recommendation is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..collector import collector_held, session_boundary
from ..experiment.dataset import APP, WEB, Dataset, SavedSession, SessionRecord
from ..experiment.filtering import filter_background
from ..experiment.runner import ExperimentRunner
from ..pii.detector import PiiDetector
from ..pii.matcher import matcher_for
from ..pii.recon import ReconClassifier
from ..pii.structure import extract_fields
from ..services.service import ServiceSpec
from ..services.world import World, build_world
from ..trackerdb.categorize import Categorizer
from .leaks import LeakPolicy, LeakRecord, leak_domains, leak_types


@dataclass
class SessionAnalysis:
    """Everything the evaluation needs from one session."""

    service: str
    os_name: str
    medium: str
    flows_total: int = 0
    aa_domains: set = field(default_factory=set)
    aa_flows: int = 0
    aa_bytes: int = 0
    third_party_domains: set = field(default_factory=set)
    leaks: list = field(default_factory=list)
    recon_false_positives: int = 0

    @property
    def leak_types(self) -> set:
        return leak_types(self.leaks)

    @property
    def leak_domains(self) -> set:
        return leak_domains(self.leaks)

    @property
    def leaked(self) -> bool:
        return bool(self.leaks)

    @property
    def aa_megabytes(self) -> float:
        return self.aa_bytes / 1_000_000.0

    def to_dict(self) -> dict:
        """JSON-safe form: a pool worker's result wire form, ingest's
        per-record results and the QA oracle's canonical bytes."""
        return {
            "service": self.service,
            "os": self.os_name,
            "medium": self.medium,
            "flows_total": self.flows_total,
            "aa_domains": sorted(self.aa_domains),
            "aa_flows": self.aa_flows,
            "aa_bytes": self.aa_bytes,
            "third_party_domains": sorted(self.third_party_domains),
            "leaks": [leak.to_dict() for leak in self.leaks],
            "recon_false_positives": self.recon_false_positives,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionAnalysis":
        return cls(
            service=data["service"],
            os_name=data["os"],
            medium=data["medium"],
            flows_total=data["flows_total"],
            aa_domains=set(data["aa_domains"]),
            aa_flows=data["aa_flows"],
            aa_bytes=data["aa_bytes"],
            third_party_domains=set(data["third_party_domains"]),
            leaks=[LeakRecord.from_dict(entry) for entry in data["leaks"]],
            recon_false_positives=data["recon_false_positives"],
        )


@dataclass
class ServiceResult:
    """Per-service results across every captured cell."""

    spec: ServiceSpec
    sessions: dict = field(default_factory=dict)  # (os, medium) -> SessionAnalysis

    def cell(self, os_name: str, medium: str) -> Optional[SessionAnalysis]:
        return self.sessions.get((os_name, medium))

    def media_leak_types(self, medium: str) -> set:
        """Union of leaked types for a medium across tested OSes."""
        out: set = set()
        for (os_name, med), analysis in self.sessions.items():
            if med == medium:
                out |= analysis.leak_types
        return out

    def leaked_via(self, medium: str) -> bool:
        return bool(self.media_leak_types(medium))


@dataclass
class StudyResult:
    """The complete evaluated study."""

    services: list = field(default_factory=list)  # list[ServiceResult]
    dataset: Optional[Dataset] = None
    recon: Optional[ReconClassifier] = None

    def by_slug(self, slug: str) -> ServiceResult:
        for result in self.services:
            if result.spec.slug == slug:
                return result
        raise KeyError(f"unknown service {slug!r}")

    def analyses(self) -> list:
        out = []
        for result in self.services:
            out.extend(result.sessions.values())
        return out


def categorizer_for(spec: ServiceSpec) -> Categorizer:
    return _categorizer(tuple(spec.first_party_domains), tuple(spec.sso_domains))


# Categorizer construction recompiles the spec's domain sets on every
# call; specs are immutable for the life of a study, so one instance per
# distinct (first-party, SSO) domain profile is shared across sessions.
@lru_cache(maxsize=256)
def _categorizer(first_party_domains: tuple, sso_domains: tuple) -> Categorizer:
    from ..device.phone import OS_SERVICE_HOSTS

    return Categorizer(
        first_party_domains=first_party_domains,
        os_service_hosts=[h for hosts in OS_SERVICE_HOSTS.values() for h in hosts],
        sso_domains=sso_domains,
    )


def analyze_session(
    record: SessionRecord,
    spec: ServiceSpec,
    recon: Optional[ReconClassifier] = None,
) -> SessionAnalysis:
    """Run detection + leak policy + A&A accounting on one session."""
    trace = filter_background(record.trace)
    categorizer = categorizer_for(spec)
    matcher = matcher_for(record.ground_truth)
    detector = PiiDetector(matcher, recon=recon)
    report = detector.scan_trace(trace)
    policy = LeakPolicy(categorizer)
    leaks = policy.classify_all(report.observations)

    analysis = SessionAnalysis(
        service=record.service,
        os_name=record.os_name,
        medium=record.medium,
        leaks=leaks,
        recon_false_positives=report.recon_false_positives,
    )
    for flow in trace:
        analysis.flows_total += 1
        category = categorizer.categorize_flow(flow)
        if category.is_third_party:
            analysis.third_party_domains.add(category.domain)
        if category.is_aa:
            analysis.aa_domains.add(category.domain)
            analysis.aa_flows += 1
            analysis.aa_bytes += flow.total_bytes
    return analysis


def label_record(record: SessionRecord) -> list:
    """Extract one session's ReCon training examples.

    Labels come from the session's own ground truth (the
    controlled-experiment workflow); example order follows the trace,
    so the concatenation order across sessions fully determines the
    trained tree.  Each request's fields are extracted once, for both.
    """
    matcher = matcher_for(record.ground_truth)
    out = []
    for flow in filter_background(record.trace):
        if not flow.decrypted:
            continue
        for txn in flow.transactions:
            fields = extract_fields(txn.request)
            labels = {m.pii_type for m in matcher.match_request(txn.request, fields)}
            out.append(ReconClassifier.make_example(txn.request, labels, fields))
    return out


def _session_order(record: SessionRecord) -> tuple:
    return (record.service, record.os_name, record.medium)


def assemble_study(
    analyses, services: list, dataset: Optional[Dataset] = None, recon=None
) -> StudyResult:
    """Group per-cell analyses into a :class:`StudyResult`.

    Cells keep the order of ``analyses`` within each service, and
    services follow ``services`` (catalog spec order).  The batch
    pipeline and ingest both assemble here, which is the result-side
    half of their byte-identity contract.
    """
    by_slug = {spec.slug: spec for spec in services}
    results: dict = {}
    for analysis in analyses:
        result = results.get(analysis.service)
        if result is None:
            result = results[analysis.service] = ServiceResult(
                spec=by_slug[analysis.service]
            )
        result.sessions[(analysis.os_name, analysis.medium)] = analysis
    ordered = [results[spec.slug] for spec in services if spec.slug in results]
    return StudyResult(services=ordered, dataset=dataset, recon=recon)


def training_records(dataset, every_nth_service: int = 4) -> list:
    """The sessions ReCon trains on: every ``every_nth_service``-th
    service's (ordered by slug), in ``(service, os, medium)`` order.

    ``dataset`` is a :class:`Dataset` or any iterable of sessions (see
    :func:`analyze_dataset`); the chosen sessions come back as given.
    """
    sessions = list(dataset)
    chosen = set(sorted({session.service for session in sessions})[::every_nth_service])
    return sorted(
        (session for session in sessions if session.service in chosen),
        key=_session_order,
    )


def _records(sessions):
    """Each session as a :class:`SessionRecord`, a saved session's trace
    decoded only when the iteration reaches it."""
    for session in sessions:
        yield session.load() if isinstance(session, SavedSession) else session


def _fan_out(engine, task, sessions: list, context=None):
    """``task`` over ``sessions`` in order, on ``engine``.

    Sessions are decoded as the pool takes them, a bounded window ahead
    of the consumer: in-process one at a time, so a pass over saved
    sessions holds at most two traces; on N processes 2N, so a worker
    that finishes early finds its next session queued (as ingest's
    ``_analyze_stream`` does).  Each result is a session boundary.
    """
    with engine.fitted(len(sessions)).pool(context) as pool:
        window = 1 if pool.workers == 1 else 2 * pool.workers
        for result in pool.imap(task, _records(sessions), window=window):
            yield result
            session_boundary()


def _cached_analyses(cache, engine, sessions: list, context) -> list:
    """Analyses of ``sessions`` (aligned): entries ``cache`` holds are
    reused, and the misses go through :func:`_fan_out` like any
    uncached session, each stored as it arrives.  A warm cache therefore
    returns analyses byte-identical to a fresh run."""
    from ..par import tasks

    records = list(_records(sessions))  # the key hashes each trace
    keys = cache.session_keys(records, context.specs, context.recon)
    results = [cache.load_session(key) for key in keys]
    misses = [index for index, result in enumerate(results) if result is None]
    fresh = _fan_out(engine, tasks.analyze, [records[i] for i in misses], context)
    for index, analysis in zip(misses, fresh, strict=True):
        results[index] = analysis
        cache.store_session(keys[index], analysis)
    return results


def train_recon_on_dataset(
    dataset,
    every_nth_service: int = 4,
    rng_seed: int = 7,
    executor=1,
    cache=None,
) -> ReconClassifier:
    """Train ReCon on a slice of the dataset's sessions.

    Every ``every_nth_service``-th service's sessions (ordered by slug)
    become training traffic; labels come from each session's own ground
    truth, which is how the controlled experiments make ML training
    possible without manual annotation.  ``executor`` (an
    :class:`repro.par.Executor` or a worker count) parallelizes label
    extraction per session; examples are concatenated in deterministic
    session order so the trained tree is identical for any worker
    count.  ``cache`` (an
    :class:`repro.core.cache.AnalysisCache`) memoizes the fitted
    classifier keyed by the training slice's content.
    """
    from ..par import resolve_executor, tasks

    records = training_records(dataset, every_nth_service)
    if cache is not None:
        records = list(_records(records))  # the key hashes each trace
        cached = cache.load_recon(records, every_nth_service, rng_seed)
        if cached is not None:
            return cached
    examples = []
    for batch in _fan_out(resolve_executor(executor), tasks.label, records):
        examples.extend(batch)
    import random

    classifier = ReconClassifier(rng=random.Random(rng_seed))
    classifier.fit(examples)
    if cache is not None:
        cache.store_recon(records, every_nth_service, rng_seed, classifier)
    return classifier


@collector_held()
def analyze_dataset(
    dataset,
    services: list,
    recon: Optional[ReconClassifier] = None,
    train_recon: bool = True,
    executor=1,
    cache=None,
) -> StudyResult:
    """Evaluate a collected dataset into a :class:`StudyResult`.

    ``dataset`` is a :class:`Dataset`, or any iterable of sessions:
    :class:`SessionRecord` objects, or the :class:`SavedSession`
    handles :func:`~repro.experiment.dataset.read_manifest` returns,
    whose traces are decoded one at a time as the training and analysis
    passes reach them and dropped once analyzed.  Only a ``Dataset`` is
    kept on the result (``study.dataset``).

    ``executor`` picks the fan-out: an :class:`repro.par.Executor` or a
    worker count (1 in-process, N > 1 processes, 0 every usable CPU;
    see :func:`repro.par.resolve_executor`).  Sessions are processed in
    ``(service, os, medium)`` order and results assembled in the
    dataset's own order, so the study is byte-for-byte identical for
    any worker count.
    ``cache`` reuses persisted per-session analyses when the trace
    content and detection config both match.
    """
    from ..par import resolve_executor, tasks

    sessions = list(dataset)
    engine = resolve_executor(executor)
    if recon is None and train_recon:
        recon = train_recon_on_dataset(sessions, executor=engine, cache=cache)
    ordered = sorted(sessions, key=_session_order)
    context = tasks.AnalysisContext(services, recon)
    if cache is None:
        results = _fan_out(engine, tasks.analyze, ordered, context)
    else:
        results = _cached_analyses(cache, engine, ordered, context)
    analyses = dict(zip([_session_order(s) for s in ordered], results, strict=True))
    return assemble_study(
        (analyses[_session_order(session)] for session in sessions),
        services,
        dataset=dataset if isinstance(dataset, Dataset) else None,
        recon=recon,
    )


@collector_held()
def run_study(
    services: Optional[list] = None,
    seed: int = 2016,
    duration: float = 240.0,
    train_recon: bool = True,
    world: Optional[World] = None,
    checkpoint_dir=None,
    executor=1,
    cache_dir=None,
    mitigation=None,
) -> StudyResult:
    """Collect and evaluate the full study (the paper, end to end).

    ``executor`` picks the analysis fan-out (see
    :func:`analyze_dataset`); collection itself stays sequential because
    the simulated world advances a single deterministic clock.

    ``cache_dir`` enables the persistent incremental cache
    (:mod:`repro.core.cache`): the collected campaign, the trained
    classifier, and every per-session analysis are stored
    content-addressed, so an unchanged re-run skips straight to
    aggregation and any config change invalidates cleanly.

    ``checkpoint_dir`` journals the capture as it runs: a
    :class:`~repro.proxy.addons.StreamCapture` addon publishes every
    finalized event to ``checkpoint_dir/journal.jsonl``
    (:class:`~repro.stream.checkpoint.FlowJournal`), which ``repro
    serve`` can read while the capture is still going.  The study is the
    same batch analysis of the collected dataset; a journaled run always
    captures, so the campaign fast path of the cache is skipped.  A
    failed journal append stops the journal at the last event it wrote
    and, once the capture ends, raises
    :class:`~repro.stream.checkpoint.CheckpointError` naming the journal
    and the cause.

    ``mitigation`` runs the whole collection through the inline
    mitigation data plane (:mod:`repro.mitigate`): pass a
    :class:`~repro.mitigate.policy.MitigationPolicy` or a prepared
    :class:`~repro.mitigate.plane.MitigationAddon`.  Mitigated traffic
    is deterministic per seed but policy-dependent, so the campaign
    fast path of the persistent cache is bypassed (per-session analysis
    caching still applies — it is content-addressed).  With
    ``mitigation=None`` every path through this function is
    byte-identical to the pre-mitigation pipeline.
    """
    cache = None
    campaign_key = None
    if cache_dir is not None:
        from .cache import AnalysisCache

        cache = AnalysisCache(cache_dir)
    if (
        cache is not None
        and world is None
        and services is not None
        and mitigation is None
        and checkpoint_dir is None
    ):
        # The campaign is a pure function of (specs, seed, duration):
        # with a cache we can skip the whole simulated collection.
        campaign_key = cache.campaign_key(services, seed, duration)
        dataset = cache.load_campaign(campaign_key)
        if dataset is not None:
            return analyze_dataset(
                dataset,
                services,
                train_recon=train_recon,
                executor=executor,
                cache=cache,
            )
    if world is None:
        world = build_world(services)
    specs = services if services is not None else world.services
    runner = ExperimentRunner(world, seed=seed)
    if checkpoint_dir is None:
        dataset = runner.run_study(specs, duration=duration, mitigation=mitigation)
    else:
        from pathlib import Path

        from ..proxy.addons import StreamCapture
        from ..stream.checkpoint import JOURNAL_NAME, CheckpointError, FlowJournal

        journal = FlowJournal(Path(checkpoint_dir) / JOURNAL_NAME)
        capture = StreamCapture(journal.publish)
        world.proxy.add_addon(capture)
        try:
            dataset = runner.run_study(
                specs,
                duration=duration,
                phone_setup=capture.stage_phone,
                mitigation=mitigation,
            )
        finally:
            world.proxy.remove_addon(capture)
            journal.close()
        if capture.error is not None:
            raise CheckpointError(
                f"{journal.path}: cannot append to the journal: {capture.error}"
            ) from capture.error
    if campaign_key is not None:
        cache.store_campaign(campaign_key, dataset)
    return analyze_dataset(
        dataset,
        specs,
        train_recon=train_recon,
        executor=executor,
        cache=cache,
    )
