"""Deterministic fault plans and their recovery invariants.

A :class:`FaultPlan` is derived from the scenario seed, serializes to
JSON, and drives five chaos checks:

- **Kill + re-run** (``kill_events``): a capture killed after N
  journaled events leaves the journal's first N lines, the last one
  optionally torn (``torn_tail``: clean cut, binary garbage, or
  mid-UTF-8).  It must read back exactly the sessions whose
  ``session_end`` line survived, each analyzing to the batch
  reference's bytes, and the re-run's whole journal must read back to
  the whole reference.
- **Transport chaos** (``transport``): wrap every phone transport in a
  :class:`~repro.http.transport.FaultInjectingTransport` refusing,
  truncating, or stalling chosen connection ordinals.  The collected
  chaos dataset, journaled and read back, must analyze identically to
  its batch analysis — the oracle's equivalence must hold on degraded
  traffic too.
- **Addon chaos** (``addon_chaos``): register an addon whose callbacks
  raise.  The capture must complete, produce the *same* dataset as a
  fault-free run of the same seed, and the proxy must have recorded the
  addon failures in ``addon_errors`` instead of propagating them.
- **Serve snapshot** (``serve_check``): point a ``ResultStore`` at a
  flow journal, append torn half-written tails to it
  (including a mid-UTF-8 cut), force reloads, and require every served
  snapshot to stay byte-identical — serve never exposes a torn write.
  Then truncate the last trace of a saved dataset: a reload onto it,
  which fails after analyzing every other session, must keep serving
  the intact snapshot, and a fresh store must refuse it with
  ``StoreError``.
- **Ingest faults** (``ingest_check``): a truncated upload body must be
  rejected atomically (no job directory, no journal line, no queue
  slot), a torn ingest job-journal tail must not stop recovery from
  requeuing parked jobs, and a worker crash mid-analysis followed by a
  torn ``results.jsonl`` tail must leave the job resumable — in every
  recovered case the replayed result bytes must equal the offline
  no-recon study's.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.pipeline import analyze_dataset, train_recon_on_dataset
from ..experiment.dataset import MANIFEST_NAME, read_manifest
from ..experiment.runner import ExperimentRunner
from ..http.transport import FAULT_KINDS, FaultInjectingTransport
from ..ioutil import atomic_write_json
from ..serve.store import ResultStore, StoreError
from ..services.world import build_world
from ..stream.checkpoint import (
    JOURNAL_NAME,
    SESSION_END,
    FlowJournal,
    dataset_from_journal,
    flow_event,
    session_end_event,
    session_start_event,
)

TORN_MODES = ("cut", "garbage", "utf8")

# Torn-tail payloads: a half-written JSON line, raw binary garbage, and
# a line ending mid-way through a multi-byte UTF-8 character.
_TORN_PARTIAL_JSON = b'{"seq": 9999999, "kind": "flow", "ses'
_TORN_GARBAGE = b'{"seq": 9999999, "kind": "flow"\xff\xfe\x00'
_TORN_UTF8 = '{"seq": 9999999, "note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1]


@dataclass(frozen=True)
class FaultPlan:
    """JSON-serializable description of one scenario's injected faults."""

    kill_events: tuple = ()
    torn_tail: str = ""  # "", or one of TORN_MODES
    torn_bytes: int = 7  # cut size for mode "cut"
    transport: tuple = ()  # ((connection ordinal, fault kind), ...)
    stall_seconds: float = 30.0
    addon_chaos: bool = True
    addon_every: int = 3
    serve_check: bool = True
    ingest_check: bool = True
    campaign_check: bool = True

    @classmethod
    def from_rng(cls, rng) -> "FaultPlan":
        ordinals = {}
        for _ in range(rng.randint(1, 4)):
            ordinals[rng.randrange(0, 60)] = rng.choice(FAULT_KINDS)
        # New fields draw *after* every existing one so plans derived
        # from old seeds keep their original values.
        return cls(
            kill_events=tuple(sorted(rng.sample(range(3, 300), rng.randint(1, 2)))),
            torn_tail=rng.choice(("",) + TORN_MODES),
            torn_bytes=rng.randint(1, 40),
            transport=tuple(sorted(ordinals.items())),
            stall_seconds=float(rng.choice((15, 30, 60))),
            addon_chaos=rng.random() < 0.8,
            addon_every=rng.randint(2, 5),
            serve_check=rng.random() < 0.8,
            ingest_check=rng.random() < 0.8,
            campaign_check=rng.random() < 0.8,
        )

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            kill_events=tuple(int(n) for n in data.get("kill_events", ())),
            torn_tail=str(data.get("torn_tail", "")),
            torn_bytes=int(data.get("torn_bytes", 7)),
            transport=tuple(
                (int(ordinal), str(kind)) for ordinal, kind in data.get("transport", ())
            ),
            stall_seconds=float(data.get("stall_seconds", 30.0)),
            addon_chaos=bool(data.get("addon_chaos", True)),
            addon_every=int(data.get("addon_every", 3)),
            serve_check=bool(data.get("serve_check", True)),
            ingest_check=bool(data.get("ingest_check", True)),
            campaign_check=bool(data.get("campaign_check", True)),
        )


def tear_journal(path, mode: str, amount: int = 7) -> None:
    """Corrupt a journal's tail the way a crash would."""
    path = Path(path)
    data = path.read_bytes()
    if mode == "cut":
        cut = max(1, min(amount, max(1, len(data) - 1)))
        path.write_bytes(data[:-cut])
    elif mode == "garbage":
        path.write_bytes(data + _TORN_GARBAGE)
    elif mode == "utf8":
        path.write_bytes(data + _TORN_UTF8)
    else:
        raise ValueError(f"unknown torn-tail mode {mode!r}")


def journal_events(dataset):
    """A dataset's capture events in the order a live capture journals
    them: per session, in dataset order, its start (trace metadata and
    ground truth), its flows in trace order, then its end."""
    for record in dataset:
        yield session_start_event(record.trace.meta, record.ground_truth)
        for flow in record.trace:
            yield flow_event(record.key, flow)
        yield session_end_event(record.key)


def write_journal(dataset, path, limit=None) -> None:
    """Journal a collected dataset as its live capture would have.

    ``limit`` keeps only the first ``limit`` events: the journal a
    capture killed at that point leaves behind.
    """
    journal = FlowJournal(path)
    try:
        for event in itertools.islice(journal_events(dataset), limit):
            journal.publish(event)
    finally:
        journal.close()


class ExplodingAddon:
    """A proxy addon whose callbacks raise every ``every``-th invocation."""

    def __init__(self, every: int = 3) -> None:
        self.every = max(1, every)
        self.calls = 0

    def _maybe_explode(self, label: str) -> None:
        self.calls += 1
        if self.calls % self.every == 0:
            raise RuntimeError(f"exploding addon: {label} #{self.calls}")

    def tcp_connect(self, flow) -> None:
        self._maybe_explode("tcp_connect")

    def rewrite_request(self, flow, request):
        # A rewrite callback that raises must be isolated by the
        # transactional rewrite stage; when it survives, it rewrites
        # nothing.
        self._maybe_explode("rewrite_request")
        return None

    def request(self, flow, request) -> None:
        self._maybe_explode("request")

    def response(self, flow, request, response) -> None:
        self._maybe_explode("response")

    def capture_stop(self, trace) -> None:
        self._maybe_explode("capture_stop")


def _divergence(component, path, expected, actual):
    from .oracle import Divergence, first_divergent_field

    if isinstance(expected, bytes) and isinstance(actual, bytes):
        where, want, got = first_divergent_field(expected, actual)
        return Divergence(component, f"{path}:{where}", want, got)
    return Divergence(component, path, str(expected), str(actual))


def _read_back(path, specs, recon):
    """Analyze what a journal reads back, with a fixed classifier."""
    journaled = dataset_from_journal(path)
    return analyze_dataset(journaled, specs, recon=recon, train_recon=False)


def check_kill_resume(scenario, specs, dataset, expected, plan, mutate):
    """Kill a journaled capture (optionally tearing its tail), re-run it.

    Analyses use the reference's classifier (retrained on the whole
    dataset when the scenario trains ReCon), so every session read back
    from a killed journal must carry exactly its reference bytes.
    """
    from .oracle import canonical_bytes

    reference = json.loads(expected)
    recon = train_recon_on_dataset(dataset) if scenario.train_recon else None
    events = list(journal_events(dataset))
    out = []
    with tempfile.TemporaryDirectory(prefix="repro-qa-journal-") as tmp:
        path = Path(tmp) / JOURNAL_NAME
        write_journal(dataset, path)
        actual = canonical_bytes(mutate("stream", _read_back(path, specs, recon)))
        if actual != expected:
            out.append(_divergence("kill-resume[rerun]", "study", expected, actual))
        for kill in plan.kill_events:
            label = f"kill[{kill}:{plan.torn_tail or 'clean'}]"
            write_journal(dataset, path, limit=kill)
            killed = path.read_bytes()
            if plan.torn_tail:
                tear_journal(path, plan.torn_tail, plan.torn_bytes)
            # Whole lines a reader can still see, and the sessions they end.
            intact = path.read_bytes()[: len(killed)].count(b"\n")
            ended = {
                "|".join(event.session)
                for event in events[:intact]
                if event.kind == SESSION_END
            }
            want = json.dumps(
                {key: value for key, value in reference.items() if key in ended},
                sort_keys=True,
            ).encode("utf-8")
            got = canonical_bytes(mutate("stream", _read_back(path, specs, recon)))
            if got != want:
                out.append(_divergence(label, "sessions read back", want, got))
    return out


def check_transport_chaos(scenario, specs, plan, mutate):
    """Collect under transport faults; batch and stream must still agree."""
    from .oracle import canonical_bytes

    world = build_world(specs)
    runner = ExperimentRunner(world, seed=scenario.study_seed)
    fault_map = {int(ordinal): kind for ordinal, kind in plan.transport}
    counter = [0]

    def wrapper(transport):
        return FaultInjectingTransport(
            transport,
            fault_map,
            clock=world.clock,
            stall_seconds=plan.stall_seconds,
            counter=counter,
        )

    def install_faults(phone):
        phone.transport_wrapper = wrapper

    chaos_dataset = runner.run_study(
        specs, duration=scenario.duration, phone_setup=install_faults
    )
    batch = analyze_dataset(chaos_dataset, specs, train_recon=False)
    expected = canonical_bytes(batch)
    with tempfile.TemporaryDirectory(prefix="repro-qa-journal-") as tmp:
        path = Path(tmp) / JOURNAL_NAME
        write_journal(chaos_dataset, path)
        actual = canonical_bytes(mutate("stream", _read_back(path, specs, None)))
    out = []
    if actual != expected:
        out.append(_divergence("transport-chaos[stream]", "study", expected, actual))
    return out, {"transport_faults_hit": sum(1 for o in fault_map if o < counter[0])}


def check_addon_chaos(scenario, specs, expected, plan, mutate):
    """A raising addon must not change results, and must be recorded."""
    from .oracle import canonical_bytes

    world = build_world(specs)
    world.proxy.add_addon(ExplodingAddon(every=plan.addon_every))
    runner = ExperimentRunner(world, seed=scenario.study_seed)
    dataset = runner.run_study(specs, duration=scenario.duration)
    study = mutate(
        "addon",
        analyze_dataset(dataset, specs, train_recon=scenario.train_recon),
    )
    out = []
    actual = canonical_bytes(study)
    if actual != expected:
        out.append(_divergence("addon-chaos[study]", "study", expected, actual))
    if not world.proxy.addon_errors:
        out.append(
            _divergence(
                "addon-chaos[errors]", "proxy.addon_errors", "non-empty", "empty"
            )
        )
    return out, {"addon_errors": len(world.proxy.addon_errors)}


def check_mitigation_chaos(scenario, specs, plan, mutate):
    """A raising rewrite stage must not corrupt mitigated collection.

    Two mitigated collections of the same seed — one clean, one with an
    exploding addon whose ``rewrite_request`` raises every Nth call —
    must analyze byte-identically, and the proxy must have logged the
    rewrite failures instead of letting them touch a flow.
    """
    from ..mitigate.policy import default_policy
    from .oracle import canonical_bytes

    policy = default_policy()

    def collect(chaos: bool):
        world = build_world(specs)
        if chaos:
            world.proxy.add_addon(ExplodingAddon(every=plan.addon_every))
        runner = ExperimentRunner(world, seed=scenario.study_seed)
        dataset = runner.run_study(
            specs, duration=scenario.duration, mitigation=policy
        )
        return dataset, world.proxy

    clean_dataset, _ = collect(chaos=False)
    expected = canonical_bytes(analyze_dataset(clean_dataset, specs, train_recon=False))
    chaos_dataset, proxy = collect(chaos=True)
    study = mutate(
        "mitigate",
        analyze_dataset(chaos_dataset, specs, train_recon=False),
    )
    out = []
    actual = canonical_bytes(study)
    if actual != expected:
        out.append(_divergence("mitigate-chaos[study]", "study", expected, actual))
    rewrite_errors = [
        entry for entry in proxy.addon_errors if entry[0] == "rewrite_request"
    ]
    if not rewrite_errors:
        out.append(
            _divergence(
                "mitigate-chaos[errors]",
                "rewrite_request addon_errors",
                "non-empty",
                "empty",
            )
        )
    return out, {"rewrite_errors": len(rewrite_errors)}


def check_serve_snapshot(scenario, specs, dataset, mutate):
    """Serve must never expose a half-written journal append."""
    from .oracle import canonical_bytes

    reference = analyze_dataset(dataset, specs, train_recon=False)
    expected = canonical_bytes(reference)
    out = []
    with tempfile.TemporaryDirectory(prefix="repro-qa-serve-") as tmp:
        write_journal(dataset, Path(tmp) / JOURNAL_NAME)
        store = ResultStore(tmp, services=specs, train_recon=False, check_interval=0.0)

        def served() -> bytes:
            return canonical_bytes(mutate("serve", store.snapshot.study))

        if served() != expected:
            out.append(_divergence("serve[load]", "snapshot", expected, served()))

        journal_path = Path(tmp) / JOURNAL_NAME
        original = journal_path.read_bytes()
        for label, tail in (
            ("torn-append", _TORN_PARTIAL_JSON),
            ("torn-utf8", _TORN_UTF8),
        ):
            with journal_path.open("ab") as handle:
                handle.write(tail)
            store.maybe_reload()
            if served() != expected:
                out.append(_divergence(f"serve[{label}]", "snapshot", expected, served()))
            journal_path.write_bytes(original)
        store.maybe_reload()
        if served() != expected:
            out.append(_divergence("serve[restore]", "snapshot", expected, served()))

    with tempfile.TemporaryDirectory(prefix="repro-qa-serve-") as tmp:
        dataset.save(tmp)
        store = ResultStore(tmp, services=specs, train_recon=False, check_interval=0.0)
        trace = Path(tmp) / read_manifest(tmp)[-1].trace_file
        trace.write_bytes(trace.read_bytes()[: trace.stat().st_size // 2])
        manifest = Path(tmp) / MANIFEST_NAME
        # Same sessions, new bytes: the store sees a changed manifest.
        atomic_write_json(manifest, json.loads(manifest.read_text()), indent=None)
        try:
            store.maybe_reload()
        except Exception as exc:
            out.append(
                _divergence(
                    "serve[truncated-trace:reload]", "maybe_reload", "no exception", repr(exc)
                )
            )
        else:
            if served() != expected:
                out.append(
                    _divergence("serve[truncated-trace:reload]", "snapshot", expected, served())
                )
        try:
            ResultStore(tmp, services=specs, train_recon=False)
            raised = "nothing"
        except StoreError:
            raised = None
        except Exception as exc:
            raised = repr(exc)
        if raised is not None:
            out.append(
                _divergence("serve[truncated-trace:start]", "exception", "StoreError", raised)
            )
    return out


def check_ingest_faults(scenario, specs, dataset, plan, mutate):
    """Uploads fail atomically; parked and crashed jobs resume identically.

    Three invariants for the ingest data plane:

    - a truncated upload body is rejected with ``CodecError`` and leaves
      *nothing* behind — no job directory, no journal line, no queue slot;
    - a torn job-journal tail (crash mid-append) must not stop recovery
      from requeuing the job, and the replayed result must match the
      offline no-recon study byte for byte;
    - a worker crash mid-analysis, with the per-record results file
      then torn the way the kill would tear it, leaves the job
      resumable: a fresh service picks it up, skips the records intact
      on disk, and still produces the identical result bytes.
    """
    from ..ingest import IngestService, WorkerCrash, job_result_payload
    from ..net import codec
    from ..net.codec import CodecError
    from ..serve.app import canonical_json

    out = []
    records = list(dataset)
    if not records:
        return out
    body = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(records))
    offline = analyze_dataset(dataset, specs, train_recon=False)

    def expected_result(job) -> bytes:
        payload = job_result_payload(
            job.job_id, job.etag, len(records), mutate("ingest", offline)
        )
        return canonical_json(payload) + b"\n"

    # Truncated upload body: rejected, and rejected *atomically*.
    with tempfile.TemporaryDirectory(prefix="repro-qa-ingest-") as tmp:
        service = IngestService(tmp, specs=specs)
        cut = max(1, min(plan.torn_bytes, len(body) - len(codec.MAGIC) - 2))
        try:
            service.submit(body[:-cut], tenant="chaos")
            out.append(
                _divergence(
                    "ingest-faults[truncated]", "submit", "CodecError", "accepted"
                )
            )
        except CodecError:
            pass
        jobs_dir = Path(tmp) / "jobs"
        leftovers = sorted(p.name for p in jobs_dir.iterdir()) if jobs_dir.exists() else []
        if leftovers:
            out.append(
                _divergence(
                    "ingest-faults[truncated]", "jobs dir", "empty", repr(leftovers)
                )
            )
        if service.queue.pending():
            out.append(
                _divergence(
                    "ingest-faults[truncated]",
                    "queue",
                    "empty",
                    f"{service.queue.pending()} pending",
                )
            )

    # Torn job-journal tail: recovery requeues, replay is byte-identical.
    with tempfile.TemporaryDirectory(prefix="repro-qa-ingest-") as tmp:
        service = IngestService(tmp, specs=specs)
        job = service.submit(body, tenant="chaos")
        tear_journal(
            Path(tmp) / "journal.jsonl", plan.torn_tail or "garbage", plan.torn_bytes
        )
        resumed = IngestService(tmp, specs=specs)
        resumed.run_pending()
        actual = resumed.store.result_bytes(job.job_id) or b'"<missing>"'
        if actual != expected_result(job):
            out.append(
                _divergence(
                    "ingest-faults[torn-journal]",
                    "result",
                    expected_result(job),
                    actual,
                )
            )

    # Worker crash mid-analysis: partial results survive, resume finishes.
    with tempfile.TemporaryDirectory(prefix="repro-qa-ingest-") as tmp:
        service = IngestService(tmp, specs=specs)
        job = service.submit(body, tenant="chaos")
        service.crash_after = 1
        try:
            service.run_pending()
            out.append(
                _divergence(
                    "ingest-faults[crash]", "run_pending", "WorkerCrash", "completed"
                )
            )
        except WorkerCrash:
            pass
        tear_journal(
            service.store.job_dir(job.job_id) / "results.jsonl",
            plan.torn_tail or "garbage",
            plan.torn_bytes,
        )
        resumed = IngestService(tmp, specs=specs)
        resumed.run_pending()
        actual = resumed.store.result_bytes(job.job_id) or b'"<missing>"'
        if actual != expected_result(job):
            out.append(
                _divergence(
                    "ingest-faults[crash]", "result", expected_result(job), actual
                )
            )
    return out


def check_campaign_resume(scenario, specs, mutate):
    """Kill a checkpointed campaign mid-run, resume, compare bytes.

    A small population is driven with the ``abort_after_users`` chaos
    hook (the deterministic stand-in for kill -9) under a tight
    checkpoint interval; the resumed run re-plans only the remaining
    user range, so its shard boundaries differ from the uninterrupted
    reference — which is exactly what the merge algebra must absorb.
    """
    from ..campaign import CampaignAborted, PopulationSpec, run_campaign

    population = 6
    pop_spec = PopulationSpec(
        services_per_user=(1, 2),
        sessions_per_service=(1, 1),
        session_duration=scenario.duration,
        bootstrap_replicates=10,
    )
    kwargs = dict(
        seed=scenario.study_seed,
        population_spec=pop_spec,
        services=specs,
    )
    expected = run_campaign(population, shards=3, **kwargs).canonical_bytes()
    out = []
    with tempfile.TemporaryDirectory(prefix="repro-qa-campaign-") as ckpt:
        try:
            run_campaign(
                population,
                shards=3,
                checkpoint_dir=ckpt,
                checkpoint_every=2,
                abort_after_users=3,
                **kwargs,
            )
            out.append(
                _divergence(
                    "campaign[kill]", "abort", "CampaignAborted", "completed"
                )
            )
        except CampaignAborted:
            pass
        resumed = run_campaign(
            population, checkpoint_dir=ckpt, resume=True, **kwargs
        )
        actual = mutate("campaign", resumed).canonical_bytes()
        if actual != expected:
            out.append(_divergence("campaign[kill+resume]", "aggregate", expected, actual))
    return out


def run_fault_checks(scenario, specs, dataset, expected, mutators=None):
    """Run every check the scenario's fault plan enables."""
    mutators = dict(mutators or {})

    def mutate(name, value):
        fn = mutators.get(name)
        return fn(value) if fn else value

    plan = FaultPlan.from_dict(scenario.fault_plan)
    divergences = []
    stats = {"fault_checks": 0}

    if plan.transport:
        found, chaos_stats = check_transport_chaos(scenario, specs, plan, mutate)
        divergences.extend(found)
        stats.update(chaos_stats)
        stats["fault_checks"] += 1

    if plan.addon_chaos:
        found, addon_stats = check_addon_chaos(scenario, specs, expected, plan, mutate)
        divergences.extend(found)
        stats.update(addon_stats)
        stats["fault_checks"] += 1

        found, rewrite_stats = check_mitigation_chaos(scenario, specs, plan, mutate)
        divergences.extend(found)
        stats.update(rewrite_stats)
        stats["fault_checks"] += 1

    divergences.extend(
        check_kill_resume(scenario, specs, dataset, expected, plan, mutate)
    )
    stats["fault_checks"] += len(plan.kill_events)

    if plan.serve_check:
        divergences.extend(check_serve_snapshot(scenario, specs, dataset, mutate))
        stats["fault_checks"] += 1

    if plan.ingest_check:
        divergences.extend(check_ingest_faults(scenario, specs, dataset, plan, mutate))
        stats["fault_checks"] += 3

    if plan.campaign_check:
        divergences.extend(check_campaign_resume(scenario, specs, mutate))
        stats["fault_checks"] += 1

    return divergences, stats
