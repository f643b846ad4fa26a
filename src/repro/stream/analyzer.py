"""Sharded online analyzers over the flow event bus.

Each session's analysis state lives in exactly one shard (stable hash
of the session key), and every aggregate the batch pipeline computes
per trace — flow counts, A&A domains/flows/bytes, third-party domains,
matching-based leak records — is folded in *per flow* as events arrive.

ReCon is the one stage that cannot run flow-at-a-time with batch
semantics: the classifier is trained on a slice of the *whole*
campaign (``train_recon_on_dataset``), so its predictions depend on
traffic that hasn't happened yet.  The streaming pipeline therefore
mirrors how ReCon-style systems deploy in practice — string matching
and traffic accounting are fully online, while the ML pass is
deferred: at end of stream the finalizer reads the flow journal back
as a dataset and hands it to the batch
:func:`~repro.core.pipeline.analyze_dataset`, which trains the
classifier, analyzes each session with the combined detector and
assembles the study.  With ReCon disabled (``train_recon=False``) the
stream is strictly single-pass: the shards' online analyses are the
result, assembled by the batch path's
:func:`~repro.core.pipeline.assemble_study`.

Equivalence, not similarity, is the bar: ``tests/test_stream.py`` pins
that for any seed, shard count, and kill/resume point the resulting
:class:`~repro.core.pipeline.StudyResult` sessions are *equal* (Python
``==`` over every field, leak lists included) to batch
``analyze_dataset``.
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Optional

from ..core.leaks import LeakPolicy
from ..core.pipeline import (
    SessionAnalysis,
    StudyResult,
    analyze_dataset,
    assemble_study,
    categorizer_for,
)
from ..experiment.dataset import Dataset
from ..experiment.filtering import is_background_flow
from ..net.trace import SessionMeta
from ..pii.detector import PiiDetector
from ..pii.matcher import matcher_for
from ..pii.recon import ReconClassifier
from .bus import (
    FLOW,
    SESSION_END,
    SESSION_START,
    FlowBus,
    StreamEvent,
    flow_event,
    ground_truth_to_json,
    ground_truth_from_json,
    session_end_event,
    session_start_event,
)
from .checkpoint import CheckpointManager, FlowJournal, dataset_from_journal

#: How many flow events a shard folds in between checkpoint snapshots.
DEFAULT_CHECKPOINT_EVERY = 200


class StreamError(Exception):
    """Raised on invalid stream state (unknown session, dead shard, …)."""


class SessionState:
    """One session's online analysis state inside a shard.

    ``ingest_flow`` performs exactly the per-flow work of the batch
    :func:`~repro.core.pipeline.analyze_session` loop — background
    filtering, the shared :meth:`SessionAnalysis.count_flow` traffic
    accounting, and matching-based detection + leak policy via the
    *same* detector and policy classes — so the running aggregates
    equal the batch result at every prefix of the stream.
    """

    def __init__(self, key: tuple, ground_truth: dict, spec) -> None:
        self.key = key
        self.ground_truth = ground_truth
        self.spec = spec
        self.ended = False
        self.analysis = SessionAnalysis(
            service=key[0], os_name=key[1], medium=key[2]
        )
        self._wire_engines()

    def _wire_engines(self) -> None:
        self._categorizer = categorizer_for(self.spec)
        self._policy = LeakPolicy(self._categorizer)
        self._detector = PiiDetector(matcher_for(self.ground_truth), recon=None)

    def ingest_flow(self, flow) -> None:
        if is_background_flow(flow):
            return
        self.analysis.count_flow(flow, self._categorizer)
        if flow.decrypted:
            for txn in flow.transactions:
                observations, _ = self._detector.scan_transaction(flow, txn)
                self.analysis.leaks.extend(self._policy.classify_all(observations))

    def merge(self, other: "SessionState") -> "SessionState":
        """Combine two partial states of the *same* session key.

        Used when a session's flows were split across shards (or across
        resumed epochs): analyses merge field-wise via
        :meth:`SessionAnalysis.merge` (associative), ``ended`` ORs.
        Neither operand is mutated; engines are re-wired fresh on the
        merged state.
        """
        if self.key != other.key:
            raise StreamError(
                f"cannot merge session {other.key} into {self.key}"
            )
        merged = SessionState(self.key, self.ground_truth, self.spec)
        merged.ended = self.ended or other.ended
        merged.analysis = self.analysis.merge(other.analysis)
        return merged

    # -- checkpoint (de)serialization ---------------------------------------

    def to_checkpoint(self) -> dict:
        return {
            "key": list(self.key),
            "ended": self.ended,
            "ground_truth": ground_truth_to_json(self.ground_truth),
            "analysis": self.analysis.to_dict(),
        }

    @classmethod
    def from_checkpoint(cls, data: dict, spec) -> "SessionState":
        state = cls.__new__(cls)
        state.key = tuple(data["key"])
        state.ground_truth = ground_truth_from_json(data["ground_truth"])
        state.spec = spec
        state.ended = bool(data["ended"])
        state.analysis = SessionAnalysis.from_dict(data["analysis"])
        state._wire_engines()
        return state


class ShardWorker:
    """Consumes one shard's queue and owns its sessions' state.

    ``watermark`` is the highest event sequence folded into the state;
    events at or below it (re-published during a resume) are skipped
    without any analysis work.
    """

    def __init__(
        self,
        index: int,
        specs_by_slug: dict,
        checkpoint: Optional[CheckpointManager] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.index = index
        self.specs_by_slug = specs_by_slug
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.sessions: dict = {}  # key -> SessionState
        self.watermark = -1
        self.error: Optional[BaseException] = None
        self._flows_since_snapshot = 0

    def restore(self) -> None:
        """Reload this shard's snapshot, if one exists."""
        if self.checkpoint is None:
            return
        data = self.checkpoint.load_shard(self.index)
        if data is None:
            return
        self.watermark = data["watermark"]
        for entry in data["sessions"]:
            slug = entry["key"][0]
            spec = self.specs_by_slug.get(slug)
            if spec is None:
                raise StreamError(f"checkpointed session for unknown service {slug!r}")
            state = SessionState.from_checkpoint(entry, spec)
            self.sessions[state.key] = state

    def process(self, event: StreamEvent) -> None:
        if event.seq <= self.watermark:
            return  # already folded in before the checkpoint we resumed from
        if event.kind == SESSION_START:
            spec = self.specs_by_slug.get(event.session[0])
            if spec is None:
                raise StreamError(
                    f"session for unknown service {event.session[0]!r}"
                )
            self.sessions[event.session] = SessionState(
                event.session, event.ground_truth or {}, spec
            )
        elif event.kind == FLOW:
            state = self.sessions.get(event.session)
            if state is None:
                raise StreamError(f"flow for unknown session {event.session}")
            state.ingest_flow(event.flow)
            self._flows_since_snapshot += 1
        elif event.kind == SESSION_END:
            state = self.sessions.get(event.session)
            if state is None:
                raise StreamError(f"end for unknown session {event.session}")
            state.ended = True
        self.watermark = event.seq
        if (
            self.checkpoint is not None
            and self._flows_since_snapshot >= self.checkpoint_every
        ):
            self.snapshot()

    def snapshot(self) -> None:
        if self.checkpoint is None:
            return
        self.checkpoint.save_shard(
            self.index,
            self.watermark,
            [state.to_checkpoint() for state in self.sessions.values()],
        )
        self._flows_since_snapshot = 0

    def run(self, bus: FlowBus) -> None:
        """Thread target: drain the shard queue until the bus closes."""
        try:
            for event in bus.consume(self.index):
                self.process(event)
        except BaseException as exc:  # surfaced by StreamAnalyzer.finish
            self.error = exc


def merge_session_states(shard_mappings) -> dict:
    """Associatively merge per-shard ``{key: SessionState}`` mappings.

    With the hash-partitioned bus each session lives on exactly one
    shard, so this degenerates to a dict union — but states sharing a
    key (hierarchical shard combining, resumed epochs) merge via
    :meth:`SessionState.merge`, and because every underlying field
    combine is associative and commutative-up-to-leak-order, any
    grouping of shards produces the same study (pinned in
    ``tests/test_stream_merge.py``).
    """
    states: dict = {}
    for mapping in shard_mappings:
        for key, state in mapping.items():
            mine = states.get(key)
            states[key] = state if mine is None else mine.merge(state)
    return states


class StreamAnalyzer:
    """Coordinator: bus + shard workers + finalization into a study.

    Feed it events with :meth:`publish` (or attach a
    :class:`~repro.proxy.addons.StreamCapture` addon whose sink is
    ``analyzer.publish``), then call :meth:`finalize` to train/apply
    ReCon and assemble the :class:`StudyResult`.
    """

    def __init__(
        self,
        services: list,
        shards: int = 1,
        queue_size: int = 1024,
        checkpoint_dir=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        resume: bool = False,
        executor=1,
    ) -> None:
        self.services = list(services)
        self.specs_by_slug = {spec.slug: spec for spec in self.services}
        self.executor = executor  # executor or worker count for the ReCon replay
        self._tempdir = None
        if checkpoint_dir is None:
            # The journal backs the deferred ReCon replay even when the
            # caller doesn't want durable checkpoints.
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-stream-")
            journal_dir = self._tempdir.name
            self.checkpoint: Optional[CheckpointManager] = None
            journal_path = f"{journal_dir}/journal.jsonl"
        else:
            self.checkpoint = CheckpointManager(checkpoint_dir, shards)
            journal_path = self.checkpoint.journal_path
        self.journal = FlowJournal(journal_path, resume=resume)
        self.bus = FlowBus(shards=shards, queue_size=queue_size, journal=self.journal)
        self.workers = [
            ShardWorker(
                index,
                self.specs_by_slug,
                checkpoint=self.checkpoint,
                checkpoint_every=checkpoint_every,
            )
            for index in range(shards)
        ]
        if resume:
            for worker in self.workers:
                worker.restore()
        self._threads: list = []
        self._started = False
        self._finished = False
        self._started_at = 0.0
        self.elapsed = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._started_at = time.perf_counter()
        for worker in self.workers:
            thread = threading.Thread(
                target=worker.run,
                args=(self.bus,),
                name=f"repro-stream-shard-{worker.index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def publish(self, event: StreamEvent) -> None:
        self.bus.publish(event)

    def finish(self, snapshot: bool = True) -> None:
        """Close the bus, join the shards, surface any shard error.

        ``snapshot=False`` skips the final checkpoint — used by tests
        to simulate a crash that loses post-snapshot state.
        """
        if self._finished:
            return
        self._finished = True
        self.bus.close()
        for thread in self._threads:
            thread.join()
        self.elapsed = time.perf_counter() - self._started_at if self._started else 0.0
        for worker in self.workers:
            if worker.error is not None:
                raise StreamError(
                    f"shard {worker.index} failed: {worker.error!r}"
                ) from worker.error
        if snapshot and self.checkpoint is not None:
            for worker in self.workers:
                worker.snapshot()

    def abort(self) -> None:
        """Simulated kill: stop consuming without a final snapshot."""
        self.finish(snapshot=False)
        self.journal.close()

    # -- finalization --------------------------------------------------------

    def session_states(self) -> dict:
        return merge_session_states(worker.sessions for worker in self.workers)

    def finalize(
        self,
        train_recon: bool = True,
        recon: Optional[ReconClassifier] = None,
    ) -> StudyResult:
        """End the stream and assemble the study (batch-equivalent).

        With ReCon on (``recon`` passed in, or ``train_recon``) the
        journal's sessions, in session-key order, go through
        :func:`~repro.core.pipeline.analyze_dataset`, which trains,
        analyzes and assembles exactly as the batch path does; the
        shards' matching-only state is only the live view.  Without
        ReCon the shards' analyses are the result.
        """
        self.finish()
        self.journal.close()
        try:
            states = self.session_states()
            incomplete = sorted(key for key, state in states.items() if not state.ended)
            if incomplete:
                raise StreamError(f"stream ended mid-session: {incomplete}")
            if states and (recon is not None or train_recon):
                dataset = Dataset()
                journaled = dataset_from_journal(self.journal.path)
                for record in sorted(journaled, key=lambda record: record.key):
                    dataset.add(record)
                return analyze_dataset(
                    dataset,
                    self.services,
                    recon=recon,
                    train_recon=train_recon,
                    executor=self.executor,
                )
            return assemble_study(
                (states[key].analysis for key in sorted(states)), self.services
            )
        finally:
            if self._tempdir is not None:
                self._tempdir.cleanup()

    # -- live stats ----------------------------------------------------------

    @property
    def flows_per_second(self) -> float:
        elapsed = (
            self.elapsed
            if self._finished
            else (time.perf_counter() - self._started_at if self._started else 0.0)
        )
        if elapsed <= 0.0:
            return 0.0
        return self.bus.stats.flows / elapsed


class DatasetStreamer:
    """Publishes a collected :class:`Dataset` through a stream analyzer.

    The event sequence is a pure function of the dataset (sessions in
    key order, flows in capture order), which is what makes sequence
    numbers line up across a kill and a resume.
    """

    def __init__(self, dataset: Dataset, services: list, **analyzer_kwargs) -> None:
        self.dataset = dataset
        self.services = services
        self.analyzer = StreamAnalyzer(services, **analyzer_kwargs)
        self._specs_by_slug = self.analyzer.specs_by_slug

    def events(self):
        for record in sorted(self.dataset, key=lambda r: r.key):
            spec = self._specs_by_slug.get(record.service)
            meta = SessionMeta(
                service=record.service,
                os_name=record.os_name,
                medium=record.medium,
                category=spec.category if spec is not None else "",
                duration=record.duration,
                session_id=f"{record.service}-{record.os_name}-{record.medium}",
            )
            yield session_start_event(meta, record.ground_truth)
            for flow in record.trace:
                yield flow_event(record.key, flow)
            yield session_end_event(record.key)

    def run(self, limit: Optional[int] = None) -> int:
        """Publish up to ``limit`` events (all of them when ``None``)."""
        self.analyzer.start()
        published = 0
        for event in self.events():
            if limit is not None and published >= limit:
                break
            self.analyzer.publish(event)
            published += 1
        return published

    def finalize(self, train_recon: bool = True, recon=None) -> StudyResult:
        study = self.analyzer.finalize(train_recon=train_recon, recon=recon)
        study.dataset = self.dataset
        return study


def stream_dataset(
    dataset: Dataset,
    services: list,
    shards: int = 1,
    train_recon: bool = True,
    recon: Optional[ReconClassifier] = None,
    queue_size: int = 1024,
    checkpoint_dir=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
    executor=1,
) -> StudyResult:
    """Evaluate a collected dataset through the streaming subsystem.

    The streaming twin of :func:`repro.core.pipeline.analyze_dataset`:
    same inputs, byte-for-byte equal output, for any ``shards`` value
    and any ``executor`` worker count (the deferred ReCon replay fans
    out through :mod:`repro.par`).  With ``checkpoint_dir`` set, a killed
    run re-invoked with ``resume=True`` picks up from the last snapshot
    without re-analyzing already-processed flows.
    """
    streamer = DatasetStreamer(
        dataset,
        services,
        shards=shards,
        queue_size=queue_size,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        executor=executor,
    )
    streamer.run()
    return streamer.finalize(train_recon=train_recon, recon=recon)
