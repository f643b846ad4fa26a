"""Streaming subsystem: bus, checkpoints, and batch equivalence.

The contract under test is exact: for any seed, any shard count, and
any kill/resume point, the streaming pipeline's :class:`SessionAnalysis`
results must *equal* (field-for-field, leak lists included) what the
batch ``analyze_dataset`` reference path produces.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.pipeline import analyze_dataset, run_study
from repro.ingest import JobStore
from repro.ioutil import atomic_write_json, atomic_write_text, iter_jsonl
from repro.proxy.addons import StreamCapture
from repro.services.catalog import build_catalog
from repro.stream import (
    FLOW,
    SESSION_END,
    SESSION_START,
    CheckpointManager,
    DatasetStreamer,
    FlowBus,
    FlowJournal,
    StreamAnalyzer,
    StreamError,
    dataset_from_journal,
    event_from_dict,
    event_to_dict,
    flow_event,
    session_end_event,
    session_start_event,
    stream_dataset,
)
from repro.stream.bus import shard_for

STREAM_SLUGS = ("weather", "cnn", "yelp")
SEEDS = (2016, 7)
DURATION = 40.0


@pytest.fixture(scope="module")
def stream_specs():
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in STREAM_SLUGS]


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def batch_study(request, stream_specs):
    """Reference batch study (collection + analysis) for one seed."""
    return run_study(stream_specs, seed=request.param, duration=DURATION)


def _sessions(study) -> dict:
    return {(a.service, a.os_name, a.medium): a for a in study.analyses()}


def _assert_equal_studies(batch, streamed) -> None:
    expected = _sessions(batch)
    actual = _sessions(streamed)
    assert set(actual) == set(expected)
    for key in sorted(expected):
        assert actual[key] == expected[key], key
    assert [r.spec.slug for r in streamed.services] == [
        r.spec.slug for r in batch.services
    ]


# -- equivalence with the batch reference path ------------------------------


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_stream_equals_batch(batch_study, stream_specs, shards):
    streamed = stream_dataset(batch_study.dataset, stream_specs, shards=shards)
    _assert_equal_studies(batch_study, streamed)


def test_stream_equals_batch_without_recon(batch_study, stream_specs):
    batch = analyze_dataset(batch_study.dataset, stream_specs, train_recon=False)
    streamed = stream_dataset(
        batch_study.dataset, stream_specs, shards=2, train_recon=False
    )
    _assert_equal_studies(batch, streamed)
    assert streamed.recon is None


def test_run_study_streaming_equals_batch(stream_specs):
    batch = run_study(stream_specs, seed=2016, duration=DURATION)
    streamed = run_study(
        stream_specs, seed=2016, duration=DURATION, streaming=True, shards=2
    )
    _assert_equal_studies(batch, streamed)
    assert len(streamed.dataset) == len(batch.dataset)


def test_streaming_run_leaves_proxy_clean(stream_specs):
    """The live capture addon detaches when the streaming study ends."""
    from repro.services.world import build_world

    world = build_world(stream_specs)
    run_study(
        stream_specs,
        seed=2016,
        duration=DURATION,
        world=world,
        streaming=True,
    )
    assert not any(isinstance(a, StreamCapture) for a in world.proxy.addons)


# -- crash + resume ----------------------------------------------------------


@pytest.mark.parametrize("kill_after", [5, 150, 400])
def test_kill_and_resume_matches_batch(
    batch_study, stream_specs, tmp_path, kill_after
):
    checkpoint = tmp_path / "ckpt"
    first = DatasetStreamer(
        batch_study.dataset,
        stream_specs,
        shards=2,
        checkpoint_dir=checkpoint,
        checkpoint_every=25,
    )
    published = first.run(limit=kill_after)
    assert published == kill_after
    first.analyzer.abort()  # simulated kill: no final snapshot

    resumed = DatasetStreamer(
        batch_study.dataset,
        stream_specs,
        shards=2,
        checkpoint_dir=checkpoint,
        checkpoint_every=25,
        resume=True,
    )
    resumed.run()
    _assert_equal_studies(batch_study, resumed.finalize())


def test_resume_skips_checkpointed_events(batch_study, stream_specs, tmp_path):
    """Events at or below a shard's watermark are not re-analyzed."""
    first = DatasetStreamer(
        batch_study.dataset,
        stream_specs,
        shards=1,
        checkpoint_dir=tmp_path,
        checkpoint_every=10,
    )
    first.run(limit=200)
    first.analyzer.abort()
    snapshot = json.loads((tmp_path / "shard-0.json").read_text())
    assert snapshot["watermark"] >= 0

    resumed = StreamAnalyzer(
        stream_specs, shards=1, checkpoint_dir=tmp_path, resume=True
    )
    worker = resumed.workers[0]
    assert worker.watermark == snapshot["watermark"]
    ingested = []
    for state in worker.sessions.values():
        original = state.ingest_flow
        state.ingest_flow = lambda flow, _orig=original: ingested.append(flow)
    # Replaying an already-folded event must be a no-op.
    replayed = 0
    for event in map(event_from_dict, iter_jsonl(tmp_path / "journal.jsonl")):
        if event.seq <= worker.watermark and event.kind == FLOW:
            worker.process(event)
            replayed += 1
    assert replayed > 0
    assert ingested == []
    resumed.bus.close()
    resumed.journal.close()


def test_shard_count_change_rejected(batch_study, stream_specs, tmp_path):
    from repro.stream import CheckpointError

    first = DatasetStreamer(
        batch_study.dataset,
        stream_specs,
        shards=2,
        checkpoint_dir=tmp_path,
        checkpoint_every=10,
    )
    first.run(limit=100)
    first.analyzer.abort()
    with pytest.raises(CheckpointError):
        DatasetStreamer(
            batch_study.dataset,
            stream_specs,
            shards=4,
            checkpoint_dir=tmp_path,
            resume=True,
        )


def _assert_journal_recovers(path, stamped) -> list:
    """Every reader of a torn flow journal keeps exactly an intact prefix.

    The read-only dataset reader goes first and must leave the file as
    it found it; a resuming :class:`FlowJournal` then cuts the torn tail
    off once, leaving only complete, parseable lines.  Returns the
    surviving sequence numbers.
    """
    torn = path.read_bytes()
    survivors = [record["seq"] for record in iter_jsonl(path)]
    assert survivors == [event.seq for event in stamped][: len(survivors)]
    dataset = dataset_from_journal(path)
    assert path.read_bytes() == torn
    start, end = stamped[0], stamped[-1]
    if survivors[-1:] == [end.seq]:
        (record,) = dataset
        assert record.key == start.session
        assert record.ground_truth == start.ground_truth
    else:
        assert len(dataset) == 0  # a session without its end is dropped
    recovered = FlowJournal(path, resume=True)
    recovered.close()
    assert recovered.last_seq == (survivors[-1] if survivors else -1)
    assert [record["seq"] for record in iter_jsonl(path)] == survivors
    for line in path.read_bytes().splitlines():
        json.loads(line.decode("utf-8"))
    return survivors


def _assert_job_journal_recovers(root, tear) -> None:
    """The ingest job journal is one more input to the same reader: a
    :class:`JobStore` reopened over a torn journal cuts the tail once,
    so its next append lands on a line of its own."""
    first = JobStore(root)
    first.create("t", b"a", 1)
    first.create("t", b"b", 1)
    tear(first.journal_path)
    reopened = JobStore(root)
    late = reopened.create("t", b"c", 1)
    journaled = [event["job"] for event in iter_jsonl(reopened.journal_path)]
    assert journaled[-1] == late.job_id
    for line in reopened.journal_path.read_bytes().splitlines():
        json.loads(line.decode("utf-8"))


def _append(tail: bytes):
    def tear(path):
        with path.open("ab") as handle:
            handle.write(tail)

    return tear


def _cut(count: int):
    def tear(path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - count])

    return tear


def test_journal_recovers_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = FlowJournal(path)
    first = session_start_event_fixture()
    stamped = []
    for seq, event in enumerate(first):
        from dataclasses import replace

        event = replace(event, seq=seq)
        journal.append(event)
        stamped.append(event)
    journal.close()
    # Simulate a crash mid-write: torn, newline-less final line.
    tail = b'{"seq": 99, "kind": "flow", "ses'
    _append(tail)(path)

    assert _assert_journal_recovers(path, stamped) == [e.seq for e in stamped]
    _assert_job_journal_recovers(tmp_path / "ingest", _append(tail))


def session_start_event_fixture():
    from repro.net.trace import SessionMeta
    from repro.pii.types import PiiType

    meta = SessionMeta(service="svc", os_name="android", medium="app")
    yield session_start_event(meta, {PiiType.EMAIL: ["a@b.com"]})
    yield session_end_event(("svc", "android", "app"))


def _non_ascii_journal(path):
    """A closed journal whose lines contain multi-byte UTF-8 values."""
    from dataclasses import replace

    from repro.net.trace import SessionMeta
    from repro.pii.types import PiiType

    journal = FlowJournal(path)
    meta = SessionMeta(service="café", os_name="android", medium="app")
    events = [
        session_start_event(meta, {PiiType.NAME: ["Renée Müller", "José"]}),
        session_end_event(("café", "android", "app")),
    ]
    stamped = [replace(event, seq=seq) for seq, event in enumerate(events)]
    for event in stamped:
        journal.append(event)
    journal.close()
    data = path.read_bytes()
    assert max(data) > 0x7F, "journal must actually contain multi-byte UTF-8"
    return stamped, data


def test_journal_writes_utf8_not_ascii_escapes(tmp_path):
    _, data = _non_ascii_journal(tmp_path / "journal.jsonl")
    assert "Renée".encode("utf-8") in data
    assert b"\\u00e9" not in data


@pytest.mark.parametrize("cut", [1, 2, 3, 5, 9, 17, 33])
def test_journal_recovers_tail_cut_at_arbitrary_byte(tmp_path, cut):
    """A crash can truncate anywhere — including inside a UTF-8 char."""
    path = tmp_path / "journal.jsonl"
    stamped, data = _non_ascii_journal(path)
    path.write_bytes(data[: len(data) - cut])

    _assert_journal_recovers(path, stamped)
    _assert_job_journal_recovers(tmp_path / "ingest", _cut(cut))


def test_journal_recovers_tail_cut_mid_utf8_char(tmp_path):
    path = tmp_path / "journal.jsonl"
    stamped, data = _non_ascii_journal(path)
    multibyte_start = max(
        i for i, byte in enumerate(data) if byte >= 0xC2
    )
    path.write_bytes(data[: multibyte_start + 1])  # first byte of the char only

    assert _assert_journal_recovers(path, stamped) == [stamped[0].seq]


TORN_TAILS = [
    b'{"seq": 99, "kind": "flow", "ses',  # partial JSON, clean UTF-8
    b'{"seq": 99, "kind": "flow"\xff\xfe\x00',  # binary garbage
    '{"note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1],  # mid-char
    b"\xf0\x9f\x92",  # truncated 4-byte emoji, no JSON at all
]


@pytest.mark.parametrize("tail", TORN_TAILS)
def test_journal_recovers_torn_tail_variants(tmp_path, tail):
    path = tmp_path / "journal.jsonl"
    stamped, _ = _non_ascii_journal(path)
    _append(tail)(path)

    assert _assert_journal_recovers(path, stamped) == [e.seq for e in stamped]
    _assert_job_journal_recovers(tmp_path / "ingest", _append(tail))


def test_serve_journal_reader_tolerates_mid_utf8_tear(tmp_path):
    """A *terminated* line torn mid-character ends the read too: the
    one reader the finalizer and the serving layer share drops it and
    leaves the file untouched."""
    path = tmp_path / "journal.jsonl"
    stamped, _ = _non_ascii_journal(path)
    tear = _append(
        '{"note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1] + b"\n"
    )
    tear(path)

    assert _assert_journal_recovers(path, stamped) == [e.seq for e in stamped]
    _assert_job_journal_recovers(tmp_path / "ingest", tear)


# -- bus ---------------------------------------------------------------------


def test_shard_assignment_is_stable_and_in_range():
    sessions = [("weather", "android", "app"), ("cnn", "ios", "web")]
    for session in sessions:
        for shards in (1, 2, 8, 13):
            first = shard_for(session, shards)
            assert 0 <= first < shards
            assert shard_for(session, shards) == first  # content hash, not hash()
    assert shard_for(sessions[0], 1) == 0


def test_bus_stamps_monotonic_seq_and_counts():
    bus = FlowBus(shards=2)
    session = ("svc", "android", "app")
    events = [
        bus.publish(session_end_event(session)),
        bus.publish(session_end_event(("other", "ios", "web"))),
        bus.publish(session_end_event(session)),
    ]
    assert [e.seq for e in events] == [0, 1, 2]
    assert bus.stats.events == 3
    bus.close()
    with pytest.raises(RuntimeError):
        bus.publish(session_end_event(session))


def test_bus_backpressure_blocks_until_consumed(batch_study):
    record = next(iter(batch_study.dataset))
    bus = FlowBus(shards=1, queue_size=1)
    session = record.key
    consumed = []

    def consumer():
        for event in bus.consume(0):
            consumed.append(event)

    thread = threading.Thread(target=consumer)
    thread.start()
    for flow in record.trace:
        bus.publish(flow_event(session, flow))  # would deadlock without a consumer
    bus.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(consumed) == len(record.trace)
    assert [e.seq for e in consumed] == sorted(e.seq for e in consumed)


def test_event_json_roundtrip(batch_study):
    from dataclasses import replace

    record = next(iter(batch_study.dataset))
    events = [
        session_start_event(record.trace.meta, record.ground_truth),
        flow_event(record.key, next(iter(record.trace))),
        session_end_event(record.key),
    ]
    for seq, event in enumerate(events):
        stamped = replace(event, seq=seq)
        back = event_from_dict(json.loads(json.dumps(event_to_dict(stamped))))
        assert back.kind == stamped.kind
        assert back.session == stamped.session
        assert back.seq == seq
        if stamped.kind == SESSION_START:
            assert back.ground_truth == record.ground_truth
        if stamped.kind == FLOW:
            assert back.flow == stamped.flow


def test_unknown_session_flow_raises(stream_specs):
    analyzer = StreamAnalyzer(stream_specs, shards=1)
    analyzer.start()
    analyzer.publish(session_end_event(("nope", "android", "app")))
    with pytest.raises(StreamError):
        analyzer.finish()
    analyzer.journal.close()


# -- live capture addon ------------------------------------------------------


def test_stream_capture_publishes_in_connect_order():
    """Closed-prefix flushing makes publish order independent of close order."""

    class _Flow:
        def __init__(self, flow_id):
            self.flow_id = flow_id

    class _Meta:
        service, os_name, medium = "svc", "android", "app"

    published = []
    capture = StreamCapture(published.append)
    capture.stage_ground_truth({})
    capture.capture_start(_Meta())
    flows = [_Flow(i) for i in range(4)]
    for flow in flows:
        capture.tcp_connect(flow)
    # Close out of order: 2 first, then 0 (flushes 0..2), 3, then stop.
    capture.tcp_close(flows[2])
    capture.tcp_close(flows[0])
    capture.tcp_close(flows[1])
    capture.tcp_close(flows[3])
    capture.capture_stop(None)

    kinds = [e.kind for e in published]
    assert kinds == [SESSION_START, FLOW, FLOW, FLOW, FLOW, SESSION_END]
    assert [e.flow.flow_id for e in published if e.kind == FLOW] == [0, 1, 2, 3]


# -- atomic writes (satellite) ----------------------------------------------


def test_atomic_write_text_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new contents\n")
    assert target.read_text() == "new contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp litter


def test_atomic_write_json(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"a": [1, 2]})
    assert json.loads(target.read_text()) == {"a": [1, 2]}


def test_dataset_save_is_atomic(batch_study, tmp_path):
    out = tmp_path / "ds"
    batch_study.dataset.save(out)
    leftovers = [p.name for p in out.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    from repro.experiment.dataset import Dataset

    reloaded = Dataset.load(out)
    assert len(reloaded) == len(batch_study.dataset)


# -- session analysis serialization -----------------------------------------


def test_session_analysis_roundtrip(batch_study):
    from repro.core.pipeline import SessionAnalysis

    for analysis in batch_study.analyses():
        data = json.loads(json.dumps(analysis.to_dict()))
        assert SessionAnalysis.from_dict(data) == analysis


# -- CLI (satellite) ---------------------------------------------------------


def test_resolve_workers_zero_means_all_cores():
    from repro.par import resolve_executor

    assert resolve_executor(3).workers == 3
    usable = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    assert resolve_executor(0).workers == usable


def test_cli_stream_replay(batch_study, tmp_path, capsys):
    from repro.cli import main

    directory = tmp_path / "ds"
    batch_study.dataset.save(directory)
    assert main(["stream", "--dataset", str(directory), "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "flows/s" in out
    assert "Group" in out  # table 1 rendered
