"""The capture-time flow journal: writer, reader, and batch equivalence.

The contract under test is exact: a journaled live study equals the
batch study (the journal changes nothing in it), its journal reads back
to a dataset that analyzes to the same :class:`SessionAnalysis` values
(field for field, leak lists included), a capture killed after any
event leaves a journal that reads back exactly its completed sessions,
and any complete line that is not a valid event ends in
:class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core.pipeline import analyze_dataset, run_study
from repro.ingest import JobStore
from repro.ioutil import atomic_write_json, atomic_write_text, iter_jsonl
from repro.mitigate.policy import default_policy
from repro.proxy.addons import StreamCapture
from repro.qa.faults import journal_events, write_journal
from repro.qa.oracle import canonical_bytes
from repro.services.catalog import build_catalog
from repro.stream import (
    FLOW,
    JOURNAL_NAME,
    SESSION_END,
    SESSION_START,
    CheckpointError,
    FlowJournal,
    dataset_from_journal,
    event_from_dict,
    event_to_dict,
    flow_event,
    session_end_event,
    session_start_event,
)

STREAM_SLUGS = ("weather", "cnn", "yelp")
SEEDS = (2016, 7)
DURATION = 40.0


@pytest.fixture(scope="module")
def stream_specs():
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in STREAM_SLUGS]


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def batch_study(seed, stream_specs):
    """Reference batch study (collection + analysis) for one seed."""
    return run_study(stream_specs, seed=seed, duration=DURATION)


@pytest.fixture(scope="module")
def live_journal(seed, stream_specs, tmp_path_factory):
    """The journal a live ``run_study(checkpoint_dir=...)`` wrote."""
    directory = tmp_path_factory.mktemp("live")
    run_study(
        stream_specs,
        seed=seed,
        duration=DURATION,
        train_recon=False,
        checkpoint_dir=directory,
    )
    return directory / JOURNAL_NAME


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


# -- equivalence with the batch path -----------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_stream_equals_batch(batch_study, stream_specs, live_journal, workers):
    """The live journal reads back to the batch study's bytes, whatever
    the worker count that analyzes it (8 is more workers than sessions)."""
    journaled = dataset_from_journal(live_journal)
    assert [r.key for r in journaled] == [r.key for r in batch_study.dataset]
    streamed = analyze_dataset(journaled, stream_specs, executor=workers)
    _assert_equal_studies(batch_study, streamed)
    assert canonical_bytes(streamed) == canonical_bytes(batch_study)


def test_stream_equals_batch_without_recon(
    seed, batch_study, stream_specs, tmp_path
):
    batch = analyze_dataset(batch_study.dataset, stream_specs, train_recon=False)
    streamed = run_study(
        stream_specs,
        seed=seed,
        duration=DURATION,
        train_recon=False,
        checkpoint_dir=tmp_path,
    )
    _assert_equal_studies(batch, streamed)
    assert streamed.recon is None
    journaled = dataset_from_journal(tmp_path / JOURNAL_NAME)
    back = analyze_dataset(journaled, stream_specs, train_recon=False)
    assert canonical_bytes(back) == canonical_bytes(batch)


def test_run_study_streaming_equals_batch(stream_specs, tmp_path):
    """Under a mitigation policy too: the journaled run is the batch run,
    and its journal reads back to the same bytes."""
    policy = default_policy()
    batch = run_study(stream_specs, seed=2016, duration=DURATION, mitigation=policy)
    streamed = run_study(
        stream_specs,
        seed=2016,
        duration=DURATION,
        checkpoint_dir=tmp_path,
        mitigation=policy,
    )
    _assert_equal_studies(batch, streamed)
    assert len(streamed.dataset) == len(batch.dataset)
    journaled = dataset_from_journal(tmp_path / JOURNAL_NAME)
    assert canonical_bytes(analyze_dataset(journaled, stream_specs)) == (
        canonical_bytes(batch)
    )


def test_streaming_run_leaves_proxy_clean(stream_specs, tmp_path):
    """The live capture addon detaches when the journaled study ends."""
    from repro.services.world import build_world

    world = build_world(stream_specs)
    run_study(
        stream_specs,
        seed=2016,
        duration=DURATION,
        world=world,
        train_recon=False,
        checkpoint_dir=tmp_path,
    )
    assert not any(isinstance(a, StreamCapture) for a in world.proxy.addons)


def test_collected_dataset_journals_to_the_capture_bytes(batch_study, live_journal, tmp_path):
    """``repro.qa``'s journal writer reproduces a live capture byte for byte."""
    path = tmp_path / JOURNAL_NAME
    write_journal(batch_study.dataset, path)
    assert path.read_bytes() == live_journal.read_bytes()


# -- a killed capture --------------------------------------------------------


class _Killed(BaseException):
    """The capture process dying: not an ``Exception``, so the proxy's
    addon isolation does not swallow it."""


@pytest.mark.parametrize("kill_after", [5, 150, 400])
def test_kill_and_resume_matches_batch(
    seed, batch_study, stream_specs, live_journal, tmp_path, monkeypatch, kill_after
):
    """A capture killed after N events leaves the journal's first N
    lines, which read back exactly the sessions that ended before the
    kill, each with its batch analysis; re-running it writes the same
    journal and study."""
    publish = FlowJournal.publish
    published = []

    def killing_publish(journal, event):
        if len(published) == kill_after:
            raise _Killed
        published.append(event)
        return publish(journal, event)

    monkeypatch.setattr(FlowJournal, "publish", killing_publish)
    with pytest.raises(_Killed):
        run_study(
            stream_specs, seed=seed, duration=DURATION, checkpoint_dir=tmp_path
        )
    monkeypatch.undo()
    path = tmp_path / JOURNAL_NAME
    killed = path.read_bytes()
    assert killed.count(b"\n") == kill_after
    assert live_journal.read_bytes().startswith(killed)

    ended = [event.session for event in published if event.kind == SESSION_END]
    journaled = dataset_from_journal(path)
    assert [record.key for record in journaled] == ended
    partial = analyze_dataset(journaled, stream_specs, recon=batch_study.recon)
    expected = _sessions(batch_study)
    for key, analysis in _sessions(partial).items():
        assert analysis == expected[key], key

    rerun = run_study(stream_specs, seed=seed, duration=DURATION, checkpoint_dir=tmp_path)
    assert path.read_bytes() == live_journal.read_bytes()
    _assert_equal_studies(batch_study, rerun)


def test_failed_append_raises_checkpoint_error_and_publishes_once(
    stream_specs, tmp_path, monkeypatch
):
    """An ``OSError`` from one journal append (say, a full disk) ends the
    journaled run in a ``CheckpointError`` naming the journal and the
    cause; nothing is published after it and no flow appears twice."""
    publish = FlowJournal.publish
    calls = []

    def failing_publish(journal, event):
        calls.append(event)
        if len(calls) == 10:
            raise OSError(28, "No space left on device")
        return publish(journal, event)

    monkeypatch.setattr(FlowJournal, "publish", failing_publish)
    with pytest.raises(CheckpointError, match="No space left on device") as info:
        run_study(
            stream_specs[:1],
            seed=2016,
            duration=DURATION,
            train_recon=False,
            checkpoint_dir=tmp_path,
        )
    path = tmp_path / JOURNAL_NAME
    assert str(path) in str(info.value)
    assert len(calls) == 10
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 9
    flows = [
        (tuple(line["session"]), line["flow"]["flow_id"])
        for line in lines
        if line["kind"] == FLOW
    ]
    assert flows and len(flows) == len(set(flows))


def test_stream_cli_reports_a_failed_append_in_one_line(tmp_path, monkeypatch):
    from repro.cli import main

    def failing_publish(journal, event):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(FlowJournal, "publish", failing_publish)
    with pytest.raises(SystemExit) as excinfo:
        main([
            "stream", "--services", "weather", "--duration", "20", "--no-recon",
            "--workers", "1", "--checkpoint-dir", str(tmp_path),
        ])
    message = str(excinfo.value.code)
    assert message.startswith("repro stream: ") and "\n" not in message
    assert "No space left on device" in message


def test_journal_cut_at_any_byte_reads_back_completed_sessions(
    batch_study, live_journal
):
    """Cut anywhere — on a line boundary, one byte either side of it, or
    mid-line — the journal reads back the sessions whose ``session_end``
    line survived whole, equal to the collected records."""
    data = live_journal.read_bytes()
    records = list(batch_study.dataset)
    ends = []  # byte offset just past each session_end line
    offset = 0
    for line in data.splitlines(keepends=True):
        offset += len(line)
        if json.loads(line)["kind"] == SESSION_END:
            ends.append(offset)
    cuts = {0, len(data), len(data) // 3, len(data) // 2}
    for end in ends:
        cuts |= {end - 1, end, end + 1}
    cut_path = live_journal.with_name("cut.jsonl")
    for cut in sorted(c for c in cuts if 0 <= c <= len(data)):
        cut_path.write_bytes(data[:cut])
        completed = sum(1 for end in ends if end <= cut)
        assert list(dataset_from_journal(cut_path)) == records[:completed], cut


# -- malformed lines ---------------------------------------------------------


def _one_session_journal(path) -> list:
    """A closed journal holding one complete session of two flows."""
    from repro.net.flow import Flow
    from repro.net.trace import SessionMeta
    from repro.pii.types import PiiType

    meta = SessionMeta(service="svc", os_name="android", medium="app")
    session = ("svc", "android", "app")
    flows = [
        Flow(i, 0.0, "10.0.0.2", 40000 + i, "93.184.216.34", 80, "api.example.com")
        for i in range(2)
    ]
    journal = FlowJournal(path)
    stamped = [
        journal.publish(event)
        for event in [
            session_start_event(meta, {PiiType.EMAIL: ["a@b.com"]}),
            *(flow_event(session, flow) for flow in flows),
            session_end_event(session),
        ]
    ]
    journal.close()
    return stamped


MALFORMED = {
    "session-not-a-list": {"seq": 3, "kind": "flow", "session": 5, "flow": {}},
    "flow-does-not-decode": {
        "seq": 3, "kind": "flow", "session": ["svc", "android", "app"], "flow": {}
    },
    "flow-field-wrong-type": None,  # filled in from a real flow below
    "no-seq": {"kind": "session_end", "session": ["svc", "android", "app"]},
    "seq-is-a-bool": {
        "seq": True, "kind": "session_end", "session": ["svc", "android", "app"]
    },
    "unknown-kind": {"seq": 3, "kind": "rescan", "session": ["svc", "android", "app"]},
    "bad-ground-truth": {
        "seq": 0, "kind": "session_start", "session": ["x", "ios", "web"],
        "meta": None, "ground_truth": {"not-a-pii-type": ["v"]},
    },
    "meta-does-not-decode": {
        "seq": 0, "kind": "session_start", "session": ["x", "ios", "web"],
        "meta": {"service": "x"}, "ground_truth": {},
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_raises_checkpoint_error(tmp_path, case):
    """A complete line that is not a valid event names its ``path:line``;
    the same bytes as a torn (unterminated) tail just end the read."""
    path = tmp_path / JOURNAL_NAME
    stamped = _one_session_journal(path)
    line = MALFORMED[case]
    if line is None:
        line = event_to_dict(stamped[1])
        line["flow"]["hostname"] = 5
    lines = path.read_bytes().splitlines(keepends=True)
    spliced = json.dumps(line).encode("utf-8")
    path.write_bytes(b"".join(lines[:2]) + spliced + b"\n" + b"".join(lines[2:]))
    with pytest.raises(CheckpointError, match=rf"{JOURNAL_NAME}:3: "):
        dataset_from_journal(path)
    assert issubclass(CheckpointError, ValueError)
    path.write_bytes(b"".join(lines[:2]) + spliced)
    assert len(dataset_from_journal(path)) == 0  # the session never ended


def test_unknown_session_flow_raises(tmp_path):
    """An event for a session that is not the open one is not a valid
    event: a flow or end outside its session, or a start while another
    session is open."""
    path = tmp_path / JOURNAL_NAME
    stamped = _one_session_journal(path)
    good = path.read_bytes().splitlines(keepends=True)
    stray = [
        event_to_dict(session_end_event(("nope", "android", "app"))),
        event_to_dict(flow_event(("nope", "android", "app"), stamped[1].flow)),
        event_to_dict(stamped[0]),  # a second start inside the session
    ]
    for line in stray:
        spliced = good[:2] + [json.dumps(line).encode("utf-8") + b"\n"] + good[2:]
        path.write_bytes(b"".join(spliced))
        with pytest.raises(CheckpointError, match=":3: "):
            dataset_from_journal(path)
    path.write_bytes(b"".join(good + good))  # the same session twice
    with pytest.raises(CheckpointError, match=":5: .*already journaled"):
        dataset_from_journal(path)


# -- torn tails --------------------------------------------------------------


def _assert_journal_recovers(path, stamped) -> list:
    """The flow journal's reader keeps exactly an intact prefix of a torn
    journal and never writes it.  Returns the surviving sequence numbers.
    """
    torn = path.read_bytes()
    survivors = [record["seq"] for _line, record in iter_jsonl(path)]
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
    journaled = [event["job"] for _line, event in iter_jsonl(reopened.journal_path)]
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
    stamped = [journal.publish(event) for event in session_start_event_fixture()]
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
    from repro.net.trace import SessionMeta
    from repro.pii.types import PiiType

    journal = FlowJournal(path)
    meta = SessionMeta(service="café", os_name="android", medium="app")
    events = [
        session_start_event(meta, {PiiType.NAME: ["Renée Müller", "José"]}),
        session_end_event(("café", "android", "app")),
    ]
    stamped = [journal.publish(event) for event in events]
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
    journal's one reader drops it and leaves the file untouched."""
    path = tmp_path / "journal.jsonl"
    stamped, _ = _non_ascii_journal(path)
    tear = _append(
        '{"note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1] + b"\n"
    )
    tear(path)

    assert _assert_journal_recovers(path, stamped) == [e.seq for e in stamped]
    _assert_job_journal_recovers(tmp_path / "ingest", tear)


# -- the journal's writer and event model ------------------------------------


def test_journal_publish_stamps_monotonic_seq(tmp_path):
    journal = FlowJournal(tmp_path / JOURNAL_NAME)
    session = ("svc", "android", "app")
    events = [
        journal.publish(session_end_event(session)),
        journal.publish(session_end_event(("other", "ios", "web"))),
        journal.publish(session_end_event(session)),
    ]
    journal.close()
    assert [e.seq for e in events] == [0, 1, 2]
    assert [r["seq"] for _line, r in iter_jsonl(tmp_path / JOURNAL_NAME)] == [0, 1, 2]
    reopened = FlowJournal(tmp_path / JOURNAL_NAME)  # a new capture starts fresh
    assert reopened.publish(session_end_event(session)).seq == 0
    reopened.close()
    assert (tmp_path / JOURNAL_NAME).read_bytes().count(b"\n") == 1


def test_event_json_roundtrip(batch_study):
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
    kinds = [event.kind for event in journal_events(batch_study.dataset)]
    assert kinds.count(SESSION_START) == kinds.count(SESSION_END) == len(batch_study.dataset)


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
