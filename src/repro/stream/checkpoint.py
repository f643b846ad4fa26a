"""The capture-time flow journal: its event model, writer and reader.

A checkpoint directory holds one file, ``journal.jsonl``: every event
of one live capture, one JSON line each, appended as the capture runs.
Three event kinds mirror the capture lifecycle of one experiment cell:

- ``session_start`` — session metadata plus the device's ground-truth
  PII (known at capture start: identifiers are burned in at
  provisioning, persona values at sign-in);
- ``flow`` — one *finalized* flow.  The capture addon emits a flow once
  it can no longer change (its connection closed, or the capture
  stopped), and always in ``flow_id`` order within the session;
- ``session_end`` — the cell finished.

:class:`FlowJournal` stamps each event with the next sequence number
and appends its line; :func:`dataset_from_journal` folds a journal back
into a :class:`~repro.experiment.dataset.Dataset`, read-only.  The
event stream is a pure function of the capture, so the same services,
seed and duration always write the same journal bytes: a killed capture
is simply run again, and the journal it left behind can still be
served up to its last complete session.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from ..experiment.dataset import Dataset, SessionRecord
from ..ioutil import iter_jsonl
from ..net import codec
from ..net.flow import Flow
from ..net.trace import SessionMeta, Trace
from ..pii.types import PiiType

SESSION_START = "session_start"
FLOW = "flow"
SESSION_END = "session_end"

JOURNAL_NAME = "journal.jsonl"

# What decoding a malformed meta, ground truth or flow raises.
_UNDECODABLE = (
    AttributeError, KeyError, TypeError, ValueError, struct.error, codec.CodecError
)


class CheckpointError(ValueError):
    """A complete journal line that is not a valid event."""


@dataclass(frozen=True)
class StreamEvent:
    """One captured lifecycle event, as journaled."""

    kind: str  # SESSION_START | FLOW | SESSION_END
    session: tuple  # (service, os_name, medium)
    seq: int = -1  # stamped by FlowJournal.publish
    meta: Optional[SessionMeta] = None  # session_start only
    ground_truth: Optional[dict] = None  # session_start only
    flow: Optional[Flow] = None  # flow only


def session_start_event(meta: SessionMeta, ground_truth: dict) -> StreamEvent:
    return StreamEvent(
        kind=SESSION_START,
        session=(meta.service, meta.os_name, meta.medium),
        meta=meta,
        ground_truth=ground_truth,
    )


def flow_event(session: tuple, flow: Flow) -> StreamEvent:
    return StreamEvent(kind=FLOW, session=tuple(session), flow=flow)


def session_end_event(session: tuple) -> StreamEvent:
    return StreamEvent(kind=SESSION_END, session=tuple(session))


def event_to_dict(event: StreamEvent) -> dict:
    """JSON-safe form of an event (the journal's line format)."""
    data = {"seq": event.seq, "kind": event.kind, "session": list(event.session)}
    if event.kind == SESSION_START:
        data["meta"] = event.meta.to_dict() if event.meta is not None else None
        data["ground_truth"] = {
            pii.value: list(values) for pii, values in (event.ground_truth or {}).items()
        }
    elif event.kind == FLOW:
        data["flow"] = event.flow.to_dict()
    return data


def event_from_dict(data: dict, memo: Optional[dict] = None) -> StreamEvent:
    """The event a journal line holds; a ``flow`` shares repeated values
    through ``memo``, its session's dict (see :mod:`repro.net.flow`)."""
    kind = data["kind"]
    meta = ground_truth = flow = None
    if kind == SESSION_START:
        if data.get("meta"):
            meta = SessionMeta.from_dict(data["meta"])
        ground_truth = {
            PiiType(code): list(values)
            for code, values in data.get("ground_truth", {}).items()
        }
    elif kind == FLOW:
        flow = Flow.from_dict(data["flow"], memo)
    return StreamEvent(
        kind=kind,
        session=tuple(data["session"]),
        seq=data.get("seq", -1),
        meta=meta,
        ground_truth=ground_truth,
        flow=flow,
    )


class FlowJournal:
    """Append-only JSONL log of one capture's events.

    Opening truncates: a capture always writes a fresh journal.
    :meth:`publish` stamps the next sequence number and appends the
    event's line under one lock, flushed per line, so a reader (the
    serving layer) may follow the file while the capture runs.  Reads go
    through :func:`dataset_from_journal`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0

    def publish(self, event: StreamEvent) -> StreamEvent:
        """Stamp and append one event; returns the stamped event."""
        with self._lock:
            stamped = replace(event, seq=self._seq)
            line = json.dumps(event_to_dict(stamped), ensure_ascii=False)
            self._handle.write(line + "\n")
            self._handle.flush()
            self._seq += 1
        return stamped

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def _is_session(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(part, str) for part in value)
    )


def _decode(where: str, data: dict, memo: dict):
    """One journal line as an event plus, for a ``session_start``, the
    empty record it opens; :class:`CheckpointError` when it is neither.

    A meta, ground truth or flow decodes when its ``from_dict`` succeeds
    and the binary codec (the typed form every worker ships records in)
    can carry the result.
    """
    kind = data.get("kind")
    if type(data.get("seq")) is not int:
        problem = "seq is not an integer"
    elif kind not in (SESSION_START, FLOW, SESSION_END):
        problem = f"unknown kind {kind!r}"
    elif not _is_session(data.get("session")):
        problem = "session is not [service, os, medium]"
    else:
        try:
            event = event_from_dict(data, memo)
            record = None
            if kind == SESSION_START:
                service, os_name, medium = event.session
                meta = event.meta or SessionMeta(service, os_name, medium)
                record = SessionRecord(
                    service=service,
                    os_name=os_name,
                    medium=medium,
                    trace=Trace(meta=meta),
                    ground_truth=event.ground_truth,
                    duration=meta.duration,
                )
                codec.encode_record(record)
            elif kind == FLOW:
                codec.encode_flow(event.flow)
            return event, record
        except _UNDECODABLE as exc:
            problem = f"{kind} does not decode: {type(exc).__name__}: {exc}"
    raise CheckpointError(f"{where}: {problem}")


def dataset_from_journal(path: Union[str, Path]) -> Dataset:
    """Fold a flow journal back into a :class:`Dataset`, read-only.

    The journal records the exact capture stream (``session_start``
    with ground truth, flows in capture order, ``session_end``), so the
    rebuilt dataset, in journal order, analyzes identically to the one
    the capture collected.  A torn tail ends the read and the file is
    never written, so a serving process may read a journal that a live
    capture is still appending to.  A session missing its
    ``session_end`` (the capture was killed mid-session) is dropped.

    Any complete line that is not a valid event — a missing or wrongly
    typed ``seq``, ``kind`` or ``session``, an unknown ``kind``, a meta,
    ground truth or flow that does not decode, or an event out of the
    one-session-at-a-time order a capture writes — raises
    :class:`CheckpointError` naming ``path:line``.
    """
    dataset = Dataset()
    record: Optional[SessionRecord] = None
    memo: dict = {}  # the open session's shared values (repro.net.flow)
    for number, data in iter_jsonl(path):
        where = f"{path}:{number}"
        event, opened = _decode(where, data, memo)
        if opened is not None:
            if record is not None:
                raise CheckpointError(
                    f"{where}: session_start while {list(record.key)} is open"
                )
            if dataset.get(*opened.key) is not None:
                raise CheckpointError(
                    f"{where}: session {list(opened.key)} was already journaled"
                )
            record = opened
            memo = {}
        elif record is None or event.session != record.key:
            raise CheckpointError(
                f"{where}: {event.kind} for {list(event.session)}, "
                "which is not the open session"
            )
        elif event.kind == FLOW:
            record.trace.add(event.flow)
        else:
            dataset.add(record)
            record = None
    return dataset
