"""Flow journal + analyzer checkpoints (crash-safe streaming state).

Two artifacts live in a checkpoint directory:

- ``journal.jsonl`` — every bus event, one JSON line each, appended at
  publish time.  The journal is the stream's durable replica:
  :func:`dataset_from_journal` reads it back as a dataset (the
  finalizer's ReCon replay and the serving layer's journal source),
  and a resumed run uses it to decide which events were already
  persisted.
- ``shard-<i>.json`` — each shard's analyzer state (its sessions'
  aggregates and leak records plus a ``watermark``: the highest event
  sequence folded into that state).  Written atomically every
  ``checkpoint_every`` flows, so a kill loses at most the work since
  the last snapshot — never the file's integrity.

Resume protocol: reload shard states, re-publish the deterministic
event stream from the start, and let each shard skip events at or below
its watermark.  Skipped events are *not* re-analyzed (no matching, no
categorization, no leak policy); the journal appends only events beyond
its last recorded sequence.  Because the event stream is a pure
function of the dataset/seed, sequence numbers line up exactly across
runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..experiment.dataset import Dataset, SessionRecord
from ..ioutil import atomic_write_json, iter_jsonl
from ..net.trace import SessionMeta, Trace
from .bus import (
    FLOW,
    SESSION_END,
    SESSION_START,
    StreamEvent,
    event_from_dict,
    event_to_dict,
)

CHECKPOINT_VERSION = 1
JOURNAL_NAME = "journal.jsonl"


class CheckpointError(Exception):
    """Raised on malformed or incompatible checkpoint state."""


class FlowJournal:
    """Append-only JSONL log of stream events.

    ``resume=True`` re-opens an existing journal: a torn tail (a crash
    can cut the final write anywhere, even inside a multi-byte UTF-8
    character) is truncated once, and subsequent appends skip events
    already on disk — so re-publishing the stream from the start is
    idempotent.  Reads go through :func:`dataset_from_journal`.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self.last_seq = -1
        if resume and self.path.exists():
            for record in iter_jsonl(self.path, truncate=True):
                self.last_seq = int(record["seq"])
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")

    def append(self, event: StreamEvent) -> None:
        """Write one event; silently skips already-journaled sequences."""
        if event.seq <= self.last_seq:
            return
        self._handle.write(json.dumps(event_to_dict(event), ensure_ascii=False) + "\n")
        self._handle.flush()
        self.last_seq = event.seq

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def dataset_from_journal(path: Union[str, Path]) -> Dataset:
    """Fold a flow journal back into a :class:`Dataset`, read-only.

    The journal records the exact capture stream (``session_start``
    with ground truth, flows in capture order, ``session_end``), so the
    rebuilt dataset, in journal order, analyzes identically to the one
    the stream was fed from.  A torn tail ends the read and the file is
    never written, so a serving process may read a journal that a live
    stream is still appending to.  Sessions missing their
    ``session_end`` (killed mid-capture) are dropped: a checkpointed
    resume re-streams them.
    """
    dataset = Dataset()
    record: Optional[SessionRecord] = None
    for event in map(event_from_dict, iter_jsonl(path)):
        if event.kind == SESSION_START:
            service, os_name, medium = event.session
            meta = event.meta or SessionMeta(service, os_name, medium)
            record = SessionRecord(
                service=service,
                os_name=os_name,
                medium=medium,
                trace=Trace(meta=meta),
                ground_truth=event.ground_truth or {},
                duration=meta.duration,
            )
        elif record is not None and event.kind == FLOW:
            record.trace.add(event.flow)
        elif record is not None and event.kind == SESSION_END:
            dataset.add(record)
            record = None
    return dataset


class CheckpointManager:
    """Owns one checkpoint directory: the journal plus shard snapshots."""

    def __init__(self, directory: Union[str, Path], shards: int) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shards = shards

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index}.json"

    def has_state(self) -> bool:
        return self.journal_path.exists() or any(
            self.shard_path(i).exists() for i in range(self.shards)
        )

    def save_shard(self, index: int, watermark: int, sessions: list) -> None:
        """Atomically snapshot one shard's analyzer state."""
        atomic_write_json(
            self.shard_path(index),
            {
                "version": CHECKPOINT_VERSION,
                "shards": self.shards,
                "shard": index,
                "watermark": watermark,
                "sessions": sessions,
            },
        )

    def load_shard(self, index: int) -> Optional[dict]:
        """Load one shard snapshot; ``None`` when never checkpointed."""
        path = self.shard_path(index)
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {data.get('version')!r} in {path}"
            )
        if data.get("shards") != self.shards:
            raise CheckpointError(
                f"checkpoint {path} was written with shards={data.get('shards')}, "
                f"cannot resume with shards={self.shards}"
            )
        return data
