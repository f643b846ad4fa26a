"""repro.stream — streaming capture and online leak detection.

The batch pipeline (:mod:`repro.core.pipeline`) collects whole traces
and analyzes them after the fact.  This package is the in-situ
counterpart, shaped after the paper's real-world substrate (Meddle +
mitmproxy analyze traffic *as it flows through the VPN*) and its
descendants (ReCon's flow-at-a-time classification, PrivacyProxy's
on-device aggregation):

- :mod:`repro.stream.bus` — the flow event bus: bounded per-shard
  queues with blocking backpressure and a globally sequenced,
  deterministic event order.
- :mod:`repro.stream.analyzer` — sharded stateful analyzers that
  consume flow events and keep :class:`~repro.core.pipeline.SessionAnalysis`
  aggregates up to date per flow, plus the coordinator that turns a
  finished stream into a :class:`~repro.core.pipeline.StudyResult`:
  without ReCon it assembles the shards' analyses with the batch
  pipeline's :func:`~repro.core.pipeline.assemble_study`; with ReCon it
  replays the journal through :func:`~repro.core.pipeline.analyze_dataset`.
- :mod:`repro.stream.checkpoint` — the JSONL flow journal, its one
  read-only, torn-tail-tolerant reader (:func:`dataset_from_journal`,
  shared with the serving layer), and periodic atomic state snapshots
  that let a killed run resume without re-analyzing what it already
  processed.

The contract throughout is strict equivalence: for any seed, shard
count, and kill/resume point, the streaming study is byte-for-byte
equal to the batch ``analyze_dataset`` result (pinned by
``tests/test_stream.py``).
"""

from .bus import (
    FLOW,
    SESSION_END,
    SESSION_START,
    FlowBus,
    StreamEvent,
    event_from_dict,
    event_to_dict,
    flow_event,
    session_end_event,
    session_start_event,
)
from .analyzer import (
    DatasetStreamer,
    SessionState,
    StreamAnalyzer,
    StreamError,
    merge_session_states,
    stream_dataset,
)
from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    FlowJournal,
    dataset_from_journal,
)

__all__ = [
    "FLOW",
    "SESSION_END",
    "SESSION_START",
    "CheckpointError",
    "CheckpointManager",
    "DatasetStreamer",
    "FlowBus",
    "FlowJournal",
    "SessionState",
    "StreamAnalyzer",
    "StreamError",
    "StreamEvent",
    "dataset_from_journal",
    "event_from_dict",
    "event_to_dict",
    "flow_event",
    "merge_session_states",
    "session_end_event",
    "session_start_event",
    "stream_dataset",
]
