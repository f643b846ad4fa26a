"""repro.stream — the capture-time flow journal.

The paper records each session through Meddle/mitmproxy and analyzes
the recorded flows afterwards; ReCon's classifier trains on the whole
campaign's traffic, so analysis never runs flow by flow.  What streams
is the capture itself: with a checkpoint directory, the
:class:`~repro.proxy.addons.StreamCapture` addon publishes every
finalized capture event to a :class:`FlowJournal` while the campaign
runs, and :func:`dataset_from_journal` reads that journal back for
``repro serve`` (even mid-capture, up to the last complete session).
The study is always the batch :func:`~repro.core.pipeline.analyze_dataset`
of the collected dataset, and the journal reads back to a dataset
that analyzes to the same bytes (``tests/test_stream.py``, the QA
oracle's ``stream`` check).
"""

from .checkpoint import (
    FLOW,
    JOURNAL_NAME,
    SESSION_END,
    SESSION_START,
    CheckpointError,
    FlowJournal,
    StreamEvent,
    dataset_from_journal,
    event_from_dict,
    event_to_dict,
    flow_event,
    session_end_event,
    session_start_event,
)

__all__ = [
    "FLOW",
    "JOURNAL_NAME",
    "SESSION_END",
    "SESSION_START",
    "CheckpointError",
    "FlowJournal",
    "StreamEvent",
    "dataset_from_journal",
    "event_from_dict",
    "event_to_dict",
    "flow_event",
    "session_end_event",
    "session_start_event",
]
