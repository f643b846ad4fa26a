"""Trace container.

A :class:`Trace` is the unit of capture in the study: every flow recorded
while one service was exercised on one OS over one medium (app or web).
Traces carry the session metadata the analysis needs (service, OS,
medium, duration).  On disk a trace is one framed binary file of the
:mod:`repro.net.codec` format (:meth:`Trace.dump`, :meth:`Trace.load`).
External captures come in through :func:`repro.net.har.load_har`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .flow import Flow


class TraceFormatError(Exception):
    """Raised when a trace file is not a well-formed binary trace."""


@dataclass
class SessionMeta:
    """Identifies the experiment session a trace belongs to."""

    service: str
    os_name: str  # "android" | "ios"
    medium: str  # "app" | "web"
    category: str = ""
    duration: float = 240.0
    device: str = ""
    session_id: str = ""

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "os": self.os_name,
            "medium": self.medium,
            "category": self.category,
            "duration": self.duration,
            "device": self.device,
            "session_id": self.session_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionMeta":
        return cls(
            service=data["service"],
            os_name=data["os"],
            medium=data["medium"],
            category=data.get("category", ""),
            duration=data.get("duration", 240.0),
            device=data.get("device", ""),
            session_id=data.get("session_id", ""),
        )


@dataclass
class Trace:
    """All flows captured during one experiment session."""

    meta: SessionMeta
    flows: list = field(default_factory=list)

    def add(self, flow: Flow) -> None:
        self.flows.append(flow)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    @property
    def total_bytes(self) -> int:
        return sum(flow.total_bytes for flow in self.flows)

    def hostnames(self) -> set:
        """Unique server hostnames contacted in this trace."""
        return {flow.hostname for flow in self.flows}

    def filtered(self, predicate) -> "Trace":
        """Return a new trace containing only flows matching ``predicate``."""
        kept = Trace(meta=self.meta)
        for flow in self.flows:
            if predicate(flow):
                kept.add(flow)
        return kept

    def without_tags(self, *tags: str) -> "Trace":
        """Drop flows carrying any of ``tags`` (background filtering)."""
        dropped = set(tags)
        return self.filtered(lambda flow: not (flow.tags & dropped))

    # -- serialization ----------------------------------------------------

    def dump(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` in the binary codec format.

        The write is atomic (temp sibling + rename): a killed collection
        never leaves a truncated trace on disk.
        """
        from . import codec

        codec.write_trace(path, self)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`dump`.  A file that is not one
        (empty, a foreign format or version, a torn or padded body)
        raises :class:`TraceFormatError` naming the file."""
        from . import codec

        try:
            return codec.read_trace(path)
        except codec.CodecError as exc:
            raise TraceFormatError(f"bad binary trace {path}: {exc}") from exc


def merge_traces(traces: Iterable[Trace], meta: Optional[SessionMeta] = None) -> Trace:
    """Concatenate several traces into one, renumbering flow ids.

    Used when a session is captured in segments (e.g. across a VPN
    reconnect).  The resulting trace takes ``meta`` if given, otherwise
    the metadata of the first input trace.
    """
    merged: Optional[Trace] = None
    next_id = 0
    for trace in traces:
        if merged is None:
            merged = Trace(meta=meta if meta is not None else trace.meta)
        for flow in trace.flows:
            flow.flow_id = next_id
            next_id += 1
            merged.add(flow)
    if merged is None:
        raise ValueError("merge_traces requires at least one trace")
    return merged
