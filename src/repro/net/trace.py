"""Trace container and JSONL serialization.

A :class:`Trace` is the unit of capture in the study: every flow recorded
while one service was exercised on one OS over one medium (app or web).
Traces carry the session metadata the analysis needs (service, OS,
medium, duration) and serialize to a line-oriented JSON format — one
metadata line followed by one line per flow — so large datasets stream
without loading everything at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from ..ioutil import atomic_write_text
from .flow import Flow

FORMAT_VERSION = 1


class TraceFormatError(Exception):
    """Raised when a trace file is malformed or has a bad version."""


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

    def dump(self, path: Union[str, Path], fmt: str = "binary") -> None:
        """Write the trace to ``path``.

        ``fmt`` selects the on-disk format: ``"binary"`` (default) is the
        struct-packed codec from :mod:`repro.net.codec` — markedly faster
        to load; ``"json"`` is the original line-oriented JSON, kept for
        interoperability and eyeballing.  :meth:`load` auto-detects
        either.  The write is atomic (temp sibling + rename): a killed
        collection never leaves a truncated trace on disk.
        """
        if fmt == "binary":
            from . import codec

            codec.write_trace(path, self)
            return
        if fmt != "json":
            raise ValueError(f"unknown trace format {fmt!r} (binary|json)")
        header = {"version": FORMAT_VERSION, "meta": self.meta.to_dict()}
        lines = [json.dumps(header)]
        lines.extend(json.dumps(flow.to_dict()) for flow in self.flows)
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`dump` (either format).

        The first bytes are sniffed: codec-framed files go through the
        binary reader, anything else through the JSONL reader, so callers
        never need to know how a trace was saved.
        """
        from . import codec

        path = Path(path)
        with path.open("rb") as probe:
            prefix = probe.read(len(codec.MAGIC))
        if codec.is_binary(prefix):
            try:
                return codec.read_trace(path)
            except codec.CodecError as exc:
                raise TraceFormatError(f"bad binary trace {path}: {exc}") from exc
        return cls._load_json(path)

    @classmethod
    def _load_json(cls, path: Path) -> "Trace":
        with path.open("r", encoding="utf-8") as handle:
            header_line = handle.readline()
            if not header_line.strip():
                raise TraceFormatError(f"empty trace file: {path}")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"bad trace header in {path}: {exc}") from exc
            version = header.get("version")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported trace version {version!r} in {path} "
                    f"(expected {FORMAT_VERSION})"
                )
            trace = cls(meta=SessionMeta.from_dict(header["meta"]))
            memo: dict = {}  # one object per repeated value (repro.net.flow)
            for line_no, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    trace.add(Flow.from_dict(json.loads(line), memo))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    # ValueError covers JSONDecodeError; the others are a
                    # field of the wrong type (say, a list where a string goes).
                    raise TraceFormatError(
                        f"bad flow record at {path}:{line_no}: {exc}"
                    ) from exc
        return trace


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
