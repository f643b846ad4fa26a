"""Collected-dataset container.

A :class:`Dataset` holds every captured session of a study run together
with the per-session ground truth needed for detection, and provides the
indexing the analysis stage uses (by service, OS, and medium).  Datasets
serialize to a directory of binary traces (:meth:`Trace.dump
<repro.net.trace.Trace.dump>`) plus a JSON manifest, so studies can be
collected once and analyzed many times.

:func:`read_manifest` is the one reader of that manifest: it returns a
:class:`SavedSession` per listed session, each decoding its trace only
when :meth:`SavedSession.load` is called.  :meth:`Dataset.load` loads
them all; the analysis pipeline and the serving store load one at a
time, so a saved study can be analyzed without holding every flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..ioutil import atomic_write_json
from ..net.trace import Trace
from ..pii.types import PiiType

ANDROID = "android"
IOS = "ios"
APP = "app"
WEB = "web"

OSES = (ANDROID, IOS)
MEDIA = (APP, WEB)

MANIFEST_NAME = "manifest.json"


class DatasetError(ValueError):
    """Raised when a saved dataset's manifest is malformed."""


@dataclass
class SessionRecord:
    """One captured experiment session plus its ground truth."""

    service: str  # slug
    os_name: str
    medium: str
    trace: Trace
    ground_truth: dict = field(default_factory=dict)  # PiiType -> [values]
    duration: float = 240.0

    @property
    def key(self) -> tuple:
        return (self.service, self.os_name, self.medium)

    def ground_truth_json(self) -> dict:
        return {pii.value: values for pii, values in self.ground_truth.items()}

    @staticmethod
    def ground_truth_from_json(data: dict) -> dict:
        return {PiiType(code): values for code, values in data.items()}


@dataclass(frozen=True)
class SavedSession:
    """One session a saved dataset's manifest lists, trace not yet read."""

    directory: Path
    service: str
    os_name: str
    medium: str
    trace_file: str
    ground_truth: dict
    duration: float = 240.0

    @property
    def key(self) -> tuple:
        return (self.service, self.os_name, self.medium)

    def load(self) -> SessionRecord:
        """Decode the trace into a :class:`SessionRecord`."""
        return SessionRecord(
            service=self.service,
            os_name=self.os_name,
            medium=self.medium,
            trace=Trace.load(self.directory / self.trace_file),
            ground_truth=self.ground_truth,
            duration=self.duration,
        )


def read_manifest(directory: Union[str, Path]) -> List[SavedSession]:
    """The sessions a saved dataset lists, in manifest order.

    Reads only ``manifest.json``; no trace is opened.  A manifest that
    is not a ``{"sessions": [...]}`` object, an entry missing a field,
    or a session listed twice raises :class:`DatasetError`.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    with path.open("r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    entries = manifest.get("sessions") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise DatasetError(f"{path} has no 'sessions' list")
    sessions: List[SavedSession] = []
    seen: set = set()
    for index, entry in enumerate(entries):
        try:
            session = SavedSession(
                directory=directory,
                service=entry["service"],
                os_name=entry["os"],
                medium=entry["medium"],
                trace_file=entry["trace"],
                ground_truth=SessionRecord.ground_truth_from_json(entry["ground_truth"]),
                duration=entry.get("duration", 240.0),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DatasetError(
                f"{path}: session {index} is malformed ({type(exc).__name__}: {exc})"
            ) from None
        if session.key in seen:
            raise DatasetError(f"{path}: duplicate session {session.key}")
        seen.add(session.key)
        sessions.append(session)
    return sessions


class Dataset:
    """All sessions of one study run."""

    def __init__(self) -> None:
        self._sessions: dict = {}

    def add(self, record: SessionRecord) -> None:
        if record.key in self._sessions:
            raise ValueError(f"duplicate session {record.key}")
        self._sessions[record.key] = record

    def get(self, service: str, os_name: str, medium: str) -> Optional[SessionRecord]:
        return self._sessions.get((service, os_name, medium))

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator:
        return iter(self._sessions.values())

    def services(self) -> list:
        return sorted({key[0] for key in self._sessions})

    def sessions_for(self, service: str) -> list:
        return [r for r in self._sessions.values() if r.service == service]

    def total_flows(self) -> int:
        return sum(len(record.trace) for record in self)

    def total_bytes(self) -> int:
        return sum(record.trace.total_bytes for record in self)

    # -- persistence ---------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> None:
        """Write traces + manifest under ``directory``.

        Every file (each binary trace and the manifest) is written
        atomically, and the manifest goes last — a killed save never
        leaves a manifest pointing at truncated or missing traces.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = []
        for key in sorted(self._sessions):
            record = self._sessions[key]
            filename = f"{record.service}_{record.os_name}_{record.medium}.bin"
            record.trace.dump(directory / filename)
            manifest.append(
                {
                    "service": record.service,
                    "os": record.os_name,
                    "medium": record.medium,
                    "trace": filename,
                    "duration": record.duration,
                    "ground_truth": record.ground_truth_json(),
                }
            )
        atomic_write_json(directory / MANIFEST_NAME, {"sessions": manifest})

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Dataset":
        """Every session of a saved dataset, traces decoded."""
        dataset = cls()
        for session in read_manifest(directory):
            dataset.add(session.load())
        return dataset
