"""Versioned study store: the serving layer's source of truth.

A :class:`ResultStore` owns one result directory and keeps the fully
analyzed :class:`~repro.core.pipeline.StudyResult` built from it in
memory.  Two on-disk formats are accepted, matching the two ways this
codebase persists a campaign:

- a **dataset directory** written by ``Dataset.save`` (``repro collect``)
  — detected by its ``manifest.json``;
- a **streaming checkpoint directory** written by ``repro stream
  --checkpoint-dir`` — detected by its ``journal.jsonl``, folded back
  into a dataset by the stream's own read-only reader
  (:func:`repro.stream.checkpoint.dataset_from_journal`), which never
  touches the journal (a serving process must never mutate a capture
  artifact).

Every load produces an immutable :class:`StoreSnapshot` carrying the
study plus a content-derived ETag; handlers read ``store.snapshot`` once
per request, so a concurrent reload can never hand a request half of an
old study and half of a new one.  Hot reload rides on the repo-wide
crash-safety discipline: ``manifest.json`` is replaced via
:func:`repro.ioutil.atomic_write_text`, and ``journal.jsonl`` only
grows by whole lines, which the reader takes up to any torn tail — so a
changed :func:`repro.ioutil.file_fingerprint` always means a complete
artifact (or complete journal prefix) is on disk, and
:meth:`ResultStore.maybe_reload` swaps the snapshot in one reference
assignment.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.pipeline import StudyResult, analyze_dataset
from ..experiment.dataset import Dataset
from ..ioutil import file_fingerprint
from ..services.catalog import build_catalog
from ..stream.checkpoint import JOURNAL_NAME, dataset_from_journal

MANIFEST_NAME = "manifest.json"

#: Store source kinds (what :attr:`StoreSnapshot.source` reports).
SOURCE_DATASET = "dataset"
SOURCE_JOURNAL = "journal"


class StoreError(Exception):
    """Raised when a result directory is missing, malformed, or unknown."""


@dataclass(frozen=True)
class StoreSnapshot:
    """One immutable, fully analyzed view of the result directory."""

    study: StudyResult
    etag: str
    version: int  # monotonically increasing per reload
    source: str  # SOURCE_DATASET | SOURCE_JOURNAL
    fingerprint: tuple  # file_fingerprint of the source artifact
    loaded_at: float

    @property
    def service_count(self) -> int:
        return len(self.study.services)


def _content_etag(path: Path) -> str:
    """Strong ETag from the source artifact's bytes.

    Content-derived (not mtime-derived) so that re-saving identical
    results keeps client caches valid across a reload.
    """
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


class ResultStore:
    """Loads, versions, and hot-reloads one result directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        services: Optional[list] = None,
        train_recon: bool = False,
        check_interval: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.directory = Path(directory)
        self._services = services
        self._train_recon = train_recon
        self.check_interval = check_interval
        self._clock = clock
        self._reload_lock = threading.Lock()
        self._version = 0
        self._last_check = float("-inf")
        self.reloads = 0  # successful swaps after the initial load
        self._snapshot = self._build()

    # -- reading -----------------------------------------------------------

    @property
    def snapshot(self) -> StoreSnapshot:
        """The current snapshot (grab once per request)."""
        return self._snapshot

    # -- loading -----------------------------------------------------------

    def _source(self) -> tuple:
        manifest = self.directory / MANIFEST_NAME
        if manifest.exists():
            return SOURCE_DATASET, manifest
        journal = self.directory / JOURNAL_NAME
        if journal.exists():
            return SOURCE_JOURNAL, journal
        raise StoreError(
            f"{self.directory} holds neither a dataset ({MANIFEST_NAME}) "
            f"nor a streaming checkpoint ({JOURNAL_NAME})"
        )

    def _specs_for(self, dataset: Dataset) -> list:
        slugs = set(dataset.services())
        pool = self._services if self._services is not None else build_catalog()
        specs = [spec for spec in pool if spec.slug in slugs]
        missing = sorted(slugs - {spec.slug for spec in specs})
        if missing:
            raise StoreError(
                f"result directory references unknown service(s): {', '.join(missing)}"
            )
        return specs

    def _build(self) -> StoreSnapshot:
        source, path = self._source()
        fingerprint = file_fingerprint(path)
        if source == SOURCE_DATASET:
            dataset = Dataset.load(self.directory)
        else:
            dataset = dataset_from_journal(path)
        if len(dataset) == 0:
            raise StoreError(f"{path} contains no complete sessions")
        specs = self._specs_for(dataset)
        # In-process: the store builds inside the serving process, at
        # start-up and on every hot reload, which should not fork it.
        study = analyze_dataset(
            dataset, specs, train_recon=self._train_recon, executor=1
        )
        self._version += 1
        return StoreSnapshot(
            study=study,
            etag=_content_etag(path),
            version=self._version,
            source=source,
            fingerprint=fingerprint,
            loaded_at=self._clock(),
        )

    def reload(self) -> StoreSnapshot:
        """Rebuild from disk and atomically swap the snapshot in."""
        with self._reload_lock:
            snapshot = self._build()
            self._snapshot = snapshot  # single reference swap: readers see old xor new
            self.reloads += 1
            return snapshot

    def maybe_reload(self) -> StoreSnapshot:
        """Reload iff the source artifact changed; rate-limited by stat.

        Called on the request path: the common case is one ``os.stat``
        every ``check_interval`` seconds, nothing else.  A reload that
        fails (e.g. the directory is mid-rewrite on a non-atomic writer)
        keeps serving the previous snapshot.
        """
        now = self._clock()
        if now - self._last_check < self.check_interval:
            return self._snapshot
        self._last_check = now
        try:
            _, path = self._source()
            if file_fingerprint(path) == self._snapshot.fingerprint:
                return self._snapshot
            return self.reload()
        except (StoreError, OSError, json.JSONDecodeError, KeyError, ValueError):
            return self._snapshot
