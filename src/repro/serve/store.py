"""Versioned study store: the serving layer's source of truth.

A :class:`ResultStore` owns one result directory and keeps the
analyzed :class:`~repro.core.pipeline.StudyResult` built from it in
memory: the per-session analyses only, never a flow (serving reads
nothing else).  Two on-disk formats are accepted, matching the two ways
this codebase persists a campaign:

- a **dataset directory** written by ``Dataset.save`` (``repro collect``)
  — detected by its ``manifest.json``.  The build reads the manifest
  first (:func:`repro.experiment.dataset.read_manifest`) and then
  decodes, analyzes and drops one session's trace at a time, so it
  never holds the dataset; with ReCon on, the training slice is read
  the same way before the analysis pass;
- a **checkpoint directory** written by a live ``repro stream
  --checkpoint-dir`` capture — detected by its ``journal.jsonl``,
  folded back into a dataset by the journal's read-only reader
  (:func:`repro.stream.checkpoint.dataset_from_journal`), which never
  touches the journal (a serving process must never mutate a capture
  artifact), then analyzed by the same build.  A capture still running,
  or killed, serves the sessions it completed.

A damaged directory — a malformed manifest, a session listed twice, a
missing or truncated trace, a journal line that is not a valid event
(:class:`~repro.stream.checkpoint.CheckpointError`) — raises
:class:`StoreError`, wherever in the build it shows up.  An analysis that fails on an intact session is
a bug, not damage: its ``ExecutorError`` is not wrapped.

Every load produces an immutable :class:`StoreSnapshot` carrying the
study, its exposure table (what scoring reads) and a content-derived
ETag; handlers read ``store.snapshot`` once per request, so a
concurrent reload can never hand a request half of an old study and
half of a new one.  Hot reload rides on the repo-wide
crash-safety discipline: ``manifest.json`` is replaced via
:func:`repro.ioutil.atomic_write_text`, and ``journal.jsonl`` only
grows by whole lines, which the reader takes up to any torn tail — so a
changed :func:`repro.ioutil.file_fingerprint` always means a complete
artifact (or complete journal prefix) is on disk, and
:meth:`ResultStore.maybe_reload` swaps the snapshot in one reference
assignment.  A reload that fails at any point keeps the previous
snapshot, logs why once, and is not tried again until the source
artifact's fingerprint moves again.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.pipeline import StudyResult, analyze_dataset
from ..core.recommend import exposure_table
from ..experiment.dataset import MANIFEST_NAME, read_manifest
from ..ioutil import file_fingerprint
from ..net.trace import TraceFormatError
from ..services.catalog import build_catalog
from ..stream.checkpoint import JOURNAL_NAME, dataset_from_journal

log = logging.getLogger(__name__)

#: What reading a damaged result directory raises: a missing or
#: unreadable file (``OSError``), a malformed manifest (``ValueError``,
#: ``KeyError``) or journal line (``CheckpointError``, a ``ValueError``),
#: a truncated trace (``TraceFormatError``).  :meth:`ResultStore._build` turns each into a
#: :class:`StoreError`.
_DAMAGED = (OSError, ValueError, KeyError, TraceFormatError)

#: Store source kinds (what :attr:`StoreSnapshot.source` reports).
SOURCE_DATASET = "dataset"
SOURCE_JOURNAL = "journal"


class StoreError(Exception):
    """Raised when a result directory is missing, malformed, or unknown."""


@dataclass(frozen=True)
class StoreSnapshot:
    """One immutable, fully analyzed view of the result directory.

    ``exposures`` is the study's :func:`~repro.core.recommend.exposure_table`:
    an uncached recommend scores from it instead of walking every leak
    record again.
    """

    study: StudyResult
    exposures: dict
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
        self._tried = None  # fingerprint the latest build started from
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
            f"nor a flow journal ({JOURNAL_NAME})"
        )

    def _specs_for(self, sessions: list) -> list:
        slugs = {session.service for session in sessions}
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
        fingerprint = self._tried = file_fingerprint(path)
        try:
            etag = _content_etag(path)
            if source == SOURCE_DATASET:
                sessions = read_manifest(self.directory)
            else:
                sessions = list(dataset_from_journal(path))
            if not sessions:
                raise StoreError(f"{path} contains no complete sessions")
            specs = self._specs_for(sessions)
            # In-process: the store builds inside the serving process, at
            # start-up and on every hot reload, which should not fork it.
            # A list of sessions (not a Dataset) keeps no flows on the study.
            study = analyze_dataset(
                sessions, specs, train_recon=self._train_recon, executor=1
            )
        except _DAMAGED as exc:
            raise StoreError(
                f"cannot load {self.directory}: {type(exc).__name__}: {exc}"
            ) from exc
        self._version += 1
        return StoreSnapshot(
            study=study,
            exposures=exposure_table(study),
            etag=etag,
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
        fails (e.g. a damaged trace, wherever the build met it) keeps
        serving the previous snapshot and logs why; the same artifact is
        not built again, so only a change to it starts another build.
        """
        now = self._clock()
        if now - self._last_check < self.check_interval:
            return self._snapshot
        self._last_check = now
        try:
            _, path = self._source()
        except StoreError:  # mid-rewrite: look again next interval
            return self._snapshot
        if file_fingerprint(path) == self._tried:
            return self._snapshot
        try:
            return self.reload()
        except StoreError as exc:
            log.warning("%s; still serving version %d", exc, self._snapshot.version)
            return self._snapshot
