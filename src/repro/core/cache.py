"""Persistent content-addressed analysis cache.

Re-running a study over an unchanged dataset re-does work whose inputs
have not moved: the simulated campaign is a pure function of
``(specs, seed, duration)``, the trained classifier of its training
slice, and each session's analysis of ``(trace content, detection
config)``.  :class:`AnalysisCache` persists all three layers under one
directory, keyed by content:

- **sessions/** — one JSON file per ``(record content hash, config
  fingerprint)`` holding ``SessionAnalysis.to_dict()``.  The record
  hash is the SHA-256 of the session's canonical codec encoding
  (:func:`repro.net.codec.record_content_hash`); the config
  fingerprint covers the session's service spec, the trained ReCon
  trees, and :data:`DETECTION_VERSION` — so editing a spec, retraining
  differently, or bumping the detector version each invalidates
  cleanly, while renaming or moving a dataset does not.
- **recon/** — the fitted classifier, pickled, keyed by the training
  slice's record hashes plus the training parameters.
- **campaigns/** — the collected dataset itself (binary trace format)
  keyed by ``(spec fingerprints, seed, duration)``, with a sidecar of
  per-session record hashes so a warm run never re-encodes traces just
  to address the session layer.

Every write goes through :mod:`repro.ioutil`'s atomic helpers and
every read treats a torn, truncated, or otherwise unreadable entry as
a miss — a crashed run can never poison the cache.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from ..ioutil import atomic_write_bytes, atomic_write_json

#: Bump when detection semantics change (matcher, detector, leak
#: policy, categorizer, background filtering): every cached session
#: analysis and classifier keyed under the old version then misses.
DETECTION_VERSION = 1

#: Bump when the simulated collection changes (runner, world, device
#: behavior): cached campaigns from older versions then miss.
CAMPAIGN_VERSION = 1

_SCHEMA = 1


def _canonical(value):
    """JSON-able, order-stable form of specs/params for fingerprinting."""
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(_canonical(k)): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(_canonical(v)) for v in value)
    return value


def _digest(payload) -> str:
    data = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def spec_fingerprint(spec) -> str:
    """Content hash of one service spec (leaks, endpoints, domains...)."""
    return _digest(spec)


def _tree_shape(node):
    if node is None:
        return None
    return [
        node.feature,
        node.probability,
        _tree_shape(node.present),
        _tree_shape(node.absent),
    ]


def recon_fingerprint(recon) -> str:
    """Content hash of a trained classifier (full tree walk).

    Two classifiers that would predict identically fingerprint
    identically, regardless of which process trained them — the tree
    walk is over sorted keys and plain values only.
    """
    if recon is None:
        return "no-recon"
    payload = {
        "threshold": recon.threshold,
        "min_domain_samples": recon.min_domain_samples,
        "max_depth": recon.max_depth,
        "global": {
            pii_type.value: _tree_shape(recon._global[pii_type]._root)
            for pii_type in sorted(recon._global, key=lambda t: t.value)
        },
        "specialists": {
            f"{domain}|{pii_type.value}": _tree_shape(
                recon._specialists[(domain, pii_type)]._root
            )
            for domain, pii_type in sorted(
                recon._specialists, key=lambda k: (k[0], k[1].value)
            )
        },
    }
    return _digest(payload)


class AnalysisCache:
    """Three-layer persistent cache rooted at one directory.

    Instances track ``hits``/``misses`` per layer for observability;
    all lookups degrade to misses on any unreadable entry.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.sessions_dir = self.root / "sessions"
        self.recon_dir = self.root / "recon"
        self.campaigns_dir = self.root / "campaigns"
        self.hits = 0
        self.misses = 0
        self.recon_hits = 0
        self.recon_misses = 0
        self.campaign_hits = 0
        self.campaign_misses = 0
        # record-object -> content hash, so one run never encodes the
        # same session twice just to address it.  Keyed by id() with a
        # strong reference to the record to keep the id stable.
        self._hash_memo: dict = {}

    # -- content addressing ---------------------------------------------------

    def record_hash(self, record) -> str:
        memo = self._hash_memo.get(id(record))
        if memo is not None and memo[0] is record:
            return memo[1]
        from ..net.codec import record_content_hash

        digest = record_content_hash(record)
        self._hash_memo[id(record)] = (record, digest)
        return digest

    def _prime_hash(self, record, digest: str) -> None:
        self._hash_memo[id(record)] = (record, digest)

    def _session_key(self, record, spec, recon_fp: str) -> str:
        config = _digest(
            {
                "schema": _SCHEMA,
                "detection": DETECTION_VERSION,
                "spec": spec_fingerprint(spec),
                "recon": recon_fp,
            }
        )
        return f"{self.record_hash(record)}-{config[:16]}"

    # -- session layer --------------------------------------------------------

    def analyze_all(self, records: list, services: list, recon, engine) -> list:
        """Analyses for ``records`` (aligned), reusing cached entries.

        Misses fan out through ``engine`` exactly as the uncached path
        would, then persist; a warm cache therefore returns analyses
        byte-identical to a fresh run.
        """
        from ..par import tasks
        from .pipeline import SessionAnalysis

        by_slug = {spec.slug: spec for spec in services}
        recon_fp = recon_fingerprint(recon)
        results: list = [None] * len(records)
        miss_records, miss_indexes, miss_keys = [], [], []
        for index, record in enumerate(records):
            key = self._session_key(record, by_slug[record.service], recon_fp)
            entry = self._load_json(self.sessions_dir / f"{key}.json")
            if entry is not None:
                try:
                    results[index] = SessionAnalysis.from_dict(entry)
                    self.hits += 1
                    continue
                except (KeyError, TypeError, ValueError):
                    pass  # schema drift or corruption: recompute
            self.misses += 1
            miss_records.append(record)
            miss_indexes.append(index)
            miss_keys.append(key)
        if miss_records:
            self.sessions_dir.mkdir(parents=True, exist_ok=True)
            context = tasks.AnalysisContext(services, recon)
            fresh = engine.map(tasks.analyze, miss_records, context=context)
            for index, key, analysis in zip(miss_indexes, miss_keys, fresh):
                results[index] = analysis
                atomic_write_json(
                    self.sessions_dir / f"{key}.json", analysis.to_dict()
                )
        return results

    def _load_json(self, path: Path) -> Optional[dict]:
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    # -- classifier layer -----------------------------------------------------

    def _recon_key(self, records: list, every_nth_service: int, rng_seed: int) -> str:
        return _digest(
            {
                "schema": _SCHEMA,
                "detection": DETECTION_VERSION,
                "every_nth_service": every_nth_service,
                "rng_seed": rng_seed,
                "slice": [self.record_hash(record) for record in records],
            }
        )

    def load_recon(self, records: list, every_nth_service: int, rng_seed: int):
        path = self.recon_dir / f"{self._recon_key(records, every_nth_service, rng_seed)}.pkl"
        try:
            data = path.read_bytes()
            classifier = pickle.loads(data)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.recon_misses += 1
            return None
        from ..pii.recon import ReconClassifier

        if not isinstance(classifier, ReconClassifier):
            self.recon_misses += 1
            return None
        self.recon_hits += 1
        return classifier

    def store_recon(
        self, records: list, every_nth_service: int, rng_seed: int, classifier
    ) -> None:
        self.recon_dir.mkdir(parents=True, exist_ok=True)
        key = self._recon_key(records, every_nth_service, rng_seed)
        atomic_write_bytes(
            self.recon_dir / f"{key}.pkl",
            pickle.dumps(classifier, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- campaign layer -------------------------------------------------------

    def campaign_key(self, services: list, seed: int, duration: float) -> str:
        return _digest(
            {
                "schema": _SCHEMA,
                "campaign": CAMPAIGN_VERSION,
                "seed": seed,
                "duration": duration,
                "specs": [spec_fingerprint(spec) for spec in services],
            }
        )

    def load_campaign(self, key: str):
        """Reload a cached collected dataset, or ``None`` on any defect."""
        from ..experiment.dataset import Dataset
        from ..net.codec import CodecError
        from ..net.trace import TraceFormatError

        directory = self.campaigns_dir / key
        hashes = self._load_json(directory / "hashes.json")
        try:
            dataset = Dataset.load(directory)
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                TraceFormatError, CodecError):
            self.campaign_misses += 1
            return None
        self.campaign_hits += 1
        if hashes:
            # Pre-address every session so the session layer never has
            # to re-encode a trace the campaign layer just decoded.
            for record in dataset:
                digest = hashes.get("|".join(record.key))
                if digest:
                    self._prime_hash(record, digest)
        return dataset

    def store_campaign(self, key: str, dataset) -> None:
        directory = self.campaigns_dir / key
        dataset.save(directory)  # manifest written last, each file atomic
        atomic_write_json(
            directory / "hashes.json",
            {"|".join(record.key): self.record_hash(record) for record in dataset},
        )
