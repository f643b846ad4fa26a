"""ReCon-style machine-learned PII detection.

ReCon (Ren et al., MobiSys 2016) detects *likely* PII in network flows
without knowing the values, by learning which structural patterns of a
request carry identifiers.  This module reimplements that idea from
scratch:

- requests are featurized into bags of binary features built from
  key names, destination domain, path segments, and value shapes;
- one decision tree per PII type is trained on labeled flows (labels
  come from controlled experiments where ground truth is known);
- per-domain specialist trees are grown where enough training data
  exists, falling back to the global tree elsewhere — mirroring ReCon's
  per-domain classifiers;
- a key-synonym heuristic extracts the concrete value once a type is
  predicted present.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..net.flow import CapturedRequest
from ..trackerdb.psl import domain_key
from ..http.url import UrlError, parse_url
from .structure import extract_fields
from .types import PiiType

# -- featurization ------------------------------------------------------------


def _value_shape(value: str) -> str:
    """Coarse shape descriptor of a field value."""
    if len(value) > _SHAPE_VALUE_MAX:
        return _shape_of(value)
    return _short_shape(value)


def _shape_of(value: str) -> str:
    if not value:
        return "empty"
    if "@" in value and "." in value.split("@")[-1]:
        return "email_like"
    stripped = value.replace("-", "")
    if len(value) == 36 and value.count("-") == 4 and _is_hex(stripped):
        return "uuid"
    if _is_hex(value) and len(value) in (32, 40, 64):
        return f"hexdigest{len(value)}"
    if value.isdigit():
        if len(value) >= 14:
            return "digits_long"
        if len(value) >= 9:
            return "digits_med"
        return "digits_short"
    try:
        float(value)
        return "float" if "." in value else "number"
    except ValueError:
        pass
    if len(value) > 24:
        return "text_long"
    return "text_short"


# Field values repeat across a study's requests (the persona's
# identifiers, fixed SDK parameters, user agents: the seed-2016 study
# shapes 525,471 values, 3,417 of them distinct), so shapes are memoized
# per value.  Values longer than _SHAPE_VALUE_MAX characters, such as
# long ``_raw`` body texts, are not kept.
_SHAPE_VALUE_MAX = 256
_short_shape = lru_cache(maxsize=8192)(_shape_of)


def _is_hex(value: str) -> bool:
    return bool(value) and all(c in "0123456789abcdefABCDEF" for c in value)


def featurize(request: CapturedRequest, fields: Optional[list] = None) -> set:
    """Build the binary feature bag for one request.

    ``fields`` is the request's :func:`extract_fields`, when the caller
    already has them.
    """
    features: set = set()
    try:
        url = parse_url(request.url)
        features.add(f"domain:{domain_key(url.host)}")
        for segment in url.path.split("/"):
            if segment and not segment.isdigit():
                features.add(f"path:{segment.lower()}")
    except UrlError:
        pass
    features.add(f"method:{request.method}")
    if fields is None:
        fields = extract_fields(request)
    for fld in fields:
        key = fld.key.lower()
        features.add(f"key:{key}")
        features.add(f"kv:{key}={_value_shape(fld.value)}")
    return features


# -- decision tree ------------------------------------------------------------


@dataclass
class _Node:
    feature: Optional[str] = None
    present: Optional["_Node"] = None
    absent: Optional["_Node"] = None
    probability: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _entropy(positives: int, total: int) -> float:
    if total == 0 or positives == 0 or positives == total:
        return 0.0
    p = positives / total
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


# Candidate features per tree; ReconClassifier's trees use the default.
_MAX_FEATURES = 400


def _bitset(rows: list, size: int) -> int:
    """An int whose bit ``r`` is set for every row index ``r`` in ``rows``."""
    buf = bytearray((size + 7) >> 3)
    for row in rows:
        buf[row >> 3] |= 1 << (row & 7)
    return int.from_bytes(buf, "little")


class _FeatureIndex:
    """One sample set's vocabulary, each feature with the bitset of the
    sample rows that contain it.

    The vocabulary depends on the samples only, so every tree grown on
    the same samples (one per PII type) shares one index.
    """

    __slots__ = ("size", "max_features", "candidates")

    def __init__(self, samples: list, max_features: int) -> None:
        counts: Counter = Counter()
        for features in samples:
            counts.update(features)
        # Candidate order must not depend on the process's string-hash
        # seed: a set here would make split tie-breaks (equal gain)
        # vary across interpreters, so trees trained in a worker
        # process could differ from the parent's.  most_common is
        # stable (count desc, first-seen order on ties) and the final
        # sort pins one canonical iteration order everywhere.  The cut
        # is taken from these counts in sample order, never from bit
        # counts: which of the features tied at the cut make it depends
        # on first-seen order.
        vocabulary = sorted(f for f, _ in counts.most_common(max_features))
        rows: dict = {feature: [] for feature in vocabulary}
        for row, features in enumerate(samples):
            for feature in features:
                hits = rows.get(feature)
                if hits is not None:
                    hits.append(row)
        self.size = len(samples)
        self.max_features = max_features
        self.candidates = [
            (feature, _bitset(rows[feature], self.size)) for feature in vocabulary
        ]


class DecisionTree:
    """Binary decision tree over set-of-string features (ID3-style)."""

    def __init__(
        self, max_depth: int = 8, min_samples_leaf: int = 3, max_features: int = _MAX_FEATURES
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._root: Optional[_Node] = None

    def fit(self, samples: list, labels: list) -> "DecisionTree":
        """Train on parallel lists of feature-sets and booleans."""
        if len(samples) != len(labels):
            raise ValueError("samples and labels must align")
        if not samples:
            raise ValueError("cannot fit an empty training set")
        return self._fit_index(_FeatureIndex(samples, self.max_features), labels)

    def _fit_index(self, index: _FeatureIndex, labels: list) -> "DecisionTree":
        """Train on an index of the samples ``labels`` align with."""
        if index.size != len(labels) or index.max_features != self.max_features:
            raise ValueError("index does not match the labels or max_features")
        label_bits = _bitset([row for row, label in enumerate(labels) if label], index.size)
        self._root = self._grow((1 << index.size) - 1, label_bits, index.candidates, depth=0)
        return self

    def _grow(self, rows: int, label_bits: int, candidates: list, depth: int) -> _Node:
        """Grow the subtree over the samples whose bits are set in ``rows``.

        ``candidates`` are ``(feature, bits)`` pairs in vocabulary order,
        so the strict ``>`` keeps the first of equal gains.  A feature
        that all or none of a node's samples have scores a gain of
        exactly 0, which never wins, and stays that way in every
        subtree, so it is not passed down.
        """
        total = rows.bit_count()
        positive_rows = rows & label_bits
        positives = positive_rows.bit_count()
        probability = positives / total if total else 0.0
        if (
            depth >= self.max_depth
            or total < 2 * self.min_samples_leaf
            or positives == 0
            or positives == total
        ):
            return _Node(probability=probability)

        parent_entropy = _entropy(positives, total)
        min_leaf = self.min_samples_leaf
        live = []
        best = None
        best_gain = 1e-9
        for candidate in candidates:
            bits = candidate[1]
            n_with = (bits & rows).bit_count()
            if n_with == 0 or n_with == total:
                continue
            live.append(candidate)
            n_without = total - n_with
            if n_with < min_leaf or n_without < min_leaf:
                continue
            pos_with = (bits & positive_rows).bit_count()
            pos_without = positives - pos_with
            children_entropy = (
                n_with / total * _entropy(pos_with, n_with)
                + n_without / total * _entropy(pos_without, n_without)
            )
            gain = parent_entropy - children_entropy
            if gain > best_gain:
                best_gain = gain
                best = candidate
        if best is None:
            return _Node(probability=probability)

        feature, bits = best
        remaining = [candidate for candidate in live if candidate is not best]
        return _Node(
            feature=feature,
            present=self._grow(rows & bits, label_bits, remaining, depth + 1),
            absent=self._grow(rows & ~bits, label_bits, remaining, depth + 1),
            probability=probability,
        )

    def predict_proba(self, features: set) -> float:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        node = self._root
        while not node.is_leaf:
            node = node.present if node.feature in features else node.absent
        return node.probability

    def predict(self, features: set, threshold: float = 0.5) -> bool:
        return self.predict_proba(features) >= threshold

    def depth(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.present), walk(node.absent))

        return walk(self._root)


# -- the classifier ------------------------------------------------------------

# Key synonyms used to pull the concrete value out of a positive flow.
KEY_SYNONYMS = {
    PiiType.EMAIL: ("email", "e-mail", "mail", "user_email", "login", "em"),
    PiiType.PASSWORD: ("password", "passwd", "pwd", "pass", "secret"),
    PiiType.USERNAME: ("username", "user", "uname", "screenname", "login_id"),
    PiiType.NAME: ("name", "firstname", "first_name", "lastname", "last_name", "fullname", "fn", "ln"),
    PiiType.GENDER: ("gender", "sex", "gen"),
    PiiType.BIRTHDAY: ("birthday", "dob", "birthdate", "birth_date", "bday"),
    PiiType.PHONE: ("phone", "phone_number", "tel", "msisdn", "mobile"),
    PiiType.LOCATION: ("lat", "latitude", "lon", "lng", "longitude", "zip", "zipcode", "postal", "loc", "geo"),
    PiiType.UNIQUE_ID: ("imei", "mac", "aaid", "idfa", "gaid", "android_id", "device_id", "deviceid", "udid", "uid", "adid"),
    PiiType.DEVICE_INFO: ("device", "device_name", "model", "hardware", "build"),
}


# The order predictions are reported in (by type value).
_TYPE_ORDER = tuple(sorted(PiiType, key=lambda t: t.value))


@dataclass
class ReconPrediction:
    """One predicted PII presence in a request."""

    pii_type: PiiType
    probability: float
    extracted_key: str = ""
    extracted_value: str = ""


@dataclass
class TrainingExample:
    """A featurized, labeled request for one PII type."""

    features: set
    domain: str
    labels: set = field(default_factory=set)  # set[PiiType]


class ReconClassifier:
    """Per-type (and per-domain, where data allows) PII classifiers."""

    def __init__(
        self,
        threshold: float = 0.5,
        min_domain_samples: int = 40,
        max_depth: int = 8,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.threshold = threshold
        self.min_domain_samples = min_domain_samples
        self.max_depth = max_depth
        self._rng = rng if rng is not None else random.Random(0)
        self._global: dict = {}  # PiiType -> DecisionTree
        self._specialists: dict = {}  # (domain, PiiType) -> DecisionTree
        self.trained_types: set = set()

    @staticmethod
    def make_example(
        request: CapturedRequest, labels: set, fields: Optional[list] = None
    ) -> TrainingExample:
        """``fields`` as :func:`featurize` takes them."""
        try:
            domain = domain_key(parse_url(request.url).host)
        except UrlError:
            domain = ""
        return TrainingExample(
            features=featurize(request, fields), domain=domain, labels=set(labels)
        )

    def fit(self, examples: list) -> "ReconClassifier":
        """Train from :class:`TrainingExample` records."""
        if not examples:
            raise ValueError("no training examples")
        by_domain: dict = defaultdict(list)
        for example in examples:
            by_domain[example.domain].append(example)

        present_types = set()
        for example in examples:
            present_types.update(example.labels)

        # One feature index per sample set, built on first use: the
        # global trees share one over ``examples`` (key None), each
        # domain's specialists one over that domain's examples.
        indexes: dict = {}

        def index_for(key, subset: list) -> _FeatureIndex:
            index = indexes.get(key)
            if index is None:
                index = indexes[key] = _FeatureIndex(
                    [ex.features for ex in subset], _MAX_FEATURES
                )
            return index

        # Sorted so every process trains and stores the trees in one
        # order.  The pickle bytes still vary with the string-hash seed
        # (``trained_types`` is a set); the recon cache is keyed by the
        # training slice's content, so that is harmless.
        for pii_type in sorted(present_types, key=lambda t: t.value):
            labels = [pii_type in ex.labels for ex in examples]
            if not any(labels) or all(labels):
                continue
            tree = DecisionTree(max_depth=self.max_depth)
            tree._fit_index(index_for(None, examples), labels)
            self._global[pii_type] = tree
            self.trained_types.add(pii_type)
            for domain, domain_examples in by_domain.items():
                if len(domain_examples) < self.min_domain_samples:
                    continue
                domain_labels = [pii_type in ex.labels for ex in domain_examples]
                if not any(domain_labels) or all(domain_labels):
                    continue
                specialist = DecisionTree(max_depth=self.max_depth)
                specialist._fit_index(index_for(domain, domain_examples), domain_labels)
                self._specialists[(domain, pii_type)] = specialist
        return self

    def _tree_for(self, domain: str, pii_type: PiiType) -> Optional[DecisionTree]:
        specialist = self._specialists.get((domain, pii_type))
        if specialist is not None:
            return specialist
        return self._global.get(pii_type)

    def predict(self, request: CapturedRequest, fields: Optional[list] = None) -> list:
        """Predict PII types present in ``request``.

        Returns :class:`ReconPrediction` records above the threshold,
        each with the heuristically extracted key/value when one of the
        type's synonym keys is present.  ``fields`` as :func:`featurize`
        takes them.
        """
        if fields is None:
            fields = extract_fields(request)
        features = featurize(request, fields)
        try:
            domain = domain_key(parse_url(request.url).host)
        except UrlError:
            domain = ""
        predictions = []
        # In _TYPE_ORDER: prediction order feeds the detector's
        # observation merge, so it must not follow set-hash order.
        for pii_type in _TYPE_ORDER:
            if pii_type not in self.trained_types:
                continue
            tree = self._tree_for(domain, pii_type)
            if tree is None:
                continue
            probability = tree.predict_proba(features)
            if probability < self.threshold:
                continue
            key, value = _extract_by_synonym(fields, pii_type)
            predictions.append(
                ReconPrediction(
                    pii_type=pii_type,
                    probability=probability,
                    extracted_key=key,
                    extracted_value=value,
                )
            )
        return predictions


def _extract_by_synonym(fields: list, pii_type: PiiType) -> tuple:
    synonyms = KEY_SYNONYMS.get(pii_type, ())
    for fld in fields:
        key = fld.key.lower()
        bare = key.rsplit(".", 1)[-1]
        if bare in synonyms or key in synonyms:
            return (fld.key, fld.value)
    return ("", "")


# -- evaluation ----------------------------------------------------------------


@dataclass
class TypeMetrics:
    """Precision/recall for one PII type."""

    pii_type: PiiType
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def evaluate_classifier(classifier: ReconClassifier, examples: list) -> dict:
    """Per-type precision/recall of a classifier on labeled examples.

    ``examples`` carry featurized requests — re-featurizing from raw
    requests is the caller's job (use :meth:`ReconClassifier.make_example`).
    Returns ``{PiiType: TypeMetrics}`` for every type with ground-truth
    positives or predicted positives.
    """
    metrics: dict = {}

    def metric(pii_type: PiiType) -> TypeMetrics:
        entry = metrics.get(pii_type)
        if entry is None:
            entry = metrics[pii_type] = TypeMetrics(pii_type=pii_type)
        return entry

    for example in examples:
        predicted: set = set()
        for pii_type in classifier.trained_types:
            tree = classifier._tree_for(example.domain, pii_type)
            if tree is not None and tree.predict_proba(example.features) >= classifier.threshold:
                predicted.add(pii_type)
        for pii_type in predicted & example.labels:
            metric(pii_type).true_positives += 1
        for pii_type in predicted - example.labels:
            metric(pii_type).false_positives += 1
        for pii_type in example.labels - predicted:
            metric(pii_type).false_negatives += 1
    return metrics


def render_metrics(metrics: dict) -> str:
    """Text table of per-type precision/recall/F1."""
    header = f"{'PII type':14s} {'prec':>6s} {'recall':>6s} {'F1':>6s} {'TP':>5s} {'FP':>5s} {'FN':>5s}"
    lines = [header, "-" * len(header)]
    for pii_type in sorted(metrics, key=lambda t: t.value):
        entry = metrics[pii_type]
        lines.append(
            f"{pii_type.label:14s} {entry.precision:6.2f} {entry.recall:6.2f} "
            f"{entry.f1:6.2f} {entry.true_positives:5d} {entry.false_positives:5d} "
            f"{entry.false_negatives:5d}"
        )
    return "\n".join(lines)
