"""Tests for the ReCon-style classifier: features, trees, training."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import _tree_shape, recon_shapes
from repro.net.flow import CapturedRequest
from repro.pii import recon as recon_module
from repro.pii.recon import (
    DecisionTree,
    ReconClassifier,
    TrainingExample,
    featurize,
)
from repro.pii.structure import extract_fields
from repro.pii.types import PiiType
from repro.qa.reference import reference_recon, reference_tree


def beacon(domain, pairs):
    query = "&".join(f"{k}={v}" for k, v in pairs)
    return CapturedRequest("GET", f"https://{domain}/collect?{query}", headers=[("Host", domain)])


class TestFeaturize:
    def test_domain_and_keys(self):
        features = featurize(beacon("t.tracker.com", [("email", "a@b.c"), ("v", "1")]))
        assert "domain:tracker.com" in features
        assert "key:email" in features
        assert "kv:email=email_like" in features
        assert "method:GET" in features

    def test_path_segments(self):
        features = featurize(CapturedRequest("GET", "https://x.com/api/v2/users", headers=[]))
        assert "path:api" in features
        assert "path:users" in features

    def test_value_shapes(self):
        features = featurize(
            beacon(
                "t.com",
                [
                    ("adid", "01234567-89ab-cdef-0123-456789abcdef"),
                    ("h", "d41d8cd98f00b204e9800998ecf8427e"),
                    ("imei", "358240051234567"),
                    ("lat", "42.36"),
                ],
            )
        )
        assert "kv:adid=uuid" in features
        assert "kv:h=hexdigest32" in features
        assert "kv:imei=digits_long" in features
        assert "kv:lat=float" in features

    def test_given_fields_match_extracted(self):
        request = beacon("t.com", [("email", "a@b.c"), ("lat", "42.36")])
        assert featurize(request, extract_fields(request)) == featurize(request)

    def test_unparsable_url_has_no_domain(self):
        features = featurize(CapturedRequest("GET", "http://", headers=[]))
        assert not any(f.startswith("domain:") for f in features)
        example = ReconClassifier.make_example(
            CapturedRequest("GET", "http://", headers=[]), set()
        )
        assert example.domain == ""

    def test_shape_memo_is_bounded(self, monkeypatch):
        """The memo never keeps a long value (its bound: tests/test_caches.py)."""
        monkeypatch.setattr(recon_module, "_SHAPE_VALUE_MAX", 4)
        memo = recon_module._short_shape
        memo.cache_clear()
        values = ("1", "a@b.co", "42.5", "7", "a@b.co", "1")
        shapes = [recon_module._value_shape(v) for v in values]
        assert shapes == [
            "digits_short",
            "email_like",
            "float",
            "digits_short",
            "email_like",
            "digits_short",
        ]
        info = memo.cache_info()  # "a@b.co" is over 4 characters: never looked up
        assert (info.hits, info.misses, info.currsize) == (1, 3, 3)


class TestDecisionTree:
    def _dataset(self, rng, n=200):
        samples, labels = [], []
        for i in range(n):
            positive = rng.random() < 0.5
            features = {"key:v", f"noise:{rng.randrange(5)}"}
            if positive:
                features.add("key:email")
            if rng.random() < 0.1:  # label noise
                positive = not positive
            samples.append(features)
            labels.append(positive)
        return samples, labels

    def test_learns_simple_rule(self):
        rng = random.Random(0)
        samples, labels = self._dataset(rng)
        tree = DecisionTree(max_depth=3)
        tree.fit(samples, labels)
        assert tree.predict({"key:email", "key:v"})
        assert not tree.predict({"key:v"})

    def test_probability_bounds(self):
        rng = random.Random(1)
        samples, labels = self._dataset(rng)
        tree = DecisionTree().fit(samples, labels)
        for features in samples:
            assert 0.0 <= tree.predict_proba(features) <= 1.0

    def test_depth_limited(self):
        rng = random.Random(2)
        samples = [{f"f{i}", f"g{rng.randrange(10)}"} for i in range(100)]
        labels = [rng.random() < 0.5 for _ in range(100)]
        tree = DecisionTree(max_depth=2, min_samples_leaf=1).fit(samples, labels)
        assert tree.depth() <= 2

    def test_pure_labels_give_leaf(self):
        tree = DecisionTree().fit([{"a"}, {"b"}], [True, True])
        assert tree.predict_proba({"anything"}) == 1.0

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree().fit([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree().fit([{"a"}], [True, False])

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict_proba({"a"})

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_crashes_on_random_data(self, seed):
        rng = random.Random(seed)
        samples = [
            {f"f{rng.randrange(6)}" for _ in range(rng.randrange(1, 4))} for _ in range(30)
        ]
        labels = [rng.random() < 0.4 for _ in range(30)]
        if not any(labels) or all(labels):
            labels[0] = not labels[0]
        tree = DecisionTree(min_samples_leaf=2).fit(samples, labels)
        assert 0.0 <= tree.predict_proba(samples[0]) <= 1.0


class TestReferenceGrower:
    """The bitset grower builds exactly the row-wise reference's trees."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_trees_equal_reference(self, data):
        # Small alphabets make equal gains (and equal counts at the
        # max_features cut) common, so tie-breaks are exercised.
        alphabet = "abcdefghijkl"[: data.draw(st.integers(1, 12), label="letters")]
        distinct = data.draw(
            st.lists(st.frozensets(st.sampled_from(alphabet)), min_size=1, max_size=40),
            label="samples",
        )
        repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=20), label="repeats")
        samples = [set(features) for features in distinct + repeats]
        labels = data.draw(
            st.lists(st.booleans(), min_size=len(samples), max_size=len(samples)),
            label="labels",
        )
        vocabulary = len(set().union(*samples))
        max_features = data.draw(st.integers(1, max(1, vocabulary)), label="max_features")
        max_depth = data.draw(st.integers(1, 8), label="max_depth")
        min_samples_leaf = data.draw(st.integers(0, 3), label="min_samples_leaf")
        tree = DecisionTree(max_depth, min_samples_leaf, max_features).fit(samples, labels)
        expected = reference_tree(samples, labels, max_depth, min_samples_leaf, max_features)
        assert _tree_shape(tree._root) == _tree_shape(expected)

    def test_classifier_equals_reference(self):
        examples = _training_examples(random.Random(7), n=400)
        for example in examples[::5]:
            example.labels.add(PiiType.UNIQUE_ID)  # mixed labels per domain
        fitted = ReconClassifier(min_domain_samples=20).fit(examples)
        reference = reference_recon(examples, min_domain_samples=20)
        assert fitted._specialists
        assert recon_shapes(fitted) == recon_shapes(reference)
        assert list(fitted._specialists) == list(reference._specialists)

    def test_pickle_holds_only_the_model(self):
        samples = [{"a", "b"}, {"a"}, {"b"}, {"c"}] * 5
        labels = [True, True, False, False] * 5
        tree = DecisionTree(max_depth=3, min_samples_leaf=1).fit(samples, labels)
        restored = pickle.loads(pickle.dumps(tree))
        assert set(vars(restored)) == {"max_depth", "min_samples_leaf", "max_features", "_root"}
        assert _tree_shape(restored._root) == _tree_shape(tree._root)
        classifier = ReconClassifier().fit(_training_examples(random.Random(8)))
        assert set(vars(pickle.loads(pickle.dumps(classifier)))) == {
            "threshold",
            "min_domain_samples",
            "max_depth",
            "_rng",
            "_global",
            "_specialists",
            "trained_types",
        }


def _training_examples(rng, n=300):
    examples = []
    for i in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            request = beacon("tracker-a.com", [("email", "user@x.com"), ("v", str(i))])
            labels = {PiiType.EMAIL}
        elif kind == 1:
            request = beacon("tracker-b.com", [("lat", "42.1"), ("lon", "-71.2"), ("v", str(i))])
            labels = {PiiType.LOCATION}
        else:
            request = beacon("cdn-c.com", [("v", str(i)), ("page", "home")])
            labels = set()
        examples.append(ReconClassifier.make_example(request, labels))
    return examples


class TestReconClassifier:
    def test_learns_per_type(self):
        rng = random.Random(3)
        classifier = ReconClassifier(min_domain_samples=10_000)  # global trees only
        classifier.fit(_training_examples(rng))
        predictions = classifier.predict(beacon("tracker-a.com", [("email", "other@y.org")]))
        types = {p.pii_type for p in predictions}
        assert PiiType.EMAIL in types
        clean = classifier.predict(beacon("cdn-c.com", [("page", "about")]))
        assert {p.pii_type for p in clean} == set()

    def test_extracts_value_by_synonym(self):
        rng = random.Random(4)
        classifier = ReconClassifier().fit(_training_examples(rng))
        predictions = classifier.predict(beacon("tracker-a.com", [("email", "z@q.net")]))
        email = next(p for p in predictions if p.pii_type == PiiType.EMAIL)
        assert email.extracted_key == "email"
        assert email.extracted_value == "z@q.net"

    def test_domain_specialists_trained(self):
        rng = random.Random(5)
        classifier = ReconClassifier(min_domain_samples=20)
        classifier.fit(_training_examples(rng, n=400))
        # tracker-a has ~133 samples with mixed labels? per-domain labels
        # are uniform here, so specialists may be skipped; the classifier
        # must still predict through the global tree.
        assert classifier.trained_types

    def test_fit_requires_examples(self):
        with pytest.raises(ValueError):
            ReconClassifier().fit([])

    def test_probability_threshold_respected(self):
        rng = random.Random(6)
        strict = ReconClassifier(threshold=1.01).fit(_training_examples(rng))
        assert strict.predict(beacon("tracker-a.com", [("email", "a@b.c")])) == []


class TestTrainFromTraces:
    def test_end_to_end_training(self, mini_study):
        """ReCon trained inside the study pipeline finds planted PII."""
        recon = mini_study.recon
        assert recon is not None
        assert recon.trained_types
        # A location beacon shaped like the simulated SDK traffic:
        request = beacon("rrtb.amobee.com", [("lat", "42.36"), ("lon", "-71.05"), ("zip", "02115")])
        predictions = recon.predict(request)
        assert any(p.pii_type == PiiType.LOCATION for p in predictions)
