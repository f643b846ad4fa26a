"""Preference parsing + scriptable `repro recommend` weights.

Includes the weight-coverage guard: every :class:`PiiType` member must
carry an explicit :data:`DEFAULT_WEIGHTS` entry, so a newly added
identifier class can't silently score 0 in both the library and the
serving layer.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.recommend import (
    DEFAULT_WEIGHTS,
    PrivacyPreferences,
    apply_weight_overrides,
    parse_weight_override,
    preferences_from_dict,
    preferences_key,
)
from repro.pii.types import PiiType


class TestDefaultWeightCoverage:
    def test_every_pii_type_has_an_explicit_default_weight(self):
        missing = [t.value for t in PiiType if t not in DEFAULT_WEIGHTS]
        assert missing == [], (
            f"PiiType member(s) missing from DEFAULT_WEIGHTS: {missing} — "
            "new identifier classes must be weighted explicitly"
        )

    def test_default_weights_in_range(self):
        for pii_type, weight in DEFAULT_WEIGHTS.items():
            assert 0.0 <= weight <= 1.0, (pii_type, weight)

    def test_no_stray_keys(self):
        assert set(DEFAULT_WEIGHTS) <= set(PiiType)


class TestParseWeightOverride:
    def test_parses_type_and_value(self):
        assert parse_weight_override("email=0.9") == (PiiType.EMAIL, 0.9)
        assert parse_weight_override(" LOCATION =1") == (PiiType.LOCATION, 1.0)

    @pytest.mark.parametrize(
        "bad", ["email", "email=", "=0.5", "email=high", "email=1.5", "ssn=0.5"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_weight_override(bad)


class TestPreferencesFromDict:
    def test_empty_means_defaults(self):
        preferences = preferences_from_dict({})
        assert preferences == PrivacyPreferences()

    def test_partial_weights_keep_defaults(self):
        preferences = preferences_from_dict({"weights": {"email": 0.9}})
        assert preferences.weight(PiiType.EMAIL) == 0.9
        assert preferences.weight(PiiType.PASSWORD) == DEFAULT_WEIGHTS[PiiType.PASSWORD]

    def test_aversions(self):
        preferences = preferences_from_dict(
            {"tracker_aversion": 0.2, "plaintext_aversion": 1.0}
        )
        assert preferences.tracker_aversion == 0.2
        assert preferences.plaintext_aversion == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"bogus": 1},
            {"weights": [1, 2]},
            {"weights": {"ssn": 0.5}},
            {"weights": {"email": "high"}},
            {"weights": {"email": -0.1}},
            {"tracker_aversion": -1},
            {"plaintext_aversion": "lots"},
            {"tracker_aversion": float("nan")},
            {"plaintext_aversion": float("inf")},
            {"tracker_aversion": "nan"},
            {"plaintext_aversion": 10**400},
            {"weights": {"email": float("nan")}},
            {"weights": {"email": 10**400}},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            preferences_from_dict(bad)

    def test_round_trips_with_serve_body_schema(self):
        """The dict schema is exactly the POST /v1/recommend 'preferences'."""
        body = {"weights": {t.value: 0.5 for t in PiiType}, "tracker_aversion": 0.0}
        preferences = preferences_from_dict(body)
        assert preferences.weights == {t: 0.5 for t in PiiType}


class TestApplyWeightOverrides:
    def test_overrides_fold_in_order(self):
        base = PrivacyPreferences()
        updated = apply_weight_overrides(base, ["email=0.1", "email=0.8", "name=0.0"])
        assert updated.weight(PiiType.EMAIL) == 0.8
        assert updated.weight(PiiType.NAME) == 0.0
        assert base.weight(PiiType.EMAIL) == DEFAULT_WEIGHTS[PiiType.EMAIL]  # copy

    def test_no_overrides_returns_same_object(self):
        base = PrivacyPreferences()
        assert apply_weight_overrides(base, []) is base


class TestPreferencesKey:
    def test_equivalent_preferences_share_a_key(self):
        assert preferences_key(PrivacyPreferences()) == preferences_key(
            preferences_from_dict({"weights": {}})
        )

    def test_covers_every_type(self):
        sparse = PrivacyPreferences(weights={})  # weight() falls back to 0.5
        assert preferences_key(sparse) == preferences_key(PrivacyPreferences.uniform(0.5))

    def test_differs_when_a_weight_differs(self):
        a = preferences_from_dict({"weights": {"gender": 0.31}})
        assert preferences_key(a) != preferences_key(PrivacyPreferences())


class TestRecommendCli:
    ARGS = ["recommend", "--services", "weather", "--duration", "40", "--no-recon"]

    def test_weight_override_changes_scores(self, capsys):
        assert main(self.ARGS) == 0
        baseline = capsys.readouterr().out
        assert main(self.ARGS + ["--weight", "location=0.0", "--weight", "unique_id=0.0"]) == 0
        reweighted = capsys.readouterr().out
        assert baseline != reweighted

    def test_prefs_file(self, capsys, tmp_path):
        prefs = tmp_path / "prefs.json"
        prefs.write_text(json.dumps({"weights": {"location": 1.0}, "tracker_aversion": 0.5}))
        assert main(self.ARGS + ["--prefs", str(prefs)]) == 0
        assert "use the" in capsys.readouterr().out

    def test_bad_weight_exits(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--weight", "ssn=1.0"])

    def test_bad_prefs_file_exits(self, tmp_path):
        prefs = tmp_path / "prefs.json"
        prefs.write_text("{not json")
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--prefs", str(prefs)])

    @pytest.mark.parametrize(
        "text",
        [
            '{"tracker_aversion": NaN}',
            '{"plaintext_aversion": Infinity}',
            '{"tracker_aversion": 1e999}',
        ],
    )
    def test_non_finite_prefs_file_exits_with_one_line(self, tmp_path, text):
        prefs = tmp_path / "prefs.json"
        prefs.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--prefs", str(prefs)])
        message = str(excinfo.value.code)
        assert message.startswith("bad preferences:") and "\n" not in message
