"""Tests for the mitigation policy, inline data plane, and report."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.countermeasures import BlockedRequest, TrackerBlockingTransport
from repro.core.pipeline import analyze_dataset, categorizer_for
from repro.experiment.runner import ExperimentRunner
from repro.http.transport import NetworkError
from repro.mitigate import (
    MitigationAddon,
    MitigationPolicy,
    build_rewrite_plan,
    default_policy,
    evaluate_mitigation,
    hash_replacement,
    render_mitigation,
    rewrite_text,
    scrub_replacement,
)
from repro.mitigate.policy import (
    ACTION_ALLOW,
    ACTION_BLOCK,
    ACTION_HASH,
    ACTION_SCRUB,
    FIRST_PARTY,
    THIRD_PARTY,
    PolicyError,
)
from repro.pii.types import PiiType
from repro.qa.oracle import canonical_bytes
from repro.services.world import build_world
from repro.trackerdb.abpfilter import FilterList

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPolicy:
    def test_default_action_is_allow(self):
        policy = MitigationPolicy()
        assert policy.action_for(PiiType.EMAIL, FIRST_PARTY) == ACTION_ALLOW
        assert policy.active_types() == ()
        assert policy.covered_types() == ()

    def test_rule_lookup_and_coverage(self):
        policy = MitigationPolicy(
            rules={
                PiiType.EMAIL: {FIRST_PARTY: ACTION_SCRUB, THIRD_PARTY: ACTION_BLOCK},
                PiiType.LOCATION: {THIRD_PARTY: ACTION_HASH},
            }
        )
        assert policy.action_for(PiiType.EMAIL, THIRD_PARTY) == ACTION_BLOCK
        assert policy.action_for(PiiType.LOCATION, FIRST_PARTY) == ACTION_ALLOW
        assert set(policy.active_types()) == {PiiType.EMAIL, PiiType.LOCATION}
        # LOCATION is allowed at first party, so it is not covered.
        assert set(policy.covered_types()) == {PiiType.EMAIL}

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            MitigationPolicy(rules={PiiType.EMAIL: {FIRST_PARTY: "redact"}})

    def test_invalid_party_rejected(self):
        with pytest.raises(ValueError):
            MitigationPolicy(rules={PiiType.EMAIL: {"second_party": ACTION_SCRUB}})

    def test_json_round_trip(self, tmp_path):
        policy = default_policy()
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = MitigationPolicy.load(path)
        assert loaded.label == policy.label
        for pii_type in PiiType:
            for party in (FIRST_PARTY, THIRD_PARTY):
                assert loaded.action_for(pii_type, party) == policy.action_for(
                    pii_type, party
                )

    def test_default_policy_covers_all_but_device_info(self):
        policy = default_policy()
        covered = set(policy.covered_types())
        assert PiiType.DEVICE_INFO not in covered
        assert covered == set(PiiType) - {PiiType.DEVICE_INFO}

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"rules": 3}, "rules must be an object"),
            ([1, 2], "policy must be an object"),
            ({"rules": {"email": {"third_party": "nuke"}}}, "unknown action 'nuke'"),
            ({"rules": {"email": "block"}}, "rules['email'] must be an object"),
            ({"rules": {"ssn": {}}}, "unknown PII type 'ssn'"),
            ({"rules": {"email": {"fourth_party": "block"}}}, "unknown party"),
            ({"default_action": "nuke"}, "unknown action 'nuke'"),
            ({"label": ["x"]}, "label must be a string"),
        ],
    )
    def test_from_dict_errors_are_policy_errors(self, payload, message):
        with pytest.raises(PolicyError, match=re.escape(message)):
            MitigationPolicy.from_dict(payload)

    @pytest.mark.parametrize(
        "body",
        [
            '{"rules": 3}',
            "[1, 2]",
            '{"rules": {"email": {"third_party": "nuke"}}}',
        ],
        ids=["rules-not-object", "top-level-list", "unknown-action"],
    )
    def test_cli_malformed_policy_is_one_line_error(self, tmp_path, body):
        policy = tmp_path / "policy.json"
        policy.write_text(body)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        argv = ["mitigate", "--policy", str(policy), "--services", "weather"]
        argv += ["--duration", "20", "--no-recon"]
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )
        assert result.returncode != 0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("invalid mitigation policy")
        assert result.stderr.count("\n") == 1


class TestRewritePlan:
    VALUE = "jdoe@example.com"

    def _plan(self, action, seed=7):
        return build_rewrite_plan([(PiiType.EMAIL, self.VALUE, False, action)], seed)

    def test_scrub_replaces_every_encoding_same_length(self):
        from repro.pii.encodings import variants

        plan = self._plan(ACTION_SCRUB)
        for form in variants(self.VALUE, include_hashes=True):
            text = f"prefix {form} suffix"
            out = rewrite_text(text, plan)
            assert len(out) == len(text)
            assert form not in out

    def test_scrub_is_case_insensitive(self):
        plan = self._plan(ACTION_SCRUB)
        out = rewrite_text(f"q={self.VALUE.upper()}", plan)
        assert self.VALUE.upper() not in out

    def test_hash_deterministic_per_seed(self):
        one = rewrite_text(self.VALUE, self._plan(ACTION_HASH, seed=7))
        two = rewrite_text(self.VALUE, self._plan(ACTION_HASH, seed=7))
        other = rewrite_text(self.VALUE, self._plan(ACTION_HASH, seed=8))
        assert one == two
        assert one != other
        assert len(one) == len(self.VALUE)

    def test_hash_replacement_contains_no_digits(self):
        # Replacements must never re-trigger digit-boundary detectors.
        for encoding in ("identity", "hex", "base64"):
            out = hash_replacement("a" * 32, encoding, PiiType.PHONE, "6175551234", 3)
            assert not any(ch.isdigit() for ch in out)

    def test_scrub_alphabet_matches_encoding(self):
        assert scrub_replacement("deadbeef", "hex") == "00000000"
        assert scrub_replacement("abcd", "base64") == "xxxx"

    def test_block_planned_as_scrub(self):
        out = rewrite_text(f"tok={self.VALUE}", self._plan(ACTION_BLOCK))
        assert self.VALUE not in out
        assert "xxx" in out

    def test_coordinate_scrub_within_gps_tolerance(self):
        plan = build_rewrite_plan(
            [(PiiType.LOCATION, "42.3601", True, ACTION_SCRUB)], seed=0
        )
        out = rewrite_text("lat=42.3605&lon=-71.0589", plan)
        assert "42.3605" not in out
        assert "-71.0589" in out  # unrelated coordinate untouched


def _collect(specs, seed=2016, mitigation=None):
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=seed)
    return runner.run_study(specs, duration=240.0, mitigation=mitigation)


class TestDataPlaneEndToEnd:
    @pytest.fixture(scope="class")
    def one_spec(self, mini_catalog):
        return [spec for spec in mini_catalog if spec.slug == "weather"]

    def test_default_policy_removes_covered_leaks(self, one_spec):
        policy = default_policy()
        world = build_world(one_spec)
        runner = ExperimentRunner(world, seed=2016)
        addon = MitigationAddon(policy, one_spec, seed=2016)
        dataset = runner.run_study(one_spec, duration=240.0, mitigation=addon)
        study = analyze_dataset(dataset, one_spec, train_recon=True)
        covered = set(policy.covered_types())
        categorizer = categorizer_for(one_spec[0])
        for analysis in study.analyses():
            for leak in analysis.leaks:
                assert leak.pii_type not in covered
                host = leak.observation.hostname
                party = (
                    FIRST_PARTY
                    if leak.category.is_first_party or categorizer.is_sso_host(host)
                    else THIRD_PARTY
                )
                assert policy.action_for(leak.pii_type, party) == ACTION_ALLOW
        assert addon.decisions
        assert addon.requests_rewritten > 0
        summary = addon.decision_summary()
        assert summary["decisions"] == len(addon.decisions)
        assert addon.latency_percentiles()["count"] == addon.requests_seen

    def test_mitigated_flows_tagged(self, one_spec):
        dataset = _collect(one_spec, mitigation=default_policy())
        tagged = sum(
            1
            for record in dataset
            for flow in record.trace
            if "mitigated" in flow.tags
        )
        assert tagged > 0

    def test_inert_policy_byte_identical(self, one_spec):
        plain = _collect(one_spec)
        inert = _collect(one_spec, mitigation=MitigationPolicy(label="inert"))
        expected = canonical_bytes(analyze_dataset(plain, one_spec, train_recon=True))
        actual = canonical_bytes(analyze_dataset(inert, one_spec, train_recon=True))
        assert actual == expected

    def test_mitigated_collection_deterministic(self, one_spec):
        first = _collect(one_spec, mitigation=default_policy())
        second = _collect(one_spec, mitigation=default_policy())
        one = canonical_bytes(analyze_dataset(first, one_spec, train_recon=True))
        two = canonical_bytes(analyze_dataset(second, one_spec, train_recon=True))
        assert one == two


class TestBlockingDecisionsLog:
    FILTERS = FilterList.parse("||tracker.example^")

    class _Inner:
        def __init__(self, fail=False):
            self.fail = fail
            self.connects = []

        def connect(self, host, port, scheme, enforce_pins=False):
            if self.fail:
                raise NetworkError("connection refused")
            self.connects.append(host)
            return object()

    def test_block_records_rule_text(self):
        transport = TrackerBlockingTransport(
            self._Inner(), "site.example", filter_list=self.FILTERS
        )
        with pytest.raises(BlockedRequest):
            transport.connect("tracker.example", 443, "https")
        assert transport.decisions == [
            ("tracker.example", "block", "||tracker.example^")
        ]
        assert transport.blocked == 1
        assert transport.allowed == 0

    def test_allow_recorded_after_inner_accepts(self):
        transport = TrackerBlockingTransport(
            self._Inner(), "site.example", filter_list=self.FILTERS
        )
        transport.connect("cdn.example", 443, "https")
        assert transport.decisions == [("cdn.example", "allow", None)]
        assert transport.allowed == 1

    def test_refused_handshake_not_counted_as_allowed(self):
        transport = TrackerBlockingTransport(
            self._Inner(fail=True), "site.example", filter_list=self.FILTERS
        )
        with pytest.raises(NetworkError):
            transport.connect("cdn.example", 443, "https")
        assert transport.decisions == []
        assert transport.allowed == 0


class TestReport:
    @pytest.fixture(scope="class")
    def outcome(self, mini_catalog):
        specs = [spec for spec in mini_catalog if spec.slug == "weather"]
        return evaluate_mitigation(specs, default_policy(), seed=2016, blocking=True)

    def test_leaks_reduced(self, outcome):
        assert outcome.total_leaks(outcome.mitigated) < outcome.total_leaks(
            outcome.baseline
        )
        assert outcome.reduction > 0.5

    def test_residual_types_allowed_only(self, outcome):
        assert outcome.residual_types() <= {PiiType.DEVICE_INFO}

    def test_render_sections(self, outcome):
        text = render_mitigation(outcome)
        assert "policy: default" in text
        assert "leak events per service/medium" in text
        assert "residual leaks per PII type" in text
        assert "inline decisions" in text
        assert "blocking-only contrast" in text
        assert "recommender deltas" in text

    def test_recommender_deltas_cover_all_cells(self, outcome):
        rows = outcome.recommender_deltas()
        assert {(service, os_name) for service, os_name, _, _ in rows} == {
            ("weather", "android"),
            ("weather", "ios"),
        }
