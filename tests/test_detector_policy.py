"""Tests for the combined detector and the leak policy."""

import pytest

from repro.core.leaks import (
    CREDENTIAL_TYPES,
    FIRST_PARTY_NON_CREDENTIAL,
    PLAINTEXT,
    THIRD_PARTY,
    LeakPolicy,
    jaccard,
    leak_domains,
    leak_types,
)
from repro.net.flow import CapturedRequest, CapturedResponse, Flow, HttpTransaction, TlsInfo
from repro.net.trace import SessionMeta, Trace
from repro.pii.detector import MATCHING, RECON, PiiDetector, PiiObservation
from repro.pii.matcher import GroundTruthMatcher
from repro.pii.types import PiiType
from repro.trackerdb.categorize import Categorizer

TRUTH = {
    PiiType.EMAIL: ["signup99@testmail.example"],
    PiiType.PASSWORD: ["pwTopSecret99"],
    PiiType.LOCATION: ["02115"],
    PiiType.BIRTHDAY: ["1990-05-17"],
    PiiType.USERNAME: ["tester99.svc"],
}


def flow_with(url, scheme="https", host=None, decrypted=True):
    host = host or url.split("://")[1].split("/")[0]
    flow = Flow(
        flow_id=0, ts_start=0, client_ip="10.0.0.2", client_port=1,
        server_ip="9.9.9.9", server_port=443 if scheme == "https" else 80,
        hostname=host, scheme=scheme,
        tls=TlsInfo(sni=host, intercepted=decrypted) if scheme == "https" else None,
    )
    txn = HttpTransaction(
        timestamp=1.0,
        request=CapturedRequest("GET", url, headers=[("Host", host)]),
        response=CapturedResponse(200),
    )
    if decrypted:
        flow.add_transaction(txn)
    else:
        flow.account_opaque(100, 100)
    return flow


class TestDetector:
    def _detector(self, recon=None, verify=True):
        return PiiDetector(GroundTruthMatcher(TRUTH), recon=recon, verify_recon=verify)

    def test_matching_detection(self):
        flow = flow_with("https://t.example/c?email=signup99@testmail.example")
        observations, fps = self._detector().scan_transaction(flow, flow.transactions[0])
        assert len(observations) == 1
        obs = observations[0]
        assert obs.pii_type == PiiType.EMAIL
        assert MATCHING in obs.methods
        assert not obs.plaintext

    def test_plaintext_flag(self):
        flow = flow_with("http://t.example/c?zip=02115", scheme="http")
        observations, _ = self._detector().scan_transaction(flow, flow.transactions[0])
        assert observations[0].plaintext

    def test_opaque_flows_skipped(self):
        trace = Trace(meta=SessionMeta(service="s", os_name="ios", medium="app"))
        trace.add(flow_with("https://pinned.example/x?zip=02115", decrypted=False))
        report = self._detector().scan_trace(trace)
        assert report.observations == []
        assert report.flows_skipped_opaque == 1

    def test_one_observation_per_type_per_transaction(self):
        flow = flow_with("https://t.example/c?zip=02115&postal=02115")
        observations, _ = self._detector().scan_transaction(flow, flow.transactions[0])
        assert len([o for o in observations if o.pii_type == PiiType.LOCATION]) == 1

    def test_recon_verification_drops_false_positive(self):
        class FakeRecon:
            def predict(self, request, fields=None):
                from repro.pii.recon import ReconPrediction

                return [
                    ReconPrediction(PiiType.EMAIL, 0.9, "email", "not-the-real-value"),
                ]

        flow = flow_with("https://t.example/c?email=bogus")
        detector = self._detector(recon=FakeRecon())
        observations, fps = detector.scan_transaction(flow, flow.transactions[0])
        assert observations == []
        assert fps == 1

    def test_recon_verified_prediction_kept(self):
        class FakeRecon:
            def predict(self, request, fields=None):
                from repro.pii.recon import ReconPrediction

                return [ReconPrediction(PiiType.EMAIL, 0.9, "em", "signup99@testmail.example")]

        flow = flow_with("https://t.example/c?x=1")
        observations, fps = self._detector(recon=FakeRecon()).scan_transaction(
            flow, flow.transactions[0]
        )
        assert len(observations) == 1
        assert RECON in observations[0].methods
        assert fps == 0

    def test_both_methods_merge(self):
        class FakeRecon:
            def predict(self, request, fields=None):
                from repro.pii.recon import ReconPrediction

                return [ReconPrediction(PiiType.EMAIL, 0.8, "email", "signup99@testmail.example")]

        flow = flow_with("https://t.example/c?email=signup99@testmail.example")
        observations, _ = self._detector(recon=FakeRecon()).scan_transaction(
            flow, flow.transactions[0]
        )
        assert len(observations) == 1
        assert observations[0].detected_by_both


def make_observation(pii_type, hostname, plaintext=False):
    from repro.trackerdb.psl import domain_key

    return PiiObservation(
        pii_type=pii_type,
        hostname=hostname,
        domain=domain_key(hostname),
        url=f"https://{hostname}/x",
        timestamp=0.0,
        flow_id=0,
        plaintext=plaintext,
        methods={MATCHING},
    )


class TestLeakPolicy:
    def _policy(self):
        categorizer = Categorizer(
            ["myservice.com"],
            os_service_hosts=["play.googleapis.com"],
            sso_domains=["accounts.sso.example"],
        )
        return LeakPolicy(categorizer)

    def test_credentials_to_first_party_https_not_a_leak(self):
        policy = self._policy()
        for pii_type in CREDENTIAL_TYPES:
            assert policy.classify(make_observation(pii_type, "api.myservice.com")) is None

    def test_credentials_to_sso_not_a_leak(self):
        policy = self._policy()
        obs = make_observation(PiiType.PASSWORD, "accounts.sso.example")
        assert policy.classify(obs) is None

    def test_credentials_to_third_party_are_leaks(self):
        record = self._policy().classify(make_observation(PiiType.PASSWORD, "api.taplytics.com"))
        assert record is not None
        assert record.reason == THIRD_PARTY

    def test_non_credential_to_first_party_https_is_leak(self):
        """A birthday to the first party over HTTPS is a leak (§3.2)."""
        record = self._policy().classify(make_observation(PiiType.BIRTHDAY, "www.myservice.com"))
        assert record is not None
        assert record.reason == FIRST_PARTY_NON_CREDENTIAL

    def test_plaintext_always_a_leak_even_credentials_first_party(self):
        obs = make_observation(PiiType.PASSWORD, "api.myservice.com", plaintext=True)
        record = self._policy().classify(obs)
        assert record is not None
        assert record.reason == PLAINTEXT

    def test_os_service_ignored(self):
        obs = make_observation(PiiType.LOCATION, "play.googleapis.com")
        assert self._policy().classify(obs) is None

    def test_aa_flag_on_record(self):
        record = self._policy().classify(make_observation(PiiType.LOCATION, "www.google-analytics.com"))
        assert record.is_aa
        other = self._policy().classify(make_observation(PiiType.LOCATION, "ticket.usablenet.com"))
        assert not other.is_aa

    def test_classify_all_filters(self):
        policy = self._policy()
        observations = [
            make_observation(PiiType.PASSWORD, "api.myservice.com"),  # exempt
            make_observation(PiiType.LOCATION, "www.google-analytics.com"),
        ]
        leaks = policy.classify_all(observations)
        assert len(leaks) == 1
        assert leak_types(leaks) == {PiiType.LOCATION}
        assert leak_domains(leaks) == {"google-analytics.com"}


class TestJaccard:
    def test_identical(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard({1}, {2}) == 0.0

    def test_partial(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_empty_sets_are_identical(self):
        assert jaccard(set(), set()) == 1.0
