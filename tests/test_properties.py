"""Cross-cutting property-based tests on core invariants."""

import math
import random
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.leaks import PLAINTEXT, THIRD_PARTY, LeakRecord
from repro.core.pipeline import SessionAnalysis
from repro.campaign.population import PopulationError, PopulationSpec
from repro.core.recommend import Exposure, PrivacyPreferences, preferences_from_dict
from repro.experiment.scripts import MAX_DURATION
from repro.http.message import Request, Response
from repro.http.session import ClientSession
from repro.http.transport import DirectTransport, Network
from repro.http.url import encode_query
from repro.mitigate.policy import (
    ACTIONS,
    PARTIES,
    POLICY_FORMAT,
    MitigationPolicy,
    PolicyError,
)
from repro.net.clock import SimClock
from repro.net.flow import CapturedRequest
from repro.net.trace import SessionMeta, Trace
from repro.pii.encodings import encode_value, variants
from repro.pii.detector import PiiObservation
from repro.pii.matcher import GroundTruthMatcher
from repro.pii.types import PiiType
from repro.proxy.meddle import InterceptionProxy
from repro.qa.reference import match_linear, reference_score
from repro.qa.scenarios import random_filter_line, random_hostname, random_url
from repro.tls.certs import PROXY_CA, CaStore
from repro.trackerdb.abpfilter import FilterList
from repro.trackerdb.categorize import THIRD_PARTY_AA, FlowCategory
from repro.trackerdb.easylist import bundled_easylist
from repro.trackerdb.psl import DomainError, domain_key, registrable_domain, same_party

# Values long enough to be searchable and unlikely to collide with
# beacon boilerplate.
pii_values = st.text(
    alphabet=string.ascii_letters + string.digits + "@._-",
    min_size=8,
    max_size=24,
).filter(lambda v: v.strip("._-@") == v and len(set(v)) > 3)

ENCODINGS = ["identity", "base64", "hex", "md5", "sha1", "sha256", "urlencoded"]


class TestPlantAndDetectProperty:
    @settings(max_examples=60, deadline=None)
    @given(value=pii_values, encoding=st.sampled_from(ENCODINGS))
    def test_planted_value_is_always_detected(self, value, encoding):
        """Any ground-truth value planted in a query under any supported
        encoding must be found by the matcher — the completeness
        guarantee the controlled-experiment methodology rests on."""
        matcher = GroundTruthMatcher({PiiType.EMAIL: [value]})
        wire = encode_value(value, encoding)
        request = CapturedRequest(
            "GET",
            f"https://tracker.example/c?{encode_query([('x', wire)])}",
            headers=[("Host", "tracker.example")],
        )
        matches = matcher.match_request(request)
        assert any(m.pii_type == PiiType.EMAIL for m in matches)

    @settings(max_examples=40, deadline=None)
    @given(value=pii_values)
    def test_absent_value_never_detected(self, value):
        """A value that never hits the wire must not be reported."""
        matcher = GroundTruthMatcher({PiiType.PASSWORD: [value]})
        request = CapturedRequest(
            "GET",
            "https://tracker.example/c?x=benign&y=12345",
            headers=[("Host", "tracker.example")],
        )
        assert not matcher.match_request(request)

    @settings(max_examples=40, deadline=None)
    @given(value=pii_values)
    def test_variants_self_consistent(self, value):
        """Every advertised variant decodes back to (or derives from)
        the original value via its named encoding."""
        for form, encoding in variants(value).items():
            if encoding in ("lowercase", "uppercase", "digits_only"):
                continue
            # Hash encodings are emitted for both the raw and the
            # normalized (lowercased) value.
            assert form in (
                encode_value(value, encoding),
                encode_value(value.lower(), encoding),
            )


class _EchoServer:
    def handle(self, request):
        return Response.build(200, b"x" * 64, "text/plain")


class TestProxyAccountingProperty:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_requests=st.integers(min_value=1, max_value=12),
        body_size=st.integers(min_value=0, max_value=5000),
        per_connection=st.integers(min_value=1, max_value=8),
    )
    def test_bytes_and_flows_consistent(self, n_requests, body_size, per_connection):
        """For any workload: flow count == ceil(requests/per_connection),
        every byte counter is positive, and accounted bytes dominate the
        (possibly truncated) stored payloads."""
        network = Network()
        network.register("s.example", _EchoServer())
        clock = SimClock()
        proxy = InterceptionProxy(network, clock, max_stored_body=256)
        store = CaStore()
        store.trust(PROXY_CA)
        proxy.start_capture(SessionMeta(service="s", os_name="ios", medium="app"))
        session = ClientSession(
            proxy.transport_for(store), requests_per_connection=per_connection
        )
        body = b"b" * body_size
        for i in range(n_requests):
            if body:
                session.post(f"https://s.example/{i}", body=body)
            else:
                session.get(f"https://s.example/{i}")
        trace = proxy.stop_capture()

        expected_flows = -(-n_requests // per_connection)
        assert len(trace) == expected_flows
        total_txns = sum(len(f.transactions) for f in trace)
        assert total_txns == n_requests
        for flow in trace:
            assert flow.bytes_up > 0
            assert flow.bytes_down > 0
            stored_up = sum(len(t.request.body) for t in flow.transactions)
            stored_down = sum(len(t.response.body) for t in flow.transactions)
            assert flow.bytes_up >= stored_up
            assert flow.bytes_down >= stored_down


class TestTraceRoundtripProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_flows=st.integers(min_value=0, max_value=6),
    )
    def test_dump_load_identity(self, tmp_path_factory, seed, n_flows):
        from tests.test_flow import make_flow, make_txn

        rng = random.Random(seed)
        trace = Trace(meta=SessionMeta(service="s", os_name="ios", medium="web"))
        for i in range(n_flows):
            flow = make_flow(flow_id=i, hostname=f"h{rng.randrange(3)}.example")
            for _ in range(rng.randrange(3)):
                flow.add_transaction(make_txn(body=bytes(rng.randrange(256) for _ in range(rng.randrange(64)))))
            trace.add(flow)
        path = tmp_path_factory.mktemp("traces") / f"t{seed}.bin"
        trace.dump(path)
        again = Trace.load(path)
        assert len(again) == len(trace)
        assert again.total_bytes == trace.total_bytes
        for before, after in zip(trace, again):
            assert before.to_dict() == after.to_dict()


class TestEasylistProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        sub=st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        path=st.from_regex(r"[a-z0-9/_-]{0,24}", fullmatch=True),
    )
    def test_aa_domains_matched_on_any_subdomain_and_path(self, sub, path):
        """Domain-anchored rules must fire for every subdomain and path
        of a listed registrable domain."""
        compiled = bundled_easylist()
        for domain in ("doubleclick.net", "amobee.com", "google-analytics.com"):
            url = f"https://{sub}.{domain}/{path}"
            assert compiled.matches(url, page_host="news.example")


class TestPslInvariantProperty:
    """PSL helpers over the fuzzer's adversarial hostname vocabulary
    (IPs, bare suffixes, trailing dots, mixed case, junk labels)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_psl_total_and_idempotent(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            host = random_hostname(rng)
            key = domain_key(host)
            assert domain_key(key) == key
            assert same_party(host, host)
            try:
                registrable = registrable_domain(host)
            except DomainError:
                continue  # rejecting a host is fine; raising anything else is not
            assert registrable_domain(registrable) == registrable


class TestFilterEquivalenceProperty:
    """The indexed EasyList engine must agree with the reference linear
    scan on any random filter list and any random URL probe."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_indexed_equals_linear(self, seed):
        rng = random.Random(seed)
        filters = FilterList.parse(
            "\n".join(random_filter_line(rng) for _ in range(25))
        )
        for _ in range(10):
            url = random_url(rng)
            page_host = rng.choice(("news.example", "site.com", ""))
            resource_type = rng.choice(("script", "image", "xmlhttprequest", ""))
            indexed = filters.match(url, page_host, resource_type)
            linear = match_linear(filters, url, page_host, resource_type)
            assert (indexed.raw if indexed else None) == (
                linear.raw if linear else None
            )


def _scored_cell(leaks, aa_domains=0) -> SessionAnalysis:
    """A cell whose leak list is ``(PiiType, plaintext)`` pairs in order."""
    records = [
        LeakRecord(
            observation=PiiObservation(
                pii_type=pii_type,
                hostname="t.tracker.example",
                domain="tracker.example",
                url="http://t.tracker.example/c",
                timestamp=0.0,
                flow_id=index,
                plaintext=plaintext,
            ),
            category=FlowCategory(label=THIRD_PARTY_AA, domain="tracker.example"),
            reason=PLAINTEXT if plaintext else THIRD_PARTY,
        )
        for index, (pii_type, plaintext) in enumerate(leaks)
    ]
    return SessionAnalysis(
        service="svc",
        os_name="android",
        medium="app",
        aa_domains={f"aa{i}.example" for i in range(aa_domains)},
        leaks=records,
    )


# At least two plaintext records of different types, mixed in any order
# with encrypted ones: "the first plaintext record in list order" then
# differs from any, the minimum and the maximum whenever weights differ.
scored_leak_lists = st.tuples(
    st.lists(st.sampled_from(list(PiiType)), min_size=2, max_size=4, unique=True),
    st.lists(st.sampled_from(list(PiiType)), max_size=8),
).flatmap(
    lambda parts: st.permutations(
        [(t, True) for t in parts[0]] + [(t, False) for t in parts[1]]
    )
)


class TestExposureScoreProperty:
    """Scoring a cell from its :class:`Exposure` equals the reference
    walk over its leak records, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        leaks=scored_leak_lists,
        weights=st.dictionaries(
            st.sampled_from(list(PiiType)), st.floats(min_value=0.0, max_value=1.0)
        ),
        tracker_aversion=st.floats(min_value=0.0, max_value=5.0),
        plaintext_aversion=st.floats(min_value=0.0, max_value=5.0),
        aa_domains=st.integers(min_value=0, max_value=30),
    )
    def test_exposure_score_equals_the_record_walk(
        self, leaks, weights, tracker_aversion, plaintext_aversion, aa_domains
    ):
        cell = _scored_cell(leaks, aa_domains)
        preferences = PrivacyPreferences(
            weights=weights,
            tracker_aversion=tracker_aversion,
            plaintext_aversion=plaintext_aversion,
        )
        got = Exposure.of(cell).score(preferences)
        assert got.hex() == reference_score(cell, preferences).hex()

    def test_first_plaintext_record_sets_the_penalty(self):
        preferences = PrivacyPreferences(
            weights={PiiType.LOCATION: 0.9, PiiType.EMAIL: 0.2, PiiType.NAME: 0.5},
            tracker_aversion=0.0,
            plaintext_aversion=1.0,
        )
        base = math.fsum([0.9, 0.2, 0.5])
        for leaks, penalty in (
            ([(PiiType.NAME, False), (PiiType.EMAIL, True), (PiiType.LOCATION, True)], 0.2),
            ([(PiiType.LOCATION, True), (PiiType.EMAIL, True), (PiiType.NAME, True)], 0.9),
            ([(PiiType.NAME, True), (PiiType.LOCATION, True), (PiiType.EMAIL, True)], 0.5),
        ):
            exposure = Exposure.of(_scored_cell(leaks))
            assert exposure.plaintext_type == leaks[[p for _t, p in leaks].index(True)][0]
            assert exposure.score(preferences) == base + penalty


class TestMitigationRewriteProperty:
    """Scrubbing/hashing a planted leak must leave the carrying document
    parseable in its own encoding, over the fuzz vocabulary."""

    REWRITE_ENCODINGS = ["base64", "hex", "urlencoded"]

    @settings(max_examples=60, deadline=None)
    @given(
        value=pii_values,
        encoding=st.sampled_from(REWRITE_ENCODINGS),
        action=st.sampled_from(["scrub", "hash"]),
    )
    def test_rewritten_body_stays_parseable(self, value, encoding, action):
        import base64 as b64
        import re

        from repro.mitigate.plane import build_rewrite_plan, rewrite_text

        wire = encode_value(value, encoding)
        body = f"a=1&tok={wire}&b=2"
        plan = build_rewrite_plan([(PiiType.EMAIL, value, False, action)], seed=7)
        out = rewrite_text(body, plan)
        assert len(out) == len(body)
        assert wire not in out
        token = out.split("tok=")[1].split("&")[0]
        assert len(token) == len(wire)
        if encoding == "hex":
            bytes.fromhex(token)  # still valid hex
        elif encoding == "base64":
            b64.b64decode(token, validate=True)  # still valid base64
        else:
            # Still valid percent-encoding: every '%' starts an escape.
            assert re.fullmatch(r"(?:%[0-9A-Fa-f]{2}|[^%&=])*", token)
        # The planted value must be undetectable after the rewrite.
        matcher = GroundTruthMatcher({PiiType.EMAIL: [value]})
        assert not matcher.match_text(out)

    @settings(max_examples=40, deadline=None)
    @given(value=pii_values)
    def test_hash_rewrite_deterministic_and_seed_keyed(self, value):
        from repro.mitigate.plane import build_rewrite_plan, rewrite_text

        body = f"id={encode_value(value, 'base64')}"
        one = rewrite_text(body, build_rewrite_plan([(PiiType.UNIQUE_ID, value, False, "hash")], seed=11))
        two = rewrite_text(body, build_rewrite_plan([(PiiType.UNIQUE_ID, value, False, "hash")], seed=11))
        other = rewrite_text(body, build_rewrite_plan([(PiiType.UNIQUE_ID, value, False, "hash")], seed=12))
        assert one == two
        assert one != other


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _or_any_json(strategy):
    return strategy | json_values


# Any JSON value, or a policy-shaped object whose every field may be
# valid or any JSON value, so both outcomes and every check are reached.
policy_payloads = json_values | st.fixed_dictionaries(
    {},
    optional={
        "format": _or_any_json(st.just(POLICY_FORMAT)),
        "label": _or_any_json(st.text(max_size=8)),
        "default_action": _or_any_json(st.sampled_from(ACTIONS)),
        "rules": _or_any_json(
            st.dictionaries(
                st.sampled_from([pii_type.value for pii_type in PiiType])
                | st.text(max_size=8),
                _or_any_json(
                    st.dictionaries(
                        st.sampled_from(PARTIES) | st.text(max_size=8),
                        _or_any_json(st.sampled_from(ACTIONS)),
                        max_size=3,
                    )
                ),
                max_size=4,
            )
        ),
    },
)


class TestMitigationPolicyProperty:
    @settings(max_examples=200, deadline=None)
    @given(payload=policy_payloads)
    def test_any_json_value_is_a_policy_or_policy_error(self, payload):
        try:
            policy = MitigationPolicy.from_dict(payload)
        except PolicyError:
            return
        assert MitigationPolicy.from_dict(policy.to_dict()).to_dict() == policy.to_dict()


# Any JSON value, or a preferences-shaped object whose fields may be in
# range or any JSON value (floats include NaN and the infinities, which
# ``json`` reads from ``NaN``, ``Infinity`` and ``1e999``).
preference_payloads = json_values | st.fixed_dictionaries(
    {},
    optional={
        "weights": _or_any_json(
            st.dictionaries(
                st.sampled_from([pii_type.value for pii_type in PiiType])
                | st.text(max_size=8),
                st.floats(0, 1) | json_values,
                max_size=4,
            )
        ),
        "tracker_aversion": st.floats(min_value=0) | json_values,
        "plaintext_aversion": st.floats(min_value=0) | json_values,
    },
)


class TestPreferencesProperty:
    @settings(max_examples=300, deadline=None)
    @given(payload=preference_payloads)
    def test_any_json_value_is_finite_preferences_or_value_error(self, payload):
        try:
            preferences = preferences_from_dict(payload)
        except ValueError:
            return
        for weight in preferences.weights.values():
            assert math.isfinite(weight) and 0.0 <= weight <= 1.0
        for aversion in (preferences.tracker_aversion, preferences.plaintext_aversion):
            assert math.isfinite(aversion) and aversion >= 0.0


def _pairs_of(values):
    return st.lists(values, min_size=2, max_size=2)


_numbers = st.integers() | st.floats()


def _plausible(strategy):
    """``strategy``, a number of any kind (NaN and the infinities too),
    or any JSON value."""
    return strategy | _numbers | json_values


# Any JSON value, or a spec-shaped object whose every field may be a
# plausible value, any number or any JSON value.
population_payloads = json_values | st.fixed_dictionaries(
    {},
    optional={
        "os_share": _or_any_json(
            st.dictionaries(
                st.sampled_from(["android", "ios"]), _plausible(st.floats(0, 2)), max_size=2
            )
        ),
        "app_preference": _plausible(st.floats(0, 1)),
        "preference_strength": _plausible(st.floats(0, 1)),
        "category_weights": _or_any_json(
            st.dictionaries(
                st.sampled_from(["News", "Weather"]), _plausible(st.floats(0, 2)), max_size=2
            )
        ),
        "services_per_user": _or_any_json(_pairs_of(_plausible(st.integers(1, 4)))),
        "sessions_per_service": _or_any_json(_pairs_of(_plausible(st.integers(1, 4)))),
        "session_duration": _plausible(st.floats(1, 1e300)),
        "intensity_range": _or_any_json(_pairs_of(_plausible(st.floats(0.1, 1e300)))),
        "permission_grant_rates": _or_any_json(
            st.dictionaries(
                st.sampled_from(["location", "contacts"]),
                _plausible(st.floats(0, 1)),
                max_size=2,
            )
        ),
        "bootstrap_replicates": _plausible(st.integers(1, 20)),
    },
)


def _finite(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) and (
        math.isfinite(value)
    )


class TestPopulationSpecProperty:
    @settings(max_examples=300, deadline=None)
    @given(payload=population_payloads)
    def test_any_json_value_is_a_usable_spec_or_population_error(self, payload):
        try:
            spec = PopulationSpec.from_dict(payload)
        except PopulationError:
            return
        for weights in (spec.os_share, spec.category_weights):
            assert all(_finite(weight) and weight >= 0 for weight in weights.values())
        for fraction in (
            spec.app_preference,
            spec.preference_strength,
            *spec.permission_grant_rates.values(),
        ):
            assert _finite(fraction) and 0.0 <= fraction <= 1.0
        for lo, hi in (spec.services_per_user, spec.sessions_per_service):
            assert type(lo) is int and type(hi) is int and 1 <= lo <= hi
        lo, hi = spec.intensity_range
        assert _finite(lo) and _finite(hi) and 0 < lo <= hi
        assert _finite(spec.session_duration) and spec.session_duration > 0
        assert spec.session_duration * hi <= MAX_DURATION
        assert type(spec.bootstrap_replicates) is int and spec.bootstrap_replicates >= 1
        assert PopulationSpec.from_dict(spec.to_dict()) == spec


class TestCampaignCheckpointProperty:
    """Any JSON value as a campaign checkpoint's ``state.json``, or a
    valid state with one field dropped or changed, either resumes to the
    uninterrupted run's canonical bytes or raises ``CampaignError`` —
    never another exception, and never different bytes."""

    _cache = None

    @classmethod
    def _checkpoint(cls, tmp_path_factory):
        """(run kwargs, uninterrupted bytes, a checkpoint at user 2 of 4,
        its valid state), made once."""
        if cls._cache is None:
            import json

            from repro.campaign import CampaignAborted, run_campaign
            from repro.services.catalog import build_catalog

            kwargs = dict(
                seed=7,
                population_spec=PopulationSpec(
                    services_per_user=(1, 1),
                    sessions_per_service=(1, 1),
                    session_duration=5.0,
                    bootstrap_replicates=5,
                ),
                services=[spec for spec in build_catalog() if spec.slug == "weather"],
                executor=1,
            )
            expected = run_campaign(4, **kwargs).canonical_bytes()
            directory = tmp_path_factory.mktemp("campaign-state")
            with pytest.raises(CampaignAborted):
                run_campaign(
                    4,
                    shards=4,
                    checkpoint_dir=directory,
                    checkpoint_every=1,
                    abort_after_users=2,
                    **kwargs,
                )
            state = json.loads((directory / "state.json").read_text())
            cls._cache = kwargs, expected, directory, state
        return cls._cache

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_state_resumes_to_the_same_bytes_or_campaign_error(self, tmp_path_factory, data):
        import json
        import shutil

        from repro.campaign import CampaignError, run_campaign

        kwargs, expected, source, valid = self._checkpoint(tmp_path_factory)
        near = st.integers(-3, 6) | st.sampled_from(
            [
                valid["partial"],
                "partial-000000000004.cagg",
                "state.json",
                "../" + valid["partial"],
                "/etc/passwd",
                valid["key"],
                valid["digest"],
            ]
        )
        state = data.draw(json_values | _with_one_field_changed(valid, near | json_values))
        directory = tmp_path_factory.mktemp("campaign-resume")
        shutil.copytree(source, directory, dirs_exist_ok=True)
        (directory / "state.json").write_text(json.dumps(state))
        try:
            resumed = run_campaign(4, checkpoint_dir=directory, resume=True, **kwargs)
        except CampaignError:
            return
        assert resumed.canonical_bytes() == expected


class TestIngestAdmissionProperty:
    """The upload 400 mapping is *total*: any byte-level mutation of a
    valid codec-framed bundle either registers a complete, replayable
    job or raises ``CodecError``/``IngestError`` — never any other
    exception, and never a partially-registered job (no job directory,
    no journal line, no queue slot)."""

    _body_cache = None

    @classmethod
    def _body(cls) -> bytes:
        if cls._body_cache is None:
            from tests.test_flow import make_flow, make_txn

            from repro.experiment.dataset import SessionRecord
            from repro.net import codec

            records = []
            for os_name, medium in (("android", "app"), ("ios", "web")):
                trace = Trace(
                    meta=SessionMeta(service="weather", os_name=os_name, medium=medium)
                )
                flow = make_flow(flow_id=1, hostname="api.weather.example")
                flow.add_transaction(make_txn())
                trace.add(flow)
                records.append(
                    SessionRecord(
                        service="weather",
                        os_name=os_name,
                        medium=medium,
                        trace=trace,
                        ground_truth={PiiType.EMAIL: ["fuzz@qa.example"]},
                        duration=40.0,
                    )
                )
            cls._body_cache = codec.frame(
                codec.KIND_BUNDLE, codec.encode_bundle(records)
            )
        return cls._body_cache

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_byte_mutation_maps_totally(self, tmp_path_factory, data):
        from repro.ingest import IngestError, IngestService
        from repro.net.codec import CodecError

        body = bytearray(self._body())
        index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        body[index] = data.draw(st.integers(min_value=0, max_value=255))
        mutated = bytes(body)

        service = IngestService(tmp_path_factory.mktemp("ingest-prop"))
        try:
            job = service.submit(mutated, tenant="fuzz")
        except (CodecError, IngestError):
            # Rejection is atomic: no trace of the upload anywhere.
            assert list(service.store.jobs_dir.iterdir()) == []
            assert not service.store.journal_path.exists()
            assert service.queue.pending() == 0
        else:
            # Acceptance is complete: durable state and a queue slot.
            registered = service.store.load(job.job_id)
            assert registered is not None
            assert registered.state == "queued"
            assert service.store.upload_blob(job.job_id) == mutated
            assert service.queue.pending() == 1

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=200))
    def test_truncation_always_codec_error(self, cut):
        from repro.ingest import decode_upload
        from repro.net.codec import CodecError

        body = self._body()
        assume(cut < len(body))
        with pytest.raises(CodecError):
            decode_upload(body[:cut])

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=64))
    def test_unframed_bytes_always_codec_error(self, junk):
        from repro.ingest import decode_upload
        from repro.net import codec
        from repro.net.codec import CodecError

        assume(not junk.startswith(codec.MAGIC))
        with pytest.raises(CodecError):
            decode_upload(junk)



def _journal_lines() -> list:
    """Two complete sessions of one decrypted flow each, as the lines of
    a flow journal."""
    from dataclasses import replace

    from tests.test_flow import make_flow, make_txn

    from repro.stream import (
        event_to_dict,
        flow_event,
        session_end_event,
        session_start_event,
    )

    events = []
    for os_name, medium in (("android", "app"), ("ios", "web")):
        meta = SessionMeta(service="weather", os_name=os_name, medium=medium)
        flow = make_flow(flow_id=1, hostname="api.weather.example", scheme="http")
        flow.add_transaction(make_txn())
        events += [
            session_start_event(meta, {PiiType.EMAIL: ["fuzz@qa.example"]}),
            flow_event(("weather", os_name, medium), flow),
            session_end_event(("weather", os_name, medium)),
        ]
    return [
        event_to_dict(replace(event, seq=seq)) for seq, event in enumerate(events)
    ]


def _with_one_field_changed(valid: dict, values=json_values):
    """``valid``, or ``valid`` with one field dropped or set to a drawn value."""
    def change(edit):
        key, value = edit
        changed = dict(valid)
        if value is None:
            changed.pop(key)
        else:
            changed[key] = value
        return changed

    return st.just(valid) | st.tuples(
        st.sampled_from(sorted(valid)), st.none() | values
    ).map(change)


def _mutated_event(line: dict):
    """A valid journal line changed in one place: a top-level field (to
    any JSON, another kind or another session), one field of its meta or
    flow, or the whole line (to any JSON object)."""
    top = json_values | st.sampled_from(
        ["session_start", "flow", "session_end", ["weather", "ios", "web"], ["x", "ios", "web"]]
    )
    return st.one_of(
        json_values.filter(lambda value: isinstance(value, dict)),
        _with_one_field_changed(line, top),
        *(
            _with_one_field_changed(line[key]).map(lambda value, key=key: {**line, key: value})
            for key in ("meta", "flow")
            if isinstance(line.get(key), dict)
        ),
    )


_JOURNAL_LINES = _journal_lines()

journal_objects = st.sampled_from(_JOURNAL_LINES).flatmap(_mutated_event)


class TestJournalLineProperty:
    """Any JSON object spliced into a flow journal as a complete line
    either reads, or ends in one typed error: ``CheckpointError`` naming
    a line at or after it from the reader, ``StoreError`` from a
    ``ResultStore``, and a one-line exit from ``repro serve``.  A store
    over a journal that reads builds or raises ``StoreError``."""

    @settings(max_examples=150, deadline=None)
    @given(spliced=journal_objects, data=st.data())
    def test_spliced_line_reads_or_checkpoint_error(self, tmp_path_factory, spliced, data):
        import json
        import re

        from repro.cli import main
        from repro.serve.store import ResultStore, StoreError
        from repro.stream import JOURNAL_NAME, CheckpointError, dataset_from_journal

        lines = [
            json.dumps(line, ensure_ascii=False).encode("utf-8") + b"\n"
            for line in _JOURNAL_LINES + [spliced]
        ]
        at = data.draw(st.integers(min_value=0, max_value=len(_JOURNAL_LINES)))
        lines.insert(at, lines.pop())
        directory = tmp_path_factory.mktemp("journal-prop")
        path = directory / JOURNAL_NAME
        path.write_bytes(b"".join(lines))
        try:
            dataset_from_journal(path)
        except CheckpointError as exc:
            where = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert where is not None and int(where.group(1)) > at, str(exc)
            with pytest.raises(StoreError):
                ResultStore(directory, train_recon=False)
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--result", str(directory), "--no-recon", "--port", "0"])
            message = str(excinfo.value.code)
            assert message.startswith("repro serve: cannot load ") and "\n" not in message
        else:
            try:
                ResultStore(directory, train_recon=False)
            except StoreError:
                pass
