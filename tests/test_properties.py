"""Cross-cutting property-based tests on core invariants."""

import random
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

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
from repro.pii.matcher import GroundTruthMatcher
from repro.pii.types import PiiType
from repro.proxy.meddle import InterceptionProxy
from repro.qa.reference import match_linear
from repro.qa.scenarios import random_filter_line, random_hostname, random_url
from repro.tls.certs import PROXY_CA, CaStore
from repro.trackerdb.abpfilter import FilterList
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
        path = tmp_path_factory.mktemp("traces") / f"t{seed}.jsonl"
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
