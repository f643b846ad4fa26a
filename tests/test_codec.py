"""Tests for the compact binary flow codec (repro.net.codec)."""

import random

import pytest

from repro.experiment.dataset import SessionRecord
from repro.net import codec
from repro.net.codec import (
    CodecError,
    decode_flow,
    decode_record,
    decode_trace,
    encode_flow,
    encode_record,
    encode_trace,
    record_content_hash,
)
from repro.net.flow import (
    CapturedRequest,
    CapturedResponse,
    Flow,
    HttpTransaction,
    TlsInfo,
)
from repro.net.trace import SessionMeta, Trace
from repro.pii.types import PiiType
from repro.qa.scenarios import random_hostname, random_url

from .test_flow import make_flow, make_txn


def fuzz_flow(rng: random.Random, flow_id: int) -> Flow:
    """One random flow drawn from the QA fuzz vocabulary."""
    host = random_hostname(rng).rstrip(".") or "localhost"
    flow = Flow(
        flow_id=flow_id,
        ts_start=rng.random() * 1000,
        client_ip=f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
        client_port=rng.randrange(1024, 65536),
        server_ip=f"93.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
        server_port=rng.choice((80, 443, 8443)),
        hostname=host,
        scheme=rng.choice(("http", "https")),
        ts_end=rng.random() * 2000,
        bytes_up=rng.randrange(1 << 20),
        bytes_down=rng.randrange(1 << 20),
    )
    if flow.scheme == "https":
        flow.tls = TlsInfo(
            sni=host,
            version=rng.choice(("TLSv1.2", "TLSv1.3")),
            pinned=rng.random() < 0.2,
            intercepted=rng.random() < 0.8,
        )
    for _ in range(rng.randint(0, 3)):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        response = None
        if rng.random() < 0.8:
            response = CapturedResponse(
                status=rng.choice((200, 204, 302, 404)),
                reason=rng.choice(("OK", "No Content", "")),
                headers=[("Content-Type", "application/json")],
                body=bytes(rng.randrange(256) for _ in range(rng.randrange(64))),
            )
        flow.add_transaction(
            HttpTransaction(
                timestamp=rng.random() * 1000,
                request=CapturedRequest(
                    method=rng.choice(("GET", "POST")),
                    url=random_url(rng),
                    headers=[("Host", host), ("X-Fuzz", str(rng.randrange(10)))],
                    body=body,
                ),
                response=response,
            )
        )
    for tag in rng.sample(("background", "blocked", "ad", "tracker"), rng.randint(0, 2)):
        flow.tags.add(tag)
    return flow


def fuzz_trace(seed: int, n_flows: int = 5) -> Trace:
    rng = random.Random(seed)
    trace = Trace(
        meta=SessionMeta(
            service=rng.choice(("yelp", "cnn", "weather")),
            os_name=rng.choice(("android", "ios")),
            medium=rng.choice(("app", "web")),
        )
    )
    for i in range(n_flows):
        trace.add(fuzz_flow(rng, i))
    return trace


def fuzz_record(seed: int) -> SessionRecord:
    rng = random.Random(seed)
    trace = fuzz_trace(seed)
    truth = {
        PiiType.EMAIL: [f"user{rng.randrange(100)}@example.com"],
        PiiType.LOCATION: [f"{rng.random():.4f},{rng.random():.4f}"],
    }
    return SessionRecord(
        service=trace.meta.service,
        os_name=trace.meta.os_name,
        medium=trace.meta.medium,
        trace=trace,
        ground_truth=truth,
        duration=rng.choice((60.0, 240.0)),
    )


class TestFlowRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzz_flows_roundtrip_byte_equal(self, seed):
        rng = random.Random(seed)
        flow = fuzz_flow(rng, seed)
        blob = encode_flow(flow)
        again = decode_flow(blob)
        # Byte equality of the re-encoding is the strongest check the
        # codec offers: every field took part in the round trip.
        assert encode_flow(again) == blob
        assert again.to_dict() == flow.to_dict()

    def test_simple_flow_fields_survive(self):
        flow = make_flow(scheme="https")
        flow.tls = TlsInfo(sni="api.example.com", pinned=True)
        flow.add_transaction(make_txn(body=b"\x00\xffbin"))
        flow.tags.update({"b", "a"})
        again = decode_flow(encode_flow(flow))
        assert again.hostname == flow.hostname
        assert again.tls.pinned is True
        assert again.transactions[0].request.body == b"\x00\xffbin"
        assert again.tags == {"a", "b"}

    def test_port_beyond_u16_survives(self):
        # The simulated proxy's ephemeral-port counter does not wrap,
        # so big studies produce client ports past 65535 — the codec
        # must carry them (caught live on the full 50-service run).
        flow = make_flow(client_port=70_001)
        assert decode_flow(encode_flow(flow)).client_port == 70_001

    def test_missing_response_preserved(self):
        flow = make_flow()
        flow.add_transaction(HttpTransaction(timestamp=1.0, request=CapturedRequest("GET", "http://x/")))
        again = decode_flow(encode_flow(flow))
        assert again.transactions[0].response is None


class TestTraceRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_fuzz_traces_roundtrip_byte_equal(self, seed):
        trace = fuzz_trace(seed)
        blob = encode_trace(trace)
        assert encode_trace(decode_trace(blob)) == blob

    def test_empty_trace(self):
        trace = Trace(meta=SessionMeta(service="x", os_name="ios", medium="web"))
        again = decode_trace(encode_trace(trace))
        assert len(again) == 0
        assert again.meta.service == "x"


class TestRecordRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_fuzz_records_roundtrip_byte_equal(self, seed):
        record = fuzz_record(seed)
        blob = encode_record(record)
        again = decode_record(blob)
        assert encode_record(again) == blob
        assert again.key == record.key
        assert again.ground_truth == record.ground_truth
        assert again.duration == record.duration

    def test_ground_truth_order_preserved(self):
        # Matcher plan order follows ground-truth insertion order, so
        # the codec must not silently sort it.
        record = fuzz_record(0)
        record.ground_truth = {
            PiiType.LOCATION: ["1,2"],
            PiiType.EMAIL: ["a@b.c"],
        }
        again = decode_record(encode_record(record))
        assert list(again.ground_truth) == [PiiType.LOCATION, PiiType.EMAIL]

    def test_content_hash_stable_and_distinct(self):
        assert record_content_hash(fuzz_record(1)) == record_content_hash(fuzz_record(1))
        assert record_content_hash(fuzz_record(1)) != record_content_hash(fuzz_record(2))


class TestStrictness:
    @pytest.mark.parametrize("fraction", (0.0, 0.3, 0.7, 0.99))
    def test_truncation_rejected(self, fraction):
        blob = encode_record(fuzz_record(3))
        cut = blob[: int(len(blob) * fraction)]
        with pytest.raises(CodecError):
            decode_record(cut)

    def test_trailing_garbage_rejected(self):
        blob = encode_trace(fuzz_trace(4))
        with pytest.raises(CodecError):
            decode_trace(blob + b"\x00")

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_flow(b"\xde\xad\xbe\xef" * 8)

    def test_unknown_pii_type_rejected(self):
        record = fuzz_record(5)
        record.ground_truth = {PiiType.EMAIL: ["a@b.c"]}
        blob = encode_record(record)
        mangled = blob.replace(PiiType.EMAIL.value.encode(), b"nonsense-pii", 1)
        with pytest.raises(CodecError):
            decode_record(mangled)


class TestFileFormat:
    def test_write_read_trace(self, tmp_path):
        trace = fuzz_trace(6)
        path = tmp_path / "t.bin"
        codec.write_trace(path, trace)
        assert codec.is_binary(path.read_bytes()[:4])
        assert encode_trace(codec.read_trace(path)) == encode_trace(trace)

    def test_write_read_record(self, tmp_path):
        record = fuzz_record(7)
        path = tmp_path / "r.bin"
        codec.write_record(path, record)
        assert encode_record(codec.read_record(path)) == encode_record(record)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x01\x01" + b"rest")
        with pytest.raises(CodecError):
            codec.read_trace(path)

    def test_future_version_rejected(self, tmp_path):
        trace = fuzz_trace(8)
        path = tmp_path / "v.bin"
        codec.write_trace(path, trace)
        data = bytearray(path.read_bytes())
        data[4] = codec.VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(CodecError):
            codec.read_trace(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.bin"
        codec.write_record(path, fuzz_record(9))
        with pytest.raises(CodecError):
            codec.read_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "torn.bin"
        codec.write_trace(path, fuzz_trace(10))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CodecError):
            codec.read_trace(path)
