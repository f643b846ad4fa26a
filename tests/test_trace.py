"""Tests for the trace container and its binary file form."""

import pytest

from repro.net.flow import Flow
from repro.net.trace import SessionMeta, Trace, TraceFormatError, merge_traces

from .test_flow import make_flow, make_txn


def make_trace(n_flows=3, medium="app"):
    trace = Trace(meta=SessionMeta(service="yelp", os_name="android", medium=medium))
    for i in range(n_flows):
        flow = make_flow(flow_id=i, hostname=f"h{i}.example.com")
        flow.add_transaction(make_txn())
        trace.add(flow)
    return trace


class TestTrace:
    def test_len_and_iter(self):
        trace = make_trace(4)
        assert len(trace) == 4
        assert len(list(trace)) == 4

    def test_total_bytes(self):
        trace = make_trace(2)
        assert trace.total_bytes == sum(f.total_bytes for f in trace)

    def test_hostnames(self):
        assert make_trace(2).hostnames() == {"h0.example.com", "h1.example.com"}

    def test_filtered_returns_new_trace(self):
        trace = make_trace(3)
        kept = trace.filtered(lambda f: f.flow_id != 1)
        assert len(kept) == 2
        assert len(trace) == 3  # original untouched

    def test_without_tags(self):
        trace = make_trace(3)
        trace.flows[0].tags.add("background")
        assert len(trace.without_tags("background")) == 2


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = make_trace(5)
        path = tmp_path / "t.bin"
        trace.dump(path)
        again = Trace.load(path)
        assert len(again) == 5
        assert again.meta.service == "yelp"
        assert again.meta.os_name == "android"
        assert again.total_bytes == trace.total_bytes

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace(meta=SessionMeta(service="x", os_name="ios", medium="web"))
        path = tmp_path / "t.bin"
        trace.dump(path)
        assert len(Trace.load(path)) == 0

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            Trace.load(path)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError):
            Trace.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"version": 99, "meta": {"service": "x", "os": "ios", "medium": "web"}}\n')
        with pytest.raises(TraceFormatError):
            Trace.load(path)


class TestMerge:
    def test_merge_renumbers_flow_ids(self):
        merged = merge_traces([make_trace(2), make_trace(3)])
        assert [f.flow_id for f in merged] == [0, 1, 2, 3, 4]

    def test_merge_uses_first_meta_by_default(self):
        a = make_trace(1, medium="app")
        b = make_trace(1, medium="web")
        assert merge_traces([a, b]).meta.medium == "app"

    def test_merge_with_explicit_meta(self):
        meta = SessionMeta(service="z", os_name="ios", medium="web")
        merged = merge_traces([make_trace(1)], meta=meta)
        assert merged.meta.service == "z"

    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            merge_traces([])


class TestSessionMeta:
    def test_roundtrip(self):
        meta = SessionMeta(service="s", os_name="ios", medium="web", category="News", duration=120.0)
        again = SessionMeta.from_dict(meta.to_dict())
        assert again == meta
