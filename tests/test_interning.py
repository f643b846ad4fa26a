"""One object per distinct value within a trace (the rule in repro.net.flow).

Every way the program builds a trace -- the capture proxy, the binary
decoder (trace, record, bundle) and the journal reader -- hands back equal header pairs, strings and bodies as one
shared object, and the matcher's text memo keeps field values only,
never a whole request's text.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.experiment.dataset import Dataset
from repro.experiment.runner import ExperimentRunner
from repro.net import codec
from repro.pii.matcher import GroundTruthMatcher
from repro.pii.structure import searchable_text
from repro.qa.faults import write_journal
from repro.services.catalog import build_catalog
from repro.services.world import build_world
from repro.stream.checkpoint import dataset_from_journal

SLUGS = ("weather", "grubhub", "cnn")
DURATION = 60.0


@pytest.fixture(scope="module")
def specs():
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in SLUGS]


@pytest.fixture(scope="module")
def captured(specs):
    """A collected 3-service dataset and the proxy that captured it."""
    world = build_world(specs)
    dataset = ExperimentRunner(world, seed=2016).run_study(specs, duration=DURATION)
    return dataset, world.proxy


def _values(traces) -> tuple:
    """``(header pairs, strings, bodies)`` held by the traces' flows."""
    pairs, strings, bodies = [], [], []
    for trace in traces:
        for flow in trace.flows:
            strings += [flow.client_ip, flow.server_ip, flow.hostname, flow.scheme]
            strings += sorted(flow.tags)
            if flow.tls is not None:
                strings += [flow.tls.sni, flow.tls.version, flow.tls.cipher]
            for txn in flow.transactions:
                strings += [txn.request.method, txn.request.url]
                for message in (txn.request, txn.response):
                    if message is None:
                        continue
                    pairs += message.headers
                    strings += [part for pair in message.headers for part in pair]
                    bodies.append(message.body)
                if txn.response is not None:
                    strings.append(txn.response.reason)
    return pairs, strings, bodies


def _assert_shared(values) -> None:
    """Every value is the first object seen with its value, and some repeat."""
    first: dict = {}
    for value in values:
        assert first.setdefault(value, value) is value, value
    assert len(first) < len(values), "no repeated value to share"


def _assert_all_shared(traces) -> None:
    for values in _values(traces):
        _assert_shared(values)


def _urls(traces) -> list:
    return [
        txn.request.url
        for trace in traces
        for flow in trace.flows
        for txn in flow.transactions
    ]


def test_captured_trace_shares_header_pairs_urls_and_bodies(captured):
    dataset, proxy = captured
    for record in dataset:
        pairs, _strings, bodies = _values([record.trace])
        _assert_shared(pairs)
        _assert_shared(bodies)
        _assert_shared(_urls([record.trace]))
    assert proxy._memo == {}  # dropped with the finished capture


def test_decoded_trace_shares_every_value(captured):
    dataset, _proxy = captured
    for record in dataset:
        blob = codec.encode_trace(record.trace)
        decoded = codec.decode_trace(blob)
        assert codec.encode_trace(decoded) == blob
        _assert_all_shared([decoded])


def test_decoded_record_shares_every_value(captured):
    dataset, _proxy = captured
    for record in dataset:
        blob = codec.encode_record(record)
        decoded = codec.decode_record(blob)
        assert codec.encode_record(decoded) == blob
        _assert_all_shared([decoded.trace])


def test_decoded_bundle_shares_values_across_its_records(captured):
    dataset, _proxy = captured
    records = codec.decode_bundle(codec.encode_bundle(dataset))
    assert [codec.encode_record(r) for r in records] == [
        codec.encode_record(r) for r in dataset
    ]
    _assert_all_shared([record.trace for record in records])


def test_journal_session_shares_every_value(captured, tmp_path):
    dataset, _proxy = captured
    path = tmp_path / "journal.jsonl"
    write_journal(dataset, path)
    journaled = list(dataset_from_journal(path))
    assert [codec.encode_record(r) for r in journaled] == [
        codec.encode_record(r) for r in dataset
    ]
    for record in journaled:
        _assert_all_shared([record.trace])


def test_decoded_dataset_keeps_little_more_than_its_bytes(captured, tmp_path):
    """A decoded 3-service dataset keeps under 1.6 bytes per encoded
    trace byte: one copy per distinct value plus the records.  Without
    sharing it kept 2.7 (8.5 MB for 3.1 MB of traces)."""
    dataset, _proxy = captured
    dataset.save(tmp_path)
    encoded = sum(path.stat().st_size for path in tmp_path.glob("*.bin"))
    Dataset.load(tmp_path)  # warm imports and module-level caches
    gc.collect()
    tracemalloc.start()
    try:
        loaded = Dataset.load(tmp_path)
        gc.collect()
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(dataset)
    assert kept < 1.6 * encoded, (kept, encoded)


def test_match_request_memoizes_field_values_not_request_texts(captured):
    dataset, _proxy = captured
    record = next(r for r in dataset if r.service == "weather")
    matcher = GroundTruthMatcher(record.ground_truth)
    slow = GroundTruthMatcher(record.ground_truth, slow=True)
    requests = [
        txn.request for flow in record.trace.flows for txn in flow.transactions
    ]
    assert requests
    for request in requests:
        assert matcher.match_request(request) == slow.match_request(request)
    assert matcher._memo  # field values are still memoized
    for request in requests:
        assert searchable_text(request) not in matcher._memo
