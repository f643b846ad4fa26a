"""Compact binary encoding for flows, traces, and session records.

Length-prefixed, struct-packed, zero text escaping — no re-tokenized
strings, no bodies escaped through latin-1, no numbers round-tripped
through decimal text.  Used for:

- on-disk traces, the one trace file format
  (:meth:`repro.net.trace.Trace.dump`, :meth:`~repro.net.trace.Trace.load`
  and :meth:`repro.experiment.dataset.Dataset.save`);
- worker task shipping for the process-pool execution engine
  (:mod:`repro.par`), where a session record must cross a process
  boundary cheaply;
- content addressing: :func:`record_content_hash` fingerprints a
  session for the persistent analysis cache (:mod:`repro.core.cache`).

Wire format.  All integers are little-endian.  Strings are
``u32 length + UTF-8 bytes``; byte strings are ``u32 length + raw``.
Files start with a versioned magic header (``RPRB`` + version byte +
kind byte) so a reader can reject foreign or future files outright;
bare blobs (IPC, hashing) omit the header.  Decoding is strict: every
read is bounds-checked and the buffer must be consumed exactly, so a
truncated or garbage-appended file fails loudly instead of yielding a
silently short trace.

The decoder is written as flat functions threading an integer offset
through ``struct.unpack_from`` — no per-field object or slice for
scalars.  That is what actually beats the C-accelerated ``json``
parser; a naive method-per-field reader does not.  Each
:func:`decode_trace`, :func:`decode_record` and :func:`decode_bundle`
call also threads one memo ``dict`` through the string, header and
byte readers, the per-trace rule of :mod:`repro.net.flow`: a string is
keyed by its raw UTF-8 bytes, so a repeated one is neither decoded nor
stored again, and equal header pairs and bodies come back as one
object.  The memo changes no byte and no check: a truncated field, bad
UTF-8 or trailing bytes still raise :class:`CodecError`.

Determinism: encoding any value twice yields identical bytes, and
``encode(decode(encode(x))) == encode(x)``.  Sets (flow tags) are
written sorted; dicts that carry semantic order (ground truth — the
matcher builds its scan plan in registration order) are written in
insertion order and decoded back into the same order.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import Union

from ..ioutil import atomic_write_bytes
from .flow import CapturedRequest, CapturedResponse, Flow, HttpTransaction, TlsInfo
from .trace import SessionMeta, Trace

MAGIC = b"RPRB"
VERSION = 1

KIND_TRACE = 1
KIND_RECORD = 2
# Kind 3 (KIND_ABATCH, columnar batch files) is retired: never reuse it.
KIND_BUNDLE = 4  # upload bundle: u32 record count + records back-to-back
KIND_CAGG = 5  # campaign aggregate partial (repro.campaign.engine)

HEADER_SIZE = len(MAGIC) + 2  # magic + version byte + kind byte

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_FLOW_HEAD = struct.Struct("<qdd")  # flow_id, ts_start, ts_end
_FLOW_TAIL = struct.Struct("<qq")  # bytes_up, bytes_down


class CodecError(Exception):
    """Raised on malformed, truncated, or foreign binary data."""


# -- encoding -----------------------------------------------------------------
#
# Encoders append to a shared bytearray; `buf += small_bytes` is the
# fastest pure-Python append idiom.


def _put_str(buf: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    buf += _U32.pack(len(data))
    buf += data


def _put_bytes(buf: bytearray, data: bytes) -> None:
    buf += _U32.pack(len(data))
    buf += data


def _put_headers(buf: bytearray, headers: list) -> None:
    buf += _U32.pack(len(headers))
    for name, value in headers:
        _put_str(buf, name)
        _put_str(buf, value)


def _put_transaction(buf: bytearray, txn: HttpTransaction) -> None:
    buf += _F64.pack(txn.timestamp)
    request = txn.request
    _put_str(buf, request.method)
    _put_str(buf, request.url)
    _put_headers(buf, request.headers)
    _put_bytes(buf, request.body)
    response = txn.response
    if response is None:
        buf += b"\x00"
    else:
        buf += b"\x01"
        buf += _I32.pack(response.status)
        _put_str(buf, response.reason)
        _put_headers(buf, response.headers)
        _put_bytes(buf, response.body)


def _put_flow(buf: bytearray, flow: Flow) -> None:
    try:
        buf += _FLOW_HEAD.pack(flow.flow_id, flow.ts_start, flow.ts_end)
        _put_str(buf, flow.client_ip)
        # u32, not u16: the simulated proxy hands out ephemeral ports
        # from an unwrapped counter, so large studies exceed 65535.
        buf += _U32.pack(flow.client_port)
        _put_str(buf, flow.server_ip)
        buf += _U32.pack(flow.server_port)
        _put_str(buf, flow.hostname)
        _put_str(buf, flow.scheme)
        tls = flow.tls
        if tls is None:
            buf += b"\x00"
        else:
            buf += b"\x01"
            _put_str(buf, tls.sni)
            _put_str(buf, tls.version)
            _put_str(buf, tls.cipher)
            buf += b"\x01" if tls.pinned else b"\x00"
            buf += b"\x01" if tls.intercepted else b"\x00"
        buf += _U32.pack(len(flow.transactions))
        for txn in flow.transactions:
            _put_transaction(buf, txn)
        tags = sorted(flow.tags)
        buf += _U32.pack(len(tags))
        for tag in tags:
            _put_str(buf, tag)
        buf += _FLOW_TAIL.pack(flow.bytes_up, flow.bytes_down)
    except struct.error as exc:
        raise CodecError(f"cannot encode flow {flow.flow_id}: {exc}") from exc


def _put_meta(buf: bytearray, meta: SessionMeta) -> None:
    _put_str(buf, meta.service)
    _put_str(buf, meta.os_name)
    _put_str(buf, meta.medium)
    _put_str(buf, meta.category)
    buf += _F64.pack(meta.duration)
    _put_str(buf, meta.device)
    _put_str(buf, meta.session_id)


def _put_trace(buf: bytearray, trace: Trace) -> None:
    _put_meta(buf, trace.meta)
    buf += _U32.pack(len(trace.flows))
    for flow in trace.flows:
        _put_flow(buf, flow)


def encode_flow(flow: Flow) -> bytes:
    """Serialize one flow to a bare binary blob."""
    buf = bytearray()
    _put_flow(buf, flow)
    return bytes(buf)


def encode_trace(trace: Trace) -> bytes:
    """Serialize one trace to a bare binary blob."""
    buf = bytearray()
    _put_trace(buf, trace)
    return bytes(buf)


def encode_record(record) -> bytes:
    """Serialize a :class:`~repro.experiment.dataset.SessionRecord`.

    Ground-truth entries are written in dict insertion order — the
    matcher registers encoded forms in that order, and the scan plan
    (hence which encoding a merged observation reports first) follows
    registration order, so preserving it keeps a decoded record's
    analysis byte-identical to the original's.
    """
    buf = bytearray()
    _put_str(buf, record.service)
    _put_str(buf, record.os_name)
    _put_str(buf, record.medium)
    buf += _F64.pack(record.duration)
    buf += _U32.pack(len(record.ground_truth))
    for pii_type, values in record.ground_truth.items():
        _put_str(buf, pii_type.value)
        buf += _U32.pack(len(values))
        for value in values:
            _put_str(buf, value)
    _put_trace(buf, record.trace)
    return bytes(buf)


# -- decoding -----------------------------------------------------------------
#
# Decoders thread an integer offset; struct.unpack_from bounds-checks
# scalars, and variable-length reads check explicitly.  struct.error is
# converted to CodecError at the public entry points.


def _get_str(buf: bytes, pos: int, memo: dict):
    (size,) = _U32.unpack_from(buf, pos)
    pos += 4
    end = pos + size
    if end > len(buf):
        raise CodecError(
            f"truncated data: string of {size} byte(s) at offset {pos} "
            f"overruns buffer of {len(buf)}"
        )
    raw = buf[pos:end]
    value = memo.get(raw)
    if value is None:
        try:
            value = memo[raw] = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad UTF-8 string at offset {pos}: {exc}") from exc
    return value, end


def _get_bytes(buf: bytes, pos: int, memo: dict):
    (size,) = _U32.unpack_from(buf, pos)
    pos += 4
    end = pos + size
    if end > len(buf):
        raise CodecError(
            f"truncated data: blob of {size} byte(s) at offset {pos} "
            f"overruns buffer of {len(buf)}"
        )
    raw = buf[pos:end]
    # A 1-tuple key: a string's key is its raw bytes, which a body may equal.
    return memo.setdefault((raw,), raw), end


def _get_headers(buf: bytes, pos: int, memo: dict):
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    headers = []
    append = headers.append
    get_str = _get_str
    setdefault = memo.setdefault
    for _ in range(count):
        name, pos = get_str(buf, pos, memo)
        value, pos = get_str(buf, pos, memo)
        pair = (name, value)
        append(setdefault(pair, pair))
    return headers, pos


def _get_transaction(buf: bytes, pos: int, memo: dict):
    (timestamp,) = _F64.unpack_from(buf, pos)
    pos += 8
    method, pos = _get_str(buf, pos, memo)
    url, pos = _get_str(buf, pos, memo)
    headers, pos = _get_headers(buf, pos, memo)
    body, pos = _get_bytes(buf, pos, memo)
    request = CapturedRequest(method=method, url=url, headers=headers, body=body)
    has_response = buf[pos]
    pos += 1
    response = None
    if has_response:
        (status,) = _I32.unpack_from(buf, pos)
        pos += 4
        reason, pos = _get_str(buf, pos, memo)
        resp_headers, pos = _get_headers(buf, pos, memo)
        resp_body, pos = _get_bytes(buf, pos, memo)
        response = CapturedResponse(
            status=status, reason=reason, headers=resp_headers, body=resp_body
        )
    return HttpTransaction(timestamp=timestamp, request=request, response=response), pos


def _get_flow(buf: bytes, pos: int, memo: dict):
    flow_id, ts_start, ts_end = _FLOW_HEAD.unpack_from(buf, pos)
    pos += _FLOW_HEAD.size
    client_ip, pos = _get_str(buf, pos, memo)
    (client_port,) = _U32.unpack_from(buf, pos)
    pos += 4
    server_ip, pos = _get_str(buf, pos, memo)
    (server_port,) = _U32.unpack_from(buf, pos)
    pos += 4
    hostname, pos = _get_str(buf, pos, memo)
    scheme, pos = _get_str(buf, pos, memo)
    flow = Flow(
        flow_id=flow_id,
        ts_start=ts_start,
        ts_end=ts_end,
        client_ip=client_ip,
        client_port=client_port,
        server_ip=server_ip,
        server_port=server_port,
        hostname=hostname,
        scheme=scheme,
    )
    has_tls = buf[pos]
    pos += 1
    if has_tls:
        sni, pos = _get_str(buf, pos, memo)
        version, pos = _get_str(buf, pos, memo)
        cipher, pos = _get_str(buf, pos, memo)
        pinned = buf[pos] != 0
        intercepted = buf[pos + 1] != 0
        pos += 2
        flow.tls = TlsInfo(
            sni=sni, version=version, cipher=cipher,
            pinned=pinned, intercepted=intercepted,
        )
    (txn_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    transactions = []
    append = transactions.append
    for _ in range(txn_count):
        txn, pos = _get_transaction(buf, pos, memo)
        append(txn)
    flow.transactions = transactions
    (tag_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    tags = set()
    for _ in range(tag_count):
        tag, pos = _get_str(buf, pos, memo)
        tags.add(tag)
    flow.tags = tags
    flow.bytes_up, flow.bytes_down = _FLOW_TAIL.unpack_from(buf, pos)
    pos += _FLOW_TAIL.size
    return flow, pos


def _get_meta(buf: bytes, pos: int, memo: dict):
    service, pos = _get_str(buf, pos, memo)
    os_name, pos = _get_str(buf, pos, memo)
    medium, pos = _get_str(buf, pos, memo)
    category, pos = _get_str(buf, pos, memo)
    (duration,) = _F64.unpack_from(buf, pos)
    pos += 8
    device, pos = _get_str(buf, pos, memo)
    session_id, pos = _get_str(buf, pos, memo)
    meta = SessionMeta(
        service=service,
        os_name=os_name,
        medium=medium,
        category=category,
        duration=duration,
        device=device,
        session_id=session_id,
    )
    return meta, pos


def _get_trace(buf: bytes, pos: int, memo: dict):
    meta, pos = _get_meta(buf, pos, memo)
    (flow_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    flows = []
    append = flows.append
    for _ in range(flow_count):
        flow, pos = _get_flow(buf, pos, memo)
        append(flow)
    return Trace(meta=meta, flows=flows), pos


def _expect_end(buf: bytes, pos: int) -> None:
    if pos != len(buf):
        raise CodecError(
            f"{len(buf) - pos} byte(s) of trailing garbage after offset {pos}"
        )


def decode_flow(data: bytes) -> Flow:
    """Parse a blob produced by :func:`encode_flow` (strict)."""
    try:
        flow, pos = _get_flow(data, 0, {})
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated flow data: {exc}") from exc
    _expect_end(data, pos)
    return flow


def decode_trace(data: bytes) -> Trace:
    """Parse a blob produced by :func:`encode_trace` (strict)."""
    try:
        trace, pos = _get_trace(data, 0, {})
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated trace data: {exc}") from exc
    _expect_end(data, pos)
    return trace


def _get_record(buf: bytes, pos: int, memo: dict):
    from ..experiment.dataset import SessionRecord
    from ..pii.types import PiiType

    service, pos = _get_str(buf, pos, memo)
    os_name, pos = _get_str(buf, pos, memo)
    medium, pos = _get_str(buf, pos, memo)
    (duration,) = _F64.unpack_from(buf, pos)
    pos += 8
    (gt_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    ground_truth: dict = {}
    for _ in range(gt_count):
        code, pos = _get_str(buf, pos, memo)
        try:
            pii_type = PiiType(code)
        except ValueError as exc:
            raise CodecError(f"unknown PII type in record: {exc}") from exc
        (value_count,) = _U32.unpack_from(buf, pos)
        pos += 4
        values = []
        for _ in range(value_count):
            value, pos = _get_str(buf, pos, memo)
            values.append(value)
        ground_truth[pii_type] = values
    trace, pos = _get_trace(buf, pos, memo)
    record = SessionRecord(
        service=service,
        os_name=os_name,
        medium=medium,
        trace=trace,
        ground_truth=ground_truth,
        duration=duration,
    )
    return record, pos


def decode_record(data: bytes):
    """Parse a blob produced by :func:`encode_record` (strict)."""
    try:
        record, pos = _get_record(data, 0, {})
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated record data: {exc}") from exc
    _expect_end(data, pos)
    return record


def encode_bundle(records) -> bytes:
    """Serialize a sequence of session records as one upload bundle.

    A bundle is ``u32 count`` followed by the records back-to-back in
    the given order; order is preserved through decode so an uploaded
    dataset analyzes in the same sequence the offline pipeline would.
    """
    records = list(records)
    buf = bytearray(_U32.pack(len(records)))
    for record in records:
        buf += encode_record(record)
    return bytes(buf)


def decode_bundle(data: bytes) -> list:
    """Parse a blob produced by :func:`encode_bundle` (strict)."""
    try:
        (count,) = _U32.unpack_from(data, 0)
        pos = 4
        records = []
        memo: dict = {}
        for _ in range(count):
            record, pos = _get_record(data, pos, memo)
            records.append(record)
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated bundle data: {exc}") from exc
    _expect_end(data, pos)
    return records


def record_content_hash(record) -> str:
    """SHA-256 of the record's canonical binary form (cache addressing)."""
    return hashlib.sha256(encode_record(record)).hexdigest()


# -- campaign aggregates ------------------------------------------------------
#
# KIND_CAGG carries a CampaignAggregate partial: the inter-process
# reduction payload for campaign shards (replacing the to_dict pickle
# path) and the on-disk checkpoint format for resumable runs.  Layout
# follows the columnar batch conventions: one interned string table up
# front, then integer/float columns referencing it by u32 id.  Floats
# (Moments Shewchuk partials, min/max) are written as raw f64, so a
# decoded aggregate's state — hence its ``canonical_bytes`` — is
# bit-identical to the original's.


def _put_moments(buf: bytearray, moments) -> None:
    buf += _I64.pack(moments.count)
    buf += _U32.pack(len(moments._sum))
    for value in moments._sum:
        buf += _F64.pack(value)
    buf += _U32.pack(len(moments._sumsq))
    for value in moments._sumsq:
        buf += _F64.pack(value)
    for bound in (moments._min, moments._max):
        if bound is None:
            buf += b"\x00"
        else:
            buf += b"\x01"
            buf += _F64.pack(bound)


def _get_moments(buf: bytes, pos: int):
    from ..analysis.stats import Moments

    moments = Moments()
    (moments.count,) = _I64.unpack_from(buf, pos)
    pos += 8
    for name in ("_sum", "_sumsq"):
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        end = pos + 8 * count
        if end > len(buf):
            raise CodecError(
                f"truncated data: {count} float partial(s) at offset {pos} "
                f"overrun buffer of {len(buf)}"
            )
        setattr(moments, name, list(struct.unpack_from(f"<{count}d", buf, pos)))
        pos = end
    bounds = []
    for _ in range(2):
        present = buf[pos]
        pos += 1
        if present:
            (value,) = _F64.unpack_from(buf, pos)
            pos += 8
            bounds.append(value)
        else:
            bounds.append(None)
    moments._min, moments._max = bounds
    return moments, pos


def _put_bootstrap(buf: bytearray, sums) -> None:
    buf += _U32.pack(sums.replicates)
    buf += _I64.pack(sums.count)
    buf += _I64.pack(sums.total)
    buf += struct.pack(f"<{sums.replicates}q", *sums.sums)
    buf += struct.pack(f"<{sums.replicates}q", *sums.counts)


def _get_bootstrap(buf: bytes, pos: int):
    from ..analysis.stats import BootstrapSums

    (replicates,) = _U32.unpack_from(buf, pos)
    pos += 4
    if replicates < 1:
        raise CodecError(f"bad bootstrap replicate count {replicates} at offset {pos}")
    sums = BootstrapSums(replicates)
    (sums.count,) = _I64.unpack_from(buf, pos)
    pos += 8
    (sums.total,) = _I64.unpack_from(buf, pos)
    pos += 8
    end = pos + 16 * replicates
    if end > len(buf):
        raise CodecError(
            f"truncated data: {replicates} bootstrap replicate(s) at offset {pos} "
            f"overrun buffer of {len(buf)}"
        )
    sums.sums = list(struct.unpack_from(f"<{replicates}q", buf, pos))
    pos += 8 * replicates
    sums.counts = list(struct.unpack_from(f"<{replicates}q", buf, pos))
    pos += 8 * replicates
    return sums, pos


def encode_campaign(agg) -> bytes:
    """Serialize a :class:`~repro.campaign.engine.CampaignAggregate`.

    Cohorts are written in label-sorted order and every set/group in
    its sorted form (matching ``to_dict``), so encoding is canonical:
    equal aggregates encode to equal bytes regardless of fold order.
    """
    from ..analysis.columnar import MOMENT_KEYS
    from ..campaign.engine import USER_METRIC_KEYS

    strings: dict = {}

    def intern(value: str) -> int:
        index = strings.get(value)
        if index is None:
            index = strings[value] = len(strings)
        return index

    body = bytearray()
    body += _I64.pack(agg.seed)
    body += _U32.pack(len(agg.dims))
    for dim in agg.dims:
        body += _U32.pack(intern(dim))
    body += _U32.pack(agg.replicates)

    cohorts = agg.ordered_cohorts()
    body += _U32.pack(len(cohorts))
    for cohort in cohorts:
        body += _U32.pack(intern(cohort.label))
        body += _U32.pack(cohort.replicates)
        body += _I64.pack(cohort.users)
        body += _I64.pack(cohort.users_leaking)
        body += _I64.pack(cohort.sessions)

        study = cohort.study
        metas = study.ordered_services()
        body += _U32.pack(len(metas))
        for meta in metas:
            body += _U32.pack(intern(meta.slug))
            body += _U32.pack(intern(meta.category))
            body += _U32.pack(intern(meta.domain))
            body += _I32.pack(meta.rank)
            body += _U32.pack(meta.order)
            body += _U32.pack(len(meta.oses))
            for os_name in meta.oses:
                body += _U32.pack(intern(os_name))

        cells = study.ordered_cells()
        body += _U32.pack(len(cells))
        for cell in cells:
            body += _U32.pack(intern(cell.service))
            body += _U32.pack(intern(cell.os_name))
            body += _U32.pack(intern(cell.medium))
            body += _U32.pack(cell.order)
            body += _I64.pack(cell.flows_total)
            body += _I64.pack(cell.aa_flows)
            body += _I64.pack(cell.aa_bytes)
            domains = sorted(cell.aa_domains)
            body += _U32.pack(len(domains))
            for domain in domains:
                body += _U32.pack(intern(domain))
            groups = sorted(
                (domain, host, pii.value, count)
                for (domain, host, pii), count in cell.leak_groups.items()
            )
            body += _U32.pack(len(groups))
            for domain, host, pii_value, count in groups:
                body += _U32.pack(intern(domain))
                body += _U32.pack(intern(host))
                body += _U32.pack(intern(pii_value))
                body += _I64.pack(count)
        for key in MOMENT_KEYS:
            _put_moments(body, study.moments[key])

        for key in USER_METRIC_KEYS:
            _put_moments(body, cohort.user_moments[key])
        for key in USER_METRIC_KEYS:
            _put_bootstrap(body, cohort.bootstrap[key])

    table = list(strings)
    head = bytearray(_U32.pack(len(table)))
    for value in table:
        _put_str(head, value)
    return bytes(head + body)


def _get_campaign(buf: bytes, pos: int):
    from ..analysis.columnar import (
        _PII_BY_VALUE,
        MOMENT_KEYS,
        CellAggregate,
        ServiceMeta,
        StudyAggregate,
    )
    from ..campaign.engine import USER_METRIC_KEYS, CampaignAggregate, CohortAggregate

    (table_size,) = _U32.unpack_from(buf, pos)
    pos += 4
    table = []
    memo: dict = {}
    for _ in range(table_size):
        value, pos = _get_str(buf, pos, memo)
        table.append(value)

    def ref(pos: int):
        (index,) = _U32.unpack_from(buf, pos)
        if index >= table_size:
            raise CodecError(
                f"string id {index} out of table range {table_size} at offset {pos}"
            )
        return table[index], pos + 4

    (seed,) = _I64.unpack_from(buf, pos)
    pos += 8
    (dim_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    dims = []
    for _ in range(dim_count):
        dim, pos = ref(pos)
        dims.append(dim)
    (replicates,) = _U32.unpack_from(buf, pos)
    pos += 4
    agg = CampaignAggregate(seed, tuple(dims), replicates)

    (cohort_count,) = _U32.unpack_from(buf, pos)
    pos += 4
    for _ in range(cohort_count):
        label, pos = ref(pos)
        (cohort_replicates,) = _U32.unpack_from(buf, pos)
        pos += 4
        cohort = CohortAggregate(label, cohort_replicates)
        (cohort.users,) = _I64.unpack_from(buf, pos)
        pos += 8
        (cohort.users_leaking,) = _I64.unpack_from(buf, pos)
        pos += 8
        (cohort.sessions,) = _I64.unpack_from(buf, pos)
        pos += 8

        study = StudyAggregate()
        (meta_count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(meta_count):
            slug, pos = ref(pos)
            category, pos = ref(pos)
            domain, pos = ref(pos)
            (rank,) = _I32.unpack_from(buf, pos)
            pos += 4
            (order,) = _U32.unpack_from(buf, pos)
            pos += 4
            (os_count,) = _U32.unpack_from(buf, pos)
            pos += 4
            oses = []
            for _ in range(os_count):
                os_name, pos = ref(pos)
                oses.append(os_name)
            study.services[slug] = ServiceMeta(
                slug, category, domain, rank, tuple(oses), order
            )
        (cell_count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(cell_count):
            service, pos = ref(pos)
            os_name, pos = ref(pos)
            medium, pos = ref(pos)
            (order,) = _U32.unpack_from(buf, pos)
            pos += 4
            cell = CellAggregate(service, os_name, medium, order)
            (cell.flows_total,) = _I64.unpack_from(buf, pos)
            pos += 8
            (cell.aa_flows,) = _I64.unpack_from(buf, pos)
            pos += 8
            (cell.aa_bytes,) = _I64.unpack_from(buf, pos)
            pos += 8
            (domain_count,) = _U32.unpack_from(buf, pos)
            pos += 4
            domains = set()
            for _ in range(domain_count):
                domain, pos = ref(pos)
                domains.add(domain)
            cell.aa_domains = domains
            (group_count,) = _U32.unpack_from(buf, pos)
            pos += 4
            groups: dict = {}
            for _ in range(group_count):
                domain, pos = ref(pos)
                host, pos = ref(pos)
                pii_value, pos = ref(pos)
                (count,) = _I64.unpack_from(buf, pos)
                pos += 8
                pii = _PII_BY_VALUE.get(pii_value)
                if pii is None:
                    raise CodecError(f"unknown PII type {pii_value!r} in aggregate")
                groups[(domain, host, pii)] = count
            cell.leak_groups = groups
            study.cells[cell.key] = cell
        moments = {}
        for key in MOMENT_KEYS:
            moments[key], pos = _get_moments(buf, pos)
        study.moments = moments
        cohort.study = study

        user_moments = {}
        for key in USER_METRIC_KEYS:
            user_moments[key], pos = _get_moments(buf, pos)
        cohort.user_moments = user_moments
        bootstrap = {}
        for key in USER_METRIC_KEYS:
            bootstrap[key], pos = _get_bootstrap(buf, pos)
        cohort.bootstrap = bootstrap
        agg.cohorts[label] = cohort
    return agg, pos


def decode_campaign(data: bytes):
    """Parse a blob produced by :func:`encode_campaign` (strict)."""
    try:
        agg, pos = _get_campaign(data, 0)
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated campaign data: {exc}") from exc
    _expect_end(data, pos)
    return agg


# -- files --------------------------------------------------------------------


def _header(kind: int) -> bytes:
    return MAGIC + bytes((VERSION, kind))


def frame(kind: int, payload: bytes) -> bytes:
    """Wrap a bare payload in the versioned magic header."""
    return _header(kind) + payload


def unframe(data: bytes, kind: int, source="<bytes>") -> bytes:
    """Strip and validate the header, returning the bare payload.

    Raises :class:`CodecError` on foreign magic, unsupported version,
    or a payload kind other than ``kind`` — same strictness the typed
    readers (:func:`read_trace`, :func:`read_record`) apply.
    """
    return _check_header(data, kind, source)


def is_binary(prefix: bytes) -> bool:
    """True when ``prefix`` (>= 4 bytes of a file) is codec-framed."""
    return prefix[: len(MAGIC)] == MAGIC


def _check_header(data: bytes, kind: int, source) -> bytes:
    if len(data) < HEADER_SIZE or data[: len(MAGIC)] != MAGIC:
        raise CodecError(f"{source}: not a repro binary file (bad magic)")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise CodecError(
            f"{source}: unsupported binary format version {version} "
            f"(expected {VERSION})"
        )
    found_kind = data[len(MAGIC) + 1]
    if found_kind != kind:
        raise CodecError(
            f"{source}: wrong payload kind {found_kind} (expected {kind})"
        )
    return data[HEADER_SIZE:]


def write_trace(path: Union[str, Path], trace: Trace) -> None:
    """Atomically write a trace as a framed binary file."""
    atomic_write_bytes(path, _header(KIND_TRACE) + encode_trace(trace))


def read_trace(path: Union[str, Path]) -> Trace:
    """Read a framed binary trace file written by :func:`write_trace`."""
    path = Path(path)
    data = path.read_bytes()
    return decode_trace(_check_header(data, KIND_TRACE, path))


def write_record(path: Union[str, Path], record) -> None:
    """Atomically write a session record as a framed binary file."""
    atomic_write_bytes(path, _header(KIND_RECORD) + encode_record(record))


def read_record(path: Union[str, Path]):
    """Read a framed binary record file written by :func:`write_record`."""
    path = Path(path)
    data = path.read_bytes()
    return decode_record(_check_header(data, KIND_RECORD, path))


def write_campaign(path: Union[str, Path], agg) -> None:
    """Atomically write a campaign aggregate as a framed binary file."""
    atomic_write_bytes(path, _header(KIND_CAGG) + encode_campaign(agg))


def read_campaign(path: Union[str, Path]):
    """Read a framed campaign file written by :func:`write_campaign`."""
    path = Path(path)
    data = path.read_bytes()
    return decode_campaign(_check_header(data, KIND_CAGG, path))
