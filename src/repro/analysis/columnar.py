"""Columnar aggregation engine over the binary codec.

Walking the ``SessionAnalysis``/``LeakRecord`` object graphs once per
result (tables, figures, reach, longitudinal) iterates them
*repeatedly*: Table 1 re-derives ``leak_types`` per population group,
every Figure 1 panel recomputes the per-service diffs, reach walks
every leak again.  At campaign scale (millions of sessions) that
attribute-chasing becomes the dominant cost even with process fan-out.
This module walks them once:

- :func:`encode_cells` walks the per-session objects exactly **once**,
  interning every string and grouping leak events into unique
  ``(domain, hostname, pii)`` triples with counts, and emits a
  length-prefixed, struct-packed **columnar batch** in the
  :mod:`repro.net.codec` wire conventions (little-endian, ``u32 len +
  UTF-8`` strings, strict bounds-checked decode) — parallel arrays,
  one per column, not one object per row;
- :func:`decode_batch` unpacks those arrays straight off the buffer
  (one ``struct.unpack_from`` per column) without materialising any
  ``Flow``/``SessionAnalysis``/``LeakRecord`` objects;
- :func:`aggregate_batch` — the kernel — reduces a batch into a
  mergeable :class:`StudyAggregate` partial: per-cell counters,
  set-union sketches, and :class:`~repro.analysis.stats.Moments`
  accumulators;
- :func:`study_aggregate` is the front door: it encodes a study once
  and folds it in-process (a ready :class:`StudyAggregate` passes
  through).  The fold is bounded by the catalog, one cell per service
  × OS × medium, so no pool runs it;
- :func:`merge_aggregates` folds partials (campaign chunks, test
  splits).  Every reduction is associative and order-independent, so
  any split and any merge tree yield the same aggregate.

The consumers in :mod:`.tables`, :mod:`.figures`, :mod:`.reach`,
:mod:`.report` and :mod:`.longitudinal` read nothing but a
:class:`StudyAggregate` (a ``StudyResult`` is reduced once on entry by
:func:`study_aggregate`).
Their output is **byte-identical** to the row-wise walkers kept as the
test-only reference in :mod:`repro.qa.reference` — pinned per fuzz seed
by the :mod:`repro.qa` oracle and enforced at ≥5× (10× target) by
``make bench-columnar``.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from typing import Iterable, Optional

from ..net import codec
from ..net.codec import CodecError
from ..pii.types import PiiType
from .stats import Moments

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")

_PII_BY_VALUE = {pii_type.value: pii_type for pii_type in PiiType}


# ---------------------------------------------------------------------------
# Aggregate model
# ---------------------------------------------------------------------------


class ServiceMeta:
    """The slice of a :class:`~repro.services.service.ServiceSpec` the
    aggregation layer needs (group membership, rank, page host), plus
    the service's position in the study's presentation order."""

    __slots__ = ("slug", "category", "domain", "rank", "oses", "order")

    def __init__(self, slug, category, domain, rank, oses, order) -> None:
        self.slug = slug
        self.category = category
        self.domain = domain
        self.rank = rank
        self.oses = tuple(oses)
        self.order = order

    @classmethod
    def from_spec(cls, spec, order: int) -> "ServiceMeta":
        return cls(spec.slug, spec.category, spec.domain, spec.rank, spec.oses, order)

    def to_row(self) -> list:
        return [self.slug, self.category, self.domain, self.rank, list(self.oses), self.order]

    @classmethod
    def from_row(cls, row: list) -> "ServiceMeta":
        return cls(row[0], row[1], row[2], row[3], tuple(row[4]), row[5])


class CellAggregate:
    """One (service, os, medium) cell's reduction.

    ``leak_groups`` maps the unique ``(leak_domain, hostname, pii_type)``
    triple to its event count — everything every consumer derives from
    the raw leak list (type unions, domain sets, per-recipient counts,
    EasyList verdicts) is a function of these groups, because all the
    row-wise reductions are sets and sums, never sequences.
    """

    __slots__ = (
        "service",
        "os_name",
        "medium",
        "order",
        "flows_total",
        "aa_flows",
        "aa_bytes",
        "aa_domains",
        "leak_groups",
    )

    def __init__(self, service, os_name, medium, order) -> None:
        self.service = service
        self.os_name = os_name
        self.medium = medium
        self.order = order
        self.flows_total = 0
        self.aa_flows = 0
        self.aa_bytes = 0
        self.aa_domains: set = set()
        self.leak_groups: dict = {}  # (domain, hostname, PiiType) -> count

    @property
    def key(self) -> tuple:
        return (self.service, self.os_name, self.medium)

    @property
    def leak_types(self) -> set:
        return {pii for (_, _, pii) in self.leak_groups}

    @property
    def leak_domains(self) -> set:
        return {domain for (domain, _, _) in self.leak_groups}

    @property
    def leak_events(self) -> int:
        return sum(self.leak_groups.values())

    def copy(self) -> "CellAggregate":
        dup = CellAggregate(self.service, self.os_name, self.medium, self.order)
        dup.flows_total = self.flows_total
        dup.aa_flows = self.aa_flows
        dup.aa_bytes = self.aa_bytes
        dup.aa_domains = set(self.aa_domains)
        dup.leak_groups = dict(self.leak_groups)
        return dup

    def merge(self, other: "CellAggregate") -> None:
        """Fold another partial of the *same* cell in (counts add, sets
        union) — used when a cell's events were split across shards."""
        if self.key != other.key:
            raise ValueError(f"cannot merge cell {other.key} into {self.key}")
        self.order = min(self.order, other.order)
        self.flows_total += other.flows_total
        self.aa_flows += other.aa_flows
        self.aa_bytes += other.aa_bytes
        self.aa_domains |= other.aa_domains
        groups = self.leak_groups
        for group, count in other.leak_groups.items():
            groups[group] = groups.get(group, 0) + count


#: Per-cell metrics the aggregate keeps Moments accumulators for.
MOMENT_KEYS = ("flows_total", "aa_flows", "aa_bytes", "leak_events")


class StudyAggregate:
    """Mergeable partial aggregate of a study (or a shard of one).

    Merging is associative with :class:`StudyAggregate()` as identity:
    cells present in both operands combine via :meth:`CellAggregate.merge`,
    service metadata unions (keeping the smallest presentation order),
    and the :class:`~repro.analysis.stats.Moments` accumulators merge
    exactly.  Every stored reduction is order-independent, so *any*
    shard split and *any* merge tree produce the same aggregate —
    property-pinned in ``tests/test_columnar.py`` and per fuzz seed in
    the QA oracle.
    """

    def __init__(self) -> None:
        self.services: dict = {}  # slug -> ServiceMeta
        self.cells: dict = {}  # (slug, os, medium) -> CellAggregate
        self.moments: dict = {key: Moments() for key in MOMENT_KEYS}

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "StudyAggregate") -> "StudyAggregate":
        for slug, meta in other.services.items():
            mine = self.services.get(slug)
            if mine is None or meta.order < mine.order:
                self.services[slug] = meta
        for key, cell in other.cells.items():
            mine = self.cells.get(key)
            if mine is None:
                self.cells[key] = cell.copy()
            else:
                mine.merge(cell)
        self.moments = {
            key: self.moments[key].merge(other.moments[key]) for key in MOMENT_KEYS
        }
        return self

    # -- ordered views -------------------------------------------------------

    def ordered_services(self) -> list:
        """Service metadata in study presentation (catalog) order."""
        return sorted(self.services.values(), key=lambda meta: meta.order)

    def ordered_cells(self) -> list:
        """Cells in the row-wise iteration order (service order, then
        session insertion order) — what order-sensitive consumers
        (reach's first-contact discovery) replay."""
        return sorted(self.cells.values(), key=lambda cell: (cell.order, cell.key))

    def cells_by_service(self) -> dict:
        by_slug: dict = {}
        for cell in self.ordered_cells():
            by_slug.setdefault(cell.service, []).append(cell)
        return by_slug

    # -- serialization -------------------------------------------------------

    def _cell_rows(self, cell: CellAggregate) -> list:
        return [
            cell.service,
            cell.os_name,
            cell.medium,
            cell.order,
            cell.flows_total,
            cell.aa_flows,
            cell.aa_bytes,
            sorted(cell.aa_domains),
            sorted(
                [domain, host, pii.value, count]
                for (domain, host, pii), count in cell.leak_groups.items()
            ),
        ]

    def to_dict(self) -> dict:
        """Exact JSON-safe form (IPC across the process pool): Moments
        keep their partials lists, so later merges stay exact."""
        return {
            "services": [meta.to_row() for meta in self.ordered_services()],
            "cells": [self._cell_rows(cell) for cell in self.ordered_cells()],
            "moments": {key: m.to_dict() for key, m in self.moments.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudyAggregate":
        agg = cls()
        for row in data["services"]:
            meta = ServiceMeta.from_row(row)
            agg.services[meta.slug] = meta
        for row in data["cells"]:
            cell = CellAggregate(row[0], row[1], row[2], row[3])
            cell.flows_total = row[4]
            cell.aa_flows = row[5]
            cell.aa_bytes = row[6]
            cell.aa_domains = set(row[7])
            cell.leak_groups = {
                (domain, host, _PII_BY_VALUE[pii]): count
                for domain, host, pii, count in row[8]
            }
            agg.cells[cell.key] = cell
        agg.moments = {
            key: Moments.from_dict(entry) for key, entry in data["moments"].items()
        }
        return agg

    def canonical_dict(self) -> dict:
        """Deterministic comparison form: Moments collapsed to their
        correctly rounded sums (order-invariant), everything sorted."""
        payload = self.to_dict()
        payload["moments"] = {
            key: {
                "count": m.count,
                "sum": m.sum(),
                "sumsq": m.sumsq(),
                "min": m._min,
                "max": m._max,
            }
            for key, m in self.moments.items()
        }
        return payload

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")


def merge_aggregates(partials: Iterable) -> StudyAggregate:
    """Fold shard partials (in the given order) into one aggregate."""
    merged = StudyAggregate()
    for partial in partials:
        merged.merge(partial)
    return merged


# ---------------------------------------------------------------------------
# Columnar batch encoding (codec wire conventions)
# ---------------------------------------------------------------------------
#
# Payload layout (a bare in-memory blob, never framed or written to
# disk).  All integers little-endian; every array is written as one
# struct-packed run so the decoder does one unpack_from per column.
#
#   u32 n_strings, then n x (u32 len + UTF-8)      -- interned strings
#   u32 n_services, per service:
#       u32 slug_id, u32 category_id, u32 domain_id,
#       i32 rank, u32 order, u32 n_oses, n_oses x u32 os_id
#   u32 n_cells, then the parallel cell columns, each n_cells long:
#       u32 slug_id[], u32 os_id[], u32 medium_id[], u32 order[],
#       u32 flows_total[], u32 aa_flows[], i64 aa_bytes[]
#   u32 total_aa, u32 aa_count[n_cells], u32 aa_domain_id[total_aa]
#   u32 total_groups, u32 group_count[n_cells],
#       u32 group_domain_id[], u32 group_host_id[],
#       u32 group_pii_id[], u32 group_count_value[]   -- each total_groups long


def encode_cells(metas: list, cells: list) -> bytes:
    """Encode service metadata plus ``(order, analysis)`` cells into a
    columnar batch blob.

    The single pass over each session's object graph happens *here*:
    leak records collapse into grouped unique triples, strings intern
    into one table.  Sets and group keys are written sorted, so the
    blob is canonical — independent of set iteration (hash seed) order.
    """
    strings: dict = {}

    def intern(value: str) -> int:
        index = strings.get(value)
        if index is None:
            index = strings[value] = len(strings)
        return index

    body = bytearray()

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

    n = len(cells)
    slug_ids = []
    os_ids = []
    medium_ids = []
    orders = []
    flows = []
    aa_flows = []
    aa_bytes = []
    aa_counts = []
    aa_ids = []
    group_counts = []
    group_domains = []
    group_hosts = []
    group_piis = []
    group_values = []
    for order, analysis in cells:
        slug_ids.append(intern(analysis.service))
        os_ids.append(intern(analysis.os_name))
        medium_ids.append(intern(analysis.medium))
        orders.append(order)
        flows.append(analysis.flows_total)
        aa_flows.append(analysis.aa_flows)
        aa_bytes.append(analysis.aa_bytes)
        domains = sorted(analysis.aa_domains)
        aa_counts.append(len(domains))
        aa_ids.extend(intern(domain) for domain in domains)
        groups = Counter(
            (
                leak.observation.domain,
                leak.observation.hostname,
                leak.observation.pii_type.value,
            )
            for leak in analysis.leaks
        )
        group_counts.append(len(groups))
        for (domain, host, pii), count in sorted(groups.items()):
            group_domains.append(intern(domain))
            group_hosts.append(intern(host))
            group_piis.append(intern(pii))
            group_values.append(count)

    body += _U32.pack(n)
    try:
        body += struct.pack(f"<{n}I", *slug_ids)
        body += struct.pack(f"<{n}I", *os_ids)
        body += struct.pack(f"<{n}I", *medium_ids)
        body += struct.pack(f"<{n}I", *orders)
        body += struct.pack(f"<{n}I", *flows)
        body += struct.pack(f"<{n}I", *aa_flows)
        body += struct.pack(f"<{n}q", *aa_bytes)
        body += _U32.pack(len(aa_ids))
        body += struct.pack(f"<{n}I", *aa_counts)
        body += struct.pack(f"<{len(aa_ids)}I", *aa_ids)
        body += _U32.pack(len(group_values))
        body += struct.pack(f"<{n}I", *group_counts)
        total = len(group_values)
        body += struct.pack(f"<{total}I", *group_domains)
        body += struct.pack(f"<{total}I", *group_hosts)
        body += struct.pack(f"<{total}I", *group_piis)
        body += struct.pack(f"<{total}I", *group_values)
    except struct.error as exc:
        raise CodecError(f"cannot encode analysis batch: {exc}") from exc

    head = bytearray()
    head += _U32.pack(len(strings))
    for value in strings:  # insertion order == id order
        codec._put_str(head, value)
    return bytes(head) + bytes(body)


class ColumnarBatch:
    """A decoded batch: one interned string table plus parallel arrays.

    No per-row objects exist — consumers index the column tuples
    directly (the kernel below is the canonical consumer).
    """

    __slots__ = (
        "strings",
        "services",
        "n_cells",
        "slug_ids",
        "os_ids",
        "medium_ids",
        "orders",
        "flows_total",
        "aa_flows",
        "aa_bytes",
        "aa_counts",
        "aa_ids",
        "group_counts",
        "group_domains",
        "group_hosts",
        "group_piis",
        "group_values",
    )

    @property
    def leak_events(self) -> int:
        return sum(self.group_values)


def _unpack_array(buf: bytes, pos: int, count: int, kind: str = "I"):
    size = struct.calcsize(f"<{count}{kind}")
    if pos + size > len(buf):
        raise CodecError(
            f"truncated batch: {count} x '{kind}' column at offset {pos} "
            f"overruns buffer of {len(buf)}"
        )
    return struct.unpack_from(f"<{count}{kind}", buf, pos), pos + size


def decode_batch(data: bytes) -> ColumnarBatch:
    """Strict decode of an :func:`encode_cells` blob into parallel
    arrays — no ``Flow``/``SessionAnalysis`` objects materialised."""
    batch = ColumnarBatch()
    try:
        pos = 0
        (n_strings,) = _U32.unpack_from(data, pos)
        pos += 4
        strings = []
        memo: dict = {}
        for _ in range(n_strings):
            value, pos = codec._get_str(data, pos, memo)
            strings.append(value)
        batch.strings = tuple(strings)

        (n_services,) = _U32.unpack_from(data, pos)
        pos += 4
        services = []
        for _ in range(n_services):
            slug_id, cat_id, dom_id = struct.unpack_from("<3I", data, pos)
            pos += 12
            (rank,) = _I32.unpack_from(data, pos)
            pos += 4
            order, n_oses = struct.unpack_from("<2I", data, pos)
            pos += 8
            os_ids, pos = _unpack_array(data, pos, n_oses)
            services.append(
                ServiceMeta(
                    strings[slug_id],
                    strings[cat_id],
                    strings[dom_id],
                    rank,
                    tuple(strings[i] for i in os_ids),
                    order,
                )
            )
        batch.services = services

        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        batch.n_cells = n
        batch.slug_ids, pos = _unpack_array(data, pos, n)
        batch.os_ids, pos = _unpack_array(data, pos, n)
        batch.medium_ids, pos = _unpack_array(data, pos, n)
        batch.orders, pos = _unpack_array(data, pos, n)
        batch.flows_total, pos = _unpack_array(data, pos, n)
        batch.aa_flows, pos = _unpack_array(data, pos, n)
        batch.aa_bytes, pos = _unpack_array(data, pos, n, "q")
        (total_aa,) = _U32.unpack_from(data, pos)
        pos += 4
        batch.aa_counts, pos = _unpack_array(data, pos, n)
        batch.aa_ids, pos = _unpack_array(data, pos, total_aa)
        (total_groups,) = _U32.unpack_from(data, pos)
        pos += 4
        batch.group_counts, pos = _unpack_array(data, pos, n)
        batch.group_domains, pos = _unpack_array(data, pos, total_groups)
        batch.group_hosts, pos = _unpack_array(data, pos, total_groups)
        batch.group_piis, pos = _unpack_array(data, pos, total_groups)
        batch.group_values, pos = _unpack_array(data, pos, total_groups)
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated analysis batch: {exc}") from exc
    if sum(batch.aa_counts) != total_aa:
        raise CodecError("corrupt batch: aa_count column does not sum to total")
    if sum(batch.group_counts) != total_groups:
        raise CodecError("corrupt batch: group_count column does not sum to total")
    if pos != len(data):
        raise CodecError(
            f"{len(data) - pos} byte(s) of trailing garbage after offset {pos}"
        )
    return batch


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def aggregate_batch(batch: ColumnarBatch) -> StudyAggregate:
    """Reduce one decoded batch into a partial :class:`StudyAggregate`.

    This is the hot kernel: straight-line loops over the column arrays,
    resolving interned ids through one tuple index each, folding into
    dict/set/Counter reductions and exact Moments accumulators.
    """
    agg = StudyAggregate()
    for meta in batch.services:
        mine = agg.services.get(meta.slug)
        if mine is None or meta.order < mine.order:
            agg.services[meta.slug] = meta
    strings = batch.strings
    pii_by_value = _PII_BY_VALUE
    moments = agg.moments
    m_flows = moments["flows_total"]
    m_aa_flows = moments["aa_flows"]
    m_aa_bytes = moments["aa_bytes"]
    m_leaks = moments["leak_events"]
    aa_offset = 0
    group_offset = 0
    for i in range(batch.n_cells):
        cell = CellAggregate(
            strings[batch.slug_ids[i]],
            strings[batch.os_ids[i]],
            strings[batch.medium_ids[i]],
            batch.orders[i],
        )
        cell.flows_total = batch.flows_total[i]
        cell.aa_flows = batch.aa_flows[i]
        cell.aa_bytes = batch.aa_bytes[i]
        n_aa = batch.aa_counts[i]
        cell.aa_domains = {
            strings[j] for j in batch.aa_ids[aa_offset : aa_offset + n_aa]
        }
        aa_offset += n_aa
        n_groups = batch.group_counts[i]
        groups = {}
        events = 0
        for j in range(group_offset, group_offset + n_groups):
            count = batch.group_values[j]
            key = (
                strings[batch.group_domains[j]],
                strings[batch.group_hosts[j]],
                pii_by_value[strings[batch.group_piis[j]]],
            )
            groups[key] = groups.get(key, 0) + count
            events += count
        group_offset += n_groups
        cell.leak_groups = groups
        existing = agg.cells.get(cell.key)
        if existing is None:
            agg.cells[cell.key] = cell
        else:
            existing.merge(cell)
        m_flows.add(cell.flows_total)
        m_aa_flows.add(cell.aa_flows)
        m_aa_bytes.add(cell.aa_bytes)
        m_leaks.add(events)
    return agg


def aggregate_blob(blob: bytes) -> StudyAggregate:
    """Decode + kernel in one step (the one fold of a study or a
    campaign cell)."""
    return aggregate_batch(decode_batch(blob))


# ---------------------------------------------------------------------------
# Front door: study -> one blob -> one in-process fold
# ---------------------------------------------------------------------------


def _study_cells(study) -> tuple:
    """(metas, [(order, analysis)]) in the row-wise iteration order."""
    metas = [
        ServiceMeta.from_spec(result.spec, index)
        for index, result in enumerate(study.services)
    ]
    cells = []
    order = 0
    for result in study.services:
        for analysis in result.sessions.values():
            cells.append((order, analysis))
            order += 1
    return metas, cells


def study_aggregate(study, *, executor=None) -> StudyAggregate:
    """The aggregation front door: a :class:`StudyAggregate` passes
    through; a ``StudyResult`` is encoded once and folded in-process.

    The fold is bounded by the catalog (one cell per service × OS ×
    medium), so it never leaves the process.  ``executor`` is accepted
    and ignored because ``perfbench/child.py`` passes
    ``executor="serial"``.
    """
    if isinstance(study, StudyAggregate):
        return study
    return aggregate_blob(encode_cells(*_study_cells(study)))


def aggregate_diffs(agg: StudyAggregate, os_name: Optional[str] = None) -> list:
    """Per-service app-minus-web diffs (what every Figure 1 panel plots).

    Same iteration order as :func:`repro.core.compare.study_diffs`
    (service catalog order, then the spec's OS order) and the same
    arithmetic — including computing megabytes as
    ``aa_bytes / 1_000_000.0`` per side before subtracting — so the
    diffs are bit-identical to the row-wise ones (pinned).
    """
    from ..core.compare import APP, WEB, CellDiff
    from ..core.leaks import jaccard

    out = []
    cells = agg.cells
    for meta in agg.ordered_services():
        for osn in meta.oses:
            if os_name is not None and osn != os_name:
                continue
            app = cells.get((meta.slug, osn, APP))
            web = cells.get((meta.slug, osn, WEB))
            if app is None or web is None:
                continue
            app_types = frozenset(app.leak_types)
            web_types = frozenset(web.leak_types)
            out.append(
                CellDiff(
                    service=meta.slug,
                    os_name=osn,
                    aa_domains=len(app.aa_domains) - len(web.aa_domains),
                    aa_flows=app.aa_flows - web.aa_flows,
                    aa_megabytes=app.aa_bytes / 1_000_000.0
                    - web.aa_bytes / 1_000_000.0,
                    leak_domains=len(app.leak_domains) - len(web.leak_domains),
                    leak_identifiers=len(app_types) - len(web_types),
                    jaccard_identifiers=jaccard(set(app_types), set(web_types)),
                    app_leak_types=app_types,
                    web_leak_types=web_types,
                )
            )
    return out
