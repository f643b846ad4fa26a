"""Table generators: the paper's Tables 1, 2, and 3.

Each generator reduces a
:class:`~repro.analysis.columnar.StudyAggregate` (a
:class:`~repro.core.pipeline.StudyResult` is aggregated once on entry)
and returns structured rows; ``render_*`` functions print them in the
paper's layout so the benchmark harness can show paper-vs-measured side
by side.

Conventions (reverse-engineered from the published numbers):

- a service "leaks via medium m" when any tested OS cell of that medium
  has at least one leak;
- "Avg. Domains" averages the count of distinct domains receiving leaks
  over *leaking* services only (Business web reads 3.0 ± 0.0 with one
  of two services leaking — an all-services average would halve it);
- Table 2 counts services *contacting* an A&A domain, while its leak
  and identifier columns count actual PII receipts.

The row-wise object-graph walkers in :mod:`repro.qa.reference` build
rows through the same shared builders (``_finish_table1_row``,
``_table2_rows``, ``_table3_rows``), so output is byte-identical —
pinned by ``tests/test_columnar.py`` and the QA oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..experiment.dataset import APP, WEB
from ..pii.types import TABLE1_ORDER, PiiType
from ..trackerdb.easylist import bundled_easylist
from . import columnar
from .stats import mean_std

CATEGORY_ORDER = (
    "Business",
    "Education",
    "Entertainment",
    "Lifestyle",
    "Music",
    "News",
    "Shopping",
    "Social",
    "Travel",
    "Weather",
)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    """One (population, medium) row of Table 1."""

    group: str  # "All" | "Android" | "iOS" | category name
    medium: str  # "app" | "web"
    n_services: int
    avg_rank: float
    pct_leaking: float
    domains_mean: float
    domains_std: float
    identifiers: set  # set[PiiType]

    def identifier_codes(self) -> list:
        return [t.code for t in TABLE1_ORDER if t in self.identifiers]


def _finish_table1_row(
    group: str,
    medium: str,
    n: int,
    rank_sum,
    leaking: int,
    leak_domain_counts: list,
    identifiers: set,
) -> Table1Row:
    """Shared tail of :func:`table1` and its row-wise reference:
    identical arithmetic on identical inputs keeps them byte-identical."""
    if leak_domain_counts:
        mu, sigma = mean_std(leak_domain_counts)
    else:
        mu = sigma = 0.0
    return Table1Row(
        group=group,
        medium=medium,
        n_services=n,
        avg_rank=rank_sum / n if n else 0.0,
        pct_leaking=100.0 * leaking / n if n else 0.0,
        domains_mean=mu,
        domains_std=sigma,
        identifiers=identifiers,
    )


def _row(group: str, medium: str, members: list, os_name: str = None) -> Table1Row:
    """One Table 1 row over ``(ServiceMeta, cells)`` members."""
    leak_domain_counts = []
    identifiers: set = set()
    leaking = 0
    for meta, cells in members:
        domains: set = set()
        types: set = set()
        for cell in cells:
            if cell.medium != medium:
                continue
            if os_name is not None and cell.os_name != os_name:
                continue
            domains |= cell.leak_domains
            types |= cell.leak_types
        if types:
            leaking += 1
            leak_domain_counts.append(len(domains))
            identifiers |= types
    return _finish_table1_row(
        group,
        medium,
        len(members),
        sum(meta.rank for meta, _ in members),
        leaking,
        leak_domain_counts,
        identifiers,
    )


def table1(study) -> list:
    """Generate every row of Table 1 in presentation order."""
    agg = columnar.ensure_aggregate(study)
    by_service = agg.cells_by_service()
    members = [
        (meta, by_service.get(meta.slug, ())) for meta in agg.ordered_services()
    ]
    rows = []
    for medium in (APP, WEB):
        rows.append(_row("All", medium, members))
    for os_name, label in (("android", "Android"), ("ios", "iOS")):
        tested = [m for m in members if os_name in m[0].oses]
        for medium in (APP, WEB):
            rows.append(_row(label, medium, tested, os_name=os_name))
    for category in CATEGORY_ORDER:
        group = [m for m in members if m[0].category == category]
        if not group:
            continue
        for medium in (APP, WEB):
            rows.append(_row(category, medium, group))
    return rows


def render_table1(rows: list) -> str:
    header = (
        f"{'Group':15s} {'Med':4s} {'N':>3s} {'Rank':>6s} {'%Leak':>7s} "
        f"{'Domains':>12s}  Identifiers"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        domains_text = (
            f"{row.domains_mean:.1f} ± {row.domains_std:.1f}" if row.pct_leaking else "-"
        )
        lines.append(
            f"{row.group:15s} {row.medium:4s} {row.n_services:3d} {row.avg_rank:6.1f} "
            f"{row.pct_leaking:6.1f}% {domains_text:>12s}  {' '.join(row.identifier_codes())}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    """One A&A domain's row in Table 2."""

    domain: str
    services_app: int
    services_both: int
    services_web: int
    avg_leaks_app: float
    avg_leaks_web: float
    identifiers_app: set = field(default_factory=set)
    identifiers_web: set = field(default_factory=set)

    @property
    def identifiers_both(self) -> set:
        return self.identifiers_app & self.identifiers_web

    @property
    def total_leaks(self) -> float:
        return self.avg_leaks_app * max(self.services_app, 1) + self.avg_leaks_web * max(
            self.services_web, 1
        )


def _table2_rows(contact: dict, leaks: dict, identifiers: dict, top: int) -> list:
    """Shared row builder over the three (domain, medium) maps;
    :func:`table2` and its row-wise reference produce identical maps, so
    sorting, tie-breaking, and the top-N cut are shared verbatim."""
    rows = []
    # Sorted, not raw set iteration: the tie rows below would
    # otherwise land in string-hash order and the top-N cut would
    # vary with PYTHONHASHSEED.
    for domain in sorted(set(contact) | set(leaks)):
        app_leaks = leaks[domain][APP]
        web_leaks = leaks[domain][WEB]
        app_services = contact[domain][APP]
        web_services = contact[domain][WEB]
        avg_app = (sum(app_leaks.values()) / len(app_services)) if app_services else (
            float(sum(app_leaks.values()))
        )
        avg_web = (sum(web_leaks.values()) / len(web_services)) if web_services else (
            float(sum(web_leaks.values()))
        )
        rows.append(
            Table2Row(
                domain=domain,
                services_app=len(app_services),
                services_both=len(app_services & web_services),
                services_web=len(web_services),
                avg_leaks_app=avg_app,
                avg_leaks_web=avg_web,
                identifiers_app=identifiers[domain][APP],
                identifiers_web=identifiers[domain][WEB],
            )
        )
    rows.sort(
        key=lambda r: (
            -(sum(leaks[r.domain][APP].values()) + sum(leaks[r.domain][WEB].values())),
            r.domain,
        )
    )
    return rows[:top]


def table2(study, top: int = 20) -> list:
    """Top A&A domains by total leaks received."""
    agg = columnar.ensure_aggregate(study)
    easylist = bundled_easylist()
    contact: dict = defaultdict(lambda: {APP: set(), WEB: set()})
    leaks: dict = defaultdict(lambda: {APP: defaultdict(int), WEB: defaultdict(int)})
    identifiers: dict = defaultdict(lambda: {APP: set(), WEB: set()})

    services = agg.services
    for cell in agg.ordered_cells():
        slug = cell.service
        medium = cell.medium
        page_host = services[slug].domain
        for domain in cell.aa_domains:
            contact[domain][medium].add(slug)
        # One EasyList verdict per unique (hostname, page_host) group —
        # the row-wise reference asks per event, but the verdict is a
        # pure function of those two strings, so grouped counts are exact.
        for (domain, host, pii), count in cell.leak_groups.items():
            if not easylist.matches(f"https://{host}/", page_host=page_host):
                continue
            leaks[domain][medium][slug] += count
            identifiers[domain][medium].add(pii)
    return _table2_rows(contact, leaks, identifiers, top)


def render_table2(rows: list) -> str:
    header = (
        f"{'A&A Domain':22s} {'SvcA':>4s} {'∩':>3s} {'SvcW':>4s} "
        f"{'AvgA':>7s} {'AvgW':>7s} {'IdA':>3s} {'Id∩':>3s} {'IdW':>3s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.domain:22s} {row.services_app:4d} {row.services_both:3d} "
            f"{row.services_web:4d} {row.avg_leaks_app:7.1f} {row.avg_leaks_web:7.1f} "
            f"{len(row.identifiers_app):3d} {len(row.identifiers_both):3d} "
            f"{len(row.identifiers_web):3d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    """One PII type's row in Table 3."""

    pii_type: PiiType
    services_app: int
    services_both: int
    services_web: int
    avg_leaks_app: float
    avg_leaks_web: float
    domains_app: int
    domains_both: int
    domains_web: int
    total_leaks: int


def _table3_buckets() -> dict:
    return {
        pii_type: {
            "svc": {APP: set(), WEB: set()},
            "leaks": {APP: defaultdict(int), WEB: defaultdict(int)},
            "domains": {APP: set(), WEB: set()},
        }
        for pii_type in PiiType
    }


def table3(study) -> list:
    """Per-PII-type aggregation, sorted by total leaks."""
    per_type = _table3_buckets()
    for cell in columnar.ensure_aggregate(study).ordered_cells():
        slug = cell.service
        medium = cell.medium
        for (domain, host, pii), count in cell.leak_groups.items():
            bucket = per_type[pii]
            bucket["svc"][medium].add(slug)
            bucket["leaks"][medium][slug] += count
            bucket["domains"][medium].add(domain)
    return _table3_rows(per_type)


def _table3_rows(per_type: dict) -> list:
    """Shared row builder: iterates the :class:`PiiType` buckets in
    enum-declaration order for :func:`table3` and its row-wise
    reference alike, so stable tie order under the total-leaks sort is
    identical."""
    rows = []
    for pii_type, bucket in per_type.items():
        app_services = bucket["svc"][APP]
        web_services = bucket["svc"][WEB]
        total_app = sum(bucket["leaks"][APP].values())
        total_web = sum(bucket["leaks"][WEB].values())
        if not app_services and not web_services:
            continue
        rows.append(
            Table3Row(
                pii_type=pii_type,
                services_app=len(app_services),
                services_both=len(app_services & web_services),
                services_web=len(web_services),
                avg_leaks_app=total_app / len(app_services) if app_services else 0.0,
                avg_leaks_web=total_web / len(web_services) if web_services else 0.0,
                domains_app=len(bucket["domains"][APP]),
                domains_both=len(bucket["domains"][APP] & bucket["domains"][WEB]),
                domains_web=len(bucket["domains"][WEB]),
                total_leaks=total_app + total_web,
            )
        )
    rows.sort(key=lambda r: r.total_leaks, reverse=True)
    return rows


def render_table3(rows: list) -> str:
    header = (
        f"{'PII':12s} {'SvcA':>4s} {'∩':>3s} {'SvcW':>4s} "
        f"{'AvgA':>7s} {'AvgW':>7s} {'DomA':>4s} {'Dom∩':>4s} {'DomW':>4s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.pii_type.label:12s} {row.services_app:4d} {row.services_both:3d} "
            f"{row.services_web:4d} {row.avg_leaks_app:7.1f} {row.avg_leaks_web:7.1f} "
            f"{row.domains_app:4d} {row.domains_both:4d} {row.domains_web:4d}"
        )
    return "\n".join(lines)
