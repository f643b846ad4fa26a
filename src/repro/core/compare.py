"""App-versus-web comparison metrics (§4's per-service differences).

Everything Figure 1 plots is a per-service difference between the app
cell and the web cell on the same OS: A&A domains contacted, flows and
bytes to A&A, domains receiving PII, count of distinct leaked identifier
types, and the Jaccard similarity of the leaked-type sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..experiment.dataset import APP, WEB
from .leaks import jaccard
from .pipeline import ServiceResult, SessionAnalysis, StudyResult


@dataclass(frozen=True)
class CellDiff:
    """App-minus-web differences for one service on one OS."""

    service: str
    os_name: str
    aa_domains: int
    aa_flows: int
    aa_megabytes: float
    leak_domains: int
    leak_identifiers: int
    jaccard_identifiers: float
    app_leak_types: frozenset
    web_leak_types: frozenset


def diff_cells(app: SessionAnalysis, web: SessionAnalysis) -> CellDiff:
    """Compute the app-minus-web diff for a pair of matching cells."""
    if app.service != web.service or app.os_name != web.os_name:
        raise ValueError("cells must belong to the same service and OS")
    if app.medium != APP or web.medium != WEB:
        raise ValueError("expected one app cell and one web cell")
    app_types = frozenset(app.leak_types)
    web_types = frozenset(web.leak_types)
    return CellDiff(
        service=app.service,
        os_name=app.os_name,
        aa_domains=len(app.aa_domains) - len(web.aa_domains),
        aa_flows=app.aa_flows - web.aa_flows,
        aa_megabytes=app.aa_megabytes - web.aa_megabytes,
        leak_domains=len(app.leak_domains) - len(web.leak_domains),
        leak_identifiers=len(app_types) - len(web_types),
        jaccard_identifiers=jaccard(set(app_types), set(web_types)),
        app_leak_types=app_types,
        web_leak_types=web_types,
    )


def service_diffs(result: ServiceResult) -> list:
    """Per-OS diffs for one service (one entry per tested OS)."""
    diffs = []
    for os_name in result.spec.oses:
        app = result.cell(os_name, APP)
        web = result.cell(os_name, WEB)
        if app is None or web is None:
            continue
        diffs.append(diff_cells(app, web))
    return diffs


def study_diffs(study: StudyResult, os_name: Optional[str] = None) -> list:
    """All per-service diffs in a study, optionally filtered by OS."""
    out = []
    for result in study.services:
        for diff in service_diffs(result):
            if os_name is None or diff.os_name == os_name:
                out.append(diff)
    return out


def fraction_web_contacts_more_aa(study: StudyResult, os_name: str) -> float:
    """Fig 1a headline: fraction of services whose web side contacts
    more A&A domains than the app side (negative app-minus-web diff)."""
    diffs = study_diffs(study, os_name)
    if not diffs:
        return 0.0
    return sum(1 for d in diffs if d.aa_domains < 0) / len(diffs)
