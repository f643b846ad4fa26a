"""Longitudinal study comparison.

§2 notes the study "represents a snapshot of online service behavior at
one point in time" but "the approach is general and can be repeated to
observe how the privacy landscape evolves".  This module is the
repeat-and-compare half: given two study runs (different catalog
versions, different dates, different seeds) — each a
:class:`~repro.core.pipeline.StudyResult` or its
:class:`~repro.analysis.columnar.StudyAggregate` — it diffs the
privacy-relevant quantities per service and summarizes the drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..experiment.dataset import APP, WEB
from . import columnar


@dataclass(frozen=True)
class ServiceDrift:
    """Change in one service's privacy profile between two studies."""

    service: str
    medium: str
    types_added: frozenset
    types_removed: frozenset
    aa_domains_delta: int
    leak_events_delta: int

    @property
    def changed(self) -> bool:
        return bool(
            self.types_added
            or self.types_removed
            or self.aa_domains_delta
            or self.leak_events_delta
        )

    @property
    def improved(self) -> bool:
        """Strictly fewer leaked types and no new ones (the Grubhub-fix
        pattern: the §4.2 password bug disappearing in a later snapshot)."""
        return bool(self.types_removed) and not self.types_added


def _medium_metrics(cells, medium):
    """(leaked types, A&A domains, leak events) of one medium over a
    service's CellAggregates — unions and counts only, so shard merges
    cannot change it."""
    types: set = set()
    aa_domains: set = set()
    events = 0
    for cell in cells:
        if cell.medium != medium:
            continue
        types |= cell.leak_types
        aa_domains |= cell.aa_domains
        events += cell.leak_events
    return types, aa_domains, events


def diff_studies(before, after) -> list:
    """Per-service, per-medium drift between two snapshots.

    Services present in only one study are skipped — the comparison is
    about behavioural change, not catalog churn.
    """
    before = columnar.study_aggregate(before)
    after = columnar.study_aggregate(after)
    before_cells = before.cells_by_service()
    after_cells = after.cells_by_service()
    drifts = []
    for meta in after.ordered_services():
        if meta.slug not in before.services:
            continue
        olds = before_cells.get(meta.slug, ())
        news = after_cells.get(meta.slug, ())
        for medium in (APP, WEB):
            old_types, old_domains, old_events = _medium_metrics(olds, medium)
            new_types, new_domains, new_events = _medium_metrics(news, medium)
            drifts.append(
                ServiceDrift(
                    service=meta.slug,
                    medium=medium,
                    types_added=frozenset(new_types - old_types),
                    types_removed=frozenset(old_types - new_types),
                    aa_domains_delta=len(new_domains) - len(old_domains),
                    leak_events_delta=new_events - old_events,
                )
            )
    return drifts


@dataclass
class DriftSummary:
    """Headline counts for a landscape-evolution report."""

    services_compared: int
    unchanged: int
    improved: int
    regressed: int  # new identifier classes started leaking
    drifts: list = field(default_factory=list)


def summarize_drift(before, after) -> DriftSummary:
    return _summarize_drifts(diff_studies(before, after))


def _summarize_drifts(drifts: list) -> DriftSummary:
    by_service: dict = {}
    for drift in drifts:
        by_service.setdefault(drift.service, []).append(drift)
    unchanged = improved = regressed = 0
    for service_drifts in by_service.values():
        if not any(d.changed for d in service_drifts):
            unchanged += 1
        if any(d.types_added for d in service_drifts):
            regressed += 1
        elif any(d.improved for d in service_drifts):
            improved += 1
    return DriftSummary(
        services_compared=len(by_service),
        unchanged=unchanged,
        improved=improved,
        regressed=regressed,
        drifts=drifts,
    )


def render_drift(summary: DriftSummary) -> str:
    """Text report of what changed between the snapshots."""
    lines = [
        f"services compared: {summary.services_compared}  "
        f"unchanged: {summary.unchanged}  improved: {summary.improved}  "
        f"regressed: {summary.regressed}",
    ]
    for drift in summary.drifts:
        if not drift.changed:
            continue
        added = ",".join(sorted(t.code for t in drift.types_added)) or "-"
        removed = ",".join(sorted(t.code for t in drift.types_removed)) or "-"
        lines.append(
            f"  {drift.service:15s} {drift.medium:3s} +types:{added:10s} "
            f"-types:{removed:10s} A&A {drift.aa_domains_delta:+3d} "
            f"events {drift.leak_events_delta:+5d}"
        )
    return "\n".join(lines)
