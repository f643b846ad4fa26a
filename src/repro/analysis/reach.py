"""Cross-platform tracker reach (§4.2 "Recipients of PII Leaks").

The paper observes that "services tend to utilize the same trackers and
ad networks across platforms" and that "third-parties are leveraging
different platforms to expand the set of data that they collect about
users".  This module quantifies both claims per tracker:

- **reach**: how many of the studied services expose the user to the
  tracker, per medium and combined;
- **linkability**: which identifier classes the tracker receives on each
  medium, and whether it obtains a *cross-platform join key* — a stable
  identifier (email, name, phone, username) seen on both media, which
  would let it link one user's app and web sessions.  Device IDs alone
  cannot do that (web sessions never carry them), which is exactly the
  paper's point about platform-specific tracking mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..experiment.dataset import APP
from ..pii.types import PiiType
from . import columnar

# Identifier classes stable across media for the same user; a tracker
# holding one of these from both the app and the web side can join the
# two profiles.
CROSS_PLATFORM_KEYS = frozenset(
    {PiiType.EMAIL, PiiType.NAME, PiiType.PHONE, PiiType.USERNAME}
)


@dataclass
class TrackerReach:
    """Exposure and linkability profile of one A&A domain."""

    domain: str
    services_app: set = field(default_factory=set)
    services_web: set = field(default_factory=set)
    types_app: set = field(default_factory=set)
    types_web: set = field(default_factory=set)

    @property
    def services_any(self) -> set:
        return self.services_app | self.services_web

    @property
    def services_both(self) -> set:
        return self.services_app & self.services_web

    @property
    def reach(self) -> int:
        return len(self.services_any)

    @property
    def app_exclusive_types(self) -> set:
        """Identifier classes obtained from apps only (the paper's
        'leveraging different platforms' observation)."""
        return self.types_app - self.types_web

    @property
    def join_keys(self) -> set:
        """Stable identifiers received on BOTH media."""
        return self.types_app & self.types_web & CROSS_PLATFORM_KEYS

    @property
    def can_link_cross_platform(self) -> bool:
        return bool(self.join_keys)


def tracker_reach(study) -> dict:
    """Compute :class:`TrackerReach` for every A&A domain in a study.

    Replays cells in the row-wise iteration order (the aggregate's
    per-cell ``order``): a leak recipient only accrues identifier types
    once the domain has already appeared as an A&A contact in the same
    or an earlier cell — the entry-creation rule of the row-wise
    reference in :mod:`repro.qa.reference`.
    """
    reaches: dict = {}
    for cell in columnar.study_aggregate(study).ordered_cells():
        slug = cell.service
        medium = cell.medium
        # Sorted, not raw set iteration: entry creation order is dict
        # insertion order, which the summary's max() and the table's
        # stable sort break ties by — raw iteration would make those
        # ties vary with PYTHONHASHSEED (same fix as Table 2's domain
        # loop).
        for domain in sorted(cell.aa_domains):
            entry = reaches.get(domain)
            if entry is None:
                entry = reaches[domain] = TrackerReach(domain=domain)
            (entry.services_app if medium == APP else entry.services_web).add(slug)
        for (domain, host, pii), count in cell.leak_groups.items():
            entry = reaches.get(domain)
            if entry is None:
                continue  # non-A&A recipient (identity providers)
            (entry.types_app if medium == APP else entry.types_web).add(pii)
    return reaches


@dataclass
class ReachSummary:
    """Study-wide cross-platform tracking picture."""

    trackers: int
    cross_platform_trackers: int  # present on both media for >=1 service
    linkers: list  # domains holding a cross-platform join key
    app_exclusive_collectors: list  # domains with app-only identifier types
    max_reach_domain: str
    max_reach: int


def summarize_reach(study) -> ReachSummary:
    """Aggregate the per-tracker picture into the §4.2 headline claims."""
    return _summarize_reaches(tracker_reach(study))


def _summarize_reaches(reaches: dict) -> ReachSummary:
    if not reaches:
        raise ValueError("study produced no A&A exposure to summarize")
    cross = [r for r in reaches.values() if r.services_both]
    linkers = sorted(r.domain for r in reaches.values() if r.can_link_cross_platform)
    exclusive = sorted(
        r.domain for r in reaches.values() if r.app_exclusive_types and r.types_app
    )
    top = max(reaches.values(), key=lambda r: r.reach)
    return ReachSummary(
        trackers=len(reaches),
        cross_platform_trackers=len(cross),
        linkers=linkers,
        app_exclusive_collectors=exclusive,
        max_reach_domain=top.domain,
        max_reach=top.reach,
    )


def render_reach(study, top: int = 15) -> str:
    """Text table of the highest-reach trackers."""
    return _render_reaches(tracker_reach(study), top)


def _render_reaches(reaches: dict, top: int) -> str:
    reaches = sorted(reaches.values(), key=lambda r: -r.reach)[:top]
    header = (
        f"{'A&A Domain':24s} {'reach':>5s} {'app':>4s} {'web':>4s} {'both':>4s} "
        f"{'app-only types':16s} {'join keys'}"
    )
    lines = [header, "-" * len(header)]
    for entry in reaches:
        app_only = ",".join(sorted(t.code for t in entry.app_exclusive_types)) or "-"
        keys = ",".join(sorted(t.code for t in entry.join_keys)) or "-"
        lines.append(
            f"{entry.domain:24s} {entry.reach:5d} {len(entry.services_app):4d} "
            f"{len(entry.services_web):4d} {len(entry.services_both):4d} "
            f"{app_only:16s} {keys}"
        )
    return "\n".join(lines)
