"""Re-scoring the study under mitigation.

:func:`evaluate_mitigation` runs the measurement campaign twice from
identical seeds — once untouched, once through the inline
:class:`~repro.mitigate.plane.MitigationAddon` — and packages both
studies plus the data plane's decision log into a
:class:`MitigationOutcome`.  :func:`render_mitigation` prints the result
family the ROADMAP asks for: residual-leak and leak-reduction tables per
service/medium/PII type, recommender deltas against
:mod:`repro.core.recommend`, and a contrast with the blocking-only
baseline from :mod:`repro.core.countermeasures` (whose per-connection
``decisions`` log uses the same ``(host, verdict, rule)`` shape as the
mitigation decisions, so the two countermeasures are directly
comparable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.pipeline import analyze_dataset
from ..core.recommend import PrivacyPreferences, Recommender
from ..experiment.dataset import APP, WEB
from ..experiment.runner import ExperimentRunner
from ..pii.types import TABLE1_ORDER
from ..services.world import build_world
from .plane import MitigationAddon
from .policy import PARTIES, MitigationPolicy

OSES = ("android", "ios")


@dataclass
class MitigationOutcome:
    """Baseline vs mitigated study, plus the inline decision record."""

    policy: MitigationPolicy
    seed: int
    duration: float
    baseline: object  # StudyResult
    mitigated: object  # StudyResult
    addon: MitigationAddon
    blocking: list = field(default_factory=list)  # list[BlockingOutcome]

    # -- aggregation --------------------------------------------------------

    def leak_counts(self, study) -> dict:
        """``(service, medium) -> leak count`` summed over OSes."""
        out: dict = {}
        for analysis in study.analyses():
            key = (analysis.service, analysis.medium)
            out[key] = out.get(key, 0) + len(analysis.leaks)
        return out

    def type_counts(self, study) -> dict:
        """``(pii_type, medium) -> leak count`` over the whole study."""
        out: dict = {}
        for analysis in study.analyses():
            for leak in analysis.leaks:
                key = (leak.pii_type, analysis.medium)
                out[key] = out.get(key, 0) + 1
        return out

    def total_leaks(self, study) -> int:
        return sum(len(analysis.leaks) for analysis in study.analyses())

    @property
    def reduction(self) -> float:
        """Fraction of baseline leak events eliminated by mitigation."""
        before = self.total_leaks(self.baseline)
        if not before:
            return 0.0
        return 1.0 - self.total_leaks(self.mitigated) / before

    def residual_types(self) -> set:
        return {
            leak.pii_type
            for analysis in self.mitigated.analyses()
            for leak in analysis.leaks
        }

    def recommender_deltas(
        self, preferences: Optional[PrivacyPreferences] = None
    ) -> list:
        """``(service, os, before choice, after choice)`` for every cell,
        flipped cells first."""
        before = Recommender(self.baseline, preferences)
        after = Recommender(self.mitigated, preferences)
        rows = []
        for os_name in OSES:
            after_by_slug = {
                rec.service: rec for rec in after.recommend_all(os_name)
            }
            for rec in before.recommend_all(os_name):
                mitigated_rec = after_by_slug.get(rec.service)
                if mitigated_rec is None:
                    continue
                rows.append(
                    (rec.service, os_name, rec.choice, mitigated_rec.choice)
                )
        return sorted(rows, key=lambda row: (row[2] == row[3], row[0], row[1]))

    def recommender_summaries(
        self, preferences: Optional[PrivacyPreferences] = None
    ) -> dict:
        """``os -> (summary before, summary after)`` choice tallies."""
        before = Recommender(self.baseline, preferences)
        after = Recommender(self.mitigated, preferences)
        return {
            os_name: (before.summary(os_name), after.summary(os_name))
            for os_name in OSES
        }


def evaluate_mitigation(
    services: list,
    policy: MitigationPolicy,
    seed: int = 2016,
    duration: float = 240.0,
    train_recon: bool = True,
    executor=1,
    blocking: bool = True,
    record_latency: bool = True,
) -> MitigationOutcome:
    """Run the study with and without the policy from identical seeds.

    Both campaigns use fresh worlds and the same seed, so the only
    difference between the two studies is the data plane.  ``blocking``
    additionally runs the EasyList blocking-only web baseline per
    service (two extra web sessions each) for the contrast table.
    """
    baseline_world = build_world(services)
    baseline_runner = ExperimentRunner(baseline_world, seed=seed)
    baseline_dataset = baseline_runner.run_study(services, duration=duration)
    baseline = analyze_dataset(
        baseline_dataset, services, train_recon=train_recon, executor=executor
    )

    mitigated_world = build_world(services)
    mitigated_runner = ExperimentRunner(mitigated_world, seed=seed)
    addon = MitigationAddon(
        policy, services, seed=seed, record_latency=record_latency
    )
    mitigated_dataset = mitigated_runner.run_study(
        services, duration=duration, mitigation=addon
    )
    mitigated = analyze_dataset(
        mitigated_dataset, services, train_recon=train_recon, executor=executor
    )

    outcomes = []
    if blocking:
        from ..core.countermeasures import evaluate_blocking

        for spec in services:
            os_name = "android" if "android" in spec.oses else spec.oses[0]
            outcomes.append(
                evaluate_blocking(spec, os_name, seed=seed, duration=duration)
            )

    return MitigationOutcome(
        policy=policy,
        seed=seed,
        duration=duration,
        baseline=baseline,
        mitigated=mitigated,
        addon=addon,
        blocking=outcomes,
    )


# -- rendering ---------------------------------------------------------------


def _render_policy(policy: MitigationPolicy) -> list:
    lines = [f"policy: {policy.label} (default action: {policy.default_action})"]
    header = f"  {'type':12s}" + "".join(f"{party:>14s}" for party in PARTIES)
    lines.append(header)
    for pii_type in TABLE1_ORDER:
        actions = [policy.action_for(pii_type, party) for party in PARTIES]
        if all(action == policy.default_action for action in actions):
            continue
        lines.append(
            f"  {pii_type.value:12s}" + "".join(f"{action:>14s}" for action in actions)
        )
    return lines


def _render_reduction(outcome: MitigationOutcome) -> list:
    before = outcome.leak_counts(outcome.baseline)
    after = outcome.leak_counts(outcome.mitigated)
    services = sorted({service for service, _ in before} | {s for s, _ in after})
    lines = ["leak events per service/medium (baseline -> mitigated):"]
    lines.append(f"  {'service':16s}{'app':>16s}{'web':>16s}")
    for service in services:
        cells = []
        for medium in (APP, WEB):
            b = before.get((service, medium), 0)
            a = after.get((service, medium), 0)
            cells.append(f"{b:5d} -> {a:4d}")
        lines.append(f"  {service:16s}{cells[0]:>16s}{cells[1]:>16s}")
    total_before = outcome.total_leaks(outcome.baseline)
    total_after = outcome.total_leaks(outcome.mitigated)
    lines.append(
        f"  total: {total_before} -> {total_after} "
        f"({100 * outcome.reduction:.0f}% reduction)"
    )
    return lines


def _render_residual(outcome: MitigationOutcome) -> list:
    before = outcome.type_counts(outcome.baseline)
    after = outcome.type_counts(outcome.mitigated)
    lines = ["residual leaks per PII type (baseline -> mitigated):"]
    lines.append(f"  {'type':12s}{'app':>16s}{'web':>16s}")
    for pii_type in TABLE1_ORDER:
        row_before = [before.get((pii_type, medium), 0) for medium in (APP, WEB)]
        row_after = [after.get((pii_type, medium), 0) for medium in (APP, WEB)]
        if not any(row_before) and not any(row_after):
            continue
        cells = [
            f"{b:5d} -> {a:4d}" for b, a in zip(row_before, row_after)
        ]
        lines.append(f"  {pii_type.value:12s}{cells[0]:>16s}{cells[1]:>16s}")
    residual = sorted(t.value for t in outcome.residual_types())
    lines.append(f"  residual types: {', '.join(residual) if residual else 'none'}")
    return lines


def _render_decisions(outcome: MitigationOutcome) -> list:
    summary = outcome.addon.decision_summary()
    latency = outcome.addon.latency_percentiles()
    lines = ["inline decisions:"]
    lines.append(
        f"  requests seen {summary['requests_seen']}, "
        f"rewritten {summary['requests_rewritten']}, "
        f"blocked {summary['requests_blocked']}"
    )
    by_action = ", ".join(
        f"{action}={count}" for action, count in summary["by_action"].items()
    )
    by_party = ", ".join(
        f"{party}={count}" for party, count in summary["by_party"].items()
    )
    lines.append(f"  verdicts by action: {by_action or 'none'}")
    lines.append(f"  verdicts by party: {by_party or 'none'}")
    if latency["count"]:
        lines.append(
            f"  decision latency: p50 {latency['p50_us']:.1f}us, "
            f"p99 {latency['p99_us']:.1f}us over {latency['count']} requests"
        )
    return lines


def _render_blocking_contrast(outcome: MitigationOutcome) -> list:
    if not outcome.blocking:
        return []
    mitigated_web = outcome.leak_counts(outcome.mitigated)
    lines = ["blocking-only contrast (web medium):"]
    lines.append(
        f"  {'service':16s}{'baseline':>10s}{'blocking':>10s}{'mitigation':>12s}"
        f"{'conns blocked':>15s}"
    )
    for blocking_outcome in outcome.blocking:
        service = blocking_outcome.service
        lines.append(
            f"  {service:16s}"
            f"{len(blocking_outcome.baseline.leaks):>10d}"
            f"{len(blocking_outcome.protected.leaks):>10d}"
            f"{mitigated_web.get((service, WEB), 0):>12d}"
            f"{blocking_outcome.connections_blocked:>15d}"
        )
    lines.append(
        "  (blocking counts one web session; mitigation counts every web "
        "cell of the study)"
    )
    return lines


def _render_recommender(outcome: MitigationOutcome) -> list:
    lines = ["recommender deltas:"]
    for os_name, (before, after) in sorted(outcome.recommender_summaries().items()):
        lines.append(f"  {os_name}: before {before} -> after {after}")
    flips = [row for row in outcome.recommender_deltas() if row[2] != row[3]]
    if flips:
        lines.append("  flipped choices:")
        for service, os_name, was, now in flips:
            lines.append(f"    {service:16s}{os_name:8s}{was} -> {now}")
    else:
        lines.append("  flipped choices: none")
    return lines


def render_mitigation(outcome: MitigationOutcome) -> str:
    """Human-readable mitigation report (``repro mitigate``)."""
    sections = [
        _render_policy(outcome.policy),
        _render_reduction(outcome),
        _render_residual(outcome),
        _render_decisions(outcome),
        _render_blocking_contrast(outcome),
        _render_recommender(outcome),
    ]
    return "\n\n".join("\n".join(lines) for lines in sections if lines)
