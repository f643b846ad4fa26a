"""Figure generators: the six panels of Figure 1.

Each generator returns a :class:`FigureSeries` per OS containing the raw
per-service values and the empirical CDF/PDF points exactly as plotted:

- 1a: CDF of (app − web) unique A&A domains contacted
- 1b: CDF of (app − web) flows to A&A domains
- 1c: CDF of (app − web) megabytes to A&A domains
- 1d: CDF of (app − web) domains receiving PII
- 1e: PDF of (app − web) distinct leaked identifiers
- 1f: CDF of the Jaccard index of leaked identifier sets

Every panel is a pure function of one OS's per-service diffs
(:func:`panel_series`).  The generators take those diffs from the
columnar aggregate (:func:`~repro.analysis.columnar.aggregate_diffs`),
which is pinned equal to :func:`repro.core.compare.study_diffs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import columnar
from .stats import cdf_at, cdf_points, pdf_histogram

OSES = ("android", "ios")


@dataclass
class FigureSeries:
    """One OS curve of one figure panel."""

    figure: str
    os_name: str
    values: list
    points: list  # (x, percent) pairs — CDF steps or PDF bins
    kind: str = "cdf"

    def percent_leq(self, x: float) -> float:
        """CDF convenience: percent of services with value <= x."""
        if self.kind != "cdf":
            raise ValueError("percent_leq only applies to CDF series")
        return cdf_at(self.values, x)

    @property
    def n(self) -> int:
        return len(self.values)


#: Panel id -> (plot kind, the values plotted for one OS's diffs).
PANELS = {
    "1a": ("cdf", lambda diffs: [d.aa_domains for d in diffs]),
    "1b": ("cdf", lambda diffs: [d.aa_flows for d in diffs]),
    "1c": ("cdf", lambda diffs: [d.aa_megabytes for d in diffs]),
    "1d": ("cdf", lambda diffs: [d.leak_domains for d in diffs]),
    "1e": ("pdf", lambda diffs: [d.leak_identifiers for d in diffs]),
    # Services with no leaks on either medium (Jaccard of two empty
    # sets) are excluded, matching a plot of observed leak overlap.
    "1f": (
        "cdf",
        lambda diffs: [
            d.jaccard_identifiers
            for d in diffs
            if d.app_leak_types or d.web_leak_types
        ],
    ),
}


def panel_series(figure: str, os_name: str, diffs: list) -> FigureSeries:
    """One panel's curve for one OS, from that OS's per-service diffs."""
    kind, values_of = PANELS[figure]
    values = values_of(diffs)
    points = cdf_points(values) if kind == "cdf" else pdf_histogram(values)
    return FigureSeries(
        figure=figure, os_name=os_name, values=values, points=points, kind=kind
    )


def _figure(figure: str, study) -> dict:
    agg = columnar.study_aggregate(study)
    return {
        os_name: panel_series(figure, os_name, columnar.aggregate_diffs(agg, os_name))
        for os_name in OSES
    }


def fig1a(study) -> dict:
    """(App − Web) A&A domains contacted, per OS."""
    return _figure("1a", study)


def fig1b(study) -> dict:
    """(App − Web) flows to A&A domains, per OS."""
    return _figure("1b", study)


def fig1c(study) -> dict:
    """(App − Web) MB of traffic to A&A domains, per OS."""
    return _figure("1c", study)


def fig1d(study) -> dict:
    """(App − Web) count of domains receiving PII, per OS."""
    return _figure("1d", study)


def fig1e(study) -> dict:
    """PDF of (App − Web) distinct leaked identifier counts, per OS."""
    return _figure("1e", study)


def fig1f(study) -> dict:
    """CDF of the Jaccard index of leaked identifier sets, per OS
    (services leaking nothing on either medium are excluded)."""
    return _figure("1f", study)


ALL_FIGURES = {
    "1a": fig1a,
    "1b": fig1b,
    "1c": fig1c,
    "1d": fig1d,
    "1e": fig1e,
    "1f": fig1f,
}


def render_series(series: FigureSeries, width: int = 60) -> str:
    """ASCII rendering of one curve, for the bench harness output."""
    lines = [f"Figure {series.figure} ({series.os_name}, n={series.n}, {series.kind})"]
    if not series.points:
        lines.append("  (no data)")
        return "\n".join(lines)
    for x, pct in series.points:
        bar = "#" * int(pct / 100.0 * width)
        if isinstance(x, float):
            lines.append(f"  {x:10.2f} {pct:6.1f}% {bar}")
        else:
            lines.append(f"  {x:10d} {pct:6.1f}% {bar}")
    return "\n".join(lines)
