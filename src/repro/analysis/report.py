"""Paper-versus-measured report generation.

Builds the EXPERIMENTS.md-style comparison: for every quantity the paper
publishes (Table 1 rates, Table 2 rows, Table 3 counts, the Figure 1
headline percentages), emit the paper value next to the measured value
from a study run.  The report is regenerable via ``repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiment.dataset import APP, WEB
from ..pii.types import PiiType
from . import columnar
from .columnar import StudyAggregate
from .figures import fig1a, fig1b, fig1c, fig1d, fig1e, fig1f
from .stats import fraction
from .tables import table1, table2, table3

# ---------------------------------------------------------------------------
# Paper ground truth (IMC 2016)
# ---------------------------------------------------------------------------

PAPER_TABLE1_RATES = {
    ("All", APP): 92.0,
    ("All", WEB): 78.0,
    ("Android", APP): 85.4,
    ("Android", WEB): 52.1,
    ("iOS", APP): 86.0,
    ("iOS", WEB): 76.0,
    ("Business", APP): 100.0, ("Business", WEB): 50.0,
    ("Education", APP): 75.0, ("Education", WEB): 50.0,
    ("Entertainment", APP): 66.7, ("Entertainment", WEB): 50.0,
    ("Lifestyle", APP): 100.0, ("Lifestyle", WEB): 100.0,
    ("Music", APP): 100.0, ("Music", WEB): 50.0,
    ("News", APP): 100.0, ("News", WEB): 100.0,
    ("Shopping", APP): 100.0, ("Shopping", WEB): 77.8,
    ("Social", APP): 100.0, ("Social", WEB): 100.0,
    ("Travel", APP): 91.7, ("Travel", WEB): 91.7,
    ("Weather", APP): 100.0, ("Weather", WEB): 100.0,
}

PAPER_TABLE1_DOMAINS = {
    ("All", APP): (4.7, 4.7),
    ("All", WEB): (3.5, 3.1),
    ("Android", APP): (2.4, 3.4),
    ("Android", WEB): (2.6, 2.8),
    ("iOS", APP): (4.1, 4.4),
    ("iOS", WEB): (3.1, 2.8),
}

PAPER_TABLE3 = {
    # type: (svc app, svc both, svc web, avg app, avg web, dom app, dom both, dom web)
    PiiType.LOCATION: (30, 21, 26, 367.7, 295.2, 84, 37, 76),
    PiiType.NAME: (9, 8, 16, 77.1, 138.2, 11, 7, 26),
    PiiType.UNIQUE_ID: (40, 0, 0, 39.0, 0.0, 65, 0, 0),
    PiiType.USERNAME: (3, 1, 5, 23.0, 89.8, 4, 2, 10),
    PiiType.GENDER: (4, 1, 8, 2.8, 25.0, 4, 1, 11),
    PiiType.PHONE: (3, 1, 2, 12.7, 60.5, 3, 1, 2),
    PiiType.EMAIL: (11, 3, 8, 2.2, 15.5, 10, 2, 8),
    PiiType.DEVICE_INFO: (15, 0, 0, 2.7, 0.0, 13, 0, 0),
    PiiType.PASSWORD: (4, 2, 3, 2.8, 1.7, 4, 2, 2),
    PiiType.BIRTHDAY: (1, 0, 1, 1.0, 3.0, 1, 0, 2),
}

PAPER_TABLE2 = {
    # domain: (svc app, svc both, svc web, avg leaks app, avg leaks web)
    "amobee.com": (1, 1, 1, 517.0, 314.0),
    "moatads.com": (9, 7, 12, 61.4, 0.2),
    "vrvm.com": (2, 0, 0, 136.0, 0.0),
    "google-analytics.com": (35, 32, 41, 1.8, 2.7),
    "facebook.com": (38, 36, 41, 3.7, 0.4),
    "groceryserver.com": (1, 1, 1, 154.0, 0.0),
    "serving-sys.com": (10, 4, 6, 15.3, 0.0),
    "googlesyndication.com": (16, 14, 23, 7.0, 0.8),
    "thebrighttag.com": (4, 2, 4, 29.5, 0.0),
    "tiqcdn.com": (5, 5, 9, 16.0, 3.1),
    "marinsm.com": (1, 1, 3, 96.0, 1.0),
    "criteo.com": (7, 6, 22, 8.9, 1.1),
    "2mdn.net": (14, 9, 17, 5.8, 0.0),
    "monetate.net": (1, 1, 2, 74.0, 0.0),
    "247realmedia.com": (1, 1, 2, 48.0, 12.0),
    "krxd.net": (7, 6, 13, 8.3, 0.0),
    "doubleverify.com": (3, 2, 7, 19.3, 0.0),
    "cloudinary.com": (1, 1, 1, 0.0, 58.0),
    "webtrends.com": (1, 1, 1, 56.0, 0.0),
    "liftoff.io": (1, 0, 0, 54.0, 0.0),
}

PAPER_FIGURES = {
    "1a": {"android": 83.0, "ios": 78.0},  # % services, web contacts more A&A
    "1b": {"android": 73.0, "ios": 80.0},  # % services, more flows to A&A on web
    "1f_zero": 50.0,  # > half of services share no leaked types
    "1f_half": 85.0,  # 80-90% share at most half
}


@dataclass
class ComparisonLine:
    """One paper-vs-measured data point."""

    section: str
    label: str
    paper: str
    measured: str

    def as_row(self) -> str:
        return f"| {self.label} | {self.paper} | {self.measured} |"


def _table1_lines(agg: StudyAggregate) -> list:
    lines = []
    rows = {(r.group, r.medium): r for r in table1(agg)}
    for key, paper_rate in PAPER_TABLE1_RATES.items():
        row = rows.get(key)
        if row is None:
            continue
        lines.append(
            ComparisonLine(
                "Table 1 — services leaking PII (%)",
                f"{key[0]} {key[1]}",
                f"{paper_rate:.1f}%",
                f"{row.pct_leaking:.1f}%",
            )
        )
    for key, (paper_mu, paper_sigma) in PAPER_TABLE1_DOMAINS.items():
        row = rows.get(key)
        if row is None:
            continue
        lines.append(
            ComparisonLine(
                "Table 1 — avg domains receiving leaks",
                f"{key[0]} {key[1]}",
                f"{paper_mu:.1f} ± {paper_sigma:.1f}",
                f"{row.domains_mean:.1f} ± {row.domains_std:.1f}",
            )
        )
    return lines


def _table2_lines(agg: StudyAggregate) -> list:
    lines = []
    measured = {r.domain: r for r in table2(agg, top=100)}
    for domain, (svc_a, svc_b, svc_w, avg_a, avg_w) in PAPER_TABLE2.items():
        row = measured.get(domain)
        if row is None:
            lines.append(
                ComparisonLine("Table 2 — top A&A recipients", domain,
                               f"{svc_a}/{svc_b}/{svc_w} svc, {avg_a:.1f}/{avg_w:.1f} leaks",
                               "not in measured top set")
            )
            continue
        lines.append(
            ComparisonLine(
                "Table 2 — top A&A recipients",
                domain,
                f"{svc_a}/{svc_b}/{svc_w} svc, {avg_a:.1f}/{avg_w:.1f} leaks",
                f"{row.services_app}/{row.services_both}/{row.services_web} svc, "
                f"{row.avg_leaks_app:.1f}/{row.avg_leaks_web:.1f} leaks",
            )
        )
    return lines


def _table3_lines(agg: StudyAggregate) -> list:
    lines = []
    measured = {r.pii_type: r for r in table3(agg)}
    for pii_type, paper in PAPER_TABLE3.items():
        row = measured.get(pii_type)
        svc = f"{paper[0]}/{paper[1]}/{paper[2]}"
        avg = f"{paper[3]:.1f}/{paper[4]:.1f}"
        dom = f"{paper[5]}/{paper[6]}/{paper[7]}"
        if row is None:
            lines.append(
                ComparisonLine("Table 3 — per-identifier", pii_type.label,
                               f"svc {svc}, avg {avg}, dom {dom}", "not measured")
            )
            continue
        lines.append(
            ComparisonLine(
                "Table 3 — per-identifier",
                pii_type.label,
                f"svc {svc}, avg {avg}, dom {dom}",
                f"svc {row.services_app}/{row.services_both}/{row.services_web}, "
                f"avg {row.avg_leaks_app:.1f}/{row.avg_leaks_web:.1f}, "
                f"dom {row.domains_app}/{row.domains_both}/{row.domains_web}",
            )
        )
    return lines


def _figure_lines(agg: StudyAggregate) -> list:
    lines = []
    a = fig1a(agg)
    b = fig1b(agg)
    for os_name in ("android", "ios"):
        lines.append(
            ComparisonLine(
                "Figure 1a — web contacts more A&A domains",
                os_name,
                f"{PAPER_FIGURES['1a'][os_name]:.0f}%",
                f"{a[os_name].percent_leq(-1):.0f}%",
            )
        )
    for os_name in ("android", "ios"):
        lines.append(
            ComparisonLine(
                "Figure 1b — more flows to A&A on web",
                os_name,
                f"{PAPER_FIGURES['1b'][os_name]:.0f}%",
                f"{b[os_name].percent_leq(-1):.0f}%",
            )
        )
    c = fig1c(agg)
    for os_name in ("android", "ios"):
        lines.append(
            ComparisonLine(
                "Figure 1c — (app−web) MB to A&A",
                os_name,
                "x range ≈ [-5, +3] MB, mostly negative",
                f"range [{min(c[os_name].values):.1f}, {max(c[os_name].values):.1f}] MB, "
                f"{c[os_name].percent_leq(-0.001):.0f}% negative",
            )
        )
    d = fig1d(agg)
    for os_name in ("android", "ios"):
        positive = 100 * fraction(d[os_name].values, lambda v: v > 0)
        lines.append(
            ComparisonLine(
                "Figure 1d — domains receiving PII",
                os_name,
                "slight bias toward apps",
                f"{positive:.0f}% of services lean app",
            )
        )
    e = fig1e(agg)
    for os_name in ("android", "ios"):
        bins = dict(e[os_name].points)
        mode = max(bins, key=bins.get)
        lines.append(
            ComparisonLine(
                "Figure 1e — leaked-identifier diff PDF",
                os_name,
                "mode at +1, positive bias",
                f"mode at {mode:+d}, "
                f"{100 * fraction(e[os_name].values, lambda v: v > 0):.0f}% positive",
            )
        )
    f = fig1f(agg)
    for os_name in ("android", "ios"):
        lines.append(
            ComparisonLine(
                "Figure 1f — Jaccard of leaked types",
                os_name,
                "≥50% at 0; 80-90% ≤ 0.5",
                f"{f[os_name].percent_leq(0.0):.0f}% at 0; "
                f"{f[os_name].percent_leq(0.5):.0f}% ≤ 0.5",
            )
        )
    return lines


def build_comparison(study) -> list:
    """Every paper-vs-measured line, grouped by section; all three
    tables and six figure panels read one aggregate of ``study``."""
    agg = columnar.study_aggregate(study)
    lines = []
    lines.extend(_table1_lines(agg))
    lines.extend(_table2_lines(agg))
    lines.extend(_table3_lines(agg))
    lines.extend(_figure_lines(agg))
    return lines


def render_markdown(study, seed: int = 2016, duration: float = 240.0) -> str:
    """Render the full EXPERIMENTS.md body."""
    lines = build_comparison(study)
    sections: dict = {}
    for line in lines:
        sections.setdefault(line.section, []).append(line)

    out = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of *Should You Use the App for That?* (IMC 2016).",
        f"Study parameters: seed={seed}, session duration={duration:.0f}s, "
        "50 services × (app, web) × (Android 4.4, iOS 9.3.1).",
        "",
        "Absolute magnitudes are not expected to match — the substrate is a",
        "calibrated simulation, not the authors' 2016 testbed — but the",
        "*shape* (who leaks, where, who wins, by roughly what factor) must.",
        "Regenerate with `repro report` or",
        "`python -m repro.cli report > EXPERIMENTS.md`.",
        "",
        "Every quantity below is measured for the paper's single-tester",
        "design point.  `repro campaign --population N --cohorts os,medium",
        "--seed S` re-measures the study across a whole simulated",
        "population instead (personas drawn from a `--population-spec`",
        "JSON of distributions) and reports the same tables per cohort",
        "with Wilson and bootstrap confidence intervals; `--shards` and",
        "`--workers` control execution without changing a single output",
        "byte.",
        "",
    ]
    for section, section_lines in sections.items():
        out.append(f"## {section}")
        out.append("")
        out.append("| Quantity | Paper | Measured |")
        out.append("|---|---|---|")
        for line in section_lines:
            out.append(line.as_row())
        out.append("")
    return "\n".join(out)
