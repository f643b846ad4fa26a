"""Columnar aggregation benchmarks: the engine's acceptance bar.

One large synthetic study (hundreds of cells, hundreds of thousands of
leak events) is pushed through the complete Table/Figure/reach/drift
suite twice — once over the row-wise object graph by the reference
walkers of ``repro.qa.reference``, once through the production
consumers over ``repro.analysis.columnar`` — and three things are
measured:

- the row-wise reference suite (the bar to beat);
- the columnar suite, *including* the encode + kernel + merge cost;
- the direct speedup assert: columnar must be >= 5x (the recorded
  number targets >= 10x), and the rendered output must be identical
  byte for byte — a fast wrong answer is not a result.

The synthetic study shares one LeakRecord object per unique
(domain, hostname, pii) triple and repeats references per event, so the
dataset is large in *iteration* cost (what the engines differ on)
without hundreds of megabytes of object allocation.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis.columnar import merge_aggregates, shard_aggregates, study_aggregate
from repro.analysis.figures import ALL_FIGURES, render_series
from repro.analysis.longitudinal import render_drift, summarize_drift
from repro.analysis.reach import render_reach
from repro.analysis.tables import (
    CATEGORY_ORDER,
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)
from repro.core.leaks import THIRD_PARTY, LeakRecord
from repro.core.pipeline import ServiceResult, SessionAnalysis, StudyResult
from repro.experiment.dataset import APP, WEB
from repro.pii.detector import PiiObservation
from repro.pii.types import PiiType
from repro.qa import reference
from repro.services.service import ServiceSpec
from repro.trackerdb.categorize import THIRD_PARTY_AA, FlowCategory

N_SERVICES = 120
TRACKERS = [f"tracker{i:02d}.example" for i in range(40)]
AA_PER_CELL = 18
GROUPS_PER_CELL = 20
EVENTS_PER_CELL = 500


def build_synthetic_study(seed: int = 7) -> StudyResult:
    """A study far larger than the 50-service catalog: 480 cells,
    240k leak events, deterministic for ``seed``."""
    rng = random.Random(seed)
    pii_types = list(PiiType)
    services = []
    for index in range(N_SERVICES):
        slug = f"svc{index:04d}"
        spec = ServiceSpec(
            name=f"Service {index}",
            slug=slug,
            category=CATEGORY_ORDER[index % len(CATEGORY_ORDER)],
            rank=index + 1,
            domain=f"{slug}.example",
        )
        result = ServiceResult(spec=spec)
        for os_name in spec.oses:
            for medium in (APP, WEB):
                analysis = SessionAnalysis(
                    service=slug, os_name=os_name, medium=medium
                )
                aa = rng.sample(TRACKERS, AA_PER_CELL)
                analysis.flows_total = rng.randint(200, 400)
                analysis.aa_domains = set(aa)
                analysis.aa_flows = rng.randint(50, 150)
                analysis.aa_bytes = rng.randint(10**5, 10**7)
                analysis.third_party_domains = set(aa)
                records = []
                for _ in range(GROUPS_PER_CELL):
                    domain = rng.choice(aa)
                    hostname = f"collect.{domain}"
                    pii_type = rng.choice(pii_types)
                    records.append(
                        LeakRecord(
                            observation=PiiObservation(
                                pii_type=pii_type,
                                hostname=hostname,
                                domain=domain,
                                url=f"https://{hostname}/i",
                                timestamp=0.0,
                                flow_id=0,
                                plaintext=False,
                                methods={"matching"},
                                encoding="identity",
                                key="k",
                                value="v",
                            ),
                            category=FlowCategory(
                                label=THIRD_PARTY_AA, domain=domain
                            ),
                            reason=THIRD_PARTY,
                        )
                    )
                # Repeated *references*: per-event iteration cost
                # without per-event allocation.
                analysis.leaks = [
                    rng.choice(records) for _ in range(EVENTS_PER_CELL)
                ]
                result.sessions[(os_name, medium)] = analysis
        services.append(result)
    return StudyResult(services=services)


#: The production consumers, in the reference module's call shapes.
PRODUCTION = SimpleNamespace(
    table1=table1,
    table2=table2,
    table3=table3,
    figure=lambda key, study: ALL_FIGURES[key](study),
    render_reach=render_reach,
    summarize_drift=summarize_drift,
)


def _render_suite(study, consumers) -> str:
    out = [
        render_table1(consumers.table1(study)),
        render_table2(consumers.table2(study)),
        render_table3(consumers.table3(study)),
    ]
    for key in sorted(ALL_FIGURES):
        for os_name, series in consumers.figure(key, study).items():
            out.append(render_series(series))
    out.append(consumers.render_reach(study))
    out.append(render_drift(consumers.summarize_drift(study, study)))
    return "\n".join(out)


def run_suite(agg) -> str:
    """Every aggregation consumer, rendered from a StudyAggregate:
    tables 1-3, all six figure panels, tracker reach, and self-drift."""
    return _render_suite(agg, PRODUCTION)


def run_reference_suite(study) -> str:
    """The same suite from a StudyResult by the row-wise walkers."""
    return _render_suite(study, reference)


@pytest.fixture(scope="module")
def synthetic_study():
    study = build_synthetic_study()
    # Warm every module-level memo (EasyList verdicts, PSL) so both
    # engines are timed on equal footing.
    expected = run_reference_suite(study)
    return study, expected


def test_bench_rows_suite(benchmark, synthetic_study):
    """The row-wise reference: full suite over the object graph."""
    study, expected = synthetic_study
    rendered = benchmark.pedantic(
        lambda: run_reference_suite(study), rounds=3, iterations=1
    )
    assert rendered == expected


def test_bench_columnar_suite(benchmark, synthetic_study):
    """The columnar engine, end to end: encode + kernel + merge + suite."""
    study, expected = synthetic_study

    def run():
        return run_suite(study_aggregate(study, executor=1))

    rendered = benchmark.pedantic(run, rounds=3, iterations=1)
    assert rendered == expected


def test_bench_columnar_kernel(benchmark, synthetic_study):
    """Encode + sharded kernels + merge alone (no consumers)."""
    study, _ = synthetic_study

    def run():
        return merge_aggregates(shard_aggregates(study, shards=4))

    agg = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(agg.cells) == N_SERVICES * 4


def test_columnar_speedup(synthetic_study, capsys):
    """Hard acceptance check: columnar >= 5x the row-wise suite (the
    recorded BENCH_columnar.json number targets >= 10x).

    The engines are timed in alternation so machine drift hits both
    equally, then best-of-rounds is compared — same methodology as the
    codec-vs-JSON check in test_bench_scaling.py.
    """
    import gc
    import time

    study, expected = synthetic_study

    def timed(fn):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    rows_times, columnar_times = [], []
    for _ in range(3):
        seconds, rendered = timed(lambda: run_reference_suite(study))
        assert rendered == expected
        rows_times.append(seconds)
        seconds, rendered = timed(lambda: run_suite(study_aggregate(study, executor=1)))
        assert rendered == expected
        columnar_times.append(seconds)
    rows_best, columnar_best = min(rows_times), min(columnar_times)
    speedup = rows_best / columnar_best
    with capsys.disabled():
        print(
            f"\n  aggregation suite: rows {rows_best:.2f}s vs "
            f"columnar {columnar_best:.2f}s (x{speedup:.1f})"
        )
    assert speedup >= 5.0, (
        f"columnar only x{speedup:.1f} over rows (need >= 5x, target >= 10x)"
    )
