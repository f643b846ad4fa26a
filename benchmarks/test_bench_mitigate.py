"""Mitigation data-plane benchmarks: inline latency and off-overhead.

Three questions, one file:

- what does an inline mitigation decision cost per request (p50/p99,
  from the addon's own perf counters) — the microsecond budget the
  data plane is designed to;
- what is the collection throughput with the default policy enforcing
  (flows/sec, mitigation on vs off);
- what does a *disabled* data plane cost (hard acceptance bar:
  an installed all-allow policy keeps min-of-rounds collection time
  within 5% of a plain run — mitigation off must stay free).

The enforcing bench also asserts the residual-leak invariant — a fast
data plane that leaks is not a result.
"""

import time

import pytest

from repro.core.pipeline import analyze_dataset
from repro.experiment.runner import ExperimentRunner
from repro.mitigate import MitigationAddon, MitigationPolicy, default_policy
from repro.services.catalog import build_catalog
from repro.services.world import build_world

SUBSET = ("weather", "grubhub", "cnn")

#: Wall-clock rounds for the on/off contrast; min-of-rounds is compared
#: so a background hiccup in one round cannot fail the 5% bar.
ROUNDS = 3

#: Generous ceilings for the inline decision path on a loaded CI host;
#: a quiet machine measures p50 in single-digit microseconds.
P50_BUDGET_US = 200.0
P99_BUDGET_US = 10_000.0


def _specs(slugs=SUBSET):
    by_slug = {s.slug: s for s in build_catalog()}
    return [by_slug[slug] for slug in slugs]


def _collect(specs, mitigation=None):
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=2016)
    return runner.run_study(specs, duration=240.0, mitigation=mitigation)


def _min_of_rounds(fn, rounds=ROUNDS):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_bench_mitigate_enforcing(benchmark, capsys):
    """Collection throughput with the default policy enforcing inline.

    Records flows/sec and the addon's own per-request decision latency
    percentiles, and asserts the decision path held its microsecond
    budget and the residual-leak invariant."""
    specs = _specs()
    policy = default_policy()
    addons = []

    def run():
        addon = MitigationAddon(policy, specs, seed=2016)
        addons.append(addon)
        return _collect(specs, mitigation=addon)

    dataset = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    flows = dataset.total_flows()
    rate = flows / benchmark.stats.stats.min

    addon = addons[-1]
    latency = addon.latency_percentiles()
    assert latency["count"] == addon.requests_seen
    assert latency["p50_us"] < P50_BUDGET_US
    assert latency["p99_us"] < P99_BUDGET_US

    study = analyze_dataset(dataset, specs, train_recon=True)
    covered = set(policy.covered_types())
    for analysis in study.analyses():
        for leak in analysis.leaks:
            assert leak.pii_type not in covered

    with capsys.disabled():
        print(
            f"\n  mitigate on : {rate:.0f} flows/s  "
            f"decision p50 {latency['p50_us']:.1f}us "
            f"p99 {latency['p99_us']:.1f}us "
            f"({latency['count']} requests)"
        )


def test_bench_mitigate_off_overhead(benchmark, capsys):
    """Hard acceptance bar: mitigation off costs < 5%.

    A plain collection and one with an installed-but-inert (all-allow)
    policy are timed back to back; the inert run's min-of-rounds must
    stay within 5% of the plain run's."""
    specs = _specs()

    plain_best = _min_of_rounds(lambda: _collect(specs))

    def run_inert():
        return _collect(specs, mitigation=MitigationPolicy(label="inert"))

    benchmark.pedantic(run_inert, rounds=ROUNDS, iterations=1)
    inert_best = benchmark.stats.stats.min

    overhead = inert_best / plain_best - 1.0
    with capsys.disabled():
        print(
            f"\n  mitigate off: plain {plain_best:.3f}s vs inert {inert_best:.3f}s "
            f"({100 * overhead:+.1f}% overhead)"
        )
    assert inert_best <= plain_best * 1.05, (
        f"disabled data plane costs {100 * overhead:.1f}% (> 5%): "
        f"plain {plain_best:.3f}s, inert {inert_best:.3f}s"
    )
