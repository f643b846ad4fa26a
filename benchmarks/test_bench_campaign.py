"""Campaign-engine benchmarks: sessions/sec and merge throughput.

Two numbers, one file:

- end-to-end campaign simulation throughput (sessions/sec) on the
  serial and process backends — the number population scale-up is
  measured by, with the process backend hard-asserted >= 2x serial on
  multi-core hosts;
- shard-merge throughput (users/sec folded through the cohort merge
  algebra) over a 10,000-user synthetic campaign — the cost of the
  reduce side, which must stay negligible next to simulation.

Each simulation bench also asserts byte-identity against the serial
reference — a fast wrong answer is not a result.
"""

import os

import pytest

from repro.campaign import (
    CampaignContext,
    PopulationSpec,
    merge_campaigns,
    plan_shards,
    run_campaign,
)
from repro.services.catalog import build_catalog

SUBSET = ("weather", "grubhub", "cnn")

#: Users simulated live in the throughput benches (kept small enough
#: for CI; the synthetic merge bench is where the 10k-user scale lives).
SIM_USERS = 24

#: Users represented by the synthetic merge workload.
MERGE_USERS = 10_000


def _specs(slugs=SUBSET):
    by_slug = {s.slug: s for s in build_catalog()}
    return [by_slug[slug] for slug in slugs]


def _pop_spec():
    return PopulationSpec(
        services_per_user=(1, 2),
        sessions_per_service=(1, 1),
        session_duration=20.0,
        bootstrap_replicates=25,
    )


@pytest.fixture(scope="module")
def campaign_world():
    """(specs, pop_spec, reference_bytes) collected once for the module."""
    specs = _specs()
    pop_spec = _pop_spec()
    reference = run_campaign(
        SIM_USERS,
        seed=7,
        population_spec=pop_spec,
        services=specs,
        executor=1,
        shards=1,
    )
    return specs, pop_spec, reference.canonical_bytes(), reference.sessions


def test_bench_campaign_serial(benchmark, campaign_world, capsys):
    """Serial simulation throughput — the single-core baseline."""
    specs, pop_spec, reference, sessions = campaign_world

    def run():
        return run_campaign(
            SIM_USERS,
            seed=7,
            population_spec=pop_spec,
            services=specs,
            executor=1,
            shards=4,
        )

    campaign = benchmark.pedantic(run, rounds=3, iterations=1)
    assert campaign.canonical_bytes() == reference
    rate = sessions / benchmark.stats.stats.mean
    with capsys.disabled():
        print(f"\n  campaign serial: {rate:.1f} sessions/s")


def test_bench_campaign_process(benchmark, campaign_world, capsys):
    """Process-pool simulation throughput.

    Hard acceptance bar: >= 2x serial on hosts with >= 2 cores.  On a
    single-core host the pool cannot beat serial by construction, so
    only byte-identity is asserted there.
    """
    import time

    specs, pop_spec, reference, sessions = campaign_world

    start = time.perf_counter()
    serial = run_campaign(
        SIM_USERS,
        seed=7,
        population_spec=pop_spec,
        services=specs,
        executor=1,
        shards=4,
    )
    serial_seconds = time.perf_counter() - start
    assert serial.canonical_bytes() == reference

    def run():
        return run_campaign(
            SIM_USERS,
            seed=7,
            population_spec=pop_spec,
            services=specs,
            executor=4,
            shards=8,
        )

    campaign = benchmark.pedantic(run, rounds=3, iterations=1)
    assert campaign.canonical_bytes() == reference

    process_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / process_seconds
    rate = sessions / process_seconds
    with capsys.disabled():
        print(
            f"\n  campaign process[4]: {rate:.1f} sessions/s "
            f"(x{speedup:.2f} over serial, {os.cpu_count()} cores)"
        )
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 2.0, (
            f"process pool only x{speedup:.2f} over serial (need >= 2x)"
        )


def test_bench_campaign_merge(benchmark, campaign_world, capsys):
    """Merge throughput over a 10k-user synthetic campaign.

    Shard partials are simulated once for a small population, then
    cloned (the merge algebra is agnostic to which users a partial
    holds) until they represent ``MERGE_USERS`` users; the benchmark
    folds the whole set through ``merge_campaigns``.
    """
    specs, pop_spec, _, _ = campaign_world
    context = CampaignContext(pop_spec, specs, 7, dims=("os",))
    seeds = [
        context.run_shard(start, stop) for start, stop in plan_shards(SIM_USERS, 4)
    ]
    partials = []
    while sum(p.users for p in partials) < MERGE_USERS:
        partials.extend(type(p).from_dict(p.to_dict()) for p in seeds)
    users = sum(p.users for p in partials)

    merged = benchmark.pedantic(
        lambda: merge_campaigns(partials), rounds=3, iterations=1
    )
    assert merged.users == users
    assert merged.canonical_bytes() == merge_campaigns(partials[::-1]).canonical_bytes()

    rate = users / benchmark.stats.stats.mean
    with capsys.disabled():
        print(
            f"\n  campaign merge: {len(partials)} partials, {users} users, "
            f"{rate:,.0f} users/s"
        )
