"""Million-user campaign reduction: master vs worker-side, one invocation.

Simulating a million users live is hours of CPU, so the scale bench
measures the part that actually changes at population scale — the
reduction data plane.  One 256-user shard is simulated for real with a
single-service spec, encoded as a ``KIND_CAGG`` blob, and the blob is
cloned until the set represents one million users (the merge algebra
is agnostic to which users a partial holds, the same trick as the
campaign merge bench).  Every reduction then runs through the real
production APIs — :func:`repro.campaign.reduce_campaign_blobs` decodes
and folds exactly as the campaign driver does — so the recorded
numbers are the coordinator (master) and tree (worker) reduce paths at
population scale, not a synthetic proxy.

Recorded: users/sec through each reduce path and the peak RSS of the
run (the whole point of streaming reduction is that memory stays flat
at any population).  Hard acceptance bar on multi-core hosts:
worker-side reduction at 4 workers >= 2x the master-side fold.  Both
paths must produce byte-identical aggregates everywhere.
"""

import math
import os
import resource
import time

import pytest

from repro.campaign import CampaignContext, PopulationSpec, reduce_campaign_blobs
from repro.net import codec
from repro.services.catalog import build_catalog

#: Users in the one live-simulated shard each blob represents.
SHARD_USERS = 256

#: Users the cloned blob set must cover.
POPULATION = 1_000_000


def _peak_rss_mb() -> float:
    """High-water RSS of this process + reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@pytest.fixture(scope="module")
def scale_blobs():
    """(blobs, users) — KIND_CAGG partials covering >= POPULATION users."""
    specs = [spec for spec in build_catalog() if spec.slug == "weather"]
    pop_spec = PopulationSpec(
        services_per_user=(1, 1),
        sessions_per_service=(1, 1),
        session_duration=5.0,
        bootstrap_replicates=10,
    )
    context = CampaignContext(pop_spec, specs, 7)
    blob = codec.encode_campaign(context.run_shard(0, SHARD_USERS))
    count = math.ceil(POPULATION / SHARD_USERS)
    return [blob] * count, count * SHARD_USERS


def test_bench_campaign_scale_master(benchmark, scale_blobs, capsys):
    """Master-side reduction: the coordinator decodes and folds every
    partial itself — the byte-identical reference path."""
    blobs, users = scale_blobs

    merged = benchmark.pedantic(
        lambda: reduce_campaign_blobs(blobs, executor=1), rounds=3, iterations=1
    )
    assert merged.users == users

    rate = users / benchmark.stats.stats.mean
    with capsys.disabled():
        print(
            f"\n  campaign scale master: {len(blobs)} partials, {users:,} users, "
            f"{rate:,.0f} users/s, peak RSS {_peak_rss_mb():.0f} MiB"
        )


def test_bench_campaign_scale_worker(benchmark, scale_blobs, capsys):
    """Worker-side tree reduction at 4 workers.

    Hard acceptance bar: >= 2x the master-side fold on hosts with >= 2
    cores.  On a single-core host the pool cannot beat the serial fold
    by construction, so only byte-identity is asserted there.
    """
    blobs, users = scale_blobs

    start = time.perf_counter()
    master = reduce_campaign_blobs(blobs, executor=1)
    master_seconds = time.perf_counter() - start

    merged = benchmark.pedantic(
        lambda: reduce_campaign_blobs(blobs, executor=4),
        rounds=3,
        iterations=1,
    )
    assert merged.canonical_bytes() == master.canonical_bytes()
    assert merged.users == users

    worker_seconds = benchmark.stats.stats.mean
    speedup = master_seconds / worker_seconds
    rate = users / worker_seconds
    with capsys.disabled():
        print(
            f"\n  campaign scale worker[4]: {users:,} users, {rate:,.0f} users/s "
            f"(x{speedup:.2f} over master, {os.cpu_count()} cores), "
            f"peak RSS {_peak_rss_mb():.0f} MiB"
        )
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 2.0, (
            f"worker-side reduction only x{speedup:.2f} over master (need >= 2x)"
        )
