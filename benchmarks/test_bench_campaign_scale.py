"""Million-user campaign reduction on the coordinator.

Simulating a million users live is hours of CPU, so the scale bench
measures the part that actually changes at population scale — the
reduction data plane.  One 256-user shard is simulated for real with a
single-service spec, encoded as a ``KIND_CAGG`` blob, and the blob is
cloned until the set represents one million users (the merge algebra
is agnostic to which users a partial holds, the same trick as the
campaign merge bench).  The reduction then decodes every blob and folds
it with :func:`repro.campaign.merge_campaigns`, the fold
:func:`repro.campaign.run_campaign` does on the coordinator as each
chunk's partial arrives — the recorded number is that path at
population scale, not a synthetic proxy.

Recorded: users/sec through the fold and the peak RSS of the run (the
whole point of streaming reduction is that memory stays flat at any
population).
"""

import math
import resource

import pytest

from repro.campaign import CampaignContext, PopulationSpec, merge_campaigns
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
    partial itself."""
    blobs, users = scale_blobs

    merged = benchmark.pedantic(
        lambda: merge_campaigns(codec.decode_campaign(blob) for blob in blobs),
        rounds=3,
        iterations=1,
    )
    assert merged.users == users

    rate = users / benchmark.stats.stats.mean
    with capsys.disabled():
        print(
            f"\n  campaign scale master: {len(blobs)} partials, {users:,} users, "
            f"{rate:,.0f} users/s, peak RSS {_peak_rss_mb():.0f} MiB"
        )

