"""Population campaign: leak exposure across a simulated user base.

The paper measures one tester per service; this walkthrough simulates a
small *population* instead — users drawn from configurable
distributions (OS share, app-vs-web preference, usage intensity,
permission grant rates) — and reports leak prevalence per cohort with
confidence intervals.  It also demonstrates the property the engine is
built around: shard partials merge exactly, in any order, to the same
canonical bytes.

Run:  python examples/population_campaign.py [--population N]
"""

import argparse

from repro.campaign import (
    CampaignContext,
    PopulationSpec,
    merge_campaigns,
    plan_shards,
    run_campaign,
)
from repro.services import build_catalog

SERVICES = ("weather", "yelp", "grubhub", "cnn", "priceline")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--population",
        type=int,
        default=16,
        help="number of simulated users (memory stays flat at any size)",
    )
    args = parser.parse_args()

    catalog = {spec.slug: spec for spec in build_catalog()}
    services = [catalog[slug] for slug in SERVICES]

    # A population: mostly-Android, app-leaning, privacy-mixed.  The
    # calibrated default is PopulationSpec(); every field is a
    # distribution, and .save()/.load() round-trip through plain JSON.
    spec = PopulationSpec(
        os_share={"android": 0.7, "ios": 0.3},
        app_preference=0.62,
        services_per_user=(1, 3),
        sessions_per_service=(1, 2),
        session_duration=30.0,
        bootstrap_replicates=50,
    )

    print(
        f"Simulating {args.population} users over {len(services)} services "
        f"(cohorts by OS x preferred medium)..."
    )
    campaign = run_campaign(
        args.population,
        seed=7,
        population_spec=spec,
        services=services,
        cohorts="os,medium",
        executor=1,  # worker count: 1 in-process, N > 1 processes, 0 every CPU
    )

    overall = campaign.overall()
    low, high = overall.leak_interval()
    print(
        f"\npopulation: {overall.users} users, {overall.sessions} sessions; "
        f"{overall.users_leaking}/{overall.users} leaked PII "
        f"(95% Wilson CI [{100 * low:.1f}, {100 * high:.1f}]%)"
    )
    for cohort in campaign.ordered_cohorts():
        mean = cohort.user_moments["leak_events"].mean()
        blow, bhigh = cohort.metric_interval("leak_events")
        print(
            f"  {cohort.label:14s} {cohort.users:3d} users, "
            f"{cohort.users_leaking:3d} leaking, "
            f"leak events/user {mean:5.2f} "
            f"(bootstrap CI [{blow:.2f}, {bhigh:.2f}])"
        )

    # The merge algebra: simulate the same population as independent
    # shards, merge them forwards and backwards — identical bytes, and
    # identical to the single-pass run above.
    context = CampaignContext(spec, services, 7, dims=("os", "medium"))
    partials = [
        context.run_shard(start, stop)
        for start, stop in plan_shards(args.population, 4)
    ]
    forward = merge_campaigns(partials)
    backward = merge_campaigns(list(reversed(partials)))
    assert forward.canonical_bytes() == campaign.canonical_bytes()
    assert backward.canonical_bytes() == campaign.canonical_bytes()
    print(
        f"\n{len(partials)} shard partials merged forwards and backwards: "
        f"byte-identical (digest {campaign.digest()[:16]}...)"
    )


if __name__ == "__main__":
    main()
