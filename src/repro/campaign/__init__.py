"""Population-scale campaign engine: N simulated users as mergeable cohorts.

Scales the paper's one-tester study to populations: a seeded
:class:`PersonaSampler` draws users from a configurable
:class:`PopulationSpec`, the engine plans them into deterministic
shards, simulates every session through the unchanged scripted runner
and detection pipeline, and folds the results into associatively
mergeable :class:`CohortAggregate` partials with Wilson and
Poisson-bootstrap confidence intervals.  Chunks of users run on the
:mod:`repro.par` pool; the coordinator folds each chunk's partial as it
arrives (:func:`merge_campaigns` folds any other set of partials).  Any
shard count, worker count, or merge order yields identical canonical
bytes.
"""

from .engine import (
    USER_METRIC_KEYS,
    AdaptiveSharder,
    CampaignAborted,
    CampaignAggregate,
    CampaignCheckpoint,
    CampaignContext,
    CampaignError,
    CohortAggregate,
    checkpoint_key,
    default_shard_count,
    merge_campaigns,
    plan_shards,
    run_campaign,
)
from .population import (
    PersonaSampler,
    PopulationError,
    PopulationSpec,
    SessionPlan,
    UserPersona,
    cell_order,
    parse_cohort_dims,
)
from .report import cohort_summary_lines, render_campaign

__all__ = [
    "USER_METRIC_KEYS",
    "AdaptiveSharder",
    "CampaignAborted",
    "CampaignAggregate",
    "CampaignCheckpoint",
    "CampaignContext",
    "CampaignError",
    "CohortAggregate",
    "checkpoint_key",
    "PersonaSampler",
    "PopulationError",
    "PopulationSpec",
    "SessionPlan",
    "UserPersona",
    "cell_order",
    "cohort_summary_lines",
    "default_shard_count",
    "merge_campaigns",
    "parse_cohort_dims",
    "plan_shards",
    "render_campaign",
    "run_campaign",
]
