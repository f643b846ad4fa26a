"""Differential fuzzing & fault-injection harness.

The paper's headline numbers are produced by three execution paths
(batch :func:`~repro.core.pipeline.analyze_dataset`, a live capture's
flow journal read back, and the serving read path) plus fast/slow twins of
the PII matcher and the EasyList engine.  This package generates
randomized worlds from a single seed (:mod:`repro.qa.scenarios`), runs
every path over them and asserts byte-level equality
(:mod:`repro.qa.oracle`; the row-wise study walkers the columnar
consumers are pinned against, and the row-wise ReCon grower the
bitset grower is pinned against, live in :mod:`repro.qa.reference`),
injects deterministic faults — kills, torn journal tails, transport
chaos, exploding proxy addons — and checks the documented recovery
invariants (:mod:`repro.qa.faults`), and shrinks failing seeds to small
JSON reproducers (:mod:`repro.qa.shrink`).

Entry point: ``repro fuzz --seed N --rounds K --faults``.
"""

from .faults import ExplodingAddon, FaultPlan, tear_journal, write_journal
from .oracle import Divergence, OracleReport, canonical_bytes, first_divergent_field, run_oracle
from .scenarios import (
    Scenario,
    generate_scenario,
    random_filter_line,
    random_hostname,
    random_url,
    scenario_ground_truth,
)
from .shrink import shrink, write_reproducer

__all__ = [
    "Divergence",
    "ExplodingAddon",
    "FaultPlan",
    "OracleReport",
    "Scenario",
    "canonical_bytes",
    "first_divergent_field",
    "generate_scenario",
    "random_filter_line",
    "random_hostname",
    "random_url",
    "run_oracle",
    "scenario_ground_truth",
    "shrink",
    "tear_journal",
    "write_journal",
    "write_reproducer",
]
