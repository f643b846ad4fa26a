"""Greedy scenario shrinker.

Given a failing scenario and a predicate ("does this still fail?"),
repeatedly try structure-preserving reductions — drop a service, halve
the probe vocabularies, drop fault classes, disable ReCon training,
shorten the session — keeping each reduction only if the failure
survives.  The result is written as a JSON reproducer replayable with
``repro fuzz --replay FILE``.

Everything here is deterministic: reductions are tried in a fixed
order, so the same failing seed always shrinks to the same reproducer.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .scenarios import Scenario


def _halve(items: tuple) -> tuple:
    return tuple(items[: max(1, len(items) // 2)])


def _reductions(scenario: Scenario):
    """Yield candidate reduced scenarios, most aggressive first."""
    # Drop one service at a time (keep at least one).
    if len(scenario.services) > 1:
        for index in range(len(scenario.services)):
            kept = tuple(
                row for i, row in enumerate(scenario.services) if i != index
            )
            yield replace(scenario, services=kept)
    # Shrink the differential-probe vocabularies.
    if len(scenario.texts) > 1:
        yield replace(scenario, texts=_halve(scenario.texts))
    if len(scenario.urls) > 1:
        yield replace(scenario, urls=_halve(scenario.urls))
    if len(scenario.filters) > 1:
        yield replace(scenario, filters=_halve(scenario.filters))
    if len(scenario.hostnames) > 1:
        yield replace(scenario, hostnames=_halve(scenario.hostnames))
    # Shrink the execution matrix.
    if scenario.train_recon:
        yield replace(scenario, train_recon=False)
    if scenario.duration > 10.0:
        yield replace(scenario, duration=max(10.0, scenario.duration / 2))
    # Drop fault classes one at a time.
    plan = scenario.fault_plan or {}
    if plan:
        if len(plan.get("kill_events", ())) > 1:
            yield replace(
                scenario,
                fault_plan={**plan, "kill_events": list(plan["kill_events"])[:1]},
            )
        if plan.get("torn_tail"):
            yield replace(scenario, fault_plan={**plan, "torn_tail": ""})
        if plan.get("transport"):
            yield replace(scenario, fault_plan={**plan, "transport": []})
        if plan.get("addon_chaos"):
            yield replace(scenario, fault_plan={**plan, "addon_chaos": False})
        if plan.get("serve_check"):
            yield replace(scenario, fault_plan={**plan, "serve_check": False})
        yield replace(scenario, fault_plan=None)


def shrink(scenario: Scenario, is_failing, max_steps: int = 40) -> Scenario:
    """Greedily minimize ``scenario`` while ``is_failing`` stays true.

    ``is_failing`` receives a candidate :class:`Scenario` and returns
    whether the original failure still reproduces.  ``max_steps`` bounds
    the number of predicate evaluations (each one is a full oracle run).
    """
    current = scenario
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _reductions(current):
            steps += 1
            if is_failing(candidate):
                current = candidate
                improved = True
                break
            if steps >= max_steps:
                break
    return current


def write_reproducer(scenario: Scenario, report, path) -> Path:
    """Write a replayable JSON reproducer for one failure."""
    path = Path(path)
    payload = {
        "scenario": scenario.to_dict(),
        "report": report.to_dict() if report is not None else None,
        "replay": f"repro fuzz --replay {path.name}",
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
