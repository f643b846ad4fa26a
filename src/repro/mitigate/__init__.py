"""Inline leak mitigation: block / scrub / hash PII on the proxy hot path.

The paper *measures* leaks; ReCon (PAPERS.md) both reveals **and
controls** them by rewriting traffic inline.  This package is that
controlling half: a :class:`MitigationPolicy` (per-PII-type, per-party
actions), a :class:`MitigationAddon` data plane that hooks the proxy's
request-rewrite stage, and a report layer that re-scores the study under
mitigation (`repro mitigate`).
"""

from .plane import (
    MitigationAddon,
    MitigationDecision,
    build_rewrite_plan,
    hash_replacement,
    rewrite_text,
    scrub_replacement,
)
from .policy import (
    ACTION_ALLOW,
    ACTION_BLOCK,
    ACTION_HASH,
    ACTION_SCRUB,
    ACTIONS,
    FIRST_PARTY,
    PARTIES,
    THIRD_PARTY,
    MitigationPolicy,
    PolicyError,
    default_policy,
)
from .report import MitigationOutcome, evaluate_mitigation, render_mitigation

__all__ = [
    "ACTIONS",
    "ACTION_ALLOW",
    "ACTION_BLOCK",
    "ACTION_HASH",
    "ACTION_SCRUB",
    "FIRST_PARTY",
    "MitigationAddon",
    "MitigationDecision",
    "MitigationOutcome",
    "MitigationPolicy",
    "PARTIES",
    "PolicyError",
    "THIRD_PARTY",
    "build_rewrite_plan",
    "default_policy",
    "evaluate_mitigation",
    "hash_replacement",
    "render_mitigation",
    "rewrite_text",
    "scrub_replacement",
]
