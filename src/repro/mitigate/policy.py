"""Mitigation policy model: per-PII-type, per-party actions.

A policy maps every ``(PiiType, party)`` cell to one of four actions:

``allow``
    Leave the value on the wire untouched.
``block``
    Refuse the request outright: the proxy answers with a synthetic
    ``403`` and the upstream never sees the flow.  The recorded copy of
    the request is scrubbed so a blocked value never lands in a trace.
``scrub``
    Replace every encoded variant of the value with a same-length
    redaction in the same alphabet, so the carrying document (query
    string, JSON, base64 blob, hex digest) still parses.
``hash``
    Replace the value with a deterministic, seed-keyed digest rendered
    at the same length — linkability without identity, reproducible
    across runs with the same seed.

Parties are the paper's two destinations that matter for leak policy:
``first_party`` (the service itself, SSO endpoints included) and
``third_party`` (everything else).  OS-service and background flows are
never touched — the analysis layer excludes them from leak accounting,
and the data plane mirrors that exclusion exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from ..pii.types import ALL_PII_TYPES, PiiType

ACTION_ALLOW = "allow"
ACTION_BLOCK = "block"
ACTION_SCRUB = "scrub"
ACTION_HASH = "hash"
ACTIONS = (ACTION_ALLOW, ACTION_BLOCK, ACTION_SCRUB, ACTION_HASH)

FIRST_PARTY = "first_party"
THIRD_PARTY = "third_party"
PARTIES = (FIRST_PARTY, THIRD_PARTY)

POLICY_FORMAT = "repro-mitigation-policy/1"


class PolicyError(ValueError):
    """Raised on an invalid mitigation policy."""


def _normalize_rules(rules: Mapping) -> Dict[PiiType, Dict[str, str]]:
    if not isinstance(rules, Mapping):
        raise PolicyError(f"rules must be an object, not {type(rules).__name__}")
    normalized: Dict[PiiType, Dict[str, str]] = {}
    for raw_type, cells in rules.items():
        try:
            pii_type = PiiType(raw_type)
        except ValueError:
            raise PolicyError(f"unknown PII type {raw_type!r}") from None
        if not isinstance(cells, Mapping):
            raise PolicyError(
                f"rules[{raw_type!r}] must be an object, not {type(cells).__name__}"
            )
        row: Dict[str, str] = {}
        for party, action in cells.items():
            if party not in PARTIES:
                raise PolicyError(f"unknown party {party!r}")
            if action not in ACTIONS:
                raise PolicyError(f"unknown action {action!r}")
            row[party] = action
        normalized[pii_type] = row
    return normalized


@dataclass(frozen=True)
class MitigationPolicy:
    """An immutable action table over ``PiiType`` x party.

    Missing cells fall back to ``default_action`` (``allow`` unless
    stated otherwise), so a policy only needs to spell out the types it
    cares about.
    """

    rules: Mapping = field(default_factory=dict)
    default_action: str = ACTION_ALLOW
    label: str = "custom"

    def __post_init__(self) -> None:
        if self.default_action not in ACTIONS:
            raise PolicyError(f"unknown action {self.default_action!r}")
        object.__setattr__(self, "rules", _normalize_rules(self.rules))

    # -- lookup -------------------------------------------------------------

    def action_for(self, pii_type: PiiType, party: str) -> str:
        """The action for one ``(type, party)`` cell."""
        row = self.rules.get(pii_type)
        if row is None:
            return self.default_action
        return row.get(party, self.default_action)

    def active_types(self) -> Tuple[PiiType, ...]:
        """Types with at least one non-``allow`` cell, in Table-1 order."""
        out = []
        for pii_type in ALL_PII_TYPES:
            if any(
                self.action_for(pii_type, party) != ACTION_ALLOW for party in PARTIES
            ):
                out.append(pii_type)
        return tuple(out)

    def covered_types(self) -> Tuple[PiiType, ...]:
        """Types mitigated at *every* party — nothing of these may leak."""
        out = []
        for pii_type in ALL_PII_TYPES:
            if all(
                self.action_for(pii_type, party) != ACTION_ALLOW for party in PARTIES
            ):
                out.append(pii_type)
        return tuple(out)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": POLICY_FORMAT,
            "label": self.label,
            "default_action": self.default_action,
            "rules": {
                pii_type.value: {party: row[party] for party in PARTIES if party in row}
                for pii_type, row in sorted(
                    self.rules.items(), key=lambda item: item[0].value
                )
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MitigationPolicy":
        """Parse a policy; any malformed payload raises :class:`PolicyError`."""
        if not isinstance(payload, Mapping):
            raise PolicyError(
                f"a policy must be an object, not {type(payload).__name__}"
            )
        if payload.get("format", POLICY_FORMAT) != POLICY_FORMAT:
            raise PolicyError(f"unknown policy format {payload.get('format')!r}")
        if not isinstance(payload.get("label", ""), str):
            raise PolicyError(
                f"label must be a string, not {type(payload['label']).__name__}"
            )
        return cls(
            rules=payload.get("rules", {}),
            default_action=payload.get("default_action", ACTION_ALLOW),
            label=payload.get("label", "custom"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "MitigationPolicy":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _uniform(action: str, types: Iterable[PiiType]) -> dict:
    return {pii_type: {FIRST_PARTY: action, THIRD_PARTY: action} for pii_type in types}


def default_policy() -> MitigationPolicy:
    """The calibrated default: the ReCon-shaped trade-off.

    - ``password`` is never allowed past the proxy in the clear: blocked
      toward third parties, scrubbed even toward the first party (the
      simulated services do not validate credential payloads, and a
      plaintext first-party login is itself a leak in the paper's
      policy).
    - Profile identity (``email``/``username``/``name``/``gender``/
      ``birthday``/``phone``/``location``) is scrubbed everywhere: same
      length, same alphabet, so form posts and JSON bodies stay valid.
    - ``unique_id`` is hash-replaced at both parties and
      ``device_info`` toward third parties: analytics keep a stable
      per-seed pseudonym but lose the real identifier.
    - ``device_info`` stays allowed toward the first party — the one
      residual channel, so mitigated studies retain a visible (and
      low-sensitivity) leak family instead of a trivially empty report.
    """
    rules: dict = _uniform(
        ACTION_SCRUB,
        (
            PiiType.EMAIL,
            PiiType.USERNAME,
            PiiType.NAME,
            PiiType.GENDER,
            PiiType.BIRTHDAY,
            PiiType.PHONE,
            PiiType.LOCATION,
        ),
    )
    rules[PiiType.PASSWORD] = {FIRST_PARTY: ACTION_SCRUB, THIRD_PARTY: ACTION_BLOCK}
    rules[PiiType.UNIQUE_ID] = {FIRST_PARTY: ACTION_HASH, THIRD_PARTY: ACTION_HASH}
    rules[PiiType.DEVICE_INFO] = {FIRST_PARTY: ACTION_ALLOW, THIRD_PARTY: ACTION_HASH}
    return MitigationPolicy(rules=rules, default_action=ACTION_ALLOW, label="default")
