"""Population model: who the simulated users are.

The paper's study is one scripted tester driving every cell; a
*campaign* scales that to a population of N simulated users, each with
their own :class:`~repro.device.persona.Persona`, OS, service mix,
usage intensity, app-vs-web preference, and permission-grant behaviour.

Everything is a pure function of ``(PopulationSpec, services, seed,
user_id)``: the sampler derives one sub-RNG per (component, user) from
sha256 labels — the same pattern as :mod:`repro.qa.scenarios` — so the
persona stream is identical across processes and PYTHONHASHSEED values,
and any shard split of the user-id range reproduces exactly the same
users.  That structural determinism is what makes campaign aggregates
invariant under shard count, worker count, and merge order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from ..analysis.stats import poisson_weights
from ..device.persona import Persona, generate_persona
from ..device.phone import ANDROID, IOS, Permission
from ..experiment.scripts import check_duration
from ..ioutil import atomic_write_json

#: Canonical OS iteration order (matches the paper's tables).
OS_ORDER = (ANDROID, IOS)

#: Canonical medium iteration order.
MEDIUM_ORDER = ("app", "web")


class PopulationError(Exception):
    """Raised on invalid population specifications."""


def _check_number(name: str, value) -> None:
    """``value`` must be an int or float a float can hold, and finite.

    JSON booleans are not numbers here, and Python's ``json`` reads
    ``NaN``, ``Infinity`` and ``1e999`` as floats, so each is refused.
    """
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        finite = False
    if not finite:
        raise PopulationError(f"{name} must be a finite number: {value!r}")


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PopulationError(f"{name} must be an integer: {value!r}")


def _check_fraction(name: str, value: float) -> None:
    _check_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise PopulationError(f"{name} must be in [0, 1]: {value}")


def _check_weights(name: str, weights: dict) -> None:
    for key, weight in weights.items():
        _check_number(f"{name} weight for {key!r}", weight)
        if weight < 0:
            raise PopulationError(f"negative {name} weight for {key!r}: {weight}")


def _check_range(name: str, pair: Sequence, check=_check_number) -> tuple:
    """``pair`` as a ``(lo, hi)`` tuple with ``0 <= lo <= hi``; ``check``
    validates each bound first (:func:`_check_count` for counts)."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise PopulationError(f"{name} must be a (lo, hi) pair: {pair!r}") from None
    check(name, lo)
    check(name, hi)
    if lo > hi or lo < 0:
        raise PopulationError(f"{name} must be a (lo, hi) pair with 0 <= lo <= hi: {pair}")
    return (lo, hi)


@dataclass(frozen=True)
class PopulationSpec:
    """Distributions a persona population is drawn from.

    The calibrated default approximates the paper-era US smartphone
    market: slight Android majority, users who lean app-first (comScore
    2015-style mobile minutes), a service mix dominated by shopping /
    travel / entertainment, and permission prompts that are *usually*
    but not always approved (unlike the methodology's always-approve
    tester).
    """

    #: OS market share; keys must be known OS names, weights positive.
    os_share: dict = field(
        default_factory=lambda: {ANDROID: 0.55, IOS: 0.45}
    )
    #: Probability a user is app-first (vs mobile-web-first).
    app_preference: float = 0.62
    #: How strongly a session sticks to the user's preferred medium.
    preference_strength: float = 0.85
    #: Relative draw weight per service category (unlisted: 1.0).
    category_weights: dict = field(
        default_factory=lambda: {
            "Shopping": 1.6,
            "Travel": 1.2,
            "Entertainment": 1.4,
            "Social": 1.8,
            "News": 1.3,
            "Weather": 1.5,
            "Music": 1.2,
            "Lifestyle": 1.0,
            "Education": 0.6,
            "Business": 0.5,
        }
    )
    #: How many distinct services a user touches (inclusive range).
    services_per_user: tuple = (2, 6)
    #: Sessions per chosen service (inclusive range).
    sessions_per_service: tuple = (1, 2)
    #: Base simulated session length (seconds) before intensity scaling.
    session_duration: float = 45.0
    #: Per-user usage-intensity multiplier range applied to durations.
    intensity_range: tuple = (0.5, 1.5)
    #: Probability a user approves each runtime permission prompt.
    permission_grant_rates: dict = field(
        default_factory=lambda: {
            Permission.LOCATION: 0.80,
            Permission.PHONE_STATE: 0.70,
            Permission.CONTACTS: 0.45,
            Permission.STORAGE: 0.90,
        }
    )
    #: Poisson(1) bootstrap replicates carried by campaign aggregates.
    bootstrap_replicates: int = 50

    def __post_init__(self) -> None:
        if not self.os_share:
            raise PopulationError("os_share must not be empty")
        for os_name in self.os_share:
            if os_name not in OS_ORDER:
                raise PopulationError(f"unknown OS {os_name!r} in os_share")
        _check_weights("os_share", self.os_share)
        if not any(self.os_share.values()):
            raise PopulationError("os_share weights sum to zero")
        _check_weights("category_weights", self.category_weights)
        _check_fraction("app_preference", self.app_preference)
        _check_fraction("preference_strength", self.preference_strength)
        for name in ("services_per_user", "sessions_per_service"):
            pair = _check_range(name, getattr(self, name), _check_count)
            if pair[0] < 1:
                raise PopulationError(f"{name} minimum must be >= 1")
            object.__setattr__(self, name, pair)
        _check_number("session_duration", self.session_duration)
        if self.session_duration <= 0:
            raise PopulationError(f"session_duration must be positive: {self.session_duration}")
        lo, hi = _check_range("intensity_range", self.intensity_range)
        if lo <= 0:
            raise PopulationError(f"intensity_range must satisfy 0 < lo <= hi: {self.intensity_range}")
        object.__setattr__(self, "intensity_range", (lo, hi))
        # The longest session a user can draw must be one a script runs.
        try:
            check_duration(self.session_duration * hi)
        except ValueError as exc:
            raise PopulationError(
                f"session_duration * intensity_range[1]: {exc}"
            ) from None
        for permission, rate in self.permission_grant_rates.items():
            if permission not in Permission.ALL:
                raise PopulationError(f"unknown permission {permission!r} in grant rates")
            _check_fraction(f"grant rate for {permission!r}", rate)
        _check_count("bootstrap_replicates", self.bootstrap_replicates)
        if self.bootstrap_replicates < 1:
            raise PopulationError(
                f"bootstrap_replicates must be >= 1: {self.bootstrap_replicates}"
            )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "os_share": dict(sorted(self.os_share.items())),
            "app_preference": self.app_preference,
            "preference_strength": self.preference_strength,
            "category_weights": dict(sorted(self.category_weights.items())),
            "services_per_user": list(self.services_per_user),
            "sessions_per_service": list(self.sessions_per_service),
            "session_duration": self.session_duration,
            "intensity_range": list(self.intensity_range),
            "permission_grant_rates": dict(sorted(self.permission_grant_rates.items())),
            "bootstrap_replicates": self.bootstrap_replicates,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationSpec":
        known = {
            "os_share",
            "app_preference",
            "preference_strength",
            "category_weights",
            "services_per_user",
            "sessions_per_service",
            "session_duration",
            "intensity_range",
            "permission_grant_rates",
            "bootstrap_replicates",
        }
        if not isinstance(data, dict):
            raise PopulationError(f"a PopulationSpec must be an object: {data!r}")
        unknown = set(data) - known
        if unknown:
            raise PopulationError(f"unknown PopulationSpec fields: {sorted(unknown)}")
        for key in ("os_share", "category_weights", "permission_grant_rates"):
            if not isinstance(data.get(key, {}), dict):
                raise PopulationError(f"{key} must be an object: {data[key]!r}")
        kwargs = dict(data)
        try:
            for key in ("services_per_user", "sessions_per_service", "intensity_range"):
                if key in kwargs:
                    kwargs[key] = tuple(kwargs[key])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise PopulationError(f"invalid PopulationSpec: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PopulationSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True)
class SessionPlan:
    """One planned session of one user (a study cell plus a duration)."""

    service: str
    os_name: str
    medium: str
    duration: float
    seq: int  # per-user session index, for labelling/seeding


@dataclass(frozen=True)
class UserPersona:
    """One sampled member of the population.

    ``persona`` carries the searchable PII identity (name, email,
    coordinates, …); ``plans`` is the user's deterministic session
    schedule; ``grants`` the set of permissions this user approves when
    prompted.
    """

    user_id: int
    persona: Persona
    os_name: str
    prefers_app: bool
    intensity: float
    services: tuple
    plans: tuple
    grants: frozenset

    @property
    def preferred_medium(self) -> str:
        return "app" if self.prefers_app else "web"

    def cohort(self, dims: Sequence) -> str:
        """Cohort label along the given dimensions (sorted, stable)."""
        parts = []
        for dim in dims:
            if dim == "os":
                parts.append(self.os_name)
            elif dim == "medium":
                parts.append(f"{self.preferred_medium}-first")
            elif dim == "intensity":
                parts.append("heavy" if self.intensity >= 1.0 else "light")
            else:
                raise PopulationError(f"unknown cohort dimension {dim!r}")
        return "/".join(parts) if parts else "all"


def _weighted_choice(rng: random.Random, items: Sequence, weights: Sequence):
    total = sum(weights)
    if total <= 0:
        return items[rng.randrange(len(items))]
    point = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point < acc:
            return item
    return items[-1]


class PersonaSampler:
    """Draws :class:`UserPersona` streams from a :class:`PopulationSpec`.

    ``user(i)`` is a pure function of ``(spec, services, seed, i)``:
    every random decision uses a sub-RNG derived from a sha256 label
    naming the component and the user id, so streams for different
    components are independent and the whole sampler is reproducible
    across processes and hash seeds.
    """

    def __init__(self, spec: PopulationSpec, services: Sequence, seed: int) -> None:
        if not services:
            raise PopulationError("PersonaSampler needs at least one service")
        self.spec = spec
        self.seed = int(seed)
        # Catalog order is the canonical service order for the campaign.
        self.services = list(services)
        self._by_os = {
            os_name: [s for s in self.services if os_name in s.oses]
            for os_name in OS_ORDER
        }
        for os_name, weight in sorted(spec.os_share.items()):
            if weight > 0 and not self._by_os[os_name]:
                raise PopulationError(f"no services support OS {os_name!r}")

    def _rng(self, *parts) -> random.Random:
        text = "|".join(["campaign", str(self.seed)] + [str(p) for p in parts])
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # -- per-user draws ------------------------------------------------------

    def user(self, user_id: int) -> UserPersona:
        spec = self.spec
        persona = generate_persona(self._rng("persona", user_id))
        rng = self._rng("mix", user_id)

        os_names = sorted(spec.os_share)
        os_name = _weighted_choice(
            rng, os_names, [spec.os_share[name] for name in os_names]
        )
        prefers_app = rng.random() < spec.app_preference
        intensity = rng.uniform(*spec.intensity_range)

        pool = list(self._by_os[os_name])
        lo, hi = spec.services_per_user
        count = min(rng.randint(lo, hi), len(pool))
        chosen = []
        for _ in range(count):
            weights = [
                spec.category_weights.get(s.category, 1.0) for s in pool
            ]
            pick = _weighted_choice(rng, pool, weights)
            chosen.append(pick)
            pool.remove(pick)

        plans = []
        seq = 0
        stick = spec.preference_strength
        for service in chosen:
            sessions = rng.randint(*spec.sessions_per_service)
            for _ in range(sessions):
                preferred = rng.random() < stick
                if prefers_app:
                    medium = "app" if preferred else "web"
                else:
                    medium = "web" if preferred else "app"
                duration = round(spec.session_duration * intensity, 1)
                plans.append(
                    SessionPlan(
                        service=service.slug,
                        os_name=os_name,
                        medium=medium,
                        duration=duration,
                        seq=seq,
                    )
                )
                seq += 1

        grant_rng = self._rng("grants", user_id)
        grants = frozenset(
            permission
            for permission, rate in sorted(spec.permission_grant_rates.items())
            if grant_rng.random() < rate
        )

        return UserPersona(
            user_id=user_id,
            persona=persona,
            os_name=os_name,
            prefers_app=prefers_app,
            intensity=intensity,
            services=tuple(s.slug for s in chosen),
            plans=tuple(plans),
            grants=grants,
        )

    def iter_users(self, start: int, stop: int) -> Iterator:
        """Users ``start`` (inclusive) to ``stop`` (exclusive), lazily."""
        for user_id in range(start, stop):
            yield self.user(user_id)

    def bootstrap_weights(self, user_id: int) -> list:
        """The user's fixed Poisson(1) bootstrap weight vector.

        Keyed by user id only — never by shard or arrival order — so
        shard-local bootstrap accumulators merge into exactly the
        resampling a single-pass run would produce.
        """
        return poisson_weights(
            self._rng("boot", user_id), self.spec.bootstrap_replicates
        )


def cell_order(service_index: int, os_name: str, medium: str) -> int:
    """Canonical presentation order of a study cell.

    A pure function of the cell key — unlike the row-wise study's
    insertion counter — so the same cell gets the same order in every
    shard and ``CellAggregate.merge``'s ``min(order)`` is a no-op.
    """
    return (
        service_index * (len(OS_ORDER) * len(MEDIUM_ORDER))
        + OS_ORDER.index(os_name) * len(MEDIUM_ORDER)
        + MEDIUM_ORDER.index(medium)
    )


def parse_cohort_dims(text: Optional[str]) -> tuple:
    """Parse a ``--cohorts`` value (``os,medium``; ``none`` = one cohort)."""
    if not text or text == "none":
        return ()
    dims = tuple(part.strip() for part in text.split(",") if part.strip())
    for dim in dims:
        if dim not in ("os", "medium", "intensity"):
            raise PopulationError(
                f"unknown cohort dimension {dim!r} (choose from os, medium, intensity)"
            )
    return dims
