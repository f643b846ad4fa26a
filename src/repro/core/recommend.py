"""Preference-weighted app-or-web recommendations.

The paper's conclusion is that neither medium wins universally: the
right choice "depends on user preferences and priorities for controlling
access to their PII", and the authors shipped an interactive recommender
(https://recon.meddle.mobi/appvsweb/).  This module is that recommender:
given a study result and a user's :class:`PrivacyPreferences`, it scores
each medium per service and suggests the less invasive one.  Scores are
computed from each cell's :class:`Exposure`, not from its leak records,
so one table per study serves any number of preferences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..experiment.dataset import APP, WEB
from ..pii.types import PiiType
from .pipeline import ServiceResult, SessionAnalysis, StudyResult

# Default severity of each identifier class (0..1); users override these.
DEFAULT_WEIGHTS = {
    PiiType.PASSWORD: 1.0,
    PiiType.UNIQUE_ID: 0.7,
    PiiType.LOCATION: 0.7,
    PiiType.PHONE: 0.6,
    PiiType.EMAIL: 0.5,
    PiiType.BIRTHDAY: 0.5,
    PiiType.NAME: 0.4,
    PiiType.USERNAME: 0.4,
    PiiType.GENDER: 0.3,
    PiiType.DEVICE_INFO: 0.3,
}


@dataclass(frozen=True)
class PrivacyPreferences:
    """What the user cares about, on a 0..1 scale per identifier class.

    ``tracker_aversion`` weighs raw exposure to A&A domains (some users
    care about tracking surface even without a detected PII leak), and
    ``plaintext_aversion`` adds extra weight when a leak travels
    unencrypted.
    """

    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    tracker_aversion: float = 0.05
    plaintext_aversion: float = 0.5

    def weight(self, pii_type: PiiType) -> float:
        return self.weights.get(pii_type, 0.5)

    @classmethod
    def uniform(cls, value: float = 0.5) -> "PrivacyPreferences":
        return cls(weights={pii_type: value for pii_type in PiiType})

    @classmethod
    def only(cls, *types: PiiType) -> "PrivacyPreferences":
        """Care about nothing except the given identifier classes."""
        return cls(weights={t: (1.0 if t in types else 0.0) for t in PiiType})


def _parse_weight(pii_name, value) -> tuple:
    """Validate one ``(type name, value)`` pair into ``(PiiType, float)``."""
    try:
        pii_type = PiiType(str(pii_name).strip().lower())
    except ValueError:
        valid = ", ".join(t.value for t in PiiType)
        raise ValueError(f"unknown PII type {pii_name!r} (valid: {valid})") from None
    try:
        weight = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"weight for {pii_type.value} must be a number, got {value!r}"
        ) from None
    if not 0.0 <= weight <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"weight for {pii_type.value} must be in [0, 1], got {weight}")
    return pii_type, weight


def parse_weight_override(text: str) -> tuple:
    """Parse one ``TYPE=VAL`` override (CLI ``--weight email=0.9``)."""
    name, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ValueError(f"expected TYPE=VAL (e.g. email=0.9), got {text!r}")
    return _parse_weight(name, raw)


def _parse_aversion(name: str, value) -> float:
    try:
        aversion = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(aversion) and aversion >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {aversion}")
    return aversion


def preferences_from_dict(data: dict) -> PrivacyPreferences:
    """Build preferences from a JSON-safe dict.

    The one parser behind both scriptable surfaces: ``repro recommend
    --prefs FILE.json`` and the service's ``POST /v1/recommend`` body.
    Unlisted weights keep their :data:`DEFAULT_WEIGHTS` value; unknown
    fields or types raise ``ValueError`` rather than silently scoring 0,
    and so does a weight outside [0, 1] or an aversion that is negative
    or not finite (Python's ``json`` reads ``NaN``, ``Infinity`` and
    ``1e999`` as floats).
    """
    if not isinstance(data, dict):
        raise ValueError(f"preferences must be a JSON object, got {type(data).__name__}")
    allowed = {"weights", "tracker_aversion", "plaintext_aversion"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown preference field(s): {', '.join(unknown)}")
    weights = dict(DEFAULT_WEIGHTS)
    raw_weights = data.get("weights") or {}
    if not isinstance(raw_weights, dict):
        raise ValueError("'weights' must be an object of {type: value}")
    for name, value in raw_weights.items():
        pii_type, weight = _parse_weight(name, value)
        weights[pii_type] = weight
    kwargs = {"weights": weights}
    for field_name in ("tracker_aversion", "plaintext_aversion"):
        if field_name in data:
            kwargs[field_name] = _parse_aversion(field_name, data[field_name])
    return PrivacyPreferences(**kwargs)


def apply_weight_overrides(
    preferences: PrivacyPreferences, overrides: list
) -> PrivacyPreferences:
    """Return a copy with ``TYPE=VAL`` strings folded into the weights."""
    if not overrides:
        return preferences
    weights = dict(preferences.weights)
    for override in overrides:
        pii_type, weight = parse_weight_override(override)
        weights[pii_type] = weight
    return PrivacyPreferences(
        weights=weights,
        tracker_aversion=preferences.tracker_aversion,
        plaintext_aversion=preferences.plaintext_aversion,
    )


def preferences_key(preferences: PrivacyPreferences) -> tuple:
    """Canonical hashable form (the serving cache's key component).

    Two preference objects that score every session identically map to
    the same key: the weight of *every* :class:`PiiType` is included
    (missing entries resolve through :meth:`PrivacyPreferences.weight`).
    """
    return (
        tuple(preferences.weight(t) for t in PiiType),
        preferences.tracker_aversion,
        preferences.plaintext_aversion,
    )


@dataclass(frozen=True)
class Recommendation:
    """The verdict for one service on one OS."""

    service: str
    os_name: str
    choice: str  # "app" | "web" | "either"
    app_score: float
    web_score: float

    @property
    def margin(self) -> float:
        return abs(self.app_score - self.web_score)

    def to_dict(self) -> dict:
        """JSON-safe form (the serving layer's wire format)."""
        return {
            "service": self.service,
            "os": self.os_name,
            "choice": self.choice,
            "app_score": self.app_score,
            "web_score": self.web_score,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class Exposure:
    """Everything scoring reads of one cell.

    ``leak_types`` is the set of leaked identifier classes,
    ``plaintext_type`` the class of the *first* plaintext leak in list
    order (``None`` when nothing leaked unencrypted), and ``aa_domains``
    the number of A&A domains contacted.  A study's table of these
    (:func:`exposure_table`) is built once and scored under any number
    of preferences.
    """

    leak_types: frozenset
    plaintext_type: Optional[PiiType]
    aa_domains: int

    @classmethod
    def of(cls, analysis: SessionAnalysis) -> "Exposure":
        plaintext_type = next(
            (record.pii_type for record in analysis.leaks if record.plaintext), None
        )
        return cls(
            frozenset(analysis.leak_types), plaintext_type, len(analysis.aa_domains)
        )

    def score(self, preferences: PrivacyPreferences) -> float:
        """Privacy-invasiveness score; higher is worse."""
        # fsum's exactly rounded total does not depend on the set's
        # iteration order, which follows the string-hash seed.
        score = math.fsum(map(preferences.weight, self.leak_types))
        if self.plaintext_type is not None:
            # One plaintext penalty per type set, not per event.
            score += preferences.plaintext_aversion * preferences.weight(
                self.plaintext_type
            )
        score += preferences.tracker_aversion * self.aa_domains
        return score


def exposure_table(study: StudyResult) -> dict:
    """``(slug, os, medium) -> Exposure`` for every cell of ``study``."""
    return {
        (result.spec.slug, os_name, medium): Exposure.of(analysis)
        for result in study.services
        for (os_name, medium), analysis in result.sessions.items()
    }


def score_session(analysis: SessionAnalysis, preferences: PrivacyPreferences) -> float:
    """Privacy-invasiveness score for one cell; higher is worse."""
    return Exposure.of(analysis).score(preferences)


class Recommender:
    """Scores a study and answers "should you use the app for that?".

    ``exposures`` is the study's :func:`exposure_table`, built here
    unless the caller already holds one (the serving store builds it
    once per snapshot).
    """

    def __init__(
        self,
        study: StudyResult,
        preferences: Optional[PrivacyPreferences] = None,
        exposures: Optional[dict] = None,
    ) -> None:
        self.study = study
        self.preferences = preferences if preferences is not None else PrivacyPreferences()
        self.exposures = exposures if exposures is not None else exposure_table(study)

    def recommend_service(self, result: ServiceResult, os_name: str) -> Optional[Recommendation]:
        slug = result.spec.slug
        app = self.exposures.get((slug, os_name, APP))
        web = self.exposures.get((slug, os_name, WEB))
        if app is None or web is None:
            return None
        app_score = app.score(self.preferences)
        web_score = web.score(self.preferences)
        if abs(app_score - web_score) < 1e-9:
            choice = "either"
        elif app_score < web_score:
            choice = APP
        else:
            choice = WEB
        return Recommendation(
            service=slug,
            os_name=os_name,
            choice=choice,
            app_score=app_score,
            web_score=web_score,
        )

    def recommend(self, slug: str, os_name: str) -> Optional[Recommendation]:
        return self.recommend_service(self.study.by_slug(slug), os_name)

    def recommend_all(self, os_name: str) -> list:
        out = []
        for result in self.study.services:
            recommendation = self.recommend_service(result, os_name)
            if recommendation is not None:
                out.append(recommendation)
        return out

    def summary(self, os_name: str) -> dict:
        """How often each medium wins under these preferences."""
        counts = {"app": 0, "web": 0, "either": 0}
        for recommendation in self.recommend_all(os_name):
            counts[recommendation.choice] += 1
        return counts
