"""Ground-truth string matching over captured traffic.

The controlled-experiment half of §3.2's detection methodology: because
every piece of PII on the test device is known, the matcher can search
each request for every encoded variant of every known value.  GPS
coordinates get special treatment — services transmit them "with
arbitrary precision", so numeric tokens are compared within a tolerance
instead of textually.

Searching is the pipeline's hot path.  The scan probes each encoded form
with one C-level substring test (about 140 forms for one phone and
persona), and two per-matcher memos answer the repeats — captured traffic
repeats header and cookie values thousands of times.  The request memo
maps a request's ``(url, headers, body)`` to its matches; the text memo
maps each scanned field value to its matches.  A request's whole text
(:func:`~repro.pii.structure.searchable_text`) is scanned but never
memoized: it is a function of the request memo's key, so the request
memo answers a repeat before the text is even built.  Nothing is
indexed per ground-truth set: every campaign session brings new ground
truth, so a build is only the memoized
:func:`~repro.pii.encodings.variants` lookups plus the scan plan.  Two exact prescreens skip most of a scan: one probe per distinct
lowered form decides whether the per-form loop can hit at all (few
texts hold any form), and the integer parts of each coordinate's
tolerance window decide whether a text can hold an in-tolerance GPS
token.  ``slow=True`` skips the memos and the prescreens and is the
reference the equivalence tests and the QA oracle compare against, so
they pin both.

Case handling is explicit: every form is searched case-insensitively
(hosts uppercase MACs, lowercase e-mails, etc.), *except* that the pure
case-variant encodings — ``uppercase`` always, and ``identity`` when a
distinct ``lowercase`` form of the same value is registered — match
case-sensitively only.  This keeps one occurrence from being reported
once per case variant (the seed double-counted ``"john"`` as both an
identity and a lowercase hit) while preserving recall: the
case-insensitive representative of each value always fires.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..net.flow import CapturedRequest
from . import encodings
from .structure import extract_fields, searchable_text
from .types import PiiType

# A coordinate token: optional sign, digits, a dot, 2+ decimals.
_COORD_RE = re.compile(r"-?\d{1,3}\.\d{2,}")
GPS_TOLERANCE = 0.02
# Slack on the tolerance window's bounds for the GPS prescreen: the
# token 4.99999999999999999 parses to 5.0, which is within tolerance of
# 5.02, whose window starts at exactly 5.0 in floating point, so the
# screen must still probe for "4.".
_GPS_SLACK = 1e-9

# Forms whose hit is decided case-insensitively vs. case-sensitively.
_CI = "ci"
_CS = "cs"

# Memo bound: one entry per distinct scanned text.  Traces repeat texts
# heavily (cookies, user-agents, beacon bodies); the cap only exists to
# bound pathological streams of unique texts.
_MEMO_MAX = 65536


@dataclass(frozen=True)
class PiiMatch:
    """One detected occurrence of a ground-truth value in a request."""

    pii_type: PiiType
    value: str  # the ground-truth value (not the encoded form)
    encoding: str
    source: str  # structure source, or "text" for raw scans
    key: str = ""


class GroundTruthMatcher:
    """Searches requests for known PII values under common encodings."""

    def __init__(
        self, ground_truth: dict, include_hashes: bool = True, slow: bool = False
    ) -> None:
        """``ground_truth`` maps :class:`PiiType` to lists of raw values.

        ``slow=True`` scans every text afresh, without the text and
        request memos — the reference the memoized path is verified
        against.
        """
        self._slow = slow
        self._forms: dict = {}  # encoded form -> (PiiType, value, encoding)
        self._digit_forms: list = []  # (compiled regex, PiiType, value, encoding)
        self._coords: list = []  # (float value, raw string) for LOCATION
        has_lower: set = set()  # (PiiType, value) with a distinct LOWER form
        for pii_type, values in ground_truth.items():
            for value in values:
                if pii_type == PiiType.LOCATION and _looks_like_coordinate(value):
                    self._coords.append((float(value), value))
                    continue
                for form, encoding in encodings.variants(
                    value, include_hashes=include_hashes
                ).items():
                    if form.isdigit() and len(form) < 10:
                        # Short digit strings (ZIP codes, short phone
                        # fragments) need digit boundaries or they match
                        # inside random numeric identifiers.
                        pattern = re.compile(rf"(?<!\d){re.escape(form)}(?!\d)")
                        self._digit_forms.append(
                            (form, pattern, pii_type, value, encoding)
                        )
                    else:
                        self._forms.setdefault(form, (pii_type, value, encoding))
                        if encoding == encodings.LOWER:
                            has_lower.add((pii_type, value))

        # Scan plan: (form, lowered form, type, value, encoding, mode),
        # in registration order, which is the order matches are reported.
        self._plan: list = []
        for form, (pii_type, value, encoding) in self._forms.items():
            if encoding == encodings.UPPER or (
                encoding == encodings.IDENTITY and (pii_type, value) in has_lower
            ):
                mode = _CS
            else:
                mode = _CI
            self._plan.append((form, form.lower(), pii_type, value, encoding, mode))
        # Prescreen of the per-form loop: a case-insensitive form hits
        # iff its lowered form is in the lowered text, and an ASCII
        # case-sensitive one only if so (lowering maps ASCII characters
        # one to one).  A non-ASCII case-sensitive form ("Σ" lowers by
        # context) turns the prescreen off.
        self._lows: Optional[tuple] = None
        if all(form.isascii() for form, *_rest, mode in self._plan if mode == _CS):
            self._lows = tuple(dict.fromkeys(low for _form, low, *_rest in self._plan))
        # Prescreen of the GPS pass: every token within GPS_TOLERANCE of
        # a coordinate has, as its integer part before the dot, the
        # integer part of one of the window's two bounds, possibly
        # behind leading zeros: the window is narrower than 1, and one
        # that crosses zero holds only tokens of integer part 0.
        self._coord_probes = tuple(
            dict.fromkeys(
                f"{int(abs(bound))}."
                for coord, _raw in self._coords
                for bound in (
                    coord - GPS_TOLERANCE - _GPS_SLACK,
                    coord + GPS_TOLERANCE + _GPS_SLACK,
                )
            )
        )
        self._memo: dict = {}
        self._request_memo: dict = {}

    def match_text(self, text: str) -> list:
        """Scan free text; returns deduplicated :class:`PiiMatch` list."""
        if len(text) < encodings.MIN_SEARCHABLE_LENGTH:
            # Nothing searchable is this short: forms and digit forms are
            # at least MIN_SEARCHABLE_LENGTH chars, coordinates at least
            # four ("0.00").
            return []
        if self._slow:
            return self._scan(text)
        cached = self._memo.get(text)
        if cached is None:
            if len(self._memo) >= _MEMO_MAX:
                self._memo.clear()
            cached = self._memo[text] = tuple(self._scan(text))
        return list(cached)

    def _scan(self, text: str) -> list:
        """One substring probe per encoded form, then the extras."""
        found: dict = {}
        lowered = text.lower()
        plan = self._plan
        if (
            not self._slow
            and self._lows is not None
            and not any(map(lowered.__contains__, self._lows))
        ):
            plan = ()  # no form can hit
        for form, low, pii_type, value, encoding, mode in plan:
            # Case-insensitive search for every form, except the pure
            # case-variant encodings which must match exactly.
            if mode == _CS:
                hit = form in text
            else:
                hit = low in lowered
            if hit:
                found[(pii_type, value, encoding)] = PiiMatch(
                    pii_type=pii_type, value=value, encoding=encoding, source="text"
                )
        self._scan_extras(text, found)
        return list(found.values())

    def _scan_extras(self, text: str, found: dict) -> None:
        """Digit-boundary and GPS-tolerance cases."""
        for form, pattern, pii_type, value, encoding in self._digit_forms:
            # C-speed substring prescreen; the regex only confirms the
            # digit boundaries once the literal is known to occur.
            if form in text and pattern.search(text):
                found[(pii_type, value, encoding)] = PiiMatch(
                    pii_type=pii_type, value=value, encoding=encoding, source="text"
                )
        if not self._coords or "." not in text:
            # Every coordinate token contains a dot; skip the regex when
            # the text cannot possibly hold one.
            return
        if (
            not self._slow
            and text.isascii()  # ``\d`` and ``float`` also take non-ASCII digits
            and not any(map(text.__contains__, self._coord_probes))
        ):
            return
        tokens = _COORD_RE.findall(text)
        if not tokens:
            return
        for coord, raw in self._coords:
            for token in tokens:
                try:
                    if abs(float(token) - coord) <= GPS_TOLERANCE:
                        found[(PiiType.LOCATION, raw, "coordinate")] = PiiMatch(
                            pii_type=PiiType.LOCATION,
                            value=raw,
                            encoding="coordinate",
                            source="text",
                        )
                        break
                except ValueError:
                    continue

    def match_request(self, request: CapturedRequest, fields: Optional[list] = None) -> list:
        """Scan a captured request, attributing hits to structured keys.

        Structure-attributed matches replace their text-scan twins, so a
        value found in the query string reports ``source="query"`` and
        the parameter name rather than a bare text hit.

        Results are memoized per request content — traces repeat beacon
        and heartbeat requests heavily, and the matches are pure
        functions of (url, headers, body).  ``fields`` is the request's
        :func:`~repro.pii.structure.extract_fields`, when the caller
        already has them; they are read only on a memo miss.
        """
        if not self._slow:
            # Captured headers are already (name, value) tuples, so one
            # outer tuple() makes the list hashable.
            memo_key = (request.url, tuple(request.headers), request.body)
            cached = self._request_memo.get(memo_key)
            if cached is not None:
                return list(cached)
        by_identity = {}
        for match in self._scan(searchable_text(request)):
            by_identity[(match.pii_type, match.value, match.encoding)] = match
        if fields is None:
            fields = extract_fields(request)
        for field in fields:
            for match in self.match_text(field.value):
                key = (match.pii_type, match.value, match.encoding)
                by_identity[key] = PiiMatch(
                    pii_type=match.pii_type,
                    value=match.value,
                    encoding=match.encoding,
                    source=field.source,
                    key=field.key,
                )
        matches = list(by_identity.values())
        if not self._slow:
            if len(self._request_memo) >= _MEMO_MAX:
                self._request_memo.clear()
            self._request_memo[memo_key] = tuple(matches)
        return matches

    def types_in_request(self, request: CapturedRequest) -> set:
        """Convenience: the set of PII types present in a request."""
        return {match.pii_type for match in self.match_request(request)}


# One matcher per distinct ground truth, so the sessions that share one
# also share the matcher's text and request memos: a campaign user's
# consecutive sessions, a study's label pass and analysis pass over the
# same training-slice session (its 196 sessions have 196 distinct
# ground truths), and serve's uploads of a session it already serves.
# 256 matchers keep all of that reuse; 16 lose the study's and serve's.
# Cleared when full rather than evicted by recency: a warm LRU keeps all
# 256 matchers and their memos resident (~4 MB more campaign peak).
_MATCHER_CACHE: dict = {}
_MATCHER_CACHE_MAX = 256


def matcher_for(ground_truth: dict, include_hashes: bool = True) -> GroundTruthMatcher:
    """Cached :class:`GroundTruthMatcher` factory, keyed by content."""
    key = (
        include_hashes,
        tuple(
            sorted(
                (pii_type.value, tuple(values))
                for pii_type, values in ground_truth.items()
            )
        ),
    )
    matcher = _MATCHER_CACHE.get(key)
    if matcher is None:
        if len(_MATCHER_CACHE) >= _MATCHER_CACHE_MAX:
            _MATCHER_CACHE.clear()
        matcher = _MATCHER_CACHE[key] = GroundTruthMatcher(
            ground_truth, include_hashes=include_hashes
        )
    return matcher


def _looks_like_coordinate(value: str) -> bool:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return False
    return "." in value and -180.0 <= number <= 180.0
