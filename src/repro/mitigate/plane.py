"""The inline mitigation data plane.

:class:`MitigationAddon` rides the proxy's request-rewrite stage (see
``proxy/meddle.py``): for every decryptable request it runs the
ground-truth matcher (:mod:`repro.pii.matcher`) over the outgoing
bytes, looks the matches up in a
:class:`~repro.mitigate.policy.MitigationPolicy`, and rewrites the URL,
headers, cookies, and body in place before the request reaches the
(simulated) network.

Rewrites are *shape-preserving*: every encoded variant of a value is
replaced by a same-length string drawn from the same alphabet — hex
digests stay hex-parseable, base64 blobs stay decodable, URL-encoded
fields stay unreserved — so the carrying document survives.  Hash
replacements are keyed by ``(seed, type, value)``, giving analytics a
stable per-run pseudonym; the digest alphabet is folded to letters so a
replacement can never re-trigger the digit-boundary or GPS-tolerance
detectors.  Blocked requests are answered with a synthetic ``403``
without touching the network, and the recorded copy is scrubbed so a
blocked value never lands in a trace.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass

from ..net.flow import CapturedRequest
from ..http.body import gzip_compress, gzip_decompress
from ..http.headers import Headers
from ..http.message import Response
from ..http.url import parse_url
from ..pii import encodings
from ..pii.matcher import _COORD_RE, GPS_TOLERANCE, matcher_for
from ..pii.types import PiiType
from ..trackerdb.categorize import OS_SERVICE
from .policy import (
    ACTION_ALLOW,
    ACTION_BLOCK,
    ACTION_HASH,
    ACTION_SCRUB,
    FIRST_PARTY,
    THIRD_PARTY,
    MitigationPolicy,
)

# Encodings whose forms must stay hex-parseable after rewriting.
_HEX_ENCODINGS = frozenset(
    {encodings.HEX, encodings.MD5, encodings.SHA1, encodings.SHA256}
)

# Digest folding: replacements must never contain digits, or a slice of
# a pseudonym could satisfy the matcher's digit-boundary forms (ZIPs,
# phone fragments) or parse as a GPS token.  Hex-class replacements fold
# digits into a-f (still valid hex); everything else folds past 'f' so
# the result cannot collide with a real digest either.
_HEX_FOLD = str.maketrans("0123456789", "abcdefabcd")
_TEXT_FOLD = str.maketrans("0123456789", "ghijklmnop")

# Stop recording per-flow latencies past this point; the benchmark only
# needs a bounded sample and studies can see millions of flows.
_LATENCY_CAP = 1_000_000

_BLOCK_BODY = b"blocked by mitigation policy\n"


def scrub_replacement(form: str, encoding: str) -> str:
    """Same-length redaction in the form's own alphabet."""
    fill = "0" if encoding in _HEX_ENCODINGS else "x"
    return fill * len(form)


def _pseudonym(seed: int, pii_type: PiiType, value: str) -> str:
    return hashlib.sha256(
        f"repro-mitigate:{seed}:{pii_type.value}:{value}".encode()
    ).hexdigest()


def hash_replacement(
    form: str, encoding: str, pii_type: PiiType, value: str, seed: int
) -> str:
    """Deterministic same-length pseudonym for one encoded form.

    Keyed by ``(seed, type, value)`` — not by the form — so every
    encoding of the same value maps onto slices of one pseudonym and
    cross-encoding linkability survives mitigation.
    """
    digest = _pseudonym(seed, pii_type, value)
    digest = digest.translate(_HEX_FOLD if encoding in _HEX_ENCODINGS else _TEXT_FOLD)
    repeats = len(form) // len(digest) + 1
    return (digest * repeats)[: len(form)]


@dataclass(frozen=True)
class RewritePlan:
    """Compiled substitutions for one set of (value, action) targets.

    ``substitutions`` holds ``(lowered form, pattern, replacement)``
    triples sorted longest-form-first so nested forms (a value inside
    its own URL-encoding, digits inside a formatted phone number) are
    consumed by the outermost match.  ``coords`` holds
    ``(coordinate, pseudonym-or-None)`` pairs handled by GPS-tolerance
    token replacement.
    """

    substitutions: tuple
    coords: tuple

    @property
    def empty(self) -> bool:
        return not self.substitutions and not self.coords


def build_rewrite_plan(targets, seed: int) -> RewritePlan:
    """Compile ``(pii_type, value, is_coordinate, action)`` targets.

    ``block`` targets are planned as scrubs: the blocked request is
    still recorded in the trace, and nothing blocked may survive in it.
    """
    subs: dict = {}
    coords: list = []
    for pii_type, value, is_coordinate, action in targets:
        fill_action = ACTION_SCRUB if action == ACTION_BLOCK else action
        if is_coordinate:
            pseudonym = None
            if fill_action == ACTION_HASH:
                pseudonym = _pseudonym(seed, pii_type, value).translate(_TEXT_FOLD)
            coords.append((float(value), pseudonym))
            continue
        for form, encoding in encodings.variants(value, include_hashes=True).items():
            lowered = form.lower()
            if lowered in subs:
                continue
            if fill_action == ACTION_HASH:
                replacement = hash_replacement(form, encoding, pii_type, value, seed)
            else:
                replacement = scrub_replacement(form, encoding)
            subs[lowered] = (form, replacement)
    ordered = sorted(subs.items(), key=lambda item: (-len(item[0]), item[0]))
    compiled = tuple(
        (lowered, re.compile(re.escape(form), re.IGNORECASE), replacement)
        for lowered, (form, replacement) in ordered
    )
    return RewritePlan(substitutions=compiled, coords=tuple(sorted(set(coords))))


def rewrite_text(text: str, plan: RewritePlan) -> str:
    """Apply a plan to one text; replacements preserve length."""
    if not text:
        return text
    lowered = text.lower()
    for low_form, pattern, replacement in plan.substitutions:
        if low_form in lowered:
            text = pattern.sub(replacement, text)
            lowered = text.lower()
    if plan.coords and "." in text:
        text = _COORD_RE.sub(lambda match: _coord_token(match, plan.coords), text)
    return text


def _coord_token(match: "re.Match", coords: tuple) -> str:
    token = match.group(0)
    try:
        number = float(token)
    except ValueError:
        return token
    for coordinate, pseudonym in coords:
        if abs(number - coordinate) <= GPS_TOLERANCE:
            if pseudonym is None:
                return "x" * len(token)
            repeats = len(token) // len(pseudonym) + 1
            return (pseudonym * repeats)[: len(token)]
    return token


@dataclass(frozen=True)
class MitigationDecision:
    """One inline verdict: what was done to one value on one flow."""

    service: str
    os_name: str
    medium: str
    host: str
    party: str
    pii_type: PiiType
    action: str
    encoding: str


class MitigationAddon:
    """Proxy addon implementing the mitigation data plane.

    Staging mirrors :class:`~repro.proxy.addons.StreamCapture`: install
    via ``phone_setup`` (``stage_phone``) so the matcher is built from
    the device's ground truth, and let ``capture_start`` select the
    service spec whose categorizer decides first- vs third-party.
    """

    def __init__(
        self,
        policy: MitigationPolicy,
        services=(),
        seed: int = 0,
        record_latency: bool = True,
    ) -> None:
        self.policy = policy
        self.seed = seed
        self._specs = {spec.slug: spec for spec in services}
        self._enabled = bool(policy.active_types())
        if not self._enabled:
            # An all-allow policy never rewrites: unpublish the hot-path
            # hook (add_addon skips None callbacks) so the proxy's
            # rewrite stage stays a single dict lookup per request.
            self.rewrite_request = None
        self._matcher = None
        self._categorizer = None
        self._session = ("", "", "")
        self._plan_cache: dict = {}
        self.decisions: list = []
        self.flows_seen = 0
        self.requests_seen = 0
        self.requests_rewritten = 0
        self.requests_blocked = 0
        self.latencies_ns: list = [] if record_latency else None

    # -- study lifecycle ----------------------------------------------------

    def stage_phone(self, phone) -> None:
        """``phone_setup`` hook: build the matcher from device truth."""
        self.stage_ground_truth(phone.ground_truth())

    def stage_ground_truth(self, ground_truth: dict) -> None:
        self._matcher = matcher_for(ground_truth) if self._enabled else None

    def capture_start(self, meta) -> None:
        self._session = (meta.service, meta.os_name, meta.medium)
        spec = self._specs.get(meta.service)
        if spec is None:
            self._categorizer = None
        else:
            from ..core.pipeline import categorizer_for

            self._categorizer = categorizer_for(spec)

    def capture_stop(self, trace) -> None:
        self._session = ("", "", "")
        self._categorizer = None

    # -- the hot path -------------------------------------------------------

    def rewrite_request(self, flow, request):
        """Proxy rewrite-stage hook; see ``InterceptionProxy``."""
        matcher = self._matcher
        if matcher is None:
            return None
        if self.latencies_ns is None:
            return self._decide(matcher, flow, request)
        started = time.perf_counter_ns()
        try:
            return self._decide(matcher, flow, request)
        finally:
            if len(self.latencies_ns) < _LATENCY_CAP:
                self.latencies_ns.append(time.perf_counter_ns() - started)

    def _decide(self, matcher, flow, request):
        self.requests_seen += 1
        tags = flow.tags
        if tags and ("background" in tags or "os-service" in tags):
            # The leak policy never counts OS/background traffic; the
            # data plane leaves it untouched for the same reason.
            return None
        view = CapturedRequest(
            method=request.method,
            url=str(request.url),
            headers=request.headers.items(),
            body=request.body,
        )
        matches = matcher.match_request(view)
        if not matches:
            return None
        party = self._party(flow, request)
        if party is None:
            return None
        policy = self.policy
        targets = []
        blocked = False
        for match in sorted(
            matches, key=lambda m: (m.pii_type.value, m.value, m.encoding)
        ):
            action = policy.action_for(match.pii_type, party)
            if action == ACTION_ALLOW:
                continue
            targets.append((match, action))
            if action == ACTION_BLOCK:
                blocked = True
        if not targets:
            return None
        plan = self._plan_for(targets)
        rewritten = apply_plan(request, plan)
        service, os_name, medium = self._session
        host = flow.hostname
        for match, action in targets:
            self.decisions.append(
                MitigationDecision(
                    service=service,
                    os_name=os_name,
                    medium=medium,
                    host=host,
                    party=party,
                    pii_type=match.pii_type,
                    action=action,
                    encoding=match.encoding,
                )
            )
        flow.tags.add("mitigated")
        if blocked:
            self.requests_blocked += 1
            response = Response.build(
                403,
                body=_BLOCK_BODY,
                content_type="text/plain",
                headers=[("X-Mitigation", "block")],
            )
            return (rewritten, response)
        self.requests_rewritten += 1
        return rewritten if rewritten is not request else None

    def _party(self, flow, request):
        """First/third-party from the study categorizer, or None to skip."""
        categorizer = self._categorizer
        if categorizer is None:
            # Outside a staged session there is no first-party notion;
            # privacy-conservative default is to treat hosts as third
            # parties.
            return THIRD_PARTY
        host = flow.hostname
        category = categorizer.categorize_host(host, str(request.url))
        if category.label == OS_SERVICE:
            return None
        if category.is_first_party or categorizer.is_sso_host(host):
            return FIRST_PARTY
        return THIRD_PARTY

    def _plan_for(self, targets) -> RewritePlan:
        key = tuple(
            (match.pii_type.value, match.value, match.encoding == "coordinate", action)
            for match, action in targets
        )
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = build_rewrite_plan(
                (
                    (match.pii_type, match.value, match.encoding == "coordinate", action)
                    for match, action in targets
                ),
                self.seed,
            )
            self._plan_cache[key] = plan
        return plan

    # -- reporting ----------------------------------------------------------

    def tcp_connect(self, flow) -> None:
        self.flows_seen += 1

    def decision_summary(self) -> dict:
        """Counts by action, party, and PII type, plus flow totals."""
        by_action: dict = {}
        by_party: dict = {}
        by_type: dict = {}
        for decision in self.decisions:
            by_action[decision.action] = by_action.get(decision.action, 0) + 1
            by_party[decision.party] = by_party.get(decision.party, 0) + 1
            key = decision.pii_type.value
            by_type[key] = by_type.get(key, 0) + 1
        return {
            "decisions": len(self.decisions),
            "by_action": dict(sorted(by_action.items())),
            "by_party": dict(sorted(by_party.items())),
            "by_type": dict(sorted(by_type.items())),
            "requests_seen": self.requests_seen,
            "requests_rewritten": self.requests_rewritten,
            "requests_blocked": self.requests_blocked,
        }

    def latency_percentiles(self) -> dict:
        """p50/p99 (and mean/max) of recorded per-request decision time."""
        sample = self.latencies_ns or []
        if not sample:
            return {"count": 0, "p50_us": 0.0, "p99_us": 0.0, "mean_us": 0.0, "max_us": 0.0}
        ordered = sorted(sample)
        count = len(ordered)

        def at(q: float) -> float:
            index = min(count - 1, int(q * count))
            return ordered[index] / 1000.0

        return {
            "count": count,
            "p50_us": at(0.50),
            "p99_us": at(0.99),
            "mean_us": sum(ordered) / count / 1000.0,
            "max_us": ordered[-1] / 1000.0,
        }


def apply_plan(request, plan: RewritePlan):
    """Rewrite one outgoing request under a compiled plan.

    Returns the original object untouched when nothing matches;
    otherwise a fresh :class:`~repro.http.message.Request` (the caller's
    object is never mutated — the client may reuse it for redirects).
    The URL rewrite is limited to the request-target so the origin, and
    therefore routing, can never change; the ``Host`` header is skipped
    for the same reason.
    """
    if plan.empty:
        return request
    url = request.url
    target = url.request_target
    new_target = rewrite_text(target, plan)
    url_changed = new_target != target

    headers_changed = False
    rewritten_items = []
    for name, value in request.headers.items():
        if name.lower() == "host":
            rewritten_items.append((name, value))
            continue
        new_value = rewrite_text(value, plan)
        if new_value != value:
            headers_changed = True
        rewritten_items.append((name, new_value))

    new_body = request.body
    if request.body:
        content_encoding = (request.headers.get("Content-Encoding") or "").lower()
        if content_encoding == "gzip":
            inflated = gzip_decompress(request.body)
            if inflated is not None:
                text = inflated.decode("latin-1")
                new_text = rewrite_text(text, plan)
                if new_text != text:
                    new_body = gzip_compress(new_text.encode("latin-1"))
            # Invalid gzip stays opaque — the analyzer cannot read it
            # either, so nothing inside it is detectable.
        else:
            text = request.body.decode("latin-1")
            new_text = rewrite_text(text, plan)
            if new_text != text:
                new_body = new_text.encode("latin-1")
    body_changed = new_body is not request.body

    if not (url_changed or headers_changed or body_changed):
        return request
    rewritten = request.copy()
    if url_changed:
        rewritten.url = parse_url(url.origin + new_target)
    if headers_changed:
        rewritten.headers = Headers(rewritten_items)
    if body_changed:
        rewritten.body = new_body
        if len(new_body) != len(request.body) and "Content-Length" in rewritten.headers:
            rewritten.headers.set("Content-Length", str(len(new_body)))
    return rewritten
