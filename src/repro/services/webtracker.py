"""Server-side behaviour of the third-party ecosystem.

One handler class per third-party role:

- :class:`AnalyticsHandler` — ``/collect``-style beacons answered with a
  1×1 GIF (or empty JSON for POST), setting a persistent ID cookie on
  web clients;
- :class:`ExchangeHandler` — ad requests that trigger real-time-bidding
  redirect chains through partner exchanges with cookie syncing, ending
  in a creative.  These chains are why the paper sees browsers "redirect
  through several more" A&A domains (§1);
- :class:`ScriptHandler` — tag/measurement JavaScript for web pages;
- :class:`IdentityHandler` — Gigya/Usablenet-style third-party login
  endpoints that receive credentials from first-party pages and apps;
- :class:`OsServiceHandler` — the OS background services (§3.2 filters
  their traffic by domain).

All byte sizes are deterministic (keyed hashes), so runs are exactly
reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Optional

from ..http.body import encode_json
from ..http.cookies import parse_cookie_header
from ..http.message import Request, Response
from ..http.url import encode_query, parse_url
from .thirdparty import AD_EXCHANGE, ThirdParty, get as get_party

GIF_BODY = b"GIF89a\x01\x00\x01\x00\x80\x00\x00\xff\xff\xff\x00\x00\x00!\xf9"

# Beacon acknowledgements are identical for every hit; encode once.
OK_JSON_BODY = encode_json({"status": "ok"})


def sized_blob(seed: str, low: int, high: int) -> bytes:
    """Deterministic pseudo-content of a size derived from ``seed``."""
    if low > high:
        raise ValueError(f"empty size range [{low}, {high}]")
    digest = hashlib.sha256(seed.encode()).digest()
    span = high - low + 1
    size = low + int.from_bytes(digest[:4], "big") % span
    unit = digest * (size // len(digest) + 1)
    return unit[:size]


class _CookieMinter:
    """Hands out stable per-party user IDs via Set-Cookie."""

    def __init__(self, party_domain: str) -> None:
        self._domain = party_domain
        self._counter = itertools.count(1)

    def ensure_uid(self, request: Request, response: Response, cookie_name: str = "uid") -> str:
        """Return the client's tracker ID, minting one if absent."""
        cookie_header = request.headers.get("Cookie", "")
        for name, value in parse_cookie_header(cookie_header):
            if name == cookie_name:
                return value
        uid = f"{self._domain.split('.')[0]}-{next(self._counter):08d}"
        response.headers.add(
            "Set-Cookie",
            f"{cookie_name}={uid}; Domain={self._domain}; Path=/; Max-Age=31536000",
        )
        return uid


class AnalyticsHandler:
    """Beacon collector for analytics/verification/tag-manager hosts."""

    def __init__(self, party: ThirdParty) -> None:
        self.party = party
        self._minter = _CookieMinter(party.domain)
        self.beacons_received = 0

    def handle(self, request: Request) -> Response:
        path = request.url.path
        if path.endswith(".js") or "/tag" in path:
            return _script_response(self.party.domain, path)
        if path.startswith("/sync"):
            # Analytics platforms participate in cookie-sync chains too:
            # set our ID, pass the user along.
            response = _next_hop(self.party, dict(request.url.query_pairs()))
            self._minter.ensure_uid(request, response)
            return response
        self.beacons_received += 1
        if request.method == "POST":
            response = Response.build(200, OK_JSON_BODY, "application/json")
        else:
            response = Response.build(200, GIF_BODY, "image/gif")
        self._minter.ensure_uid(request, response)
        return response


class ExchangeHandler:
    """RTB ad exchange: bid, sync cookies through partners, serve creative.

    ``GET /ad?...`` starts a chain: 302 to the first partner's ``/sync``,
    each partner sets its own cookie and forwards to the next, and the
    last hop returns to this exchange's ``/creative``.  The remaining
    chain travels in the ``chain`` query parameter.
    """

    def __init__(self, party: ThirdParty, creative_bytes: tuple = (8_000, 40_000)) -> None:
        self.party = party
        self._minter = _CookieMinter(party.domain)
        self.creative_bytes = creative_bytes
        self.ad_requests = 0
        self.sync_requests = 0
        self.beacons_received = 0

    def _creative(self, seed: str) -> Response:
        body = sized_blob(f"creative:{self.party.domain}:{seed}", *self.creative_bytes)
        return Response.build(200, body, "image/jpeg")

    def handle(self, request: Request) -> Response:
        path = request.url.path
        params = dict(request.url.query_pairs())
        if path.endswith(".js") or "/tag" in path:
            return _script_response(self.party.domain, path)
        if path.startswith("/sync"):
            self.sync_requests += 1
            response = _next_hop(self.party, params)
            self._minter.ensure_uid(request, response, cookie_name=f"{self.party.domain.split('.')[0]}_uid")
            return response
        if path.startswith("/creative"):
            return self._creative(params.get("slot", "0"))
        if not path.startswith("/ad"):
            # SDK configuration fetches and event beacons: tiny replies,
            # not creatives.
            self.beacons_received += 1
            if request.method == "POST":
                response = Response.build(200, OK_JSON_BODY, "application/json")
            else:
                response = Response.build(200, GIF_BODY, "image/gif")
            self._minter.ensure_uid(request, response)
            return response
        # /ad — the RTB entry point
        self.ad_requests += 1
        partners = [p for p in self.party.rtb_partners]
        slot = params.get("slot", "0")
        if partners:
            chain = ",".join(partners)
            first = get_party(partners[0]).beacon_host
            target = (
                f"https://{first}/sync?"
                + encode_query(
                    [("chain", chain), ("origin", self.party.domain), ("slot", slot)]
                )
            )
            response = Response(status=302)
            response.headers.set("Location", target)
        else:
            response = self._creative(slot)
        self._minter.ensure_uid(request, response)
        return response


def _next_hop(current: ThirdParty, params: dict) -> Response:
    """Build the redirect to the next sync partner or back to origin."""
    chain = [d for d in params.get("chain", "").split(",") if d]
    # Drop ourselves from the head of the chain.
    if chain and chain[0] == current.domain:
        chain = chain[1:]
    origin = params.get("origin", "")
    slot = params.get("slot", "0")
    if chain:
        nxt = get_party(chain[0]).beacon_host
        target = f"https://{nxt}/sync?" + encode_query(
            [("chain", ",".join(chain)), ("origin", origin), ("slot", slot)]
        )
    elif origin:
        target = f"https://{get_party(origin).beacon_host}/creative?" + encode_query(
            [("slot", slot)]
        )
    else:
        return Response.build(200, GIF_BODY, "image/gif")
    response = Response(status=302)
    response.headers.set("Location", target)
    return response


class ScriptHandler:
    """Serves measurement/tag JavaScript (CDN-ish hosts)."""

    def __init__(self, party: ThirdParty, script_bytes: tuple = (15_000, 60_000)) -> None:
        self.party = party
        self.script_bytes = script_bytes

    def handle(self, request: Request) -> Response:
        return _script_response(self.party.domain, request.url.path, self.script_bytes)


def _script_response(domain: str, path: str, size: tuple = (15_000, 60_000)) -> Response:
    body = sized_blob(f"script:{domain}:{path}", *size)
    return Response.build(200, body, "application/javascript")


class IdentityHandler:
    """Third-party identity/credential management (Gigya, Usablenet).

    Accepts login POSTs carrying username/password.  Not listed in
    EasyList — these are the §4.2 password recipients that only a PII
    detector (not domain categorization) can surface.
    """

    def __init__(self, party: ThirdParty) -> None:
        self.party = party
        self.logins_received = 0

    def handle(self, request: Request) -> Response:
        if request.method == "POST":
            self.logins_received += 1
            return Response.build(
                200,
                encode_json({"sessionToken": f"tok-{self.logins_received:06d}", "ok": True}),
                "application/json",
            )
        return Response.build(200, encode_json({"service": self.party.name}), "application/json")


class CdnHandler:
    """Plain content CDN (images, fonts, stylesheets)."""

    def __init__(self, party: ThirdParty, asset_bytes: tuple = (5_000, 120_000)) -> None:
        self.party = party
        self.asset_bytes = asset_bytes

    def handle(self, request: Request) -> Response:
        path = request.url.path
        body = sized_blob(f"cdn:{self.party.domain}:{path}", *self.asset_bytes)
        if path.endswith(".js"):
            content_type = "application/javascript"
        elif path.endswith(".css"):
            content_type = "text/css"
        else:
            content_type = "image/jpeg"
        return Response.build(200, body, content_type)


class OsServiceHandler:
    """OS background endpoints (Play Services, iCloud, push keepalives)."""

    def handle(self, request: Request) -> Response:
        return Response.build(200, encode_json({"checkin": "ok"}), "application/json")


def handler_for(party: ThirdParty):
    """Instantiate the right handler class for a third party's role."""
    from .thirdparty import ANALYTICS, AD_NETWORK, CDN, IDENTITY, TAG_MANAGER, VERIFICATION

    if party.role == AD_EXCHANGE:
        return ExchangeHandler(party)
    if party.role == AD_NETWORK:
        # Ad networks serve creatives but don't run sync chains of their
        # own; an ExchangeHandler with no partners models that exactly.
        return ExchangeHandler(party)
    if party.role in (ANALYTICS, VERIFICATION, TAG_MANAGER):
        return AnalyticsHandler(party)
    if party.role == IDENTITY:
        return IdentityHandler(party)
    if party.role == CDN:
        return CdnHandler(party)
    raise ValueError(f"no handler for role {party.role!r}")
