"""Seeded scenario generator.

One integer seed deterministically derives a full randomized world: a
small service catalog (random ad-SDK/tracker mixes, leak-code strings,
credential routes, HTTPS flags), a persona-derived identifier set, and
vocabularies of probe texts, URLs, ABP filter lines, and hostnames for
the detector/matcher twins.  Every random draw comes from a private
:class:`random.Random` seeded through SHA-256 — no global RNG state is
read or written, so the same seed always produces byte-identical
scenarios regardless of interpreter hash randomization or call order.

Scenarios serialize to plain JSON (:meth:`Scenario.to_dict`) so a
failing case can be written to disk, shrunk, and replayed with
``repro fuzz --replay repro.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

from ..device.persona import generate_persona
from ..device.phone import Permission
from ..pii.encodings import variants
from ..pii.types import PiiType
from ..services import thirdparty
from ..services.catalog import CatalogRow, _build_spec
from ..services.thirdparty import AA_ROLES, AD_EXCHANGE, CDN, IDENTITY

# ---------------------------------------------------------------------------
# Deterministic sub-RNG derivation
# ---------------------------------------------------------------------------


def _sub_rng(seed: int, *parts) -> random.Random:
    """A private RNG for one labelled stream derived from the seed.

    Separate streams mean adding a draw to one component (say, the URL
    vocabulary) cannot shift every other component's output — seeds stay
    stable across harness evolution.
    """
    text = ":".join([str(seed)] + [str(part) for part in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Vocabulary pools (derived once from the registries; sorted for determinism)
# ---------------------------------------------------------------------------


def _pools():
    registry = thirdparty.registry()
    app_sdks = sorted(
        domain
        for domain, party in registry.items()
        if "app" in party.media and party.role in AA_ROLES
    )
    web_trackers = sorted(
        domain
        for domain, party in registry.items()
        if "web" in party.media and party.role in AA_ROLES
    )
    exchanges = sorted(
        domain for domain, party in registry.items() if party.role == AD_EXCHANGE
    )
    identity = sorted(
        domain
        for domain, party in registry.items()
        if party.role in (IDENTITY,) and "app" in party.media
    )
    hostnames = sorted(host for party in registry.values() for host in party.hostnames)
    return app_sdks, web_trackers, exchanges, identity, hostnames


_APP_SDK_POOL, _WEB_TRACKER_POOL, _EXCHANGE_POOL, _IDENTITY_POOL, _PARTY_HOSTNAMES = _pools()

_CATEGORIES = (
    "Business", "Education", "Entertainment", "Lifestyle",
    "Music", "News", "Shopping", "Social", "Travel", "Weather",
)

_ALL_CODES = ("B", "D", "E", "G", "L", "N", "P", "U", "PW", "UID")
_LOGIN_CODES = frozenset({"E", "U", "PW"})

_WORDS = (
    "session", "token", "page", "view", "click", "cart", "search", "profile",
    "weather", "news", "deal", "coupon", "video", "score", "event", "sync",
    "init", "beacon", "pixel", "bid", "creative", "slot", "banner", "geo",
)

_HOST_LABELS = (
    "ads", "track", "pixel", "cdn", "api", "beacon", "sync", "static",
    "collect", "metrics", "tag", "rtb", "img", "edge", "mobile",
)

# Mix of real PSL suffixes (including multi-label ones), the reserved
# test suffixes, and strings that are NOT public suffixes — exercising
# both branches of repro.trackerdb.psl.
_SUFFIX_POOL = (
    "com", "net", "org", "io", "tv", "co.uk", "com.au", "co.jp",
    "example", "test", "internal", "zz", "abcxyz",
)

_RESOURCE_TYPES = ("script", "image", "subdocument", "xmlhttprequest", "stylesheet", "other")

_FILTER_OPTION_TYPES = ("script", "image", "subdocument", "xmlhttprequest", "stylesheet")


# ---------------------------------------------------------------------------
# Public vocabulary helpers (also used by the property-based tests)
# ---------------------------------------------------------------------------


def random_hostname(rng: random.Random) -> str:
    """A random hostname, occasionally degenerate (IP, bare suffix, caps)."""
    roll = rng.random()
    if roll < 0.05:
        return ".".join(str(rng.randrange(256)) for _ in range(4))
    if roll < 0.10:
        return rng.choice(_SUFFIX_POOL)
    labels = [rng.choice(_HOST_LABELS) for _ in range(rng.randint(1, 3))]
    host = ".".join(labels + [rng.choice(_SUFFIX_POOL)])
    if rng.random() < 0.10:
        host = host.upper()
    if rng.random() < 0.05:
        host += "."
    return host


def random_url(rng: random.Random, hosts=()) -> str:
    """A random URL over registry hosts, generated hosts, or raw IPs."""
    pool = list(hosts) or _PARTY_HOSTNAMES
    roll = rng.random()
    if roll < 0.55:
        host = rng.choice(pool)
    else:
        host = random_hostname(rng).rstrip(".") or "localhost"
    scheme = rng.choice(("http", "https"))
    segments = [rng.choice(_WORDS) for _ in range(rng.randint(0, 3))]
    path = "/" + "/".join(segments)
    if segments and rng.random() < 0.4:
        path += rng.choice((".js", ".gif", ".png", ".html"))
    if rng.random() < 0.5:
        pairs = [
            f"{rng.choice(_WORDS)}={rng.randrange(10_000)}"
            for _ in range(rng.randint(1, 3))
        ]
        path += "?" + "&".join(pairs)
    return f"{scheme}://{host}{path}"


def random_filter_line(rng: random.Random) -> str:
    """A random EasyList-style filter line (sometimes comment/unsupported)."""
    roll = rng.random()
    if roll < 0.08:
        return "! comment " + rng.choice(_WORDS)
    if roll < 0.12:
        return f"##.{rng.choice(_WORDS)}"  # element hiding: parser must skip
    if roll < 0.30:
        domain = rng.choice(_PARTY_HOSTNAMES).split(".", 1)[-1]
        body = f"||{domain}^"
    elif roll < 0.55:
        body = f"||{random_hostname(rng).rstrip('.')}^"
    elif roll < 0.75:
        body = "/" + rng.choice(_WORDS) + rng.choice(("/*", ".js", "_", "/"))
    else:
        body = rng.choice(_WORDS) + rng.choice(("banner", "pixel", "ad", "sync"))
    options = []
    if rng.random() < 0.3:
        options.append(rng.choice(("third-party", "~third-party")))
    if rng.random() < 0.3:
        prefix = "~" if rng.random() < 0.3 else ""
        options.append(prefix + rng.choice(_FILTER_OPTION_TYPES))
    if rng.random() < 0.15:
        entries = []
        for _ in range(rng.randint(1, 2)):
            prefix = "~" if rng.random() < 0.4 else ""
            entries.append(prefix + rng.choice(_PARTY_HOSTNAMES).split(".", 1)[-1])
        options.append("domain=" + "|".join(entries))
    if rng.random() < 0.10:
        body = "@@" + body
    if options:
        body += "$" + ",".join(options)
    return body


# ---------------------------------------------------------------------------
# Ground truth + probe texts
# ---------------------------------------------------------------------------


def scenario_ground_truth(seed: int) -> dict:
    """The identifier set (PiiType → values) the probe texts plant."""
    persona = generate_persona(_sub_rng(seed, "persona"))
    truth = persona.ground_truth()
    rng = _sub_rng(seed, "ids")
    truth[PiiType.UNIQUE_ID] = [
        "".join(rng.choice("0123456789abcdef") for _ in range(32)),
        "35" + "".join(rng.choice("0123456789") for _ in range(13)),
    ]
    truth[PiiType.DEVICE_INFO] = ["Nexus 5", "4.4.4"]
    return truth


def _mutate_value(rng: random.Random, value: str) -> str:
    """A near-miss: one character changed — must NOT match."""
    if not value:
        return "x"
    index = rng.randrange(len(value))
    old = value[index]
    alphabet = "0123456789" if old.isdigit() else "abcdefghijklmnopqrstuvwxyz"
    new = rng.choice([c for c in alphabet if c != old.lower()] or ["x"])
    return value[:index] + new + value[index + 1:]


def _random_texts(seed: int, count: int = 14) -> tuple:
    truth = scenario_ground_truth(seed)
    pairs = sorted(
        (pii_type.value, value)
        for pii_type, values in truth.items()
        for value in values
    )
    rng = _sub_rng(seed, "texts")
    texts = []
    for _ in range(count):
        tokens = []
        for _ in range(rng.randint(0, 3)):
            _, value = rng.choice(pairs)
            forms = variants(value)
            tokens.append(rng.choice(sorted(forms)) if forms else value)
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.35:
                tokens.append(rng.choice(_WORDS))
            elif roll < 0.55:
                tokens.append("".join(rng.choice("0123456789abcdef") for _ in range(rng.randint(8, 40))))
            elif roll < 0.70:
                tokens.append(str(rng.randrange(10 ** rng.randint(3, 12))))
            elif roll < 0.85:
                _, value = rng.choice(pairs)
                tokens.append(_mutate_value(rng, value))
            else:
                # Coordinate-shaped tokens straddling the GPS tolerance.
                base = rng.uniform(-90.0, 90.0)
                tokens.append(f"{base + rng.uniform(-0.05, 0.05):.6f}")
        rng.shuffle(tokens)
        style = rng.random()
        if style < 0.35:
            keys = [rng.choice(_WORDS) for _ in tokens]
            texts.append("&".join(f"{k}={v}" for k, v in zip(keys, tokens)))
        elif style < 0.60:
            texts.append(json.dumps(
                {f"{rng.choice(_WORDS)}{i}": token for i, token in enumerate(tokens)},
                sort_keys=True,
            ))
        elif style < 0.80:
            texts.append("; ".join(f"{rng.choice(_WORDS)}={v}" for v in tokens))
        else:
            texts.append(" ".join(tokens))
    return tuple(texts)


# ---------------------------------------------------------------------------
# Randomized service rows
# ---------------------------------------------------------------------------


def _random_codes(rng: random.Random, login: bool) -> str:
    pool = [c for c in _ALL_CODES if login or c not in _LOGIN_CODES]
    chosen = rng.sample(pool, rng.randint(0, min(5, len(pool))))
    out = []
    for code in chosen:
        roll = rng.random()
        if roll < 0.12:
            out.append(code + ":a")
        elif roll < 0.24:
            out.append(code + ":i")
        else:
            out.append(code)
    return ",".join(out)


def _random_service(rng: random.Random, index: int) -> dict:
    login = rng.random() < 0.6
    sdks = rng.sample(_APP_SDK_POOL, rng.randint(1, min(6, len(_APP_SDK_POOL))))
    trackers = rng.sample(_WEB_TRACKER_POOL, rng.randint(1, min(8, len(_WEB_TRACKER_POOL))))
    exchanges = rng.sample(_EXCHANGE_POOL, rng.randint(0, min(3, len(_EXCHANGE_POOL))))
    app_codes = _random_codes(rng, login)
    web_codes = _random_codes(rng, login)
    credential_routes = []
    if login and rng.random() < 0.3:
        medium = rng.choice(("app", "web"))
        pool = sdks if medium == "app" else trackers
        credential_routes.append((medium, rng.choice(("PW", "E")), rng.choice(pool)))
    present = sorted({
        token.partition(":")[0]
        for token in (app_codes + "," + web_codes).split(",")
        if token
    })
    plaintext = tuple(code for code in present if rng.random() < 0.15)
    permissions = [Permission.LOCATION, Permission.PHONE_STATE]
    if rng.random() < 0.2:
        permissions.append(Permission.CONTACTS)
    api_lo = rng.randint(1, 3)
    return {
        "name": f"QA Service {index}",
        "category": rng.choice(_CATEGORIES),
        "rank": index * 7 + rng.randrange(5) + 1,
        "domain": f"qasvc{index}.example",
        "extra_domains": (f"qasvc{index}cdn.example",) if rng.random() < 0.3 else (),
        "login": login,
        "ios_only": rng.random() < 0.1,
        "app_https": rng.random() < 0.85,
        "web_https": rng.random() < 0.85,
        "sdks": ",".join(sdks),
        "trackers": ",".join(trackers),
        "exchanges": ",".join(exchanges),
        "ad_slots": rng.randint(0, 4),
        "app_codes": app_codes,
        "web_codes": web_codes,
        "plaintext": plaintext,
        "credential_routes": tuple(credential_routes),
        "loc_fanout": "all" if rng.random() < 0.2 else "ads",
        "web_loc_fanout": rng.randint(0, 4),
        "web_beacon_rate": rng.randint(1, 3),
        "api_calls": (api_lo, api_lo + rng.randint(0, 3)),
        "permissions": tuple(permissions),
    }


def _row_from_dict(data: dict) -> CatalogRow:
    kwargs = dict(data)
    for key in ("extra_domains", "plaintext", "api_calls", "permissions"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "credential_routes" in kwargs:
        kwargs["credential_routes"] = tuple(tuple(route) for route in kwargs["credential_routes"])
    return CatalogRow(**kwargs)


def _jsonify(value):
    """Direct JSON-shape conversion (tuples -> lists), no text round-trip."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One reproducible fuzz case; JSON-serializable end to end."""

    seed: int
    study_seed: int
    duration: float
    train_recon: bool
    services: tuple  # CatalogRow kwargs dicts
    texts: tuple
    urls: tuple  # (url, page_host, resource_type)
    filters: tuple
    hostnames: tuple
    fault_plan: dict = field(default=None)

    def build_specs(self) -> list:
        """Materialize the service rows into runnable ServiceSpecs."""
        return [_build_spec(_row_from_dict(row)) for row in self.services]

    def to_dict(self) -> dict:
        return _jsonify(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            seed=int(data["seed"]),
            study_seed=int(data["study_seed"]),
            duration=float(data["duration"]),
            train_recon=bool(data["train_recon"]),
            services=tuple(dict(row) for row in data["services"]),
            texts=tuple(data["texts"]),
            urls=tuple(tuple(probe) for probe in data["urls"]),
            filters=tuple(data["filters"]),
            hostnames=tuple(data["hostnames"]),
            fault_plan=dict(data["fault_plan"]) if data.get("fault_plan") else None,
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def generate_scenario(seed: int, faults: bool = False, max_services: int = 4) -> Scenario:
    """Derive a full scenario from one integer seed."""
    rng = _sub_rng(seed, "scenario")
    n_services = rng.randint(2, max(2, max_services))
    services = tuple(
        _random_service(_sub_rng(seed, "svc", index), index)
        for index in range(n_services)
    )
    qa_hosts = [f"www.qasvc{index}.example" for index in range(n_services)]

    url_rng = _sub_rng(seed, "urls")
    urls = tuple(
        (
            random_url(url_rng, hosts=tuple(_PARTY_HOSTNAMES) + tuple(qa_hosts)),
            url_rng.choice(tuple(qa_hosts) + ("news.example", "")),
            url_rng.choice(_RESOURCE_TYPES),
        )
        for _ in range(40)
    )

    filter_rng = _sub_rng(seed, "filters")
    filters = tuple(random_filter_line(filter_rng) for _ in range(30))

    host_rng = _sub_rng(seed, "hostnames")
    hostnames = tuple(random_hostname(host_rng) for _ in range(30))

    fault_plan = None
    if faults:
        from .faults import FaultPlan

        fault_plan = FaultPlan.from_rng(_sub_rng(seed, "faults")).to_dict()

    return Scenario(
        seed=seed,
        study_seed=rng.randrange(1, 1_000_000),
        duration=rng.choice((20.0, 30.0, 45.0)),
        train_recon=rng.random() < 0.25,
        services=services,
        texts=_random_texts(seed),
        urls=urls,
        filters=filters,
        hostnames=hostnames,
        fault_plan=fault_plan,
    )
