"""URL parsing, serialization, and query-string handling.

Implemented from scratch (rather than wrapping ``urllib``) so the rest of
the stack controls exactly how components are normalized — the PII
detector depends on stable percent-encoding behaviour when it re-encodes
ground-truth values to search for them in URLs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Optional

_SCHEME_PORTS = {"http": 80, "https": 443}
_UNRESERVED_STR = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_UNRESERVED = set(_UNRESERVED_STR)
_HEX = "0123456789ABCDEF"


class UrlError(ValueError):
    """Raised for URLs the parser cannot interpret."""


def percent_encode(text: str, safe: str = "") -> str:
    """Percent-encode ``text``, leaving unreserved and ``safe`` chars bare."""
    # Dominant case on the hot path: nothing needs escaping at all.
    if not text.strip(_UNRESERVED_STR + safe):
        return text
    return _percent_encode(text, safe)


# The slow byte-by-byte path is pure and its inputs (PII values,
# tracker parameters) repeat constantly, so it is memoized.
@lru_cache(maxsize=8192)
def _percent_encode(text: str, safe: str) -> str:
    keep = _UNRESERVED | set(safe) if safe else _UNRESERVED
    out = []
    for byte in text.encode("utf-8"):
        char = chr(byte)
        if char in keep:
            out.append(char)
        else:
            out.append(f"%{_HEX[byte >> 4]}{_HEX[byte & 0xF]}")
    return "".join(out)


def percent_decode(text: str, plus_as_space: bool = False) -> str:
    """Decode percent-escapes (and optionally ``+`` as space).

    Malformed escapes are left literal rather than raising: captured
    traffic is adversarial input and the detector must not crash on it.
    """
    if "%" not in text:
        if plus_as_space and "+" in text:
            return text.replace("+", " ")
        return text
    if plus_as_space:
        # Normalizing ``+`` to its escape form lets one chunked pass
        # handle both; a literal plus only reaches here pre-decode.
        text = text.replace("+", "%20")
    chunks = text.split("%")
    raw = bytearray(chunks[0].encode("utf-8"))
    hexdigits = "0123456789abcdefABCDEF"
    for chunk in chunks[1:]:
        if len(chunk) >= 2 and chunk[0] in hexdigits and chunk[1] in hexdigits:
            raw.append(int(chunk[:2], 16))
            raw.extend(chunk[2:].encode("utf-8"))
        else:
            raw.extend(("%" + chunk).encode("utf-8"))
    return raw.decode("utf-8", errors="replace")


def encode_query(params: Iterable) -> str:
    """Encode an iterable of (key, value) pairs as a query string.

    Keys and values go through ``str`` before the memo sees them, so
    ``1``, ``1.0`` and ``True`` are three memo keys, not one."""
    return _encode_query(tuple([(str(key), str(value)) for key, value in params]))


@lru_cache(maxsize=4096)
def _encode_query(params: tuple) -> str:
    parts = []
    for key, value in params:
        if not key.strip(_UNRESERVED_STR):
            if not value.strip(_UNRESERVED_STR):
                parts.append(f"{key}={value}")
                continue
            parts.append(f"{key}={percent_encode(value)}")
            continue
        parts.append(f"{percent_encode(key)}={percent_encode(value)}")
    return "&".join(parts)


def decode_query(query: str) -> list:
    """Decode a query string to a list of (key, value) pairs.

    Keeps duplicates and ordering; tolerates bare keys (no ``=``) and
    empty segments, both of which appear in real tracker beacons.
    Decoding is pure and beacon queries repeat endlessly, so results are
    memoized (a fresh list is returned per call).
    """
    return list(_decode_query(query)) if query else []


# 3,072 keeps the hits of 4,096 on serve's store build (84.5 %) and
# holds 2.0 MB there against 2.7 MB (DESIGN.md, "Process-lifetime
# caches").
@lru_cache(maxsize=3072)
def _decode_query(query: str) -> tuple:
    pairs = []
    # Dominant case: nothing to unescape anywhere in the query.
    plain = "%" not in query and "+" not in query
    for segment in query.split("&"):
        if not segment:
            continue
        key, sep, value = segment.partition("=")
        if plain:
            pairs.append((key, value))
        else:
            pairs.append(
                (
                    percent_decode(key, plus_as_space=True),
                    percent_decode(value, plus_as_space=True),
                )
            )
    return tuple(pairs)


@dataclass(frozen=True)
class Url:
    """A parsed absolute or relative HTTP(S) URL."""

    scheme: str = ""
    host: str = ""
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = ""

    @property
    def effective_port(self) -> int:
        if self.port is not None:
            return self.port
        return _SCHEME_PORTS.get(self.scheme, 80)

    @property
    def origin(self) -> str:
        """``scheme://host[:port]`` with default ports elided."""
        if not self.host:
            raise UrlError("relative URL has no origin")
        port = ""
        if self.port is not None and self.port != _SCHEME_PORTS.get(self.scheme):
            port = f":{self.port}"
        return f"{self.scheme}://{self.host}{port}"

    @property
    def is_absolute(self) -> bool:
        return bool(self.scheme and self.host)

    @property
    def request_target(self) -> str:
        """Path + query as sent on the request line."""
        target = self.path or "/"
        if self.query:
            target += f"?{self.query}"
        return target

    def query_pairs(self) -> list:
        return decode_query(self.query)

    def with_query_pairs(self, pairs: Iterable) -> "Url":
        return replace(self, query=encode_query(pairs))

    def join(self, reference: str) -> "Url":
        """Resolve ``reference`` against this URL (subset of RFC 3986).

        Handles absolute URLs, protocol-relative (``//host/...``),
        absolute paths, and relative paths — enough for redirect chains
        and embedded resource references in the simulated web pages.
        """
        if not self.is_absolute:
            raise UrlError("cannot join against a relative base")
        if "://" in reference:
            return parse_url(reference)
        if reference.startswith("//"):
            return parse_url(f"{self.scheme}:{reference}")
        if reference.startswith("/"):
            path, _, rest = reference.partition("?")
            query, _, fragment = rest.partition("#")
            return replace(self, path=path, query=query, fragment=fragment)
        # relative path
        base_dir = self.path.rsplit("/", 1)[0] + "/"
        path, _, rest = reference.partition("?")
        query, _, fragment = rest.partition("#")
        return replace(self, path=_normalize_path(base_dir + path), query=query, fragment=fragment)

    def __str__(self) -> str:
        # Urls are frozen and stringified repeatedly (capture records the
        # URL of every transaction) — cache the rendering on the instance.
        cached = self.__dict__.get("_str")
        if cached is not None:
            return cached
        out = ""
        if self.is_absolute:
            out = self.origin
        out += self.path or "/"
        if self.query:
            out += f"?{self.query}"
        if self.fragment:
            out += f"#{self.fragment}"
        object.__setattr__(self, "_str", out)
        return out


def _normalize_path(path: str) -> str:
    """Collapse ``.`` and ``..`` segments in an absolute path."""
    segments: list = []
    for segment in path.split("/"):
        if segment == "." or segment == "":
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized


def parse_url(raw: str) -> Url:
    """Parse an absolute ``http``/``https`` URL or a relative reference.

    Results are memoized: :class:`Url` is frozen, and the capture stack
    parses the same beacon/page URLs thousands of times per study.
    """
    cached = _PARSE_CACHE.get(raw)
    if cached is not None:
        return cached
    url = _parse_url_uncached(raw)
    if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[raw] = url
    return url


_PARSE_CACHE: dict = {}
_PARSE_CACHE_MAX = 16384


def _parse_url_uncached(raw: str) -> Url:
    if raw is None:
        raise UrlError("URL is None")
    raw = raw.strip()
    if not raw:
        raise UrlError("empty URL")

    scheme = ""
    rest = raw
    if "://" in raw:
        scheme, _, rest = raw.partition("://")
        scheme = scheme.lower()
        if scheme not in _SCHEME_PORTS:
            raise UrlError(f"unsupported scheme {scheme!r} in {raw!r}")
    elif raw.startswith("//"):
        raise UrlError(f"protocol-relative URL needs a base: {raw!r}")

    if not scheme:
        path, _, after = rest.partition("?")
        query, _, fragment = after.partition("#")
        if "#" in path:
            path, _, fragment = path.partition("#")
            query = ""
        return Url(path=path or "/", query=query, fragment=fragment)

    authority, slash, after = rest.partition("/")
    path_and_more = slash + after if slash else ""
    if "?" in authority or "#" in authority:
        # e.g. http://host?q=1 — empty path
        for mark in "?#":
            if mark in authority:
                authority, _, tail = authority.partition(mark)
                path_and_more = mark + tail
                break

    host = authority
    port: Optional[int] = None
    if "@" in host:
        raise UrlError(f"userinfo is not supported: {raw!r}")
    if ":" in host:
        host, _, port_text = host.partition(":")
        if not port_text.isdigit():
            raise UrlError(f"bad port {port_text!r} in {raw!r}")
        port = int(port_text)
        if port < 1 or port > 65535:
            raise UrlError(f"port out of range in {raw!r}")
    if not host:
        raise UrlError(f"missing host in {raw!r}")

    path, _, after = path_and_more.partition("?")
    query, _, fragment = after.partition("#")
    if "#" in path:
        path, _, fragment = path.partition("#")
        query = ""
    return Url(
        scheme=scheme,
        host=host.lower(),
        port=port,
        path=path or "/",
        query=query,
        fragment=fragment,
    )
