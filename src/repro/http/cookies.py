"""Cookie parsing and client-side cookie storage.

Web tracking in the paper's world is cookie-driven: trackers set IDs via
``Set-Cookie`` and sync them across exchanges.  This module implements
the ``Cookie`` request header, ``Set-Cookie`` response header (with the
attributes that matter for scoping: Domain, Path, Expires/Max-Age,
Secure, HttpOnly), and a :class:`CookieJar` with domain-match semantics
close enough to RFC 6265 for the simulated ecosystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional


class CookieError(ValueError):
    """Raised for Set-Cookie lines with no parsable name=value."""


@dataclass
class Cookie:
    """One cookie as stored by a user agent."""

    name: str
    value: str
    domain: str = ""
    path: str = "/"
    expires: Optional[float] = None  # simulated-clock absolute seconds
    secure: bool = False
    http_only: bool = False
    host_only: bool = True

    def expired(self, now: float) -> bool:
        return self.expires is not None and now >= self.expires

    def domain_matches(self, host: str) -> bool:
        """RFC 6265 §5.1.3 domain-match against ``host``."""
        host = host.lower()
        domain = self.domain.lower()
        if self.host_only or not domain:
            return host == domain
        if host == domain:
            return True
        return host.endswith("." + domain)

    def path_matches(self, path: str) -> bool:
        """RFC 6265 §5.1.4 path-match against a request path."""
        if self.path == path:
            return True
        if path.startswith(self.path):
            if self.path.endswith("/"):
                return True
            return path[len(self.path) :].startswith("/")
        return False


def parse_cookie_header(value: str) -> list:
    """Parse a request ``Cookie`` header into (name, value) pairs."""
    return list(_cookie_pairs(value))


# Cookie headers repeat verbatim across a session's requests; parsing is
# pure, so memoize the split.
@lru_cache(maxsize=8192)
def _cookie_pairs(value: str) -> tuple:
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, val = chunk.partition("=")
        if not sep:
            continue  # tolerate malformed crumbs
        pairs.append((name.strip(), val.strip()))
    return tuple(pairs)


def format_cookie_header(pairs: Iterable) -> str:
    """Format (name, value) pairs as a request ``Cookie`` header."""
    return "; ".join(f"{name}={value}" for name, value in pairs)


def parse_set_cookie(line: str, request_host: str, now: float = 0.0) -> Cookie:
    """Parse one ``Set-Cookie`` response header into a :class:`Cookie`.

    ``request_host`` supplies the default (host-only) domain; ``now`` is
    the simulated time used to resolve ``Max-Age``.
    """
    chunks = line.split(";")
    name, sep, value = chunks[0].partition("=")
    name = name.strip()
    if not sep or not name:
        raise CookieError(f"Set-Cookie has no name=value: {line!r}")
    cookie = Cookie(name=name, value=value.strip(), domain=request_host.lower())

    max_age: Optional[float] = None
    for chunk in chunks[1:]:
        attr, _, attr_value = chunk.strip().partition("=")
        attr_lower = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr_lower == "domain" and attr_value:
            cookie.domain = attr_value.lstrip(".").lower()
            cookie.host_only = False
        elif attr_lower == "path" and attr_value.startswith("/"):
            cookie.path = attr_value
        elif attr_lower == "max-age":
            try:
                max_age = float(attr_value)
            except ValueError:
                pass
        elif attr_lower == "expires" and attr_value:
            # The simulated world writes Expires as "t=<seconds>"; real
            # date strings are treated as session cookies.
            if attr_value.startswith("t="):
                try:
                    cookie.expires = float(attr_value[2:])
                except ValueError:
                    pass
        elif attr_lower == "secure":
            cookie.secure = True
        elif attr_lower == "httponly":
            cookie.http_only = True
    if max_age is not None:  # Max-Age wins over Expires (RFC 6265 §4.1.2.2)
        cookie.expires = now + max_age
    return cookie


def format_set_cookie(cookie: Cookie) -> str:
    """Serialize a :class:`Cookie` back to a ``Set-Cookie`` header."""
    parts = [f"{cookie.name}={cookie.value}"]
    if not cookie.host_only and cookie.domain:
        parts.append(f"Domain={cookie.domain}")
    if cookie.path != "/":
        parts.append(f"Path={cookie.path}")
    if cookie.expires is not None:
        parts.append(f"Expires=t={cookie.expires}")
    if cookie.secure:
        parts.append("Secure")
    if cookie.http_only:
        parts.append("HttpOnly")
    return "; ".join(parts)


@dataclass
class CookieJar:
    """Client-side cookie store with RFC 6265 matching semantics.

    Cookies are bucketed by their stored domain: a request host can only
    be matched by cookies whose domain is the host itself or one of its
    dot-suffixes, so ``matching`` walks that chain instead of scanning
    the whole jar (big jars accumulate thousands of tracker cookies).
    """

    _cookies: dict = field(default_factory=dict)  # (domain, path, name) -> Cookie
    _by_domain: dict = field(default_factory=dict)  # domain -> {key -> Cookie}
    # Header memo: (host, path, secure) -> (version, header).  Valid while
    # the jar hasn't changed (version) and no stored cookie has hit its
    # expiry since (now < _next_expiry).
    _version: int = 0
    _next_expiry: Optional[float] = None
    _header_memo: dict = field(default_factory=dict)

    def store(self, cookie: Cookie) -> None:
        """Insert or replace a cookie (same domain+path+name replaces)."""
        key = (cookie.domain, cookie.path, cookie.name)
        self._cookies[key] = cookie
        self._by_domain.setdefault(cookie.domain.lower(), {})[key] = cookie
        self._version += 1
        if cookie.expires is not None and (
            self._next_expiry is None or cookie.expires < self._next_expiry
        ):
            self._next_expiry = cookie.expires

    def store_from_response(self, set_cookie_values: Iterable, request_host: str, now: float = 0.0) -> int:
        """Parse and store each ``Set-Cookie`` value; return count stored."""
        stored = 0
        for line in set_cookie_values:
            try:
                self.store(parse_set_cookie(line, request_host, now))
                stored += 1
            except CookieError:
                continue
        return stored

    def matching(self, host: str, path: str = "/", secure: bool = True, now: float = 0.0) -> list:
        """Return cookies to send for a request to ``host``/``path``.

        Expired cookies are evicted as a side effect, mirroring user-agent
        behaviour.
        """
        sendable = []
        host_lower = host.lower()
        suffix = host_lower
        while True:
            bucket = self._by_domain.get(suffix)
            if bucket:
                expired = None
                for key, cookie in bucket.items():
                    if cookie.expired(now):
                        if expired is None:
                            expired = []
                        expired.append(key)
                        continue
                    if cookie.secure and not secure:
                        continue
                    if cookie.domain_matches(host_lower) and cookie.path_matches(path):
                        sendable.append(cookie)
                if expired:
                    for key in expired:
                        del bucket[key]
                        del self._cookies[key]
                    self._version += 1
                    self._next_expiry = min(
                        (
                            c.expires
                            for c in self._cookies.values()
                            if c.expires is not None
                        ),
                        default=None,
                    )
            dot = suffix.find(".")
            if dot < 0:
                break
            suffix = suffix[dot + 1 :]
        if len(sendable) > 1:
            sendable.sort(key=lambda c: (-len(c.path), c.name))
        return sendable

    def cookie_header(self, host: str, path: str = "/", secure: bool = True, now: float = 0.0) -> str:
        """Build the request ``Cookie`` header value, or ``""`` if none.

        Sessions re-request the same endpoints constantly, so the built
        header is memoized and reused until the jar changes or a stored
        cookie's expiry passes.
        """
        fresh = self._next_expiry is None or now < self._next_expiry
        key = (host, path, secure)
        if fresh:
            cached = self._header_memo.get(key)
            if cached is not None and cached[0] == self._version:
                return cached[1]
        pairs = [(c.name, c.value) for c in self.matching(host, path, secure, now)]
        header = format_cookie_header(pairs)
        if fresh:
            if len(self._header_memo) >= 1024:
                self._header_memo.clear()
            self._header_memo[key] = (self._version, header)
        return header

    def clear(self) -> None:
        """Drop every cookie (private-mode teardown / factory reset)."""
        self._cookies.clear()
        self._by_domain.clear()
        self._header_memo.clear()
        self._version += 1
        self._next_expiry = None

    def __len__(self) -> int:
        return len(self._cookies)

    def all(self) -> list:
        return list(self._cookies.values())
