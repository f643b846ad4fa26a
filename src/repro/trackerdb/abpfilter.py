"""Adblock Plus filter-list engine.

The paper categorizes third-party flows as advertising & analytics by
matching destination domains against EasyList (§3.2 "Domain
Categorization").  This module implements the portions of the ABP filter
syntax that EasyList's network rules use:

- ``!`` comments and ``[Adblock Plus x.y]`` headers
- domain-anchored rules ``||example.com^``
- start/end anchors ``|`` and plain substring rules with ``*`` wildcards
- the separator token ``^``
- exception rules ``@@...``
- the options we need: ``third-party``/``~third-party``, resource types
  (``script``, ``image``, ``subdocument``, ``xmlhttprequest``, ``other``),
  and ``domain=a.com|~b.com`` restrictions

Element-hiding rules (``##``) are recognized and skipped — they act on
page DOM, which does not exist in a traffic trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .psl import same_party

_RESOURCE_TYPES = {"script", "image", "subdocument", "xmlhttprequest", "stylesheet", "other"}


class FilterSyntaxError(ValueError):
    """Raised for rules the parser cannot interpret."""


@dataclass
class FilterOptions:
    """Parsed ``$option`` constraints for one rule."""

    third_party: Optional[bool] = None
    resource_types: set = field(default_factory=set)
    inverse_types: set = field(default_factory=set)
    include_domains: set = field(default_factory=set)
    exclude_domains: set = field(default_factory=set)

    def permits(self, is_third_party: bool, resource_type: str, page_domain: str) -> bool:
        if self.third_party is not None and is_third_party != self.third_party:
            return False
        rtype = resource_type or "other"
        if self.resource_types and rtype not in self.resource_types:
            return False
        if self.inverse_types and rtype in self.inverse_types:
            return False
        page = page_domain.lower()
        if self.include_domains and not _domain_in(page, self.include_domains):
            return False
        if self.exclude_domains and _domain_in(page, self.exclude_domains):
            return False
        return True


def _domain_in(host: str, domains: set) -> bool:
    return any(host == d or host.endswith("." + d) for d in domains)


@dataclass
class Filter:
    """One parsed network rule."""

    raw: str
    pattern: re.Pattern
    exception: bool
    options: FilterOptions
    # Index metadata (see repro.trackerdb.index): the ``||`` anchor
    # domain if any, whether the address part can only ever depend on
    # the request host (pure ``||domain^`` rules), and a lowercase
    # literal shingle every match of a non-anchored rule must contain.
    anchor_domain: Optional[str] = None
    host_only: bool = False
    shingle: str = ""

    def matches(
        self,
        url: str,
        is_third_party: bool = True,
        resource_type: str = "other",
        page_domain: str = "",
    ) -> bool:
        if not self.options.permits(is_third_party, resource_type, page_domain):
            return False
        return self.pattern.search(url) is not None


def _pattern_to_regex(pattern: str) -> re.Pattern:
    """Translate an ABP address pattern to a compiled regex."""
    out = []
    i = 0
    anchored_start = False
    if pattern.startswith("||"):
        # Domain anchor: scheme plus any subdomain chain.
        out.append(r"^[a-z][a-z0-9+.-]*://([^/?#]*\.)?")
        pattern = pattern[2:]
        anchored_start = True
    elif pattern.startswith("|"):
        out.append("^")
        pattern = pattern[1:]
        anchored_start = True
    if not anchored_start:
        out.append("")
    anchored_end = pattern.endswith("|")
    if anchored_end:
        pattern = pattern[:-1]
    for char in pattern:
        if char == "*":
            out.append(".*")
        elif char == "^":
            # Separator: anything but letter/digit/_-.% — or end of URL.
            out.append(r"(?:[^\w.%-]|$)")
        else:
            out.append(re.escape(char))
    if anchored_end:
        out.append("$")
    return re.compile("".join(out), re.IGNORECASE)


def _parse_options(blob: str) -> FilterOptions:
    options = FilterOptions()
    for raw in blob.split(","):
        token = raw.strip()
        if not token:
            continue
        lowered = token.lower()
        if lowered == "third-party":
            options.third_party = True
        elif lowered == "~third-party":
            options.third_party = False
        elif lowered in _RESOURCE_TYPES:
            options.resource_types.add(lowered)
        elif lowered.startswith("~") and lowered[1:] in _RESOURCE_TYPES:
            options.inverse_types.add(lowered[1:])
        elif lowered.startswith("domain="):
            for dom in token[len("domain=") :].split("|"):
                dom = dom.strip().lower()
                if not dom:
                    continue
                if dom.startswith("~"):
                    options.exclude_domains.add(dom[1:])
                else:
                    options.include_domains.add(dom)
        else:
            # Unknown options make the rule unenforceable; EasyList
            # consumers conventionally drop such rules.
            raise FilterSyntaxError(f"unsupported option {token!r}")
    return options


_ANCHOR_BREAK = re.compile(r"[\^/*|?]")
_HOSTNAME_RE = re.compile(r"[a-z0-9.-]+\Z")


def _index_metadata(body: str) -> tuple:
    """Derive ``(anchor_domain, host_only, shingle)`` for one rule body.

    - ``anchor_domain``: for ``||domain...`` rules, the anchor; such a
      rule can only match URLs whose request host is the anchor or a
      subdomain of it (the compiled regex confines the anchor to the
      authority component).
    - ``host_only``: true for pure ``||domain^`` / ``||domain`` rules,
      whose address match is fully determined by the request host.
    - ``shingle``: for non-anchored rules, a lowercase literal substring
      (up to 8 bytes, from the longest wildcard-free segment) that any
      matching URL must contain — the index's cheap prescreen.
    """
    if body.startswith("||"):
        core = body[2:]
        cut = _ANCHOR_BREAK.search(core)
        anchor = core[: cut.start()] if cut else core
        rest = core[cut.start() :] if cut else ""
        # The anchor is a true domain anchor only when a separator
        # terminates it (``^``, ``/``, or the end anchor ``|``): then the
        # request host must be the anchor or a subdomain of it.  A bare
        # ``||ads`` also matches hosts merely *starting* with "ads", so
        # it falls through to the shingle bucket below.
        if anchor and rest and rest[0] in "^/|" and _HOSTNAME_RE.match(anchor.lower()):
            return (anchor.lower(), rest == "^", "")
    segments = [s for s in re.split(r"[\^*|]", body) if s]
    if not segments:
        return (None, False, "")
    longest = max(segments, key=len)
    return (None, False, longest.lower()[:8])


def parse_filter(line: str) -> Optional[Filter]:
    """Parse one list line; returns None for comments/unsupported rules."""
    raw = line.strip()
    if not raw or raw.startswith("!") or raw.startswith("["):
        return None
    if "##" in raw or "#@#" in raw or "#?#" in raw:
        return None  # element hiding — no network effect
    exception = raw.startswith("@@")
    body = raw[2:] if exception else raw
    options = FilterOptions()
    if "$" in body:
        body, _, option_blob = body.rpartition("$")
        try:
            options = _parse_options(option_blob)
        except FilterSyntaxError:
            return None
    if not body:
        return None
    anchor_domain, host_only, shingle = _index_metadata(body)
    return Filter(
        raw=raw,
        pattern=_pattern_to_regex(body),
        exception=exception,
        options=options,
        anchor_domain=anchor_domain,
        host_only=host_only,
        shingle=shingle,
    )


_VERDICT_CACHE_MAX = 8192
_MISS = object()


class FilterList:
    """A compiled filter list with EasyList matching semantics.

    ``match`` consults a candidate index (see
    :mod:`repro.trackerdb.index`) so a URL only probes the rules that
    could possibly fire, and memoizes per-host verdicts when the
    candidate set is host-pure.  The original whole-list scan lives in
    :mod:`repro.qa.reference` as the reference the index is verified
    against.
    """

    def __init__(self, filters: Iterable) -> None:
        self.blocking: list = []
        self.exceptions: list = []
        for item in filters:
            if item is None:
                continue
            if item.exception:
                self.exceptions.append(item)
            else:
                self.blocking.append(item)
        self._index = None
        self._verdicts: dict = {}

    @classmethod
    def parse(cls, text: str) -> "FilterList":
        """Compile a list from raw EasyList text."""
        return cls(parse_filter(line) for line in text.splitlines())

    def __len__(self) -> int:
        return len(self.blocking) + len(self.exceptions)

    def _ensure_index(self) -> tuple:
        if self._index is None:
            from .index import FilterIndex

            self._index = (
                FilterIndex(self.exceptions),
                FilterIndex(self.blocking),
            )
        return self._index

    def match(
        self,
        url: str,
        page_host: str = "",
        resource_type: str = "other",
    ) -> Optional[Filter]:
        """Return the blocking rule that fires for ``url``, if any.

        ``page_host`` is the host of the page/app context the request
        came from; third-partyness is derived from it.  Exception rules
        (``@@``) veto matching blocking rules, as in ABP.
        """
        request_host = _host_of(url)
        if page_host:
            third_party = not same_party(request_host, page_host)
        else:
            third_party = True
        from .psl import domain_key

        page_domain = domain_key(page_host) if page_host else ""
        exception_index, blocking_index = self._ensure_index()
        url_lower = url.lower()
        exception_rules, exceptions_pure = exception_index.candidates(
            url_lower, request_host
        )
        blocking_rules, blocking_pure = blocking_index.candidates(
            url_lower, request_host
        )
        cacheable = exceptions_pure and blocking_pure
        if cacheable:
            key = (request_host, third_party, resource_type, page_domain)
            cached = self._verdicts.get(key, _MISS)
            if cached is not _MISS:
                return cached
        verdict: Optional[Filter] = None
        for rule in exception_rules:
            if rule.matches(url, third_party, resource_type, page_domain):
                break
        else:
            for rule in blocking_rules:
                if rule.matches(url, third_party, resource_type, page_domain):
                    verdict = rule
                    break
        if cacheable:
            if len(self._verdicts) >= _VERDICT_CACHE_MAX:
                self._verdicts.clear()
            self._verdicts[key] = verdict
        return verdict

    def matches(self, url: str, page_host: str = "", resource_type: str = "other") -> bool:
        return self.match(url, page_host, resource_type) is not None


def _host_of(url: str) -> str:
    rest = url.split("://", 1)[-1]
    host = rest.split("/", 1)[0].split("?", 1)[0]
    return host.split(":", 1)[0].lower()
