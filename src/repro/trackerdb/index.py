"""Candidate-rule indexing for ABP filter lists.

The seed engine answered ``FilterList.match`` by trying every rule's
regex against the URL.  Real EasyList has tens of thousands of rules, and
even the bundled list pays ~100 regex probes per flow; §3.2's domain
categorization runs once per captured flow, so this is squarely on the
hot path.

The index exploits the structure :func:`repro.trackerdb.abpfilter
._index_metadata` extracts per rule:

- **Domain-anchored rules** (``||domain…`` terminated by a separator)
  can only match URLs whose request host is the anchor or one of its
  subdomains.  They are bucketed by anchor; a lookup walks the host's
  dot-suffix chain (``a.b.c`` → ``a.b.c``, ``b.c``, ``c``) and collects
  the rules hanging off each suffix.
- **Everything else** keeps a lowercase literal *shingle* (≤8 bytes from
  the longest wildcard-free segment).  A rule is a candidate only when
  its shingle occurs in the lowered URL — a C-speed substring test.

Candidates preserve list order, so "first matching rule wins" semantics
are unchanged; the equivalence tests assert the indexed engine agrees
with the retained linear scan (kept in :mod:`repro.qa.reference`) on
every bundled rule.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


class FilterIndex:
    """Candidate lookup over one ordered group of filters."""

    def __init__(self, filters: Iterable) -> None:
        self._anchored: dict = {}  # anchor domain -> [(order, rule)]
        self._generic: list = []  # [(order, rule)]  (shingle may be "")
        for order, rule in enumerate(filters):
            if rule.anchor_domain is not None:
                self._anchored.setdefault(rule.anchor_domain, []).append(
                    (order, rule)
                )
            else:
                self._generic.append((order, rule))

    def candidates(self, url_lower: str, request_host: str) -> Tuple[list, bool]:
        """Rules that could match ``url_lower`` for ``request_host``.

        Returns ``(rules, host_pure)`` where ``rules`` is in original
        list order and ``host_pure`` is true when every candidate's
        address match is fully determined by the request host — the
        precondition for memoizing the verdict per host.
        """
        picked: List[tuple] = []
        host_pure = True
        anchored = self._anchored
        if anchored:
            suffix = request_host
            while True:
                bucket = anchored.get(suffix)
                if bucket:
                    for entry in bucket:
                        picked.append(entry)
                        if not entry[1].host_only:
                            host_pure = False
                dot = suffix.find(".")
                if dot < 0:
                    break
                suffix = suffix[dot + 1 :]
        for entry in self._generic:
            shingle = entry[1].shingle
            if not shingle or shingle in url_lower:
                picked.append(entry)
                host_pure = False
        picked.sort()
        return ([rule for _, rule in picked], host_pure)
