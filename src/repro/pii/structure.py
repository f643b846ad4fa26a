"""Structured key/value extraction from captured requests.

Both detection strategies operate on structure rather than raw bytes:
the matcher attributes hits to the key they traveled under, and the
ReCon classifier's features are built from keys and value shapes.  This
module turns a :class:`~repro.net.flow.CapturedRequest` into a flat list
of :class:`Field` records drawn from the URL query, the decoded body
(form, JSON, multipart), cookies, and identifying headers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..http.body import decode_body
from ..http.cookies import parse_cookie_header
from ..http.url import UrlError, parse_url
from ..net.flow import CapturedRequest

QUERY = "query"
BODY = "body"
COOKIE = "cookie"
HEADER = "header"
PATH = "path"

# Headers whose values are worth scanning (identifier smuggling is real;
# scanning *every* header would drown the classifier in boilerplate).
_INTERESTING_HEADERS = ("user-agent", "referer", "x-", "authorization", "device-")


class Field(NamedTuple):
    """One key/value observation within a request.

    A named tuple rather than a dataclass: extraction builds tens of
    thousands of these per trace, and tuple construction skips the
    per-attribute ``object.__setattr__`` a frozen dataclass pays.
    """

    source: str  # QUERY | BODY | COOKIE | HEADER | PATH
    key: str
    value: str


# Header names repeat across every request (the study and a campaign
# ask about the same five); the bound keeps a long-running ingest, which
# may meet new names with every upload, from growing the memo.
@lru_cache(maxsize=256)
def _header_is_interesting(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == probe or (probe.endswith("-") and lowered.startswith(probe))
        for probe in _INTERESTING_HEADERS
    )


def extract_fields(request: CapturedRequest) -> list:
    """Extract every structured field from ``request`` in stable order."""
    fields: list = []
    try:
        url = parse_url(request.url)
    except UrlError:
        url = None

    if url is not None:
        for key, value in url.query_pairs():
            fields.append(Field(QUERY, key, value))
        for index, segment in enumerate(p for p in url.path.split("/") if p):
            fields.append(Field(PATH, f"seg{index}", segment))

    content_type = request.header("Content-Type", "") or ""
    content_encoding = request.header("Content-Encoding", "") or ""
    if request.body:
        decoded = decode_body(request.body, content_type, content_encoding)
        for key, value in decoded["pairs"]:
            fields.append(Field(BODY, key, value))
        if not decoded["pairs"] and decoded["text"].strip():
            fields.append(Field(BODY, "_raw", decoded["text"]))

    for name, value in request.headers:
        if name.lower() == "cookie":
            for key, cookie_value in parse_cookie_header(value):
                fields.append(Field(COOKIE, key, cookie_value))
        elif _header_is_interesting(name):
            fields.append(Field(HEADER, name.lower(), value))
    return fields


def searchable_text(request: CapturedRequest) -> str:
    """The flat text the string matcher scans: URL + headers + body."""
    chunks = [request.url]
    for name, value in request.headers:
        chunks.append(f"{name}: {value}")
    body = request.body
    content_encoding = request.header("Content-Encoding", "") or ""
    if body:
        decoded = decode_body(body, request.header("Content-Type", "") or "", content_encoding)
        chunks.append(decoded["text"])
    return "\n".join(chunks)
