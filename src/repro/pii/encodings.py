"""Encoding variants of ground-truth PII values.

PII rarely travels verbatim: identifiers are uppercased, URL-encoded,
base64-wrapped, or hashed before transmission (§3.2 notes unique IDs are
"formatted inconsistently").  Given a ground-truth value, this module
enumerates the encoded forms the string matcher searches for, and names
the encoding of each so reports can say *how* a value leaked.
"""

from __future__ import annotations

import base64
import hashlib
from functools import lru_cache

from ..http.url import percent_encode

IDENTITY = "identity"
LOWER = "lowercase"
UPPER = "uppercase"
URLENCODED = "urlencoded"
BASE64 = "base64"
HEX = "hex"
MD5 = "md5"
SHA1 = "sha1"
SHA256 = "sha256"
DIGITS_ONLY = "digits_only"

# Orderly list of (name, callable) — applied to the raw value.
_ENCODERS = (
    (IDENTITY, lambda v: v),
    (LOWER, lambda v: v.lower()),
    (UPPER, lambda v: v.upper()),
    (URLENCODED, lambda v: percent_encode(v)),
    (BASE64, lambda v: base64.b64encode(v.encode()).decode()),
    (HEX, lambda v: v.encode().hex()),
    (MD5, lambda v: hashlib.md5(v.encode()).hexdigest()),
    (SHA1, lambda v: hashlib.sha1(v.encode()).hexdigest()),
    (SHA256, lambda v: hashlib.sha256(v.encode()).hexdigest()),
)

# Hash encodings are also checked over the lowercased value, since SDKs
# typically normalize before hashing (e.g. lowercased e-mail, MAC).
_HASHES = (MD5, SHA1, SHA256)

MIN_SEARCHABLE_LENGTH = 4


def encode_value(value: str, encoding: str) -> str:
    """Apply one named encoding to ``value``."""
    for name, encoder in _ENCODERS:
        if name == encoding:
            return encoder(value)
    if encoding == DIGITS_ONLY:
        return "".join(c for c in value if c.isdigit())
    raise ValueError(f"unknown encoding {encoding!r}")


def variants(value: str, include_hashes: bool = True) -> dict:
    """Map each searchable encoded form of ``value`` to its encoding name.

    Forms shorter than :data:`MIN_SEARCHABLE_LENGTH` are dropped — they
    would match traffic constantly and mean nothing (e.g. ``"m"`` for
    gender).  When two encodings collide (value already lowercase), the
    earlier, more specific name wins.

    Results are memoized: hash digests dominate the cost, and matcher
    construction re-enumerates one user's ground-truth values for each
    of that user's sessions.  Those sessions run back to back, so a
    small recency bound keeps the reuse.
    """
    if value is None:
        return {}
    return dict(_variant_items(value, include_hashes))


@lru_cache(maxsize=1024)
def _variant_items(value: str, include_hashes: bool) -> tuple:
    out: dict = {}

    def put(form: str, name: str) -> None:
        if len(form) >= MIN_SEARCHABLE_LENGTH and form not in out:
            out[form] = name

    for name, encoder in _ENCODERS:
        if name in _HASHES and not include_hashes:
            continue
        put(encoder(value), name)
    if include_hashes and value != value.lower():
        for name in _HASHES:
            put(encode_value(value.lower(), name), name)
    # Phone-number style: strip separators.
    digits = "".join(c for c in value if c.isdigit())
    if digits != value and len(digits) >= 7:
        put(digits, DIGITS_ONLY)
    return tuple(out.items())
