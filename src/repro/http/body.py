"""Request/response body codecs.

The PII detector has to look *inside* bodies: form-encoded logins, JSON
telemetry batches from analytics SDKs, multipart uploads, and gzipped
payloads all appear in the simulated traffic.  This module provides the
encoders the service simulators use and the tolerant decoders the
detector uses.
"""

from __future__ import annotations

import gzip
import json
from functools import lru_cache
from typing import Iterable, Optional

from .url import decode_query, encode_query

FORM_URLENCODED = "application/x-www-form-urlencoded"
JSON_TYPE = "application/json"
MULTIPART_PREFIX = "multipart/form-data"
TEXT_PLAIN = "text/plain"
OCTET_STREAM = "application/octet-stream"


class BodyError(ValueError):
    """Raised by strict encoders on invalid input."""


def encode_form(fields: Iterable) -> bytes:
    """Encode (key, value) pairs as ``application/x-www-form-urlencoded``."""
    return encode_query(fields).encode("ascii")


def decode_form(body: bytes) -> list:
    """Decode a urlencoded body to (key, value) pairs (tolerant)."""
    return decode_query(body.decode("utf-8", errors="replace"))


def encode_json(payload) -> bytes:
    """Encode a JSON-serializable payload with stable key order."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise BodyError(f"payload is not JSON-serializable: {exc}") from exc


def decode_json(body: bytes) -> Optional[object]:
    """Decode a JSON body; return None if it is not valid JSON."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def multipart_content_type(boundary: str) -> str:
    return f"{MULTIPART_PREFIX}; boundary={boundary}"


def encode_multipart(fields: Iterable, boundary: str) -> bytes:
    """Encode (name, value) text fields as multipart/form-data."""
    if not boundary or any(c.isspace() for c in boundary):
        raise BodyError(f"invalid multipart boundary: {boundary!r}")
    chunks = []
    for name, value in fields:
        chunks.append(f"--{boundary}\r\n".encode())
        chunks.append(
            f'Content-Disposition: form-data; name="{name}"\r\n\r\n'.encode()
        )
        chunks.append(str(value).encode("utf-8"))
        chunks.append(b"\r\n")
    chunks.append(f"--{boundary}--\r\n".encode())
    return b"".join(chunks)


def parse_multipart_boundary(content_type: str) -> Optional[str]:
    """Extract the boundary parameter from a multipart content type."""
    if not content_type.lower().startswith(MULTIPART_PREFIX):
        return None
    for param in content_type.split(";")[1:]:
        key, _, value = param.strip().partition("=")
        if key.lower() == "boundary" and value:
            return value.strip('"')
    return None


def decode_multipart(body: bytes, boundary: str) -> list:
    """Decode multipart text fields to (name, value) pairs (tolerant)."""
    fields = []
    delimiter = f"--{boundary}".encode()
    for part in body.split(delimiter):
        part = part.strip(b"\r\n")
        if not part or part == b"--":
            continue
        header_blob, sep, value = part.partition(b"\r\n\r\n")
        if not sep:
            continue
        name = None
        for line in header_blob.split(b"\r\n"):
            text = line.decode("utf-8", errors="replace")
            if text.lower().startswith("content-disposition"):
                for param in text.split(";")[1:]:
                    key, _, raw = param.strip().partition("=")
                    if key.lower() == "name":
                        name = raw.strip('"')
        if name is not None:
            fields.append((name, value.decode("utf-8", errors="replace")))
    return fields


def gzip_compress(body: bytes) -> bytes:
    """Compress with a fixed mtime so output is deterministic."""
    return gzip.compress(body, mtime=0)


def gzip_decompress(body: bytes) -> Optional[bytes]:
    """Decompress a gzip body; return None if it is not valid gzip."""
    try:
        return gzip.decompress(body)
    except (OSError, EOFError):
        return None


def decode_body(body: bytes, content_type: str, content_encoding: str = "") -> dict:
    """Best-effort structured decode of a captured body.

    Returns a dict with:

    - ``text``: the body as text after content-encoding removal
    - ``pairs``: (key, value) pairs when form/multipart/JSON-flattened
    - ``json``: the parsed JSON object when applicable, else None

    Never raises: undecodable content falls back to replacement text and
    empty pairs, which is what the detector wants for opaque payloads.
    """
    text, pairs, parsed = _decode_body(body, content_type, content_encoding)
    return {"text": text, "pairs": list(pairs), "json": parsed}


# Decoding is pure and the same beacon/telemetry bodies recur thousands
# of times per trace; memoize full decode results.  The pairs list is
# copied out per call, but the text and parsed JSON are shared —
# callers treat both as read-only.
@lru_cache(maxsize=8192)
def _decode_body(body: bytes, content_type: str, content_encoding: str) -> tuple:
    if content_encoding.lower() == "gzip":
        inflated = gzip_decompress(body)
        if inflated is not None:
            body = inflated
    original_content_type = content_type or ""
    content_type = original_content_type.lower()
    pairs: list = []
    parsed_json = None
    if content_type.startswith(FORM_URLENCODED):
        pairs = decode_form(body)
    elif content_type.startswith(JSON_TYPE) or content_type.endswith("+json"):
        parsed_json = decode_json(body)
        if parsed_json is not None:
            pairs = flatten_json(parsed_json)
    elif content_type.startswith(MULTIPART_PREFIX):
        # Boundary is case-sensitive: extract it from the original header.
        boundary = parse_multipart_boundary(original_content_type)
        if boundary:
            pairs = decode_multipart(body, boundary)
    return body.decode("utf-8", errors="replace"), tuple(pairs), parsed_json


def flatten_json(payload, prefix: str = "") -> list:
    """Flatten nested JSON into dotted-key (key, value) string pairs.

    ``{"user": {"email": "x"}}`` becomes ``[("user.email", "x")]`` —
    the shape the ReCon feature extractor and matcher operate on.
    """
    pairs = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            pairs.extend(flatten_json(value, dotted))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            dotted = f"{prefix}[{index}]" if prefix else f"[{index}]"
            pairs.extend(flatten_json(value, dotted))
    else:
        value = "" if payload is None else payload
        pairs.append((prefix, str(value)))
    return pairs
