"""Flow-level records produced by traffic capture.

A :class:`Flow` models one TCP connection between the handset and a
server, as seen by the interception proxy (the reproduction's stand-in
for Meddle).  Each flow carries zero or more :class:`HttpTransaction`
records — the decrypted request/response pairs — plus byte and packet
accounting used by the paper's Figure 1b (flows) and Figure 1c (bytes).

These records are deliberately plain (slotted dataclasses of strings,
ints and bytes) so they serialize losslessly to the binary codec and
the stream journal's JSONL lines, and can be consumed by the PII
detector without importing the HTTP client stack.

One object per distinct value within a trace.  Captured traffic repeats
itself: one session sends the same header pairs, URLs and bodies over
and over.  So everything that builds a trace -- the capture proxy, the
binary decoder and the journal reader -- passes the trace's header
pairs, strings and bodies through one ``dict`` per trace
(``memo.setdefault(value, value)``) and stores the object it returns.
Every value is immutable, so sharing one object is safe, and the dict
is dropped with the trace it was built for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Rough per-packet envelope used to convert payload sizes into packet
# counts: TCP/IP headers plus typical TLS record overhead.
_MSS = 1400
_HEADER_OVERHEAD = 40


def _interner(memo: Optional[dict]):
    """``value -> memo.setdefault(value, value)``; a record rebuilt on its
    own (``memo`` is None) shares values with nothing outside it."""
    setdefault = {}.setdefault if memo is None else memo.setdefault
    return lambda value: setdefault(value, value)


def _headers(items, intern) -> list:
    return [intern((intern(name), intern(value))) for name, value in items]


@dataclass(slots=True)
class TlsInfo:
    """TLS session metadata attached to an encrypted flow.

    ``pinned`` marks servers that certificate-pin (the proxy cannot
    decrypt these, mirroring the paper's exclusion of Facebook/Twitter);
    ``intercepted`` records whether the MITM succeeded.
    """

    sni: str
    version: str = "TLSv1.2"
    cipher: str = "ECDHE-RSA-AES128-GCM-SHA256"
    pinned: bool = False
    intercepted: bool = True

    def to_dict(self) -> dict:
        return {
            "sni": self.sni,
            "version": self.version,
            "cipher": self.cipher,
            "pinned": self.pinned,
            "intercepted": self.intercepted,
        }

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[dict] = None) -> "TlsInfo":
        intern = _interner(memo)
        return cls(
            sni=intern(data["sni"]),
            version=intern(data.get("version", "TLSv1.2")),
            cipher=intern(data.get("cipher", "ECDHE-RSA-AES128-GCM-SHA256")),
            pinned=bool(data.get("pinned", False)),
            intercepted=bool(data.get("intercepted", True)),
        )


@dataclass(slots=True)
class CapturedRequest:
    """An HTTP request as recorded by the proxy."""

    method: str
    url: str
    headers: list = field(default_factory=list)  # list[tuple[str, str]]
    body: bytes = b""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first header value matching ``name`` (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return default

    @property
    def size(self) -> int:
        """Approximate on-the-wire request size in bytes."""
        total = len(self.method) + len(self.url) + 12 + len(self.body)
        for k, v in self.headers:
            total += len(k) + len(v) + 4
        return total

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "url": self.url,
            "headers": [[k, v] for k, v in self.headers],
            "body": self.body.decode("latin-1"),
        }

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[dict] = None) -> "CapturedRequest":
        intern = _interner(memo)
        return cls(
            method=intern(data["method"]),
            url=intern(data["url"]),
            headers=_headers(data.get("headers", []), intern),
            body=intern(data.get("body", "").encode("latin-1")),
        )


@dataclass(slots=True)
class CapturedResponse:
    """An HTTP response as recorded by the proxy."""

    status: int
    reason: str = ""
    headers: list = field(default_factory=list)
    body: bytes = b""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first header value matching ``name`` (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return default

    @property
    def size(self) -> int:
        """Approximate on-the-wire response size in bytes."""
        total = len(self.reason) + 15 + len(self.body)
        for k, v in self.headers:
            total += len(k) + len(v) + 4
        return total

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "headers": [[k, v] for k, v in self.headers],
            "body": self.body.decode("latin-1"),
        }

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[dict] = None) -> "CapturedResponse":
        intern = _interner(memo)
        return cls(
            status=data["status"],
            reason=intern(data.get("reason", "")),
            headers=_headers(data.get("headers", []), intern),
            body=intern(data.get("body", "").encode("latin-1")),
        )


@dataclass(slots=True)
class HttpTransaction:
    """One request/response exchange inside a flow."""

    timestamp: float
    request: CapturedRequest
    response: Optional[CapturedResponse] = None

    @property
    def size(self) -> int:
        total = self.request.size
        if self.response is not None:
            total += self.response.size
        return total

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "request": self.request.to_dict(),
            "response": self.response.to_dict() if self.response else None,
        }

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[dict] = None) -> "HttpTransaction":
        response = data.get("response")
        return cls(
            timestamp=data["timestamp"],
            request=CapturedRequest.from_dict(data["request"], memo),
            response=CapturedResponse.from_dict(response, memo) if response else None,
        )


@dataclass(slots=True)
class Flow:
    """One TCP connection observed by the proxy.

    ``tags`` carries provenance labels attached during capture and
    filtering — e.g. ``"background"`` for OS-service traffic, or the
    originating process name — which the experiment harness uses to
    discard non-foreground flows exactly as §3.2 of the paper does.
    """

    flow_id: int
    ts_start: float
    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    hostname: str
    scheme: str = "http"
    ts_end: float = 0.0
    tls: Optional[TlsInfo] = None
    transactions: list = field(default_factory=list)
    tags: set = field(default_factory=set)
    bytes_up: int = 0
    bytes_down: int = 0

    @property
    def encrypted(self) -> bool:
        return self.tls is not None

    @property
    def decrypted(self) -> bool:
        """True when transaction payloads are visible to the analysis."""
        return self.tls is None or self.tls.intercepted

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    @property
    def packets(self) -> int:
        """Estimated packet count from byte totals (for reporting only)."""
        payload = self.total_bytes
        if payload == 0:
            return 2  # bare handshake
        return max(2, (payload + _MSS - 1) // _MSS + 2)

    def add_transaction(
        self,
        txn: HttpTransaction,
        bytes_up: Optional[int] = None,
        bytes_down: Optional[int] = None,
    ) -> None:
        """Append a transaction and update byte accounting and timestamps.

        ``bytes_up``/``bytes_down`` override the sizes computed from the
        stored messages — the proxy passes true wire sizes here when it
        truncates large response bodies for storage.
        """
        self.transactions.append(txn)
        if bytes_up is None:
            bytes_up = txn.request.size + _HEADER_OVERHEAD
        if bytes_down is None:
            bytes_down = (txn.response.size + _HEADER_OVERHEAD) if txn.response else 0
        self.bytes_up += bytes_up
        self.bytes_down += bytes_down
        if txn.timestamp > self.ts_end:
            self.ts_end = txn.timestamp

    def account_opaque(self, bytes_up: int, bytes_down: int) -> None:
        """Record undecryptable (pinned-TLS) payload volume."""
        if bytes_up < 0 or bytes_down < 0:
            raise ValueError("byte counts cannot be negative")
        self.bytes_up += bytes_up
        self.bytes_down += bytes_down

    def to_dict(self) -> dict:
        return {
            "flow_id": self.flow_id,
            "ts_start": self.ts_start,
            "ts_end": self.ts_end,
            "client_ip": self.client_ip,
            "client_port": self.client_port,
            "server_ip": self.server_ip,
            "server_port": self.server_port,
            "hostname": self.hostname,
            "scheme": self.scheme,
            "tls": self.tls.to_dict() if self.tls else None,
            "transactions": [t.to_dict() for t in self.transactions],
            "tags": sorted(self.tags),
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
        }

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[dict] = None) -> "Flow":
        """Rebuild a flow from :meth:`to_dict` output; a trace reader
        passes its per-trace ``memo`` so repeated values are shared."""
        intern = _interner(memo)
        flow = cls(
            flow_id=data["flow_id"],
            ts_start=data["ts_start"],
            client_ip=intern(data["client_ip"]),
            client_port=data["client_port"],
            server_ip=intern(data["server_ip"]),
            server_port=data["server_port"],
            hostname=intern(data["hostname"]),
            scheme=intern(data.get("scheme", "http")),
            ts_end=data.get("ts_end", 0.0),
            tls=TlsInfo.from_dict(data["tls"], memo) if data.get("tls") else None,
            tags={intern(tag) for tag in data.get("tags", [])},
        )
        for txn_data in data.get("transactions", []):
            flow.transactions.append(HttpTransaction.from_dict(txn_data, memo))
        flow.bytes_up = data.get("bytes_up", 0)
        flow.bytes_down = data.get("bytes_down", 0)
        return flow
