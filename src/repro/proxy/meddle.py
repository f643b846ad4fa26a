"""Meddle-style interception proxy.

The paper captures traffic by tunneling handsets through Meddle (a VPN)
and decrypting TLS with mitmproxy.  :class:`InterceptionProxy` plays
both roles: it is a :class:`~repro.http.transport.Transport` factory
that sits between client sessions and the simulated network, records
every connection as a :class:`~repro.net.flow.Flow` in the active
:class:`~repro.net.trace.Trace`, and MITMs TLS with certificates minted
by its own CA.

Semantics mirror the real setup:

- Decryption works only if the device has installed (trusts) the proxy
  CA, which :meth:`repro.device.phone.Phone.connect_vpn` arranges.
- Apps that ship certificate pins abort the handshake under MITM (the
  reason the paper excludes Facebook/Twitter).  Hosts can be added to
  ``passthrough_hosts`` to tunnel them un-decrypted; their flows are
  then recorded with byte counts but no transaction payloads.
- mitmproxy-style addons get ``request``/``response``/``tcp_connect``/
  ``tcp_close`` callbacks plus ``capture_start``/``capture_stop``
  lifecycle hooks, and may tag flows (used for background-traffic
  labeling and for live export into the flow journal).
- A ``rewrite_request`` stage runs between the client and the network
  on decryptable flows: an addon may return a replacement
  :class:`~repro.http.message.Request` (forwarded and recorded in place
  of the original), a :class:`~repro.http.message.Response`
  (short-circuit: the network never sees the request), or a
  ``(Request, Response)`` pair (record the rewritten request *and*
  short-circuit).  Rewrite callbacks are transactional per addon: one
  that raises is logged to ``addon_errors`` and its rewrite is
  discarded, so a broken rewriter can never corrupt a flow mid-rewrite.
"""

from __future__ import annotations

from typing import Optional

from ..http.message import Request, Response, serialize_request, serialize_response
from ..http.transport import Network, NetworkError
from ..net.clock import SimClock
from ..net.dns import Resolver
from ..net.flow import CapturedRequest, CapturedResponse, Flow, HttpTransaction, TlsInfo
from ..net.trace import SessionMeta, Trace
from ..tls.certs import PROXY_CA, CaStore
from ..tls.handshake import HandshakeError, negotiate


class CaptureError(Exception):
    """Raised on invalid capture lifecycle operations."""


# Every addon callback the proxy resolves at registration time.
_ADDON_EVENTS = (
    "tcp_connect",
    "tcp_close",
    "rewrite_request",
    "request",
    "response",
    "capture_start",
    "capture_stop",
)


def _captured_request(request: Request, memo: dict) -> CapturedRequest:
    url = str(request.url)
    body = request.body
    return CapturedRequest(
        method=request.method,
        url=memo.setdefault(url, url),
        headers=[memo.setdefault(pair, pair) for pair in request.headers],
        body=memo.setdefault(body, body),
    )


def _captured_response(response: Response, memo: dict) -> CapturedResponse:
    return CapturedResponse(
        status=response.status,
        reason=response.reason,
        headers=[memo.setdefault(pair, pair) for pair in response.headers],
        body=response.body,
    )


class InterceptionProxy:
    """Recording VPN/MITM proxy for one simulated network."""

    def __init__(
        self,
        network: Network,
        clock: SimClock,
        resolver: Optional[Resolver] = None,
        intercept_tls: bool = True,
        max_stored_body: Optional[int] = 2048,
    ) -> None:
        self.network = network
        self.clock = clock
        self.resolver = resolver if resolver is not None else Resolver(clock)
        self.intercept_tls = intercept_tls
        # Response bodies larger than this are truncated in the stored
        # trace (byte accounting still uses true wire sizes) — the same
        # trick mitmproxy uses to keep long captures in memory.
        self.max_stored_body = max_stored_body
        self.ca_issuer = PROXY_CA
        self.passthrough_hosts: set = set()
        self.addons: list = []
        # Addon callbacks that raise are isolated (mitmproxy semantics:
        # a broken addon logs an error, it does not kill the proxy).
        # Each entry is (event, callback qualname, repr(exception)).
        self.addon_errors: list = []
        self._callbacks: dict = {}  # event name -> [bound callbacks]
        self._trace: Optional[Trace] = None
        # One object per distinct header pair, URL and body within the
        # running capture (the rule in repro.net.flow).
        self._memo: dict = {}
        self._next_flow_id = 0
        self._next_port = 40000

    # -- capture lifecycle -------------------------------------------------

    @property
    def capturing(self) -> bool:
        return self._trace is not None

    def start_capture(self, meta: SessionMeta) -> None:
        """Begin recording flows into a fresh trace."""
        if self._trace is not None:
            raise CaptureError("capture already in progress")
        self._trace = Trace(meta=meta)
        self._memo = {}
        self._emit("capture_start", meta)

    def stop_capture(self) -> Trace:
        """Stop recording and return the completed trace."""
        if self._trace is None:
            raise CaptureError("no capture in progress")
        trace, self._trace = self._trace, None
        self._memo = {}
        self._emit("capture_stop", trace)
        return trace

    def add_addon(self, addon) -> None:
        """Register a mitmproxy-style addon (duck-typed callbacks)."""
        self.addons.append(addon)
        # Resolve callbacks once at registration: _emit runs twice per
        # transaction, so a getattr per addon per event adds up.
        for event in _ADDON_EVENTS:
            callback = getattr(addon, event, None)
            if callback is not None:
                self._callbacks.setdefault(event, []).append(callback)

    def remove_addon(self, addon) -> None:
        """Unregister an addon and drop its resolved callbacks."""
        if addon not in self.addons:
            return
        self.addons.remove(addon)
        self._callbacks = {}
        for remaining in self.addons:
            for event in _ADDON_EVENTS:
                callback = getattr(remaining, event, None)
                if callback is not None:
                    self._callbacks.setdefault(event, []).append(callback)

    _MAX_ADDON_ERRORS = 1000

    def _emit(self, event: str, *args) -> None:
        for callback in self._callbacks.get(event, ()):
            try:
                callback(*args)
            except Exception as exc:
                if len(self.addon_errors) < self._MAX_ADDON_ERRORS:
                    name = getattr(callback, "__qualname__", repr(callback))
                    self.addon_errors.append((event, name, repr(exc)))

    def _record_addon_error(self, event: str, callback, exc: Exception) -> None:
        if len(self.addon_errors) < self._MAX_ADDON_ERRORS:
            name = getattr(callback, "__qualname__", repr(callback))
            self.addon_errors.append((event, name, repr(exc)))

    def _apply_rewrites(self, flow: Flow, request: Request):
        """Run the request-rewrite stage; returns ``(request, response)``.

        ``response`` is ``None`` unless an addon short-circuited the
        dispatch.  Each addon is transactional: a callback that raises
        is recorded in ``addon_errors`` and the request it was handed
        stays in effect, so a partial rewrite never reaches the wire.
        With no rewrite addons registered this is a single dict lookup —
        the mitigation-off hot path stays unchanged.
        """
        callbacks = self._callbacks.get("rewrite_request")
        if not callbacks:
            return request, None
        for callback in callbacks:
            try:
                result = callback(flow, request)
            except Exception as exc:
                self._record_addon_error("rewrite_request", callback, exc)
                continue
            if result is None:
                continue
            if isinstance(result, Response):
                return request, result
            if isinstance(result, tuple):
                rewritten, response = result
                if rewritten is not None:
                    request = rewritten
                return request, response
            request = result
        return request, None

    # -- transport factory ---------------------------------------------------

    def transport_for(
        self,
        ca_store: CaStore,
        client_ip: str = "10.11.0.2",
        tags: Optional[set] = None,
    ) -> "ProxyTransport":
        """Build the transport a tunneled device uses.

        ``ca_store`` is the *device's* trust store — decryption succeeds
        only if it trusts this proxy's CA.  ``tags`` are attached to every
        flow from this transport (e.g. ``{"background"}``).
        """
        return ProxyTransport(self, ca_store, client_ip, tags or set())

    # -- internals used by ProxyConnection ----------------------------------

    def _open_flow(
        self, host: str, port: int, scheme: str, client_ip: str, tags: set
    ) -> Flow:
        server_ip = self.resolver.resolve(host)
        self._next_port += 1
        flow = Flow(
            flow_id=self._next_flow_id,
            ts_start=self.clock.now(),
            client_ip=client_ip,
            client_port=self._next_port,
            server_ip=server_ip,
            server_port=port,
            hostname=host.lower(),
            scheme=scheme,
            ts_end=self.clock.now(),
            tags=set(tags),
        )
        self._next_flow_id += 1
        if self._trace is not None:
            self._trace.add(flow)
        self._emit("tcp_connect", flow)
        return flow


class ProxyTransport:
    """Transport bound to one device's trust store and address."""

    def __init__(self, proxy: InterceptionProxy, ca_store: CaStore, client_ip: str, tags: set) -> None:
        self.proxy = proxy
        self.ca_store = ca_store
        self.client_ip = client_ip
        self.tags = tags

    def connect(self, host: str, port: int, scheme: str, enforce_pins: bool = False) -> "ProxyConnection":
        proxy = self.proxy
        if not proxy.network.knows(host):
            raise NetworkError(f"no route to host {host!r}")
        flow = proxy._open_flow(host, port, scheme, self.client_ip, self.tags)

        if scheme == "https":
            profile = proxy.network.tls_profile(host)
            intercept = proxy.intercept_tls and host.lower() not in proxy.passthrough_hosts
            try:
                result = negotiate(
                    profile,
                    self.ca_store,
                    proxy.clock.now(),
                    intercept=intercept,
                    enforce_pins=enforce_pins,
                )
            except HandshakeError as exc:
                flow.tls = TlsInfo(sni=host, pinned=profile.app_pins is not None, intercepted=False)
                flow.tags.add("tls-failed")
                raise NetworkError(f"TLS handshake failed for {host}: {exc}") from exc
            flow.tls = TlsInfo(
                sni=result.sni,
                version=result.version,
                cipher=result.cipher,
                pinned=result.pinned,
                intercepted=result.intercepted,
            )
        return ProxyConnection(proxy, flow)


class ProxyConnection:
    """One recorded connection through the proxy."""

    def __init__(self, proxy: InterceptionProxy, flow: Flow) -> None:
        self.proxy = proxy
        self.flow = flow
        self._closed = False

    def send(self, request: Request) -> Response:
        if self._closed:
            raise NetworkError("send on closed connection")
        if request.host != self.flow.hostname:
            raise NetworkError(
                f"request host {request.host!r} does not match connection "
                f"host {self.flow.hostname!r}"
            )
        proxy = self.proxy
        decryptable = self.flow.tls is None or self.flow.tls.intercepted

        short_circuit = None
        if decryptable:
            request, short_circuit = proxy._apply_rewrites(self.flow, request)
            proxy._emit("request", self.flow, request)
        if short_circuit is not None:
            response = short_circuit
        else:
            response = proxy.network.dispatch(request)
        if decryptable:
            proxy._emit("response", self.flow, request, response)
            memo = proxy._memo
            captured_response = _captured_response(response, memo)
            wire_down = captured_response.size + 40
            body = captured_response.body
            limit = proxy.max_stored_body
            if limit is not None and len(body) > limit:
                body = body[:limit]
            # Only the stored (possibly truncated) body is shared.
            captured_response.body = memo.setdefault(body, body)
            txn = HttpTransaction(
                timestamp=proxy.clock.now(),
                request=_captured_request(request, memo),
                response=captured_response,
            )
            self.flow.add_transaction(txn, bytes_down=wire_down)
        else:
            # Pinned / passthrough: payload is opaque, count bytes only.
            self.flow.account_opaque(
                len(serialize_request(request)), len(serialize_response(response))
            )
            self.flow.ts_end = proxy.clock.now()
        return response

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.proxy._emit("tcp_close", self.flow)
