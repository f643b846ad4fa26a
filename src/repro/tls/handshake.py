"""TLS handshake semantics: SNI, interception, and pinning outcomes.

The interception proxy terminates TLS toward the client with a
certificate minted by its own CA (:data:`~repro.tls.certs.PROXY_CA`).
Whether a given connection is decryptable therefore depends on three
parties: the server (does it even speak TLS? does its app pin?), the
device (does it trust the proxy CA?), and the client app (does it
enforce a pin set?).  :func:`negotiate` centralizes that decision so the
proxy, device, and tests all agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .certs import (
    PROXY_CA,
    CaStore,
    Certificate,
    CertificateError,
    PinSet,
    make_certificate,
)


class HandshakeError(Exception):
    """Raised when a simulated TLS handshake fails (connection aborts)."""


@dataclass(frozen=True)
class ServerTlsProfile:
    """How a simulated server presents itself over TLS."""

    hostname: str
    certificate: Certificate
    # Pin set shipped in the service's *app*; web browsers do not pin.
    app_pins: Optional[PinSet] = None

    # Profiles and certificates are frozen, so one instance per hostname
    # is shared: every world build registers the same ~250 hosts again.
    @classmethod
    @lru_cache(maxsize=1024)
    def standard(cls, hostname: str, issuer: str = "PublicCA") -> "ServerTlsProfile":
        return cls(hostname=hostname, certificate=make_certificate(hostname, issuer))

    @classmethod
    @lru_cache(maxsize=1024)
    def pinned(cls, hostname: str, issuer: str = "PublicCA") -> "ServerTlsProfile":
        from .certs import pin_for

        return cls(
            hostname=hostname,
            certificate=make_certificate(hostname, issuer),
            app_pins=pin_for(hostname, issuer),
        )


@dataclass(frozen=True)
class HandshakeResult:
    """Outcome of a (possibly intercepted) TLS handshake."""

    sni: str
    version: str
    cipher: str
    presented: Certificate
    intercepted: bool
    pinned: bool


def negotiate(
    profile: ServerTlsProfile,
    ca_store: CaStore,
    now: float,
    intercept: bool = False,
    enforce_pins: bool = False,
    version: str = "TLSv1.2",
    cipher: str = "ECDHE-RSA-AES128-GCM-SHA256",
) -> HandshakeResult:
    """Run one handshake and decide interception/pinning outcomes.

    ``intercept`` is True when the proxy is on-path and MITMing;
    ``enforce_pins`` is True for app clients that ship a pin set (web
    browsers never enforce pins).  Raises :class:`HandshakeError` when
    the client would abort — an untrusted certificate, or a pin
    mismatch — mirroring the connection failures that made the paper
    exclude pinning services like Facebook.
    """
    if intercept:
        presented = make_certificate(profile.hostname, PROXY_CA)
    else:
        presented = profile.certificate

    try:
        ca_store.validate(presented, profile.hostname, now)
    except CertificateError as exc:
        raise HandshakeError(str(exc)) from exc

    pinned = profile.app_pins is not None
    if enforce_pins and pinned and not profile.app_pins.accepts(presented):
        raise HandshakeError(
            f"certificate pin mismatch for {profile.hostname} "
            f"(presented {presented.fingerprint!r})"
        )

    return HandshakeResult(
        sni=profile.hostname,
        version=version,
        cipher=cipher,
        presented=presented,
        intercepted=intercept,
        pinned=pinned,
    )
