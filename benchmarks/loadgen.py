"""Closed-loop HTTP load generator for the serving benchmarks.

``concurrency`` worker threads each hold one keep-alive connection and
issue requests back-to-back — the next request leaves only when the
previous response has fully arrived (closed-loop, so the measured
latency distribution is honest rather than coordinated-omission-prone).
Per-request wall latencies feed the p50/p99 numbers ``make bench-serve``
and ``make bench-ingest`` record into ``BENCH_serve.json`` and
``BENCH_ingest.json``.

The client is a raw-socket HTTP/1.1 implementation rather than
``http.client`` to keep per-request overhead (object churn, header
re-parsing) out of the measurement loop.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class LoadReport:
    """What one closed-loop run measured."""

    requests: int
    errors: int
    elapsed: float
    latencies_ms: list = field(default_factory=list, repr=False)
    status_counts: dict = field(default_factory=dict)

    @property
    def rps(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile in milliseconds (q in [0, 100])."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    @property
    def p50_ms(self) -> float:
        return self.percentile(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99)

    @property
    def mean_ms(self) -> float:
        return sum(self.latencies_ms) / len(self.latencies_ms) if self.latencies_ms else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed, 4),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "status_counts": dict(self.status_counts),
        }


class _Connection:
    """One persistent connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _read_line(self) -> bytes:
        while b"\r\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\r\n", 1)
        return line

    def _read_exact(self, length: int) -> bytes:
        while len(self._buffer) < length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed connection mid-body")
            self._buffer += chunk
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return body

    def request(self, method: str, path: str, body: bytes, headers: dict) -> tuple:
        """Send one request; return ``(status, body, retry_after)``.
        Reconnects once on a keep-alive race."""
        if self._sock is None:
            self._connect()
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        if body:
            lines.append(f"Content-Length: {len(body)}")
        message = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        try:
            self._sock.sendall(message)
            return self._read_response()
        except (ConnectionError, socket.timeout, OSError):
            # Keep-alive race (server closed an idle connection): retry
            # once on a fresh socket before reporting an error.
            self.close()
            self._connect()
            self._sock.sendall(message)
            return self._read_response()

    def _read_response(self) -> tuple:
        status_line = self._read_line()
        status = int(status_line.split(b" ", 2)[1])
        content_length = 0
        close_after = False
        retry_after = None
        while True:
            line = self._read_line()
            if not line:
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                content_length = int(value.strip())
            elif name == b"connection" and value.strip().lower() == b"close":
                close_after = True
            elif name == b"retry-after":
                try:
                    retry_after = float(value.strip())
                except ValueError:
                    retry_after = None
        body = self._read_exact(content_length)
        if close_after:
            self.close()
        return status, body, retry_after


def run_load(
    host: str,
    port: int,
    method: str = "POST",
    path: str = "/v1/recommend",
    body: bytes = b"{}",
    headers: Optional[dict] = None,
    concurrency: int = 4,
    requests: int = 1000,
    warmup: int = 50,
    timeout: float = 10.0,
    backoff_cap_s: float = 0.0,
    stop: Optional[threading.Event] = None,
) -> LoadReport:
    """Drive the server closed-loop and measure what came back.

    ``warmup`` requests run first (on one connection, excluded from
    every statistic) so steady-state numbers aren't polluted by cold
    caches or lazy imports.  The measured ``requests`` are then split
    across ``concurrency`` worker threads.

    ``backoff_cap_s`` > 0 makes the client honor backpressure the way
    the API contract intends: after a 429/503 it sleeps the server's
    Retry-After hint, capped at ``backoff_cap_s`` (sleep time never
    enters the latency samples).  With ``stop`` set, workers ignore
    ``requests`` and run until the event fires — the mixed-load
    harness uses this for background classes that must span the
    foreground measurement window exactly.
    """
    base_headers = {"Connection": "keep-alive"}
    if body:
        base_headers["Content-Type"] = "application/json"
    base_headers.update(headers or {})

    if warmup > 0:
        conn = _Connection(host, port, timeout)
        try:
            for _ in range(warmup):
                conn.request(method, path, body, base_headers)
        finally:
            conn.close()

    shares = [requests // concurrency] * concurrency
    for i in range(requests % concurrency):
        shares[i] += 1
    if stop is not None:
        shares = [1] * concurrency  # share is ignored; spawn every worker

    lock = threading.Lock()
    latencies: list = []
    status_counts: dict = {}
    errors = [0]

    def worker(share: int) -> None:
        conn = _Connection(host, port, timeout)
        local_latencies = []
        local_counts: dict = {}
        local_errors = 0
        sent = 0
        try:
            while (sent < share) if stop is None else not stop.is_set():
                sent += 1
                started = time.perf_counter()
                try:
                    status, _body, retry_after = conn.request(
                        method, path, body, base_headers
                    )
                except (ConnectionError, socket.timeout, OSError):
                    local_errors += 1
                    conn.close()
                    continue
                local_latencies.append((time.perf_counter() - started) * 1000.0)
                local_counts[status] = local_counts.get(status, 0) + 1
                if backoff_cap_s > 0 and status in (429, 503):
                    delay = min(retry_after or backoff_cap_s, backoff_cap_s)
                    if stop is not None:
                        stop.wait(delay)
                    else:
                        time.sleep(delay)
        finally:
            conn.close()
        with lock:
            latencies.extend(local_latencies)
            for status, count in local_counts.items():
                status_counts[status] = status_counts.get(status, 0) + count
            errors[0] += local_errors

    threads = [
        threading.Thread(target=worker, args=(share,), daemon=True)
        for share in shares
        if share > 0
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    return LoadReport(
        requests=len(latencies),
        errors=errors[0],
        elapsed=elapsed,
        latencies_ms=latencies,
        status_counts=status_counts,
    )


@dataclass(frozen=True)
class WorkloadClass:
    """One request class inside a mixed closed-loop run.

    A *foreground* class (the default) issues the run's full request
    count and its completion defines the measurement window.  A
    ``background=True`` class instead loops for exactly as long as the
    foreground classes are running — the natural shape for "measure
    reads while ingest runs continuously", where pre-sizing a request
    count would either cut the pressure short or outlive the window.

    ``backoff_cap_s`` > 0 makes the class honor Retry-After on 429/503
    (capped) — a protocol-correct client rather than one that hammers
    a saturated endpoint at line rate.  ``warmup`` overrides the run's
    warmup count for this class (uploads want a couple of requests, not
    fifty).
    """

    name: str
    method: str
    path: str
    body: bytes = b""
    headers: dict = field(default_factory=dict)
    concurrency: int = 1
    background: bool = False
    backoff_cap_s: float = 0.0
    warmup: Optional[int] = None


def run_mixed_load(
    host: str,
    port: int,
    classes: list,
    requests: int = 1000,
    warmup: int = 50,
    timeout: float = 10.0,
) -> dict:
    """Drive several request classes concurrently; report each separately.

    Each :class:`WorkloadClass` gets its own closed-loop worker threads
    (``concurrency`` per class), all running over the same wall-clock
    window; ``requests`` is the per-foreground-class total, split across
    that class's workers.  Background classes start first and are
    stopped when the last foreground class finishes, so they span the
    measurement window exactly.  Returns ``{class_name: LoadReport}`` —
    this is how ``make bench-ingest`` measures read-path latency *under*
    concurrent upload traffic rather than in isolation.
    """
    reports: dict = {}
    lock = threading.Lock()
    stop = threading.Event()

    def run_class(cls: WorkloadClass) -> None:
        headers = {"Connection": "keep-alive"}
        headers.update(cls.headers)
        if cls.body and "Content-Type" not in headers:
            headers["Content-Type"] = "application/json"
        report = run_load(
            host,
            port,
            method=cls.method,
            path=cls.path,
            body=cls.body,
            headers=headers,
            concurrency=cls.concurrency,
            requests=requests,
            warmup=warmup if cls.warmup is None else cls.warmup,
            timeout=timeout,
            backoff_cap_s=cls.backoff_cap_s,
            stop=stop if cls.background else None,
        )
        with lock:
            reports[cls.name] = report

    foreground = [
        threading.Thread(target=run_class, args=(cls,), daemon=True)
        for cls in classes
        if not cls.background
    ]
    background = [
        threading.Thread(target=run_class, args=(cls,), daemon=True)
        for cls in classes
        if cls.background
    ]
    for thread in background:
        thread.start()
    for thread in foreground:
        thread.start()
    for thread in foreground:
        thread.join()
    stop.set()
    for thread in background:
        thread.join()
    return reports
