"""The ``serve`` workload: ``repro serve`` in its own process, open-loop load.

One generator process (this one) drives the server from one thread
with one keep-alive connection.  Reads arrive as a seeded Poisson
process conditioned on its count -- exactly ``READ_RATE * seconds``
arrivals at sorted uniform times, in a seeded shuffle of the fixed mix
below -- so every seed offers the same work.  Each request is timed
from its scheduled send time, so a stall also charges the requests
queued behind it; how late the generator itself sent (actual minus
scheduled send) is reported as lateness.

Uploads are single-session ``POST /v1/traces`` at a fixed interval;
after the 202 the same thread polls ``GET /v1/jobs/{id}`` every
``POLL_S`` until the job is ``done``, then fetches its result.  Polls
and the result fetch count toward their upload, never toward reads.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import ROUTES, load_spans, summarize

#: Server time per read, in ms, by read class: one over the closed-loop
#: throughput of each class alone on a 2-CPU Xeon VM (cached recommend
#: 4,091 req/s, service detail 1,417, uncached recommend 153, list 150).
READ_COST_MS = {
    "recommend_hit": 1000.0 / 4091,
    "detail": 1000.0 / 1417,
    "recommend_miss": 1000.0 / 153,
    "list": 1000.0 / 150,
}
#: Read mix: every read class carries the same share of the server's
#: read time, so a share is proportional to one over its cost (about
#: 70 % hits, 24 % details, 2.6 % misses, 2.6 % lists).  Doubling the
#: cost of any one class then adds a quarter to the server's read time,
#: and no class is too rare for ``cpu_s`` and ``wall_s`` to show it.
MIX = tuple(
    (name, (1.0 / cost) / sum(1.0 / c for c in READ_COST_MS.values()))
    for name, cost in READ_COST_MS.items()
)
#: Offered read rate (requests/s).  At this mix reads need about 0.2 of
#: one server core (300 x the mean cost of 0.69 ms), and the server with
#: its uploads and job polls about 0.35: every slow read or upload job
#: delays the reads queued behind it, yet no backlog grows.
READ_RATE = 300.0
#: One upload every UPLOAD_EVERY_S seconds; polled every POLL_S.
UPLOAD_EVERY_S = 0.5
POLL_S = 0.01
#: Preset preferences: the small pool cached recommends draw from.
PRESETS = (
    {},
    {"weights": {"location": 1.0, "unique_id": 0.9}},
    {"weights": {"email": 0.9, "password": 1.0, "phone": 0.8}},
    {"tracker_aversion": 0.2, "plaintext_aversion": 0.9},
)
OSES = ("android", "ios")
PII_TYPES = (
    "birthday", "device_info", "email", "gender", "location",
    "name", "phone", "username", "password", "unique_id",
)
#: One generator thread and connection: requests never overlap in the
#: server, so no request's time includes another's handling.
THREADS = 1
TIMEOUT_S = 10.0
STARTUP_TIMEOUT_S = 120.0
EXPECTED = {"recommend": 200, "detail": 200, "list": 200, "upload": 202, "poll": 200, "fetch": 200}


class Connection:
    """One keep-alive HTTP/1.1 connection (raw socket, Content-Length bodies)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = None
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _recv_until(self, predicate) -> None:
        while not predicate():
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def request(self, method: str, path: str, body: bytes = b"", headers=None) -> tuple:
        """``(status, headers, body)``; raises on any transport failure."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buffer = b""
        lines = [f"{method} {path} HTTP/1.1", f"Host: 127.0.0.1:{self.port}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(body)}")
        try:
            self.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
            self._recv_until(lambda: b"\r\n\r\n" in self.buffer)
            head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            status = int(status_line.split()[1])
            reply_headers = {}
            for line in header_lines:
                name, _, value = line.partition(":")
                reply_headers[name.strip().lower()] = value.strip()
            length = int(reply_headers.get("content-length", "0"))
            self._recv_until(lambda: len(self.buffer) >= length)
            reply, self.buffer = self.buffer[:length], self.buffer[length:]
            if reply_headers.get("connection", "").lower() == "close":
                self.close()
            return status, reply_headers, reply
        except BaseException:
            self.close()
            raise


def _request_for(kind: str, payload) -> tuple:
    """``(route, method, path, body)`` for a read event."""
    if kind == "recommend":
        return "recommend", "POST", "/v1/recommend", json.dumps(payload, sort_keys=True).encode()
    if kind == "detail":
        return "detail", "GET", f"/v1/services/{payload}", b""
    if kind == "list":
        return "list", "GET", "/v1/services", b""
    raise ValueError(kind)


def _balanced(rng: random.Random, choices: list):
    """Endless draws that use every choice equally often: each pass is a
    fresh seeded shuffle.  Seeds then differ in order, not in the mix of
    services or upload bodies, whose costs differ (bodies by 9x)."""
    while True:
        batch = list(choices)
        rng.shuffle(batch)
        yield from batch


def build_schedule(seed: int, seconds: float, slugs: list, uploads: int) -> list:
    """Seeded events ``(due_s, kind, payload)``; due times relative to the window."""
    rng = random.Random(f"perfbench-serve|{seed}")
    reads = int(round(READ_RATE * seconds))
    counts = [int(round(share * reads)) for _name, share in MIX]
    counts[0] += reads - sum(counts)
    kinds = [name for (name, _share), count in zip(MIX, counts) for _ in range(count)]
    rng.shuffle(kinds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(reads))
    presets = _balanced(rng, [(os_name, preset) for os_name in OSES for preset in PRESETS])
    services = _balanced(rng, slugs)
    bodies = _balanced(rng, range(uploads))
    events = []
    for due, kind in zip(times, kinds):
        if kind == "recommend_hit":
            os_name, preset = next(presets)
            events.append((due, "recommend", {"os": os_name, "preferences": preset}))
        elif kind == "recommend_miss":
            weights = {name: round(rng.random(), 6) for name in PII_TYPES}
            payload = {"os": rng.choice(OSES), "preferences": {"weights": weights}}
            events.append((due, "recommend", payload))
        elif kind == "detail":
            events.append((due, "detail", next(services)))
        else:
            events.append((due, "list", None))
    count = int(seconds / UPLOAD_EVERY_S)
    for index in range(count):
        events.append(((index + 0.5) * UPLOAD_EVERY_S, "upload", next(bodies)))
    events.sort(key=lambda event: event[0])
    return events


class LoadRun:
    """Executes one schedule against the server and keeps every outcome."""

    def __init__(self, port: int, bodies: list) -> None:
        self.port = port
        self.bodies = bodies
        self.lock = threading.Lock()
        self.reads = []  # (route, latency_s, rid)
        self.uploads = []  # latency_s to job done
        self.lateness = []
        self.errors = []
        self.sent = {route: 0 for route in ("recommend", "detail", "list", "upload", "job")}
        self.order = []  # request class of each request, in the order sent

    def _count(self, route: str, klass: str) -> None:
        with self.lock:
            self.sent[route] += 1
            self.order.append(klass)

    def _fail(self, what: str) -> None:
        with self.lock:
            self.errors.append(what)

    def _worker(self, events: list, origin: float, offset: int) -> None:
        conn = Connection(self.port)
        heap = []
        for index, (due, kind, payload) in enumerate(events):
            heap.append((origin + due, offset + index, kind, payload, origin + due))
        heapq.heapify(heap)
        seq = offset + len(events)
        try:
            while heap:
                due, rid, kind, payload, first_due = heapq.heappop(heap)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if kind in ("recommend", "detail", "list", "upload"):
                    with self.lock:
                        self.lateness.append(sent - due)
                if kind == "upload":
                    route, method, path, body = "upload", "POST", "/v1/traces", self.bodies[payload]
                elif kind == "poll":
                    route, method, path, body = "job", "GET", f"/v1/jobs/{payload}", b""
                elif kind == "fetch":
                    route, method, path, body = "job", "GET", f"/v1/jobs/{payload}/result", b""
                else:
                    route, method, path, body = _request_for(kind, payload)
                klass = kind
                if kind == "recommend":
                    hit = payload["preferences"] in PRESETS
                    klass = "recommend_hit" if hit else "recommend_miss"
                self._count(route, klass)
                try:
                    status, _headers, reply = conn.request(
                        method, path, body, {"X-Request-Id": f"r{rid}"}
                    )
                except (OSError, ValueError, IndexError) as exc:
                    self._fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                done = time.perf_counter()
                if status != EXPECTED[kind]:
                    self._fail(f"{kind} {path}: status {status}")
                    continue
                if kind in ("recommend", "detail", "list"):
                    with self.lock:
                        self.reads.append((route, done - first_due, f"r{rid}"))
                elif kind == "upload":
                    job = json.loads(reply)["job"]
                    seq += 1
                    heapq.heappush(heap, (done + POLL_S, seq, "poll", job, first_due))
                elif kind == "poll":
                    state = json.loads(reply)["state"]
                    seq += 1
                    if state == "done":
                        with self.lock:
                            self.uploads.append(done - first_due)
                        heapq.heappush(heap, (done, seq, "fetch", payload, first_due))
                    elif state == "failed":
                        self._fail(f"job {payload} failed")
                    elif done - first_due > TIMEOUT_S:
                        self._fail(f"job {payload} not done after {TIMEOUT_S:.0f}s")
                    else:
                        heapq.heappush(heap, (done + POLL_S, seq, "poll", payload, first_due))
                elif kind == "fetch":
                    json.loads(reply)  # the result must be a whole JSON document
        except Exception as exc:  # a thread that dies must still be counted
            self._fail(f"generator thread: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    def run(self, events: list, seconds: float) -> tuple:
        """Run ``events`` open-loop; ``(window_start, window_end)``."""
        shares = [[] for _ in range(THREADS)]
        for index, event in enumerate(events):
            shares[index % THREADS].append(event)
        origin = time.perf_counter() + 0.05
        threads = [
            threading.Thread(
                target=self._worker, args=(share, origin, 1_000_000 * (n + 1)), daemon=True
            )
            for n, share in enumerate(shares)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 60.0)
        if any(thread.is_alive() for thread in threads):
            self._fail("generator thread did not finish")
        return origin, time.perf_counter()


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _canonical(route: str, status: int, body: bytes) -> bytes:
    """Probe response bytes with the per-run job id removed."""
    if route in ("upload", "job"):
        data = json.loads(body)
        data.pop("job", None)
        body = json.dumps(data, sort_keys=True).encode()
    return f"{route} {status}\n".encode() + body + b"\n"


def _upload_and_wait(conn: Connection, body: bytes, deadline_s: float = 60.0) -> tuple:
    """POST an upload, poll to ``done``, fetch the result; returns
    ``(requests per route, [(route, status, body)])``."""
    sent = {"upload": 1, "job": 0}
    status, _h, reply = conn.request("POST", "/v1/traces", body)
    out = [("upload", status, reply)]
    if status != 202:
        return sent, out
    job = json.loads(reply)["job"]
    deadline = time.perf_counter() + deadline_s
    state = "queued"
    while state not in ("done", "failed") and time.perf_counter() < deadline:
        time.sleep(POLL_S)
        sent["job"] += 1
        status, _h, reply = conn.request("GET", f"/v1/jobs/{job}")
        state = json.loads(reply)["state"] if status == 200 else "failed"
    sent["job"] += 1
    status, _h, reply = conn.request("GET", f"/v1/jobs/{job}/result")
    out.append(("job", status, reply))
    return sent, out


def _probe(conn: Connection, slugs: list, bodies: list) -> tuple:
    """One request per route; ``(digest, ok, requests per route)``."""
    one_off = {"weights": {name: 0.1 * (index + 1) for index, name in enumerate(PII_TYPES)}}
    replies = []
    sent = {"recommend": 0, "detail": 0, "list": 0, "upload": 0, "job": 0}
    for route, method, path, body in (
        _request_for("recommend", {"os": "android", "preferences": PRESETS[0]}),
        _request_for("recommend", {"os": "ios", "preferences": one_off}),
        _request_for("detail", slugs[0]),
        _request_for("list", None),
    ):
        sent[route] += 1
        status, _h, reply = conn.request(method, path, body)
        replies.append((route, status, reply))
    upload_sent, upload_replies = _upload_and_wait(conn, bodies[0])
    for route, count in upload_sent.items():
        sent[route] += count
    replies += upload_replies
    ok = all(status == EXPECTED["fetch" if route == "job" else route] for route, status, _ in replies)
    digest = hashlib.sha256(b"".join(_canonical(*reply) for reply in replies)).hexdigest()[:16]
    return digest, ok, sent


def _scrape(conn: Connection) -> tuple:
    """``(per-route request totals, summed request seconds)`` from ``/metrics``."""
    status, _h, body = conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    totals: dict = {}
    busy_s = 0.0
    for line in body.decode().splitlines():
        if line.startswith("repro_serve_request_seconds_sum"):
            busy_s += float(line.rsplit(" ", 1)[1])
        if not line.startswith("repro_serve_requests_total{"):
            continue
        labels, value = line.rsplit(" ", 1)
        route = labels.split('route="', 1)[1].split('"', 1)[0]
        name = ROUTES.get(route)
        if name is not None:
            totals[name] = totals.get(name, 0) + int(float(value))
    return totals, busy_s


#: Access-log route of each request class the generator sends.
CLASS_ROUTES = {
    "recommend_hit": "/v1/recommend",
    "recommend_miss": "/v1/recommend",
    "detail": "/v1/services/{name}",
    "list": "/v1/services",
    "upload": "/v1/traces",
    "poll": "/v1/jobs/{id}",
    "fetch": "/v1/jobs/{id}/result",
}


def _window_records(log_path: Path) -> list:
    """``(route, server latency s)`` of each request in the window, in order.

    ``repro serve`` logs one JSON access record per request as it
    finishes; the window's requests are the records between the first
    and the second ``/metrics`` scrape of :func:`serve_cycle`.
    """
    records = []
    with open(log_path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            start = line.find("{")
            if start < 0:
                continue
            try:
                record = json.loads(line[start:])
            except ValueError:
                continue
            if isinstance(record, dict) and "latency_ms" in record:
                records.append((record["route"], record["latency_ms"] / 1000.0))
    scrapes = [index for index, (route, _s) in enumerate(records) if route == "/metrics"]
    if len(scrapes) < 2:
        raise RuntimeError("server log lacks the /metrics scrapes around the window")
    return records[scrapes[0] + 1 : scrapes[1]]


def _median_time(classes: list, records: list) -> float:
    """Sum over request classes of (requests x median server latency).

    One connection sends the window's requests one at a time, so the
    server finishes them in the order sent and ``records`` lines up with
    ``classes``.  Per class, not per route: uncached recommends are 3.6 %
    of their route and would vanish under its median.
    """
    by_class: dict = {}
    for klass, (_route, seconds) in zip(classes, records):
        by_class.setdefault(klass, []).append(seconds)
    return sum(len(values) * statistics.median(values) for values in by_class.values())


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Server:
    """``repro serve`` in its own process, output to a log file."""

    def __init__(self, root: Path, work: Path, inputs: Path, env: dict, cpus, trace_dir=None) -> None:
        self.port = _free_port()
        command = [sys.executable, "perfbench/serve_boot.py"]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["--", "--result", str(inputs / "dataset"), "--port", str(self.port),
                    "--no-recon", "--ingest-dir", str(work / f"ingest-{self.port}")]
        # A log file, never a pipe: the server logs a line per request,
        # and a pipe nobody reads would fill and stall its event loop.
        self.log_path = work / f"server-{self.port}.log"
        self.log = open(self.log_path, "wb")
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        self.conn = Connection(self.port)
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with {self.proc.returncode} during start-up")
                if time.perf_counter() - spawned > STARTUP_TIMEOUT_S:
                    raise RuntimeError("server did not answer /healthz in time")
                try:
                    if self.conn.request("GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass  # not listening yet
                time.sleep(0.02)
        except BaseException:
            self.stop()
            raise
        #: Spawn to the first ``/healthz`` 200, store build included.
        self.setup_phase = [spawned, time.perf_counter()]

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; the exit code."""
        self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return self.proc.returncode


def serve_cycle(root: Path, work: Path, inputs: Path, seed: int, seconds: float, env: dict,
                cpus, trace_dir=None) -> dict:
    """Start the server on ``cpus``, warm it, run the window, probe, scrape, stop."""
    bodies = [path.read_bytes() for path in sorted((inputs / "uploads").glob("*.bin"))]
    checks = {}
    server = Server(root, work, inputs, env, cpus, trace_dir)
    conn, port, pid = server.conn, server.port, server.proc.pid
    try:
        # Warm-up: learn the services, fill the preset cache, one upload.
        sent = {"recommend": 0, "detail": 0, "list": 1, "upload": 0, "job": 0}
        status, _h, reply = conn.request("GET", "/v1/services")
        warm_statuses = [status]
        slugs = sorted(item["service"] for item in json.loads(reply)["services"])
        for os_name in OSES:
            for preset in PRESETS:
                route, *request = _request_for("recommend", {"os": os_name, "preferences": preset})
                warm_statuses.append(conn.request(*request)[0])
                sent[route] += 1
        for slug in slugs[:10]:
            route, *request = _request_for("detail", slug)
            warm_statuses.append(conn.request(*request)[0])
            sent[route] += 1
        upload_sent, upload_replies = _upload_and_wait(conn, bodies[-1])
        for route, count in upload_sent.items():
            sent[route] += count
        checks["warm_up_answered"] = set(warm_statuses) == {200} and [
            status for _route, status, _body in upload_replies
        ] == [202, 200]
        probe_before, probe_ok_before, probe_sent = _probe(conn, slugs, bodies)
        for route, count in probe_sent.items():
            sent[route] += count

        events = build_schedule(seed, seconds, slugs, len(bodies))
        load = LoadRun(port, bodies)
        _totals, busy0 = _scrape(conn)
        gen_cpu0 = time.process_time()
        cpu0 = _proc_cpu_s(pid)
        window = load.run(events, seconds)
        cpu1 = _proc_cpu_s(pid)
        gen_cpu = time.process_time() - gen_cpu0
        _totals, busy1 = _scrape(conn)

        probe_after, probe_ok_after, probe_sent = _probe(conn, slugs, bodies)
        for route, count in probe_sent.items():
            sent[route] += count
        for route, count in load.sent.items():
            sent[route] += count
        scraped, _busy = _scrape(conn)
        peak_rss_mb = _proc_peak_rss_mb(pid)
    finally:
        returncode = server.stop()
    window_records = _window_records(server.log_path)

    reads = [latency for _route, latency, _rid in load.reads]
    read_events = sum(1 for event in events if event[1] != "upload")
    upload_events = len(events) - read_events
    checks["every_status_expected"] = not load.errors
    checks["every_upload_done_and_fetched"] = len(load.uploads) == upload_events
    checks["probes_answered"] = probe_ok_before and probe_ok_after
    checks["probe_digest_stable"] = probe_before == probe_after
    checks["metrics_route_counts_match"] = scraped == {k: v for k, v in sent.items() if v}
    checks["server_drained"] = returncode == 0
    checks["access_log_matches_requests"] = len(window_records) == len(load.order) and all(
        CLASS_ROUTES[klass] == route for klass, (route, _s) in zip(load.order, window_records)
    )
    result = {
        "setup_s": server.setup_phase[1] - server.setup_phase[0],
        "setup_phase": server.setup_phase,
        # The server's own request time over the window, at each request
        # class's median (README); the plain sum and client-side latency
        # sums are printed beside it.
        "wall_s": _median_time(load.order, window_records),
        "request_sum_s": busy1 - busy0,
        "client_wait_s": sum(reads) + sum(load.uploads),
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "read_p50_ms": 1000.0 * statistics.median(reads) if reads else float("nan"),
        "read_p99_ms": 1000.0 * _percentile(reads, 0.99) if reads else float("nan"),
        "upload_p50_ms": 1000.0 * statistics.median(load.uploads) if load.uploads else float("nan"),
        "lateness_p99_ms": 1000.0 * _percentile(load.lateness, 0.99) if load.lateness else float("nan"),
        "generator_cpu_s": gen_cpu,
        "reads": f"{len(reads)}/{read_events}",
        "uploads": f"{len(load.uploads)}/{upload_events}",
        "attempted": len(events),
        "failed": read_events - len(reads) + upload_events - len(load.uploads),
        "errors": load.errors[:5],
        "checks": checks,
        "digest": probe_after,
        "scraped": scraped,
        "phase": list(window),
        "pid": pid,
        "client": {rid: latency for _route, latency, rid in load.reads},
    }
    if trace_dir is not None:
        spans = load_spans(trace_dir)
        result["layers"] = summarize(spans, pid, window, result["client"])
        traced = {f"serve.requests.{route}": count for route, count in scraped.items()}
        checks["spans_match_metrics"] = all(
            result["layers"][name] == count for name, count in traced.items()
        )
    return result
