"""Bundled proxy addons.

Small mitmproxy-style addons used by the experiment harness: traffic
tagging, a live counter useful in tests and examples, and the live
export of the capture into a flow journal.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..http.message import Request, Response
from ..net.flow import Flow


class HostTagger:
    """Tag flows to specific hosts at connect time.

    The runner uses this to label OS-service traffic (Google Play
    Services, iCloud, …) so §3.2-style background filtering can drop it.
    """

    def __init__(self, tag: str, hostnames: Iterable) -> None:
        self.tag = tag
        self._exact: set = set()
        self._suffixes: list = []
        for name in hostnames:
            name = name.lower()
            if name.startswith("*."):
                self._suffixes.append(name[1:])  # keep the dot
            else:
                self._exact.add(name)

    def matches(self, hostname: str) -> bool:
        hostname = hostname.lower()
        if hostname in self._exact:
            return True
        return any(hostname.endswith(suffix) for suffix in self._suffixes)

    def tcp_connect(self, flow: Flow) -> None:
        if self.matches(flow.hostname):
            flow.tags.add(self.tag)


class FlowCounter:
    """Count connections, requests, and responses passing the proxy."""

    def __init__(self) -> None:
        self.connects = 0
        self.requests = 0
        self.responses = 0

    def tcp_connect(self, flow: Flow) -> None:
        self.connects += 1

    def request(self, flow: Flow, request: Request) -> None:
        self.requests += 1

    def response(self, flow: Flow, request: Request, response: Response) -> None:
        self.responses += 1


class RequestLogger:
    """Invoke a callback for each decrypted request (tests, debugging)."""

    def __init__(self, callback: Callable) -> None:
        self.callback = callback

    def request(self, flow: Flow, request: Request) -> None:
        self.callback(flow, request)


class StreamCapture:
    """Publish the capture live, one finalized event at a time.

    Bridges the proxy's capture lifecycle to the flow journal's events
    (see :mod:`repro.stream.checkpoint`): ``capture_start`` becomes a
    ``session_start`` event carrying the device's ground-truth PII,
    each flow is published once it is *final*, and ``capture_stop``
    becomes ``session_end``.  ``run_study(checkpoint_dir=...)`` wires
    ``publish`` to :meth:`~repro.stream.checkpoint.FlowJournal.publish`.

    A flow keeps accumulating transactions until its connection closes,
    so flows are held pending and flushed as the longest closed prefix
    in ``flow_id`` (connect) order — the publish order is a function of
    which flows exist, never of close timing.  Whatever is still open
    when the capture stops can no longer change and is flushed then.

    A flow leaves the pending list as soon as it is published.  The
    first publish that raises (say, a full disk under the journal) ends
    publishing for good: the exception is kept in :attr:`error`, no
    later event is published, so nothing reaches the journal twice, and
    ``run_study(checkpoint_dir=...)`` turns it into a
    :class:`~repro.stream.checkpoint.CheckpointError`.

    Ground truth must be staged before ``start_capture`` (the runner's
    ``phone_setup`` hook runs at exactly the right moment — after
    provisioning and sign-in, before capture):

    >>> capture = StreamCapture(journal.publish)
    >>> runner.run_session(spec, os, medium, phone_setup=capture.stage_phone)
    """

    def __init__(self, publish: Callable) -> None:
        from ..stream.checkpoint import flow_event, session_end_event, session_start_event

        self._publish = publish
        self._flow_event = flow_event
        self._session_end_event = session_end_event
        self._session_start_event = session_start_event
        self._staged_truth: dict = {}
        self._session = None  # (service, os, medium) while a capture runs
        self._pending: list = []  # flows in connect order, not yet published
        self._closed: set = set()  # flow_ids whose connection closed
        self.error: Optional[Exception] = None  # the first failed publish

    def _send(self, event) -> bool:
        """Publish ``event`` unless a publish failed; False once one has."""
        if self.error is not None:
            return False
        try:
            self._publish(event)
        except Exception as exc:
            self.error = exc
            return False
        return True

    # -- staging -------------------------------------------------------------

    def stage_ground_truth(self, truth: dict) -> None:
        """Provide the next session's ground truth ahead of capture."""
        self._staged_truth = truth

    def stage_phone(self, phone) -> None:
        """Runner ``phone_setup`` hook: stage the phone's ground truth."""
        self.stage_ground_truth(phone.ground_truth())

    # -- proxy callbacks -----------------------------------------------------

    def capture_start(self, meta) -> None:
        self._session = (meta.service, meta.os_name, meta.medium)
        self._pending = []
        self._closed = set()
        self._send(self._session_start_event(meta, self._staged_truth))

    def tcp_connect(self, flow: Flow) -> None:
        if self._session is not None:
            self._pending.append(flow)

    def tcp_close(self, flow: Flow) -> None:
        if self._session is None:
            return
        self._closed.add(flow.flow_id)
        self._flush_closed_prefix()

    def capture_stop(self, trace) -> None:
        if self._session is None:
            return
        # Remaining open flows can't change once the capture is over.
        for flow in self._pending:
            if not self._send(self._flow_event(self._session, flow)):
                break
        self._send(self._session_end_event(self._session))
        self._session = None
        self._pending = []
        self._closed = set()
        self._staged_truth = {}

    def _flush_closed_prefix(self) -> None:
        pending = self._pending
        while pending and pending[0].flow_id in self._closed:
            flow = pending[0]
            if not self._send(self._flow_event(self._session, flow)):
                return
            del pending[0]
            self._closed.discard(flow.flow_id)
