"""Bounded per-tenant admission queues with reject-not-block backpressure.

An open upload endpoint cannot block its caller when analysis falls
behind, as an in-process pipeline that owns both ends may: a slow
analysis backlog would wedge every connection slot behind one tenant.
:class:`TenantQueue` bounds each tenant's FIFO and converts "full"
into an immediate, typed rejection (:class:`QueueFull`) that the HTTP
layer maps to 429 (this tenant's queue is full) or 503 (the whole
service is saturated) with a Retry-After estimate.

Admission is two-phase so a job is never queued before it is durable:
:meth:`TenantQueue.reserve` claims capacity under the lock *before* the
job store writes anything, and :meth:`TenantQueue.push` publishes the
job id only after the upload and its journal entry hit disk (a failed
persist calls :meth:`TenantQueue.cancel` to release the claim).
Workers :meth:`TenantQueue.take` jobs round-robin across tenants, so
one tenant's deep queue cannot starve another's single job.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Optional, Tuple

DEFAULT_PER_TENANT = 8
DEFAULT_TOTAL = 64


class QueueFull(Exception):
    """Admission rejected: ``scope`` is ``"tenant"`` (429) or ``"global"`` (503)."""

    def __init__(self, scope: str, message: str) -> None:
        super().__init__(message)
        self.scope = scope


class TenantQueue:
    """Round-robin FIFO of job ids, bounded per tenant and overall."""

    def __init__(
        self,
        per_tenant: int = DEFAULT_PER_TENANT,
        total: int = DEFAULT_TOTAL,
    ) -> None:
        if per_tenant < 1:
            raise ValueError("per_tenant must be >= 1")
        if total < 1:
            raise ValueError("total must be >= 1")
        self.per_tenant = per_tenant
        self.total = total
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        # tenant -> reserved-slot count (reserved or queued, not yet taken)
        self._counts: dict = {}
        self._pending = 0
        # tenant -> deque of pushed job ids; OrderedDict preserves the
        # round-robin rotation order across take() calls.
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self.accepted = 0
        self.rejected_tenant = 0
        self.rejected_global = 0

    # -- admission ---------------------------------------------------------

    def check(self, tenant: str) -> None:
        """Raise :class:`QueueFull` if a reserve would be rejected.

        The cheap load-shedding gate the service runs *before* paying
        to decode an upload: when the system is saturated, rejection
        must cost near nothing.  Racy by design — capacity seen here
        can vanish before :meth:`reserve`, which re-checks under the
        same rules and is the only call that claims a slot.
        """
        with self._lock:
            if self._pending >= self.total:
                self.rejected_global += 1
                raise QueueFull(
                    "global", f"ingest queue full ({self._pending}/{self.total} jobs)"
                )
            count = self._counts.get(tenant, 0)
            if count >= self.per_tenant:
                self.rejected_tenant += 1
                raise QueueFull(
                    "tenant",
                    f"tenant {tenant!r} queue full ({count}/{self.per_tenant} jobs)",
                )

    def reserve(self, tenant: str) -> None:
        """Claim one slot for ``tenant`` or raise :class:`QueueFull`."""
        with self._lock:
            if self._pending >= self.total:
                self.rejected_global += 1
                raise QueueFull(
                    "global", f"ingest queue full ({self._pending}/{self.total} jobs)"
                )
            count = self._counts.get(tenant, 0)
            if count >= self.per_tenant:
                self.rejected_tenant += 1
                raise QueueFull(
                    "tenant",
                    f"tenant {tenant!r} queue full ({count}/{self.per_tenant} jobs)",
                )
            self._counts[tenant] = count + 1
            self._pending += 1

    def cancel(self, tenant: str) -> None:
        """Release a reservation whose job never got persisted."""
        with self._lock:
            self._release(tenant)

    def push(self, tenant: str, job_id: str) -> None:
        """Publish a reserved, durably-stored job to the workers."""
        with self._lock:
            queue = self._queues.get(tenant)
            if queue is None:
                queue = deque()
                self._queues[tenant] = queue
            queue.append(job_id)
            self.accepted += 1
            self._ready.notify()

    def restore(self, tenant: str, job_id: str) -> None:
        """Requeue a recovered job, bypassing the admission bounds.

        Recovery must never drop jobs that were already accepted before
        a crash, even if the configured bounds shrank in between.
        """
        with self._lock:
            self._counts[tenant] = self._counts.get(tenant, 0) + 1
            self._pending += 1
            queue = self._queues.get(tenant)
            if queue is None:
                queue = deque()
                self._queues[tenant] = queue
            queue.append(job_id)
            self._ready.notify()

    # -- consumption -------------------------------------------------------

    def take(self, timeout: float = 0.0) -> Optional[Tuple[str, str]]:
        """Pop the next ``(tenant, job_id)`` round-robin, or ``None``.

        Waits up to ``timeout`` seconds for a job to be pushed; a zero
        timeout polls.
        """
        with self._lock:
            if not self._queues and timeout > 0:
                self._ready.wait(timeout)
            if not self._queues:
                return None
            tenant, queue = next(iter(self._queues.items()))
            job_id = queue.popleft()
            # Rotate: move the tenant to the back (or drop it if empty)
            # so take() cycles fairly across tenants with queued work.
            del self._queues[tenant]
            if queue:
                self._queues[tenant] = queue
            self._release(tenant)
            return tenant, job_id

    def _release(self, tenant: str) -> None:
        count = self._counts.get(tenant, 0)
        if count <= 1:
            self._counts.pop(tenant, None)
        else:
            self._counts[tenant] = count - 1
        self._pending = max(0, self._pending - 1)

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        """Jobs reserved or queued but not yet taken by a worker."""
        with self._lock:
            return self._pending

    def stats(self) -> dict:
        with self._lock:
            return {
                "pending": self._pending,
                "tenants": len(self._counts),
                "per_tenant": self.per_tenant,
                "total": self.total,
                "accepted": self.accepted,
                "rejected_tenant": self.rejected_tenant,
                "rejected_global": self.rejected_global,
            }
