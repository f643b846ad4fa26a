"""One execution primitive: ``Executor(workers)``.

Every fan-out in the repo — per-session analysis, ReCon labeling, the
streaming finalizer's re-scan, columnar kernels, campaign chunks and
the campaign tree merge, the ingest worker loop — maps one named task
from :mod:`repro.par.tasks` over an ordered stream of items.  An
:class:`Executor` owns *how* that map runs:

- ``workers == 1`` calls each task in-process on live objects (no codec
  encode/decode, no dict round trip) — the reference;
- ``workers == 0`` means every usable CPU (the CLI default; translated
  here and nowhere else);
- ``workers > 1`` runs one process pool (``fork`` preferred, ``spawn``
  as the fallback): items ship as codec blobs, the task's context is
  installed once per worker by a pool initializer, and results come
  back in their plain wire forms (:class:`repro.par.tasks.Wire`).

:meth:`Executor.pool` yields a handle whose :meth:`Pool.imap` returns
results in input order with at most ``window`` items in flight;
:meth:`Executor.imap` and :meth:`Executor.map` are the one-shot forms.
Windowing, failure annotation (an :class:`ExecutorError` naming the
failing item) and teardown are written once, here.  The QA oracle pins
the process pool byte-identical to the in-process reference for any
worker count, which requires hash-seed independence from every stage
(see the sorted-iteration notes in :mod:`repro.pii.recon`), because a
spawned worker gets its own string-hash seed.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Union

from . import tasks

#: The two names :func:`resolve_executor` still reads: one in-process
#: worker, and every usable CPU (the old CLI default).
_NAMED_COUNTS = {"serial": 1, "auto": 0}


class ExecutorError(Exception):
    """A bad worker count, or a task that failed on a named item."""


def usable_cpus() -> int:
    """CPUs this process may run on (affinity and cpusets respected)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mp_context():
    """Prefer ``fork`` (context inherits free); fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _ShardFuture:
    """One submitted item.  ``result()`` is where the coordinator
    blocks (in-process: where the task runs); it annotates a failure
    with the item it failed on and decodes a shipped payload.  (Named
    for the campaign shards it first carried; ``perfbench/tracer.py``
    patches it by that name.)"""

    __slots__ = ("_task", "_item", "_index", "_wait", "_accept")

    def __init__(self, task, item, index: int, wait, accept=None) -> None:
        self._task = task
        self._item = item
        self._index = index
        self._wait = wait
        self._accept = accept

    def result(self):
        try:
            payload = self._wait()
        except Exception as exc:
            # In-process tasks may be any callable; only shipped ones need a wire.
            describe = getattr(self._task, "wire", tasks.Wire()).describe
            name = (
                describe(self._item)
                if describe is not None
                else f"{self._task.__name__} item {self._index}"
            )
            raise ExecutorError(f"{name} failed: {type(exc).__name__}: {exc}") from exc
        return payload if self._accept is None else self._accept(payload)


class Pool:
    """Handle yielded by :meth:`Executor.pool`; ``workers`` is the
    effective parallelism callers size their in-flight window from."""

    def __init__(self, workers: int, context, processes=None) -> None:
        self.workers = workers
        self._context = context
        self._processes = processes

    def _submit(self, task, item, index: int) -> _ShardFuture:
        if self._processes is None:  # runs lazily, when its result is read
            call = functools.partial(task, self._context, item)
            return _ShardFuture(task, item, index, call)
        wire = task.wire
        future = self._processes.submit(tasks.run_shipped, task, wire.send(item))
        return _ShardFuture(task, item, index, future.result, wire.accept)

    def imap(self, task, items, window: Optional[int] = None):
        """Yield ``task(context, item)`` for each item, in input order.

        At most ``window`` items are in flight (``None``: submit them
        all first), so a lazy ``items`` is pulled at most ``window``
        items ahead of the consumer.
        """
        pending: deque = deque()
        for index, item in enumerate(items):
            pending.append(self._submit(task, item, index))
            if window is not None and len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


class Executor:
    """Maps named tasks over ordered items on ``workers`` processes
    (one worker: in-process; zero: one per usable CPU)."""

    def __init__(self, workers: int = 1) -> None:
        workers = int(workers)
        if workers < 0:
            raise ExecutorError(f"worker count must be >= 0 (0 = every usable CPU): {workers}")
        self.workers = workers or usable_cpus()

    @property
    def name(self) -> str:
        return "serial" if self.workers == 1 else "process"

    @contextlib.contextmanager
    def pool(self, context=None):
        """Context manager over one pool; exiting it cancels queued
        items and waits out running ones, so an early exit or a failure
        leaks no processes.  ``context`` is what every task receives
        (an :class:`~repro.par.tasks.AnalysisContext`, a
        :class:`~repro.campaign.engine.CampaignContext`, or ``None``)."""
        if self.workers == 1:
            yield Pool(1, context)
            return
        initializer, initargs = tasks.pool_initializer(context)
        processes = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_mp_context(),
            initializer=initializer,
            initargs=initargs,
        )
        try:
            yield Pool(self.workers, context, processes)
        finally:
            processes.shutdown(wait=True, cancel_futures=True)

    def imap(self, task, items, *, context=None, window: Optional[int] = None):
        """One-shot :meth:`Pool.imap` over a pool of its own."""
        with self.pool(context) as pool:
            yield from pool.imap(task, items, window)

    def map(self, task, items, *, context=None) -> list:
        """All results as a list; never starts more processes than items."""
        items = list(items)
        engine = self if len(items) >= self.workers else Executor(max(1, len(items)))
        return list(engine.imap(task, items, context=context))

    def __repr__(self) -> str:
        return f"<Executor {self.name} workers={self.workers}>"


def resolve_executor(executor: Union[Executor, int, str] = 1, _legacy=None) -> Executor:
    """Turn a fan-out setting into an :class:`Executor`.

    Every library entry point takes one ``executor=``: an
    :class:`Executor` (passed through) or a worker count (``1``
    in-process, ``N > 1`` processes, ``0`` every usable CPU).  Two
    names stay because ``perfbench/child.py`` passes them:
    ``"serial"`` is one worker, and ``resolve_executor("auto", 1)`` is
    every usable CPU (the second argument is ignored).
    """
    if isinstance(executor, Executor):
        return executor
    if isinstance(executor, str):
        if executor not in _NAMED_COUNTS:
            raise ExecutorError(
                f"unknown executor {executor!r}: pass a worker count "
                "(1 = in-process, N > 1 = N processes, 0 = every usable CPU)"
            )
        return Executor(_NAMED_COUNTS[executor])
    return Executor(executor)
