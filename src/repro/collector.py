"""The collector policy of a study build (DESIGN.md, "Collector policy").

A study's heap of traces, flows and analyses holds almost no reference
cycles, yet each automatic full collection walks all of it, so
:func:`collector_held` pauses automatic collection while a study is
built, and :func:`session_boundary` reclaims each session's cyclic
garbage as the session ends.
"""

from __future__ import annotations

import contextlib
import gc
import threading

# Makes reading and switching the collector's state one step, so two
# threads' overlapping holds cannot leave it off.
_LOCK = threading.Lock()


@contextlib.contextmanager
def collector_held():
    """Pause automatic garbage collection for the ``with`` block.

    On exit, also on an exception, the collector is re-enabled only if
    it was enabled on entry: a nested hold leaves that to the outer one,
    and of two holds overlapping in two threads, the one that found it
    on turns it back on.  A pool forked inside a hold does not inherit
    it (:func:`repro.par.tasks.start_worker`).
    """
    with _LOCK:
        resume = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if resume:
            with _LOCK:
                gc.enable()


def session_boundary() -> None:
    """One young collection (generations 0 and 1) as a session ends."""
    gc.collect(1)
