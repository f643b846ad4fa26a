"""Execution engine: one :class:`Executor` maps named tasks over items.

``Executor(workers).pool(context)`` yields a handle whose ``imap(task,
items, window)`` streams results in input order; one worker runs each
task in-process, more run one process pool, and zero means one per
usable CPU.  The batch pipeline, campaigns, ingest and the QA oracle
all route through it, pinned byte-identical for any worker count.  The
pool runs per-session and per-user work only (:mod:`repro.par.tasks`).
"""

from . import tasks
from .executor import Executor, ExecutorError, resolve_executor, usable_cpus

__all__ = [
    "Executor",
    "ExecutorError",
    "resolve_executor",
    "tasks",
    "usable_cpus",
]
