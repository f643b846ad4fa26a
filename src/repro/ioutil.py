"""Crash-safe file helpers: atomic writes and torn-tail JSONL reads.

A killed collection, checkpoint, or dataset save must never leave a
half-written file behind: every writer in the persistence layer
(`Trace.dump`, `Dataset.save`, the campaign checkpoints) funnels
through :func:`atomic_write_text` / :func:`atomic_write_json`, which
write to a temporary sibling and :func:`os.replace` it over the target.
On POSIX the replace is atomic, so readers observe either the old
complete file or the new complete file — never a truncation.

Append-only JSONL files (the stream's flow journal, the ingest job
journal and per-job results) cannot be replaced atomically, so a crash
can tear their last line instead.  Every reader of those files goes
through :func:`iter_jsonl`, the one scan that finds where the torn tail
starts.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Union


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp sibling + replace)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp sibling + replace)."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: Union[str, Path], payload, indent: int = 1) -> None:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def iter_jsonl(path: Union[str, Path], truncate: bool = False) -> Iterator[tuple]:
    """Yield ``(line number, object)`` for the JSON object on each
    complete line of an append-only file (numbers start at 1).

    Appenders write whole ``\\n``-terminated lines, so only the tail can
    be torn: iteration stops at the first line that is unterminated, not
    UTF-8 (a write cut inside a multi-byte character), or not a JSON
    object, and blank lines are skipped.  ``truncate=True`` cuts that
    torn tail off the file once the iteration is exhausted, so the next
    append starts on a fresh line; only the file's one appender may ask
    for it, since a reader racing a live append would cut a line in
    half.  A missing file yields nothing.
    """
    try:
        handle = open(path, "r+b" if truncate else "rb")
    except FileNotFoundError:
        return
    with handle:
        good_end = 0
        for number, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                break
            if line.strip():
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError:  # UnicodeDecodeError or JSONDecodeError
                    break
                if not isinstance(record, dict):
                    break
                yield number, record
            good_end += len(line)
        if truncate and good_end < os.fstat(handle.fileno()).st_size:
            handle.truncate(good_end)


def file_fingerprint(path: Union[str, Path]):
    """``(size, mtime_ns)`` of ``path``, or ``None`` when it is missing.

    A cheap change detector for hot-reloading readers (the serving
    layer's result store): because every writer in this codebase goes
    through the atomic-replace helpers above, any content change is an
    inode swap and therefore always moves the fingerprint.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_size, stat.st_mtime_ns)
