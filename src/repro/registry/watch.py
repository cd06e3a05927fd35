"""Consistent reads of watched contract files.

The ingest tier (:class:`~repro.ingest.service.EventIngestService`, behind
``scamdetect watch``) stats a changed file when it sees it and reads it
afterwards.  :func:`stable_read` closes that stat->read window so the
watched-file index always describes the bytes that were hashed.
"""

from __future__ import annotations

import pathlib
from typing import Tuple

from repro.service.batch import read_contract_file

#: Bounded re-read attempts when a file keeps changing under the reader.
STABLE_READ_ATTEMPTS = 3


def stable_read(
    path: pathlib.Path, size: int, mtime_ns: int
) -> Tuple[bytes, int, int]:
    """Read ``path`` with a ``(size, mtime_ns)`` consistent with the bytes.

    The watcher stats at discovery and reads later; a rewrite in between
    (stat->read TOCTOU) would otherwise record the *new* content under the
    *old* stat -- or worse, mask a rewrite as unchanged on the next
    stat comparison.  Re-stat after every successful read: if the stat
    moved, the read raced a writer, so read again under the fresh stat
    (bounded attempts).  If the file never settles, return the *pre-read*
    stat of the final read -- the bytes are at least as new as that stat,
    so the next stat comparison can only re-scan, never mask.

    Raises whatever :func:`read_contract_file` / ``stat`` raise.
    """
    for _ in range(STABLE_READ_ATTEMPTS):
        raw = read_contract_file(path)
        post = path.stat()
        if (post.st_size, post.st_mtime_ns) == (size, mtime_ns):
            return raw, size, mtime_ns
        # the stat moved across the read: (size, mtime_ns) becomes the
        # pre-read stat of the next attempt
        size, mtime_ns = post.st_size, post.st_mtime_ns
    raw = read_contract_file(path)
    return raw, size, mtime_ns
