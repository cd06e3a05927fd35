"""Filesystem event sources for the ingest tier.

Two interchangeable backends produce :class:`FileEvent` streams over one
or more watch roots, and both select files with
:func:`~repro.service.batch.is_contract_path` -- the rule a ``scan-batch``
over the same root applies (hidden paths, cache and SQLite files,
``pattern``, recursion):

:class:`InotifyWatcher`
    Kernel-reported changes via Linux inotify, bound with ``ctypes``
    against libc (no third-party dependency).  Steady state over an
    unchanged corpus costs one ``select()`` timeout -- no walk, no stats.
    Directories are watched recursively; watches are added for
    directories created after startup (with a catch-up walk for files
    that raced the watch registration), and a kernel queue overflow
    degrades to one full resync walk instead of losing events.

:class:`PollWatcher`
    The portable fallback (network mounts, non-Linux hosts): each
    :meth:`~PollWatcher.poll` walks the roots with
    :func:`~repro.service.batch.iter_contract_files` and diffs a
    ``(size, mtime_ns)`` snapshot taken at construction, then waits out
    the rest of its timeout when nothing changed.  The walk is the cost.
    A path that transiently fails ``stat()`` keeps its snapshot entry --
    never a spurious delete; one never stat'ed yet is announced once.

Both hold a catch-up upsert for every file present at construction.
:meth:`~InotifyWatcher.catch_up` hands them over once -- the ingest
service's backfill classifies them instead of walking the roots a second
time -- and a watcher whose catch-up was never taken delivers it on its
first poll.  :func:`open_watcher` picks inotify where available unless the
caller forces a backend.
"""

from __future__ import annotations

import ctypes
import errno
import os
import pathlib
import select
import struct
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.resilience.faults import fault_point
from repro.service.batch import is_contract_path, iter_contract_files

PathLike = Union[str, pathlib.Path]

#: Event kinds a watcher may emit.
EVENT_UPSERT = "upsert"      # file created / modified / moved in
EVENT_DELETE = "delete"      # file removed / moved out
EVENT_RMDIR = "rmdir"        # directory removed: sweep everything under it
EVENT_OVERFLOW = "overflow"  # kernel queue overflowed: full resync needed


@dataclass(frozen=True)
class FileEvent:
    """One filesystem observation, addressed relative to its watch root."""

    kind: str
    root: pathlib.Path
    path: pathlib.Path  # absolute; equals ``root`` for EVENT_OVERFLOW


# --------------------------------------------------------------------------- #
# inotify constants (linux/inotify.h)

IN_CLOSE_WRITE = 0x00000008
IN_MOVED_FROM = 0x00000040
IN_MOVED_TO = 0x00000080
IN_CREATE = 0x00000100
IN_DELETE = 0x00000200
IN_DELETE_SELF = 0x00000400
IN_MOVE_SELF = 0x00000800
IN_Q_OVERFLOW = 0x00004000
IN_IGNORED = 0x00008000
IN_ONLYDIR = 0x01000000
IN_ISDIR = 0x40000000

IN_CLOEXEC = 0x00080000
IN_NONBLOCK = 0x00000800

_DIR_MASK = (
    IN_CLOSE_WRITE | IN_MOVED_FROM | IN_MOVED_TO | IN_CREATE
    | IN_DELETE | IN_DELETE_SELF | IN_MOVE_SELF
)

_EVENT_HEADER = struct.Struct("iIII")

#: Poll-snapshot signature of a file seen but never stat'ed successfully.
_UNSTATED = (-1, -1)


def _libc() -> ctypes.CDLL:
    libc = ctypes.CDLL(None, use_errno=True)
    for name in ("inotify_init1", "inotify_add_watch", "inotify_rm_watch"):
        if not hasattr(libc, name):
            raise OSError(f"libc lacks {name}")
    return libc


class InotifyWatcher:
    """Kernel event source over one or more roots (Linux only)."""

    backend = "inotify"

    def __init__(
        self,
        roots: Sequence[PathLike],
        pattern: str = "*",
        recursive: bool = True,
    ) -> None:
        if not roots:
            raise ValueError("at least one watch root is required")
        self.roots = [pathlib.Path(root).resolve() for root in roots]
        for root in self.roots:
            if not root.is_dir():
                raise FileNotFoundError(f"watch root not found: {root}")
        self.pattern = pattern
        self.recursive = recursive
        self._libc = _libc()
        self._fd = self._libc.inotify_init1(IN_NONBLOCK | IN_CLOEXEC)
        if self._fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1 failed")
        self._watches: Dict[int, Tuple[pathlib.Path, pathlib.Path]] = {}
        self._wd_by_dir: Dict[pathlib.Path, int] = {}
        self._buffer = b""
        # catch-up upserts for files that predate the watches (taken by
        # catch_up() or the first poll()) -- without them anything already
        # on disk at startup would be invisible to a pure event consumer
        self._pending: Optional[List[FileEvent]] = []
        try:
            for root in self.roots:
                self._pending.extend(self._add_tree(root, root))
        except Exception:
            self.close()
            raise

    @staticmethod
    def available() -> bool:
        """Whether this host can serve inotify events."""
        if not sys.platform.startswith("linux"):
            return False
        try:
            libc = _libc()
        except OSError:
            return False
        fd = libc.inotify_init1(IN_NONBLOCK | IN_CLOEXEC)
        if fd < 0:
            return False
        os.close(fd)
        return True

    # ------------------------------------------------------------------ #

    def _add_watch(self, directory: pathlib.Path, root: pathlib.Path) -> None:
        wd = self._libc.inotify_add_watch(
            self._fd, os.fsencode(str(directory)), _DIR_MASK | IN_ONLYDIR
        )
        if wd < 0:
            error = ctypes.get_errno()
            # the directory vanished between discovery and watch: the
            # parent's delete event covers it
            if error in (errno.ENOENT, errno.ENOTDIR):
                return
            raise OSError(error, f"inotify_add_watch({directory}) failed")
        self._watches[wd] = (directory, root)
        self._wd_by_dir[directory] = wd

    def _add_tree(
        self, directory: pathlib.Path, root: pathlib.Path
    ) -> List[FileEvent]:
        """Watch ``directory`` (recursively) and return catch-up events for
        files already inside -- anything written before the watch landed
        would otherwise be invisible."""
        self._add_watch(directory, root)
        events: List[FileEvent] = []
        try:
            entries = sorted(directory.iterdir())
        except OSError:
            return events
        for entry in entries:
            try:
                is_dir = entry.is_dir()
            except OSError:
                continue
            if is_dir:
                # nothing under a hidden directory is a contract
                if self.recursive and not entry.name.startswith("."):
                    events.extend(self._add_tree(entry, root))
            elif is_contract_path(root, entry, self.pattern, self.recursive):
                events.append(FileEvent(EVENT_UPSERT, root, entry))
        return events

    # ------------------------------------------------------------------ #

    def catch_up(self) -> Optional[List[FileEvent]]:
        """The catch-up upserts for files present at construction, or None
        once they have been handed out (here or by :meth:`poll`)."""
        events, self._pending = self._pending, None
        return events

    def poll(self, timeout: float = 0.0) -> List[FileEvent]:
        """Drain pending kernel events, waiting up to ``timeout`` seconds."""
        if self._fd < 0:
            return []
        events = self.catch_up() or []
        if events:
            timeout = 0.0  # don't block: the backlog is already work
        ready, _, _ = select.select([self._fd], [], [], max(timeout, 0.0))
        if not ready:
            return events
        while True:
            try:
                chunk = os.read(self._fd, 65536)
            except BlockingIOError:
                break
            except OSError as error:
                if error.errno == errno.EINTR:
                    continue
                raise
            if not chunk:
                break
            self._buffer += chunk
            events.extend(self._consume_buffer())
            # keep reading until the fd would block, so one poll drains
            # a burst in full
            more, _, _ = select.select([self._fd], [], [], 0)
            if not more:
                break
        return events

    def _consume_buffer(self) -> List[FileEvent]:
        events: List[FileEvent] = []
        offset = 0
        buffer = self._buffer
        while offset + _EVENT_HEADER.size <= len(buffer):
            wd, mask, _cookie, length = _EVENT_HEADER.unpack_from(
                buffer, offset
            )
            end = offset + _EVENT_HEADER.size + length
            if end > len(buffer):
                break
            name = buffer[offset + _EVENT_HEADER.size:end].split(b"\0", 1)[0]
            offset = end
            events.extend(self._translate(wd, mask, os.fsdecode(name)))
        self._buffer = buffer[offset:]
        return events

    def _translate(self, wd: int, mask: int, name: str) -> List[FileEvent]:
        if mask & IN_Q_OVERFLOW:
            return [FileEvent(EVENT_OVERFLOW, root, root)
                    for root in self.roots]
        entry = self._watches.get(wd)
        if entry is None:
            return []
        directory, root = entry
        if mask & IN_IGNORED:
            self._watches.pop(wd, None)
            self._wd_by_dir.pop(directory, None)
            return []
        if mask & (IN_DELETE_SELF | IN_MOVE_SELF):
            self._drop_dir(directory)
            if directory != root:
                return [FileEvent(EVENT_RMDIR, root, directory)]
            return []
        if not name:
            return []
        path = directory / name
        if mask & IN_ISDIR:
            if name.startswith("."):
                return []
            if mask & (IN_CREATE | IN_MOVED_TO):
                if not self.recursive:
                    return []
                return self._add_tree(path, root)
            if mask & (IN_DELETE | IN_MOVED_FROM):
                self._drop_dir(path)
                return [FileEvent(EVENT_RMDIR, root, path)]
            return []
        if not is_contract_path(root, path, self.pattern, self.recursive):
            return []
        if mask & (IN_CLOSE_WRITE | IN_MOVED_TO | IN_CREATE):
            return [FileEvent(EVENT_UPSERT, root, path)]
        if mask & (IN_DELETE | IN_MOVED_FROM):
            return [FileEvent(EVENT_DELETE, root, path)]
        return []

    def _drop_dir(self, directory: pathlib.Path) -> None:
        """Forget watches on ``directory`` and everything under it."""
        doomed = [
            (wd, watched)
            for wd, (watched, _) in self._watches.items()
            if watched == directory or directory in watched.parents
        ]
        for wd, watched in doomed:
            self._watches.pop(wd, None)
            self._wd_by_dir.pop(watched, None)
            self._libc.inotify_rm_watch(self._fd, wd)

    def close(self) -> None:
        if self._fd >= 0:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = -1
            self._watches.clear()
            self._wd_by_dir.clear()

    def __enter__(self) -> "InotifyWatcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class PollWatcher:
    """Portable fallback: emit events by diffing full walks of the roots."""

    backend = "poll"

    def __init__(
        self,
        roots: Sequence[PathLike],
        pattern: str = "*",
        recursive: bool = True,
    ) -> None:
        if not roots:
            raise ValueError("at least one watch root is required")
        self.roots = [pathlib.Path(root).resolve() for root in roots]
        for root in self.roots:
            if not root.is_dir():
                raise FileNotFoundError(f"watch root not found: {root}")
        self.pattern = pattern
        self.recursive = recursive
        self._snapshot: Dict[pathlib.Path, Tuple[int, int]] = {}
        self._closed = threading.Event()
        # the first walk yields the catch-up upserts, and its snapshot
        # makes a delete between now and the first poll visible to it
        self._pending: Optional[List[FileEvent]] = self._diff()

    def catch_up(self) -> Optional[List[FileEvent]]:
        """The catch-up upserts for files present at construction, or None
        once they have been handed out (here or by :meth:`poll`)."""
        events, self._pending = self._pending, None
        return events

    def poll(self, timeout: float = 0.0) -> List[FileEvent]:
        """One diffing walk; with nothing to report, wait out ``timeout``.

        The wait makes a poll-backend cycle last at least ``timeout``
        seconds, as a quiet inotify ``select()`` does, instead of
        re-walking the tree back to back.
        """
        deadline = time.monotonic() + timeout
        events = (self.catch_up() or []) + self._diff()
        remaining = deadline - time.monotonic()
        if not events and remaining > 0:
            self._closed.wait(remaining)
        return events

    def _diff(self) -> List[FileEvent]:
        """Walk the roots and diff against the snapshot, then replace it."""
        events: List[FileEvent] = []
        seen: Dict[pathlib.Path, Tuple[int, int]] = {}
        unstatable: set = set()
        for root in self.roots:
            try:
                paths = list(
                    iter_contract_files(root, self.pattern, recursive=self.recursive)
                )
            except FileNotFoundError:
                warnings.warn(f"ingest: watch root vanished: {root}", stacklevel=3)
                continue
            for path in paths:
                try:
                    # chaos site: an oserror-kind fault simulates a path
                    # that transiently cannot be stat'ed (NFS hiccup,
                    # racing chmod)
                    fault_point("watch.stat", path=path)
                    stat = path.stat()
                except OSError as error:
                    # keep the old snapshot entry -- a live file must never
                    # turn into a delete event
                    warnings.warn(
                        f"watch: cannot stat {path} ({error}); skipping",
                        stacklevel=3,
                    )
                    unstatable.add(path)
                    if path not in self._snapshot:
                        # first sight: name it once (a catch-up walk must
                        # name every file it found) under a signature no
                        # stat matches, so the first good stat re-announces
                        # it; the consumer's own stat decides meanwhile
                        seen[path] = _UNSTATED
                        events.append(FileEvent(EVENT_UPSERT, root, path))
                    continue
                signature = (stat.st_size, stat.st_mtime_ns)
                seen[path] = signature
                if self._snapshot.get(path) != signature:
                    events.append(FileEvent(EVENT_UPSERT, root, path))
        for path, signature in self._snapshot.items():
            if path in seen:
                continue
            if path in unstatable:
                seen[path] = signature
                continue
            root = self._root_of(path)
            if root is not None:
                events.append(FileEvent(EVENT_DELETE, root, path))
        self._snapshot = seen
        return events

    def _root_of(self, path: pathlib.Path) -> Optional[pathlib.Path]:
        for root in self.roots:
            if path == root or root in path.parents:
                return root
        return None

    def close(self) -> None:
        self._closed.set()
        self._snapshot.clear()
        self._pending = None

    def __enter__(self) -> "PollWatcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def open_watcher(
    roots: Sequence[PathLike],
    pattern: str = "*",
    recursive: bool = True,
    backend: str = "auto",
) -> Union[InotifyWatcher, PollWatcher]:
    """Build the best available watcher over ``roots``.

    ``backend`` is ``"auto"`` (inotify where it works, else poll),
    ``"inotify"`` (fail loudly if unsupported) or ``"poll"``.
    """
    if backend not in ("auto", "inotify", "poll"):
        raise ValueError(f"unknown watcher backend {backend!r}")
    if backend == "poll":
        return PollWatcher(roots, pattern, recursive=recursive)
    if backend == "inotify" or InotifyWatcher.available():
        return InotifyWatcher(roots, pattern, recursive=recursive)
    return PollWatcher(roots, pattern, recursive=recursive)
