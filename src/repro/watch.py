"""Filesystem-watching backends for ``--watch`` and workspace auto-refresh.

The watch loops never *trust* a backend: change classification stays with
the portable two-stage sweep (mtime+size stat gate, then content hashes
deciding what re-runs), so a backend only answers one question — *"may
anything have changed since I last asked?"* — through ``wait(timeout)``.
Returning ``True`` means "sweep now"; a spurious ``True`` costs one cheap
sweep and a missed event costs only latency (callers still sweep at least
once per timeout).  That contract lets two implementations coexist:

* :class:`InotifyWatcher` — Linux inotify via ``ctypes`` + ``selectors``,
  no third-party code;
* :class:`PollWatcher` — the portable fallback: ``wait`` simply sleeps the
  interval and reports "sweep now", reproducing the original polling loop.

:func:`create_watcher` picks the backend from what can start — inotify if
it starts, polling otherwise — and logs the decision.  There is no knob to
force polling: the sweep runs at least once per interval either way, so a
forced choice could only cost latency, never buy correctness.
"""

from __future__ import annotations

import os
import pathlib
import selectors
import sys
import time
from typing import Callable, Iterable, Optional


class PollWatcher:
    """The portable baseline: every ``wait`` sleeps and answers "sweep now"."""

    name = "poll"

    def __init__(self, roots: Iterable[str]):
        self.roots = list(roots)

    def wait(self, timeout: float) -> bool:
        time.sleep(max(timeout, 0.0))
        return True

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# inotify (Linux, stdlib-only: ctypes + selectors)
# ---------------------------------------------------------------------------

_IN_EVENTS = (0x0002 | 0x0004 | 0x0008 | 0x0040 | 0x0080 | 0x0100 | 0x0200
              | 0x0400 | 0x0800)  # MODIFY|ATTRIB|CLOSE_WRITE|MOVED_*|CREATE|
#                                   DELETE|DELETE_SELF|MOVE_SELF


def _libc():
    import ctypes

    lib = ctypes.CDLL(None, use_errno=True)
    for symbol in ("inotify_init1", "inotify_add_watch"):
        if not hasattr(lib, symbol):
            raise OSError(f"libc lacks {symbol}")
    lib.inotify_add_watch.argtypes = [ctypes.c_int, ctypes.c_char_p,
                                      ctypes.c_uint32]
    return lib


class InotifyWatcher:
    """Linux inotify over every directory under the roots, multiplexed with
    ``selectors`` so ``wait`` blocks with a timeout.  New subdirectories are
    picked up by re-walking the roots after each burst of events (the sweep
    that follows classifies the changes anyway)."""

    name = "inotify"

    def __init__(self, roots: Iterable[str]):
        if not sys.platform.startswith("linux"):
            raise OSError("inotify is Linux-only")
        self.roots = list(roots)
        self._libc = _libc()
        self._fd = self._libc.inotify_init1(0)
        if self._fd < 0:
            raise OSError("inotify_init1 failed")
        self._watched: set[str] = set()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_READ)
        self._rescan()

    def _dirs(self) -> set[str]:
        dirs: set[str] = set()
        for root in self.roots:
            path = pathlib.Path(root)
            if path.is_dir():
                dirs.add(str(path))
                for sub in path.rglob("*"):
                    if sub.is_dir():
                        dirs.add(str(sub))
            elif path.parent.is_dir():  # a file target: watch its directory
                dirs.add(str(path.parent))
        return dirs

    def _rescan(self) -> None:
        for directory in self._dirs() - self._watched:
            # per-dir failures (racing deletion, permissions, watch limit)
            # degrade to the sweep noticing the change later, never crash
            if self._libc.inotify_add_watch(self._fd, directory.encode(),
                                            _IN_EVENTS) >= 0:
                self._watched.add(directory)

    def wait(self, timeout: float) -> bool:
        if not self._selector.select(timeout):
            return False
        # drain the burst (edits arrive as several events) then pick up any
        # newly created subdirectories before the caller sweeps
        while self._selector.select(0):
            os.read(self._fd, 65536)
        self._rescan()
        return True

    def close(self) -> None:
        self._selector.close()
        os.close(self._fd)


def create_watcher(roots: Iterable[str],
                   log: Optional[Callable[[str], None]] = None):
    """The best watcher over ``roots`` that starts: inotify, else polling.
    The decision — and why inotify could not start — is reported through
    ``log``."""
    log = log or (lambda message: print(f"# {message}", file=sys.stderr))
    roots = list(roots)
    try:
        watcher = InotifyWatcher(roots)
    except Exception as exc:
        log(f"watch backend: poll (fell back: inotify: {exc})")
        return PollWatcher(roots)
    log("watch backend: inotify")
    return watcher
