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

:func:`create_watcher` picks the best available backend (or an explicitly
requested one — the ``REPRO_WATCH_BACKEND`` environment variable and the
CLI's ``--watch-backend`` both force a choice, which is how tests pin the
fallback path), logs the decision, and degrades to polling whenever a
fancier backend cannot start.
"""

from __future__ import annotations

import os
import pathlib
import selectors
import sys
import time
from typing import Callable, Iterable, Optional

#: recognised ``--watch-backend`` / ``REPRO_WATCH_BACKEND`` values
BACKENDS = ("auto", "inotify", "poll")

#: environment override consulted when the caller asks for ``auto``
BACKEND_ENV = "REPRO_WATCH_BACKEND"


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


_BACKEND_CLASSES = {"inotify": InotifyWatcher, "poll": PollWatcher}


def create_watcher(roots: Iterable[str], backend: str = "auto",
                   log: Optional[Callable[[str], None]] = None):
    """The best available watcher over ``roots``.

    ``backend`` pins a choice (``auto`` consults ``REPRO_WATCH_BACKEND``
    first, then tries inotify → poll); a pinned backend that cannot start
    falls back to polling rather than failing the watch loop.  The
    decision — and any fallback — is reported through ``log``."""
    log = log or (lambda message: print(f"# {message}", file=sys.stderr))
    if backend not in BACKENDS:
        raise ValueError(f"unknown watch backend {backend!r}; "
                         f"expected one of {', '.join(BACKENDS)}")
    if backend == "auto":
        backend = os.environ.get(BACKEND_ENV, "auto")
        if backend not in BACKENDS:
            backend = "auto"
    candidates = ["inotify", "poll"] if backend == "auto" \
        else [backend, "poll"]
    roots = list(roots)
    last_error: Optional[BaseException] = None
    for name in candidates:
        try:
            watcher = _BACKEND_CLASSES[name](roots)
        except Exception as exc:
            last_error = exc
            continue
        if name != candidates[0] and last_error is not None:
            log(f"watch backend: {name} "
                f"(fell back: {candidates[0]}: {last_error})")
        else:
            log(f"watch backend: {name}")
        return watcher
    raise RuntimeError("no watch backend could start")  # pragma: no cover
