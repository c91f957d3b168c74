"""The apply fleet: persistent forked worker processes behind the daemon.

One CPython process can hold many warm workspaces but only one GIL: with
the v1 daemon, two clients applying to two *different* workspaces still
match one-at-a-time.  :class:`ApplyFleet` moves apply execution into a
pool of long-lived **worker processes** (the persistent sibling of
:func:`~repro.engine.pipeline.run_fork_pool`'s per-call forks): each
workspace is pinned to one worker by a stable shard of its name, so
per-workspace operations stay serial — the same consistency clients
already rely on — while N workers serve N concurrent applies across
workspaces on N CPUs.

Delta protocol
--------------
The parent keeps the authoritative file tree (it answers ``sync_files``
manifests); each worker keeps its own warm
:class:`~repro.server.service.Workspace` per pinned workspace — code base,
the last result seeding incremental splicing, and the bounded built-patch
cache, all sharing the worker's one parse cache — and applies
through the same :meth:`~repro.server.service.Workspace.run` the parent
uses in-process.  Every apply job carries the delta since the parent last
spoke to that worker *plus* the full ``{name: sha1}`` manifest the tree
must hash to afterwards; the worker applies the delta, verifies the
manifest, and answers ``{"resync": true}`` on any mismatch — the parent
then resends the job with the full tree.  That one self-healing rule
covers every divergence at once: a respawned worker, a corrupt restored
snapshot, a parent restart with stale ``fleet_seen`` bookkeeping.

Restart survival: with a ``state_root``, a worker restores a workspace
from its :class:`~repro.engine.incremental.PipelineState` snapshot on
first touch (:meth:`~repro.server.service.Workspace.restore`) and re-saves
it after every stored apply, so a daemon killed ``-9`` comes back warm
(files, last result *and* parse-cache entries) instead of cold.

Workers are forked at service construction time — before the daemon's
accept threads exist — so no lock can be mid-acquire in the child, and
each parent-side pipe is guarded by a lock so dispatcher threads
serialize per worker.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import traceback
from typing import Optional

from ..obs import registry as _obs
from .service import DEFAULT_SERVICE_CACHE_ENTRIES


def shard_of(name: str, workers: int) -> int:
    """The worker index workspace ``name`` is pinned to.  ``hash()`` is
    salted per process, so shard on a stable digest — the pin must hold
    across daemon restarts (a restarted parent's delta bookkeeping and the
    worker's restored workspace meet at the same worker)."""
    digest = hashlib.sha1(name.encode("utf-8", "surrogatepass")).hexdigest()
    return int(digest[:8], 16) % workers


def state_path(state_root: str, name: str) -> str:
    """The snapshot file for workspace ``name``: a sanitized prefix for
    humans plus a name digest for uniqueness (two names may sanitize
    alike, and names are not valid filenames in general)."""
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                   for ch in name)[:48]
    digest = hashlib.sha1(name.encode("utf-8", "surrogatepass")).hexdigest()
    return os.path.join(state_root, f"{safe}-{digest[:12]}.state")


# ---------------------------------------------------------------------------
# worker side (runs in the forked child)
# ---------------------------------------------------------------------------

class _FleetWorker:
    """The worker loop: receive a job, answer it, forever."""

    def __init__(self, conn, config: dict):
        from ..engine.cache import TreeCache
        from ..engine.memo import TransformMemo

        self.conn = conn
        self.config = config
        self.state_root = config.get("state_root")
        #: this worker's copy of every workspace pinned to it
        self.workspaces: dict = {}
        #: this worker's one parse cache, shared by all those workspaces:
        #: identical files across them parse once
        self.cache = TreeCache(max_entries=config["cache_entries"])
        #: per-worker memo sharing the fleet's disk directory, so entries
        #: cross worker processes through the content-addressed disk tier
        self.memo = TransformMemo(
            max_entries=config.get("memo_entries", 4096),
            path=config.get("memo_dir"))
        #: what every job counted (the sum of the jobs' captures): this
        #: worker's memo traffic for the ``stats`` op
        self.counts = _obs.Capture()

    def run(self) -> None:
        while True:
            try:
                job = self.conn.recv()
            except (EOFError, OSError):
                return  # parent is gone; nothing left to serve
            op = job.get("op")
            try:
                if op == "exit":
                    self.conn.send({"ok": True})
                    return
                if op == "apply":
                    # what the job counted rides the reply, so the parent's
                    # request capture and /metrics stay exact even though
                    # all the matching happened in this process
                    with _obs.Capture() as counts:
                        reply = self._apply(job)
                    self.counts.add(counts)
                    if reply.get("ok"):
                        reply["telemetry"] = counts.payload()
                    self.conn.send(reply)
                elif op == "drop":
                    self._drop(job.get("workspace"))
                    self.conn.send({"ok": True})
                elif op == "stats":
                    self.conn.send({"ok": True, "stats": self._stats()})
                else:
                    self.conn.send({"ok": False, "error": {
                        "kind": "internal",
                        "message": f"unknown fleet op {op!r}"}})
            except Exception as exc:  # the loop must outlive any one job
                try:
                    self.conn.send({"ok": False, "error": {
                        "kind": "internal",
                        "message": f"{type(exc).__name__}: {exc}\n"
                                   f"{traceback.format_exc()}"}})
                except (OSError, ValueError):
                    return

    # -- workspace table -----------------------------------------------------

    def _workspace(self, name: str):
        """The worker's copy of ``name``, warm-started from its snapshot on
        first touch (corrupt or missing snapshots load nothing; the
        manifest check heals the rest)."""
        from .service import Workspace

        workspace = self.workspaces.get(name)
        if workspace is None:
            workspace = self.workspaces[name] = Workspace(name,
                                                          cache=self.cache)
            workspace.restore(self.state_root)
        return workspace

    def _drop(self, name: str) -> None:
        workspace = self.workspaces.pop(name, None)
        if workspace is not None:
            workspace.release_specs()

    # -- jobs ----------------------------------------------------------------

    def _apply(self, job: dict) -> dict:
        from .protocol import options_from_payload
        from .service import ServiceError

        name = job["workspace"]
        workspace = self._workspace(name)
        codebase = workspace.codebase
        if job.get("full"):
            for filename in codebase.names():
                del codebase[filename]
        for filename in job.get("removals") or ():
            if filename in codebase:
                del codebase[filename]
        for filename, text in (job.get("upserts") or {}).items():
            if filename not in codebase or codebase[filename] != text:
                codebase[filename] = text
        manifest = job.get("manifest")
        if manifest is not None and not job.get("full"):
            if codebase.content_hashes() != manifest:
                # divergence (respawned worker, stale snapshot, lost delta):
                # ask the parent for the full tree instead of guessing
                self._drop(name)
                return {"ok": False, "resync": True}
        try:
            built = workspace.build_patches(
                job["patches"], options_from_payload(job.get("options")))
        except ServiceError as exc:
            return {"ok": False,
                    "error": {"kind": exc.kind, "message": str(exc)}}
        prefilter = job.get("prefilter", True)
        payload = workspace.run(
            built, files=codebase.files, since=workspace.last,
            token_index=codebase.token_index() if prefilter else None,
            store=job.get("store", True), diff=job.get("diff", True),
            texts=job.get("texts", False), profile=bool(job.get("profile")),
            memo=self.memo, jobs=job.get("jobs", 1), prefilter=prefilter)
        return {"ok": True, "payload": payload, "pid": os.getpid()}

    def _stats(self) -> dict:
        return {
            "pid": os.getpid(),
            "workspaces": sorted(self.workspaces),
            "restored": sorted(name for name, workspace
                               in self.workspaces.items()
                               if workspace.restored),
            "memo": self.memo.counters(self.counts),
            "parse_caches": {name: workspace.cache.counters(workspace.counts)
                             for name, workspace in self.workspaces.items()},
        }


def _fleet_worker_main(conn, config: dict, inherited) -> None:
    # the fork copied the parent's end of this worker's pipe and of every
    # earlier worker's; closing them leaves the parent process as the only
    # holder, so ``recv`` sees EOF (and the worker exits) once it dies
    for parent_end in inherited:
        parent_end.close()
    _FleetWorker(conn, config).run()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class _WorkerHandle:
    __slots__ = ("process", "conn", "lock", "index")

    def __init__(self, process, conn, index: int):
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.index = index


class ApplyFleet:
    """The parent-side pool: spawn, route, heal, stop."""

    def __init__(self, workers: int, *,
                 cache_entries: int = DEFAULT_SERVICE_CACHE_ENTRIES,
                 memo_entries: int = 4096, memo_dir=None,
                 state_root: Optional[str] = None):
        if workers < 2:
            raise ValueError("ApplyFleet needs at least 2 workers; "
                             "run in-process below that")
        self.workers = workers
        self._config = {"cache_entries": cache_entries,
                        "memo_entries": memo_entries,
                        "memo_dir": os.fspath(memo_dir)
                        if memo_dir is not None else None,
                        "state_root": os.fspath(state_root)
                        if state_root is not None else None}
        self._ctx = multiprocessing.get_context("fork")
        self._handles: list[_WorkerHandle] = []
        for index in range(workers):
            self._handles.append(self._spawn(index))
        self.respawns = 0
        self._closed = False

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = [handle.conn for handle in self._handles] + [parent_conn]
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(child_conn, self._config, inherited),
            name=f"spatchd-fleet-{index}", daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn, index)

    def shard(self, name: str) -> int:
        return shard_of(name, self.workers)

    def call(self, name: str, job: dict) -> dict:
        """One job round trip to the pinned worker.  A dead worker is
        respawned and reported as ``{"resync": true}`` — the caller's
        full-tree retry then rebuilds the fresh worker's workspace."""
        handle = self._handles[self.shard(name)]
        with handle.lock:
            try:
                handle.conn.send(job)
                reply = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                if self._closed:
                    raise
                try:
                    handle.conn.close()
                except OSError:
                    pass
                self._handles[handle.index] = self._spawn(handle.index)
                self.respawns += 1
                return {"ok": False, "resync": True}
        if not isinstance(reply, dict):
            return {"ok": False, "error": {
                "kind": "internal", "message": "malformed fleet reply"}}
        return reply

    def drop(self, name: str) -> None:
        """Forget a worker's copy of a workspace (parent-side eviction);
        best-effort."""
        try:
            self.call(name, {"op": "drop", "workspace": name})
        except (EOFError, OSError):
            pass

    def stats(self) -> list[dict]:
        rows = []
        for handle in list(self._handles):
            reply = self.call_handle(handle, {"op": "stats"})
            rows.append(reply.get("stats", {"error": reply.get("error")}))
        return rows

    def call_handle(self, handle: _WorkerHandle, job: dict) -> dict:
        with handle.lock:
            try:
                handle.conn.send(job)
                return handle.conn.recv()
            except (EOFError, OSError):
                return {"ok": False, "error": {
                    "kind": "internal", "message": "fleet worker died"}}

    def close(self) -> None:
        self._closed = True
        for handle in self._handles:
            with handle.lock:
                try:
                    handle.conn.send({"op": "exit"})
                    handle.conn.recv()
                except (EOFError, OSError):
                    pass
                try:
                    handle.conn.close()
                except OSError:
                    pass
        for handle in self._handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
