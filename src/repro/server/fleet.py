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
Each worker process holds one in-process
:class:`~repro.server.service.PatchService` and serves every job through
its public verbs; the worker keeps no workspace table, cache, memo or
counters of its own.  The parent keeps the authoritative file tree (it
answers clients' ``sync_files`` manifests), and every apply job carries
the files changed since the parent last spoke to that worker, the full
``{name: sha1}`` manifest, and the apply request.  The worker calls
``open_workspace`` (idempotent), then ``sync_files(files=..., hashes=...)``
— the same manifest sync clients use, so files missing from the manifest
are removed and content the worker cannot produce is listed under
``need`` — and then ``apply``.  A non-empty ``need`` makes the worker
answer ``{"resync": true}``, and the parent resends the job with every
file.  That one self-healing rule covers every divergence at once: a
respawned worker, a workspace the worker's own LRU evicted, a manifest
the worker could not restore, a parent restart with stale ``fleet_seen``
bookkeeping.

The reply carries the apply's payload, the worker's pid, its telemetry
and the :class:`~repro.engine.pipeline.PipelineResult` the worker stored.
The parent keeps that result as the workspace's ``last`` on success, the
way an in-process apply stores its own, so the parent's lock-free
``query`` and unstored ``apply`` splice every hash-unchanged file from it
and re-diff nothing (each file's diff is pickled with it).  Shipping the
whole result costs O(workspace) pipe bytes per apply: 165 KB, with about
0.6 ms to pickle and 0.6 ms to unpickle, for the 14-file benchmark tree
on a 2-CPU Xeon host.

Telemetry: the reply carries what the worker's ``apply`` counted (its
request counter removed — the parent counts its own requests); the parent
merges it under ``origin="fleet"`` into the request's capture and the
workspace's running counts, so ``stats`` rows read the same in both
modes.  No read-only verb crosses the pipe: ``query`` runs in the parent,
and the fleet section of ``stats`` is built from the parent's handles and
shards.

Restart survival: with a ``state_root``, the worker's service writes a
workspace's JSON file manifest after every stored apply and restores the
files from it on first touch, recalling each text from the memo directory
(``<state_root>/memo`` unless ``memo_dir`` names another) that every
worker and the parent share.  A daemon killed ``-9`` therefore comes back
warm: its first apply is answered by that memo, parsing nothing.

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

from ..obs import registry as _obs


def shard_of(name: str, workers: int) -> int:
    """The worker index workspace ``name`` is pinned to.  ``hash()`` is
    salted per process, so shard on a stable digest — the pin must hold
    across daemon restarts (a restarted parent's delta bookkeeping and the
    worker's restored workspace meet at the same worker)."""
    digest = hashlib.sha1(name.encode("utf-8", "surrogatepass")).hexdigest()
    return int(digest[:8], 16) % workers


# ---------------------------------------------------------------------------
# worker side (runs in the forked child)
# ---------------------------------------------------------------------------

class _FleetWorker:
    """The worker loop: receive a job, answer it, forever.  All warm state
    lives in one in-process :class:`~repro.server.service.PatchService`."""

    def __init__(self, conn, config: dict):
        from .service import PatchService

        self.conn = conn
        self.service = PatchService(workers=1, **config)

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
                    self.conn.send(self._apply(job))
                else:
                    self.conn.send({"ok": False, "error": {
                        "kind": "internal",
                        "message": f"unknown fleet op {op!r}"}})
            except Exception as exc:  # the loop must outlive any one job
                # the traceback goes to the daemon's stderr, which the
                # worker inherits; the client gets the same one-line
                # message the in-process daemon answers for this failure
                traceback.print_exc()
                try:
                    self.conn.send({"ok": False, "error": {
                        "kind": "internal",
                        "message": f"{type(exc).__name__}: {exc}"}})
                except (OSError, ValueError):
                    return

    def _apply(self, job: dict) -> dict:
        """Bring the worker's copy of the workspace up to the job's
        manifest, then apply.  What the apply counted rides the reply, so
        the parent's request capture, workspace row and ``/metrics`` stay
        exact even though all the matching happened in this process; so
        does the stored result, which becomes the parent's ``last``."""
        from .service import _M_REQUESTS, ServiceError

        name = job["workspace"]
        service = self.service
        try:
            # restores from the state root on first touch
            service.open_workspace(name)
            synced = service.sync_files(name, files=job["files"],
                                        hashes=job["hashes"])
            if synced["need"]:
                # divergence (respawned worker, evicted or stale copy):
                # ask the parent for every file instead of guessing
                return {"ok": False, "resync": True}
            with _obs.Capture() as counts:
                payload = service.apply(name, **job["request"])
            result = service.workspace(name).last
        except ServiceError as exc:
            return {"ok": False,
                    "error": {"kind": exc.kind, "message": str(exc)}}
        # the parent counts its own requests; this call is not one of them
        counts.counters.pop(_M_REQUESTS, None)
        return {"ok": True, "payload": payload, "result": result,
                "pid": os.getpid(), "telemetry": counts.payload()}


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

    def __init__(self, workers: int, **config):
        """``config`` holds the keyword arguments every worker builds its
        :class:`~repro.server.service.PatchService` with."""
        if workers < 2:
            raise ValueError("ApplyFleet needs at least 2 workers; "
                             "run in-process below that")
        self.workers = workers
        self._config = config
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

    def pids(self) -> list[int]:
        """Each worker's process id, by index (read without the pipe
        locks, so it never waits on an in-flight job)."""
        return [handle.process.pid for handle in list(self._handles)]

    def call(self, name: str, job: dict) -> dict:
        """One job round trip to the pinned worker.  A dead worker is
        respawned and reported as ``{"resync": true}`` — the caller's
        every-file retry then rebuilds the fresh worker's workspace."""
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
