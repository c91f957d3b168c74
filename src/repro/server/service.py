"""The framework-free core of the patch daemon: warm named workspaces.

:class:`PatchService` is plain Python — no sockets, no JSON — so it can be
driven in-process (tests, embedding) exactly as the daemon drives it.  It
owns a table of named :class:`Workspace` objects, each bundling the warm
state PRs 3–4 built but which previously died with every CLI process:

* an in-memory :class:`~repro.api.CodeBase` (synced from clients by
  content-hash delta, or loaded from a server-side directory),
* the service's one content-addressed
  :class:`~repro.engine.cache.TreeCache`, shared with every other
  workspace (identical files parse once service-wide; each workspace's
  cache counters come from its own capture), and
* the last :class:`~repro.engine.pipeline.PipelineResult`, seeding every
  subsequent ``apply`` through
  :class:`~repro.engine.incremental.IncrementalPipeline` — repeated
  requests against a workspace automatically splice per-file results,
  and a changed patch list or toggled prefilter degrades to a cold run
  that the service's shared memo answers for every unchanged patch, never
  to wrong output (the engine's existing ``since=`` guarantees; the
  service adds no new reuse logic of its own).

:meth:`Workspace.run` is the one run path: in-process applies, lock-free
queries and the fleet workers' applies all build their
:class:`~repro.engine.incremental.IncrementalPipeline` there, store the
result (and save its manifest) there, and render the result and profile
payloads there.  The verbs differ only in what they hand it: the files
(the live code base or the published snapshot), the ``since=`` seed and
whether the result is stored.  The patches they hand it come from the
service's one spec cache (:meth:`PatchService.build_patches`), shared by
every workspace: the same SMPL text parses and compiles once
service-wide.

Concurrency model
-----------------
Every verb that *mutates* a workspace runs under that workspace's lock, so
concurrent clients serialize per workspace (and parallelize across
workspaces) — interleaved ``sync_files``/``apply`` streams behave as *some*
serial order of the same operations, never as a torn mixture.  A request
that fails (bad patch, mid-request crash, malformed spec) raises before or
after — never during — a state mutation: ``apply`` builds its patches
first and only stores the result on success, and ``sync_files`` validates
its payload before touching the code base, so a poisoned request leaves
the workspace exactly as the previous successful request did.

Read-only verbs never queue behind applies: ``query`` runs against an
atomically published snapshot of the file dict (``Workspace._files_view``,
replaced — never mutated — at the end of each mutation while the lock is
held) and the last result (also replaced, never mutated), and ``stats``
reads counters without the workspace lock.  With a fleet neither crosses
a worker pipe, so neither waits for an apply running in the pinned
worker.  A query
racing a sync sees either the whole pre-sync tree or the whole post-sync
tree; the incremental engine's content-hash verification makes any
``since=`` seed safe regardless of which one it sees.

With ``workers >= 2`` the service routes stored applies to an
:class:`~repro.server.fleet.ApplyFleet` of worker *processes*: each
workspace is pinned to one worker by a stable name shard (so per-workspace
ordering is preserved — one worker, one pipe, FIFO), and N workers give N
truly concurrent applies across workspaces where the GIL previously
allowed one.  Each worker is itself a ``workers=1`` service: a fleet apply
is that service's ``open_workspace``, ``sync_files`` (the parent's delta
plus its authoritative manifest) and ``apply``.  What the apply counted
is folded into this service's request and workspace counts, and the
result it stored comes home in the reply and becomes the parent
workspace's ``last`` (on success only, under the workspace lock, as an
in-process apply stores its own).  Queries and unstored applies run in
the parent, so they splice from that result exactly as in-process.
``workers=1`` (the default) keeps the exact in-process behavior.  With a
``state_root``, workspaces survive daemon restarts as plain data: a JSON
``{name: sha1}`` manifest per workspace, saved atomically after every
stored apply, whose texts live in the memo directory's blob tier (the
memo directory defaults to ``<state_root>/memo``).  A workspace is
restored lazily on first touch, and its first apply is answered by the
memo; nothing a restart reads is pickled.

Cold workspaces are evicted LRU once ``max_workspaces`` is exceeded
(busy ones — lock currently held — are skipped in favour of the next
coldest).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Optional, Sequence

from ..api import CodeBase, SemanticPatch
from ..engine.cache import TreeCache, content_sha1
from ..engine.incremental import IncrementalPipeline
from ..engine.memo import DEFAULT_MEMO_ENTRIES, TransformMemo, atomic_write
from ..engine.pipeline import PipelineResult
from ..engine.report import profile_payload, result_payload
from ..errors import ReproError, patch_error_line
from ..frontends import WIRE_KINDS as FRONTEND_WIRE_KINDS
from ..obs import registry as _obs
from ..options import SpatchOptions
from .protocol import PROTOCOL_VERSION, options_from_payload

#: pseudo cookbook name expanding to the whole-cookbook pipeline preset
#: (mirrors the CLI's ``--cookbook full_modernization``)
FULL_PIPELINE = "full_modernization"

_M_WORKSPACES = _obs.REGISTRY.gauge(
    "repro_service_workspaces", "Warm workspaces currently held")
_M_REQUESTS = _obs.REGISTRY.counter(
    "repro_service_requests_total", "Requests the service has handled")
_M_EVICTIONS = _obs.REGISTRY.counter(
    "repro_service_evictions_total", "Workspaces evicted LRU")

#: default bound on the service's one parse cache (every workspace shares it)
DEFAULT_SERVICE_CACHE_ENTRIES = 2048

#: format tag for workspace manifests; any other version restores nothing
_MANIFEST_VERSION = 1

#: LRU bound on the service's built-patch spec cache: an authoring loop
#: ships a fresh SMPL revision per request (new content hash, new key), so
#: without a bound the cache would grow with every edit ever made
MAX_CACHED_PATCH_SPECS = 64


class ServiceError(Exception):
    """A request-level failure (unknown workspace, bad patch spec, ...).

    Carries a stable ``kind`` tag so wire clients can dispatch on it
    without parsing messages."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def spec_key(spec: dict, options_key: str) -> tuple:
    """The cache identity of one wire patch spec (kind, name, content
    hash, options) in the service's spec cache."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ServiceError("bad-patch", "patch specs must be objects with "
                                        "a 'kind' field")
    kind = spec["kind"]
    if kind == "cookbook":
        return ("cookbook", spec.get("name"), options_key)
    if kind == "smpl" or kind in FRONTEND_WIRE_KINDS:
        text = spec.get("text")
        if not isinstance(text, str):
            raise ServiceError("bad-patch",
                               f"{kind} specs need a 'text' string")
        return (kind, spec.get("name"), content_sha1(text), options_key)
    raise ServiceError("bad-patch", f"unknown patch spec kind {kind!r}")


def parse_spec(spec: dict, options: Optional[SpatchOptions],
               ) -> list[SemanticPatch]:
    """The patches one validated wire spec names (raises
    :class:`ServiceError` on an unparsable patch or unknown cookbook name)."""
    from ..cookbook import builders

    kind = spec["kind"]
    if kind == "smpl" or kind in FRONTEND_WIRE_KINDS:
        # the error message is the same one-line file:line diagnostic the
        # in-process CLI prints (patch_error_line over the spec's name), so
        # a --server run fails byte-identically to a local one
        name = spec.get("name", f"<{kind}>")
        try:
            return [SemanticPatch.from_text(spec["text"], options=options,
                                            name=name, format=kind)]
        except Exception as exc:
            raise ServiceError("bad-patch",
                               patch_error_line(name, exc)) from None
    name = spec.get("name")
    if name == FULL_PIPELINE:
        from ..cookbook import full_modernization_pipeline

        return list(full_modernization_pipeline())
    table = builders()
    if name not in table:
        raise ServiceError("bad-patch", f"unknown cookbook patch {name!r}")
    return [table[name]()]


class Workspace:
    """One named unit of warm server state (see the module docstring):
    a code base and its last result.  It owns no cache: parse trees,
    built patches and transform results live in the owning service and
    are shared by every workspace.

    The daemon process holds one per open workspace; with a fleet, each
    worker's own service holds a copy of every workspace pinned to it,
    kept in step through its ``sync_files`` manifest (see
    :mod:`~repro.server.fleet`)."""

    def __init__(self, name: str, *, cache: TreeCache,
                 root: Optional[str] = None):
        self.name = name
        self.codebase = CodeBase()
        #: the owning service's parse cache, shared with every other
        #: workspace it holds
        self.cache = cache
        self.lock = threading.RLock()
        #: the last successful apply's result: the ``since=`` seed
        self.last: Optional[PipelineResult] = None
        #: server-side directory this workspace mirrors (``None`` for
        #: client-synced workspaces)
        self.root = root
        self.created_at = time.time()
        self.last_used = time.time()
        self.requests = 0
        self.applies = 0
        self.syncs = 0
        #: what every run against this workspace counted (the sum of the
        #: runs' captures): the ``stats`` verb's per-workspace traffic
        self.counts = _obs.Capture()
        #: atomically *replaced* (never mutated) snapshot of the file dict,
        #: published at the end of every mutation while the lock is held —
        #: what lock-free readers (``query``) run against
        self._files_view: dict = {}
        #: ``{name: sha1}`` the pinned fleet worker was last brought up to
        #: (``None`` = never spoken to); the delta base for fleet applies
        self.fleet_seen: Optional[dict] = None
        #: whether this workspace was warm-started from a state manifest
        self.restored = False
        #: where stored runs write their manifest (bound by :meth:`restore`;
        #: ``None`` = the state dies with the process, and rooted
        #: workspaces, which re-read their directory instead, never bind one)
        self.state_root: Optional[str] = None
        #: requests currently executing against this workspace (guarded by
        #: the service lock); eviction skips any workspace with one in
        #: flight, so a dispatched request can never lose its workspace
        #: between lookup and lock acquisition
        self.in_flight = 0
        self._watcher = None
        self._watch_thread: Optional[threading.Thread] = None
        self._watch_stop = threading.Event()

    # -- server-side directory mirroring -----------------------------------

    def load_root(self) -> dict[str, list[str]]:
        """(Re)read the server-side directory into the code base, returning
        the on-disk delta; caller holds the lock."""
        if self.root is None:
            return {"added": [], "changed": [], "removed": []}
        delta = self.codebase.refresh_from_dir(self.root)
        self.publish_files()
        return delta

    def publish_files(self) -> None:
        """Publish the current file dict for lock-free readers; caller
        holds the lock (the copy is shallow — texts are shared)."""
        self._files_view = dict(self.codebase.files)

    def start_auto_refresh(self, interval: float, log) -> None:
        """Keep a rooted workspace in sync with its directory: a watcher
        thread folds the on-disk delta in whenever the watcher reports
        change (the next ``apply`` then re-runs exactly the changed
        files)."""
        from ..watch import create_watcher

        if self._watch_thread is not None or self.root is None:
            return
        self._watcher = create_watcher([self.root], log=log)

        def refresh_loop() -> None:
            while not self._watch_stop.is_set():
                try:
                    fired = self._watcher.wait(interval)
                except Exception:
                    return  # watcher torn down under us (workspace closed)
                if not fired or self._watch_stop.is_set():
                    continue
                try:
                    with self.lock:
                        self.load_root()
                except OSError:
                    # racing the editor: rglob saw a path an atomic save
                    # renamed away before read_text reached it.  The next
                    # event re-reads; dying here would silently freeze the
                    # workspace while stats still claim it is watching
                    continue

        self._watch_thread = threading.Thread(
            target=refresh_loop, name=f"refresh:{self.name}", daemon=True)
        self._watch_thread.start()

    def close(self) -> None:
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.close()
        # the thread is a daemon and checks the stop flag after every wait;
        # don't join (a poll watcher may be mid-sleep)

    # -- runs ----------------------------------------------------------------

    def run(self, built: Sequence[SemanticPatch], *, files: dict,
            since: Optional[PipelineResult], store: bool,
            diff: bool, texts: bool, profile: bool,
            memo: Optional[TransformMemo], jobs: "int | str",
            prefilter: bool) -> dict:
        """Apply ``built`` to ``files`` and return the response payload:
        the shared :mod:`result payload <repro.engine.report>` plus, with
        ``profile``, the volatile profile section.

        The run goes through
        :class:`~repro.engine.incremental.IncrementalPipeline` over the
        shared parse cache, seeded with ``since`` — the engine splices
        unchanged files when the patch list is the same, and otherwise runs
        cold with the shared ``memo`` answering every unchanged patch.  With
        ``store`` the result becomes :attr:`last` and the file manifest is
        saved (caller holds the lock); without it the workspace is left
        exactly as it was.

        A source file the front end cannot read (an unterminated comment,
        say) fails the run as a ``bad-source`` :class:`ServiceError` whose
        message is the line a local run prints; the workspace is left as
        it was.  In-process daemons and fleet workers both answer it
        here."""
        pipeline = IncrementalPipeline(
            [patch.ast for patch in built],
            options=[patch.options for patch in built],
            names=[patch.name for patch in built],
            jobs=jobs, prefilter=prefilter, tree_cache=self.cache, memo=memo)
        with _obs.Capture() as counts:
            try:
                result = pipeline.run(files, since=since)
            except ReproError as exc:
                raise ServiceError("bad-source", str(exc)) from None
        self.counts.add(counts)
        if store:
            self.last = result
            self.save()
        # ``result_payload`` is read from the module globals at call time,
        # so a wrapper installed on this module sees every run
        payload = result_payload(result, built, include_diff=diff,
                                 include_texts=texts)
        payload["workspace"] = self.name
        if profile:
            payload["profile"] = profile_payload(result, counts,
                                                 cache=self.cache, memo=memo)
            payload["profile"]["restored"] = self.restored
        return payload

    # -- restart survival ----------------------------------------------------

    def restore(self, state_root: Optional[str],
                memo: TransformMemo) -> bool:
        """Bind this workspace to its manifest under ``state_root`` (every
        later stored run re-saves there) and warm-start from it: each
        manifest entry's text is recalled, hash-checked, from ``memo``'s
        blob tier.  The last result is not persisted, so the first apply
        runs cold and the memo answers it.  Returns whether anything was
        restored; a malformed manifest, or any missing or mismatched blob,
        restores nothing — the client's next manifest sync then lists the
        files under ``need``.  Caller holds the lock."""
        self.state_root = state_root
        if state_root is None:
            return False
        try:
            with open(state_path(state_root, self.name), "rb") as handle:
                manifest = json.loads(handle.read().decode("ascii"))
        except (OSError, ValueError):
            return False
        if not (isinstance(manifest, dict)
                and manifest.get("version") == _MANIFEST_VERSION
                and _maps_strings(manifest.get("files"))):
            return False
        texts = {}
        for filename, digest in manifest["files"].items():
            text = memo.recall_text(digest)
            if text is None:
                return False
            texts[filename] = text
        for filename, text in texts.items():
            self.codebase[filename] = text
        self.publish_files()
        self.restored = True
        return True

    def save(self) -> None:
        """Write the ``{name: sha1}`` manifest of the current files under
        the bound state root, atomically; caller holds the lock.  The texts are
        already in the memo's blob tier (``sync_files`` stores every
        upload there).  An unwritable state directory never fails the run
        that triggered the save."""
        if self.state_root is None:
            return
        data = json.dumps({"version": _MANIFEST_VERSION,
                           "files": self.codebase.content_hashes()},
                          sort_keys=True).encode("ascii")
        try:
            # a process killed mid-save (kill -9) keeps the last manifest
            atomic_write(state_path(self.state_root, self.name), data)
        except OSError:
            pass

    # -- stats --------------------------------------------------------------

    def stats_payload(self) -> dict:
        return {
            "name": self.name,
            "files": len(self.codebase),
            "root": self.root,
            "watching": self._watch_thread is not None,
            "requests": self.requests,
            "applies": self.applies,
            "syncs": self.syncs,
            "last_used": self.last_used,
            "has_result": self.last is not None,
            "restored": self.restored,
            "parse_cache": self.cache.counters(self.counts),
        }


def state_path(state_root: str, name: str) -> str:
    """The manifest file for workspace ``name``: a sanitized prefix for
    humans plus a name digest for uniqueness (two names may sanitize
    alike, and names are not valid filenames in general)."""
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                   for ch in name)[:48]
    digest = hashlib.sha1(name.encode("utf-8", "surrogatepass")).hexdigest()
    return os.path.join(state_root, f"{safe}-{digest[:12]}.json")


def _maps_strings(value) -> bool:
    """Whether ``value`` is a dict mapping strings to strings."""
    return isinstance(value, dict) and all(
        isinstance(key, str) and isinstance(item, str)
        for key, item in value.items())


def _counted(verb):
    """Count one request of a :class:`PatchService` verb and add what it
    counted (its capture) to the service's running totals, failed
    requests included."""
    @functools.wraps(verb)
    def counted(service: "PatchService", *args, **kwargs):
        counts = _obs.Capture()
        try:
            with counts:
                _M_REQUESTS.inc()
                return verb(service, *args, **kwargs)
        finally:
            service.counts.add(counts)

    return counted


class PatchService:
    """Thread-safe implementation of every daemon verb (the daemon layer
    only adds sockets and JSON framing on top)."""

    def __init__(self, *, max_workspaces: int = 8,
                 cache_entries: int = DEFAULT_SERVICE_CACHE_ENTRIES,
                 default_jobs: "int | str" = 1, log=None,
                 memo_entries: int = DEFAULT_MEMO_ENTRIES,
                 memo_dir=None, workers: int = 1,
                 state_root=None, memo_max_bytes: Optional[int] = None,
                 memo_max_age: Optional[float] = None):
        # refuse sizes that would break every request (an empty workspace
        # table, a negative bound) rather than fail on first use
        for label, value, minimum in (
                ("max_workspaces", max_workspaces, 1), ("workers", workers, 1),
                ("cache_entries", cache_entries, 0),
                ("memo_entries", memo_entries, 0),
                ("memo_max_bytes", memo_max_bytes, 0),
                ("memo_max_age", memo_max_age, 0)):
            if value is not None and not value >= minimum:
                raise ValueError(f"{label} must be >= {minimum}, "
                                 f"got {value!r}")
        self.max_workspaces = max_workspaces
        self.default_jobs = default_jobs
        self.log = log or (lambda message: None)
        self._workspaces: "OrderedDict[str, Workspace]" = OrderedDict()
        self._lock = threading.Lock()
        #: where workspace manifests live (``None`` = state dies with the
        #: process, the pre-v2 behavior)
        self.state_root = os.fspath(state_root) \
            if state_root is not None else None
        if memo_dir is None and self.state_root is not None:
            # the manifests' texts and the restart's warm answers live in
            # the memo directory: a state root always has one
            memo_dir = os.path.join(self.state_root, "memo")
        #: ONE transform memo shared by every workspace: identical vendored
        #: files across workspaces transform once, fleet-wide (memo entries
        #: are plain text + counters, so sharing them crosses no
        #: thread-affinity boundary).  ``memo_dir`` adds the persistent
        #: tier, so a restarted daemon warm-starts.
        self.memo = TransformMemo(max_entries=memo_entries, path=memo_dir)
        #: ONE content-addressed parse cache shared by every workspace the
        #: same way: identical files parse once service-wide
        self.cache = TreeCache(max_entries=cache_entries)
        #: ONE LRU of built patches keyed by spec identity (bounded by
        #: ``MAX_CACHED_PATCH_SPECS``), shared by every workspace, so the
        #: same SMPL text parses and compiles once service-wide (a run
        #: never mutates a built patch, and each patch object carries its
        #: compiled rules: a spec that falls out comes back as a new patch
        #: that parses and compiles again)
        self._patches: "OrderedDict[tuple, tuple[SemanticPatch, ...]]" = \
            OrderedDict()
        #: guards ``_patches`` alone, so the lock-free query path can build
        #: patches without taking a workspace lock (mutating verbs hold the
        #: workspace lock first, then this — one consistent order)
        self._patches_lock = threading.Lock()
        #: disk-tier GC policy, enforced opportunistically after applies
        self.memo_max_bytes = memo_max_bytes
        self.memo_max_age = memo_max_age
        self._prune_pending = threading.Lock()
        self._applies_since_prune = 0
        #: the apply-fleet of worker processes (``None`` below 2 workers:
        #: in-process execution is the exact pre-v2 path).  Forked *now*,
        #: before any daemon accept thread exists, so children never
        #: inherit a mid-acquire lock.
        self.workers = int(workers)
        self._fleet = None
        if self.workers >= 2:
            from .fleet import ApplyFleet

            self._fleet = ApplyFleet(self.workers,
                                     max_workspaces=max_workspaces,
                                     cache_entries=cache_entries,
                                     memo_entries=memo_entries,
                                     memo_dir=memo_dir,
                                     state_root=self.state_root)
        self.started_at = time.time()
        #: what every request counted, fleet workers' traffic included (the
        #: sum of the requests' captures)
        self.counts = _obs.Capture()

    # -- workspace table -----------------------------------------------------

    def workspace(self, name: str) -> Workspace:
        """The named workspace, LRU-touched; unknown names are an error (a
        client must ``open_workspace`` first — auto-creating here would turn
        a typo into a silently empty tree)."""
        with self._lock:
            return self._touch_locked(name)

    def _touch_locked(self, name: str) -> Workspace:
        workspace = self._workspaces.get(name)
        if workspace is None:
            raise ServiceError("unknown-workspace",
                               f"no workspace named {name!r}; "
                               f"open_workspace first")
        self._workspaces.move_to_end(name)
        workspace.last_used = time.time()
        workspace.requests += 1
        return workspace

    @contextmanager
    def _checkout(self, name: str):
        """A workspace pinned for the duration of one request: the
        in-flight count keeps eviction away between the table lookup and
        the workspace-lock acquisition (the lock alone cannot — a workspace
        returned but not yet locked would look idle to the evictor)."""
        with self._lock:
            workspace = self._touch_locked(name)
            workspace.in_flight += 1
        try:
            yield workspace
        finally:
            with self._lock:
                workspace.in_flight -= 1

    @_counted
    def open_workspace(self, name: str, *, root: Optional[str] = None,
                       watch: bool = False,
                       watch_interval: float = 0.5) -> dict:
        """Create (or re-open) a named workspace.

        ``root`` points the workspace at a server-side directory, loaded
        now and — with ``watch=True`` — auto-refreshed by a filesystem
        watcher; without a root the workspace starts empty and is populated
        by ``sync_files``.  Opening an existing name is idempotent and
        never drops warm state (a differing ``root`` is an error)."""
        if not name or not isinstance(name, str):
            raise ServiceError("bad-request", "workspace name must be a "
                                              "non-empty string")
        with self._lock:
            workspace = self._workspaces.get(name)
            created = workspace is None
            if created:
                workspace = Workspace(name, cache=self.cache, root=root)
                self._workspaces[name] = workspace
                _M_WORKSPACES.inc()
                self._evict_cold_locked()
            self._workspaces.move_to_end(name)
        if not created and root is not None and workspace.root != root:
            raise ServiceError("bad-request",
                               f"workspace {name!r} is already open with "
                               f"root {workspace.root!r}")
        with workspace.lock:
            workspace.last_used = time.time()
            if created and root is not None:
                workspace.load_root()
            elif created and workspace.restore(self.state_root, self.memo) \
                    and self._fleet is not None:
                # the pinned worker restores from the same manifest on first
                # touch: seeding the delta base with the manifest
                # means the first post-restart apply ships only real edits
                # (any divergence is caught by the job's manifest check)
                workspace.fleet_seen = workspace.codebase.content_hashes()
            if watch and root is not None:
                workspace.start_auto_refresh(watch_interval, self.log)
            return {"workspace": name, "created": created,
                    "files": len(workspace.codebase),
                    "restored": workspace.restored,
                    "protocol": PROTOCOL_VERSION}

    def _evict_cold_locked(self) -> None:
        """Drop LRU-coldest workspaces past the bound; busy ones — a
        request in flight (checked out but possibly not yet holding the
        workspace lock) or the lock held — are skipped for the
        next-coldest, so eviction never interrupts a client mid-request.
        A fleet worker's copy is bounded by the worker service's own LRU,
        and a re-opened workspace self-heals through the manifest."""
        for name in list(self._workspaces):
            if len(self._workspaces) <= self.max_workspaces:
                break
            workspace = self._workspaces[name]
            if workspace.in_flight > 0:
                continue
            if not workspace.lock.acquire(blocking=False):
                continue
            try:
                del self._workspaces[name]
                _M_EVICTIONS.inc()
                _M_WORKSPACES.dec()
                workspace.close()
            finally:
                workspace.lock.release()

    # -- patch building ------------------------------------------------------

    def build_patches(self, specs: Sequence[dict],
                      options: Optional[SpatchOptions],
                      ) -> list[SemanticPatch]:
        """The ordered patch list a request's wire specs name, cached by
        spec identity (kind, name, content hash, options) so steady-state
        requests skip SMPL re-parsing and, since each patch object carries
        its compiled rules, recompiling.  Guarded by the dedicated spec-cache
        lock, not a workspace lock — the lock-free query path builds
        patches too."""
        if not specs:
            raise ServiceError("bad-request", "no patches given")
        built: list[SemanticPatch] = []
        options_key = repr(options)
        for spec in specs:
            key = spec_key(spec, options_key)
            with self._patches_lock:
                cached = self._patches.get(key)
                if cached is not None:
                    self._patches.move_to_end(key)
            if cached is None:
                # parse outside the lock (SMPL parsing is the slow part);
                # two racing requests may both parse — the first stored wins
                cached = tuple(parse_spec(spec, options))
                with self._patches_lock:
                    cached = self._patches.setdefault(key, cached)
                    while len(self._patches) > MAX_CACHED_PATCH_SPECS:
                        self._patches.popitem(last=False)
            built.extend(cached)
        return built

    # -- verbs ---------------------------------------------------------------

    @_counted
    def sync_files(self, name: str, *, files: Optional[dict] = None,
                   remove: Optional[Sequence[str]] = None,
                   hashes: Optional[dict] = None) -> dict:
        """Content-hash delta upload.

        ``hashes`` — the client's full ``{name: sha1}`` manifest — makes
        the sync *authoritative*: the response's ``need`` lists files whose
        content the server lacks (missing or hash-mismatched), and server
        files absent from the manifest are removed.  ``files`` upserts
        contents (typically the previous response's ``need``); ``remove``
        deletes explicitly.  All three can be combined; a manifest-only
        round followed by a contents round is the two-phase delta the
        client uses, so an unchanged tree uploads nothing but its hashes.
        Upserts are applied *before* a manifest is evaluated, so one
        request carrying both atomically re-establishes a client's whole
        tree (the anti-torn-mixture half of the client's sync loop).

        The sync is **memo-aware**: every uploaded text is remembered in
        the fleet-wide content-addressed blob store, and a manifest entry
        the server lacks is first *recalled* from that store by hash —
        contents any client ever uploaded (or, with ``--memo-dir``, any
        process sharing the directory ever saw) never cross the wire
        again.  Recalled names are reported under ``"recalled"`` and
        excluded from ``"need"``.

        The whole payload is validated before anything changes: a
        malformed request raises ``bad-request`` and leaves the workspace
        as it was."""
        if files is not None and not _maps_strings(files):
            raise ServiceError("bad-request",
                               "sync_files files must map names to text")
        if remove is not None and not (
                isinstance(remove, (list, tuple))
                and all(isinstance(filename, str) for filename in remove)):
            raise ServiceError("bad-request",
                               "sync_files remove must be a list of names")
        if hashes is not None and not _maps_strings(hashes):
            raise ServiceError("bad-request",
                               "sync_files hashes must map names to digests")
        with self._checkout(name) as workspace, workspace.lock, \
                _obs.phase("sync"):
            workspace.syncs += 1
            codebase = workspace.codebase
            added: list[str] = []
            changed: list[str] = []
            removed: list[str] = []
            recalled: list[str] = []
            for filename in remove or ():
                if filename in codebase:
                    del codebase[filename]
                    removed.append(filename)
            if files:
                for filename, text in files.items():
                    self.memo.store_text(text)
                    if filename not in codebase:
                        codebase[filename] = text
                        added.append(filename)
                    elif codebase[filename] != text:
                        codebase[filename] = text
                        changed.append(filename)
            need: list[str] = []
            if hashes is not None:
                for filename, digest in hashes.items():
                    if filename in codebase \
                            and content_sha1(codebase[filename]) == digest:
                        continue
                    text = self.memo.recall_text(digest)
                    if text is not None:
                        codebase[filename] = text
                        recalled.append(filename)
                        continue
                    need.append(filename)
                for filename in [n for n in codebase.names()
                                 if n not in hashes]:
                    del codebase[filename]
                    removed.append(filename)
            workspace.publish_files()
            return {"workspace": name, "files": len(codebase),
                    "added": added, "changed": changed, "removed": removed,
                    "recalled": recalled, "need": need}

    @_counted
    def apply(self, name: str, patches: Sequence[dict], *,
              options: Optional[dict] = None, jobs: "int | str | None" = None,
              prefilter: bool = True, diff: bool = True, texts: bool = False,
              profile: bool = False, store: bool = True) -> dict:
        """Apply a patch list to a workspace, reusing warm state.

        ``patches`` is a list of wire specs (``{"kind": "cookbook",
        "name": ...}`` or ``{"kind": "smpl", "text": ..., "name": ...}``,
        applied in order as one pipeline).  The run is a
        :meth:`Workspace.run` seeded with the workspace's last result — the
        engine splices unchanged files when the patch list is the same, and
        otherwise runs cold with the service's memo answering every
        unchanged patch.  The response is the shared
        :mod:`result payload <repro.engine.report>` (diffs and changed
        texts on request, volatile profile section under ``"profile"``).

        With a fleet (``workers >= 2``), stored applies execute in the
        workspace's pinned worker process, through that worker's own
        service; the workspace lock is held for the round trip, so
        per-workspace serialization is identical to the in-process path,
        and the worker's result becomes this workspace's seed.  Unstored
        applies run here, seeded with it, like queries."""
        if self._fleet is not None and store:
            return self._apply_fleet(name, patches, options=options,
                                     jobs=jobs, prefilter=prefilter,
                                     diff=diff, texts=texts, profile=profile)
        with self._checkout(name) as workspace, workspace.lock:
            built = self.build_patches(patches, options_from_payload(options))
            workspace.applies += 1
            payload = workspace.run(
                built, files=workspace.codebase.files, since=workspace.last,
                store=store, diff=diff, texts=texts, profile=profile,
                memo=self.memo,
                jobs=self.default_jobs if jobs is None else jobs,
                prefilter=prefilter)
        if store:
            self._maybe_prune_memo()
        return payload

    def _apply_fleet(self, name: str, patches: Sequence[dict], *,
                     options: Optional[dict], jobs: "int | str | None",
                     prefilter: bool, diff: bool, texts: bool,
                     profile: bool) -> dict:
        """Route one stored apply to the pinned fleet worker: ship the
        files changed since the worker's last known tree plus the
        manifest, and resend every file once if the worker reports
        divergence.  On success the worker's result becomes this
        workspace's ``last``; a failure leaves it as it was."""
        options_from_payload(options)  # validate before any state changes
        request = {"patches": list(patches), "options": options,
                   "jobs": self.default_jobs if jobs is None else jobs,
                   "prefilter": prefilter, "diff": diff, "texts": texts,
                   "profile": profile}
        with self._checkout(name) as workspace, workspace.lock:
            workspace.applies += 1
            files = workspace.codebase.files
            hashes = workspace.codebase.content_hashes()
            seen = workspace.fleet_seen or {}
            job = {"op": "apply", "workspace": name, "hashes": hashes,
                   "request": request,
                   "files": {filename: files[filename]
                             for filename, digest in hashes.items()
                             if seen.get(filename) != digest}}
            reply = self._fleet.call(name, job)
            if reply.get("resync"):
                reply = self._fleet.call(name, {**job, "files": dict(files)})
            if not reply.get("ok"):
                workspace.fleet_seen = None  # trust nothing after a failure
                error = reply.get("error") or {}
                raise ServiceError(error.get("kind", "internal"),
                                   error.get("message", "fleet apply failed"))
            workspace.fleet_seen = hashes
            # the worker's stored result, shipped home: the same seed an
            # in-process apply stores, so queries and unstored applies here
            # splice exactly as they would in-process
            workspace.last = reply["result"]
        # fold what the worker counted into this request's capture and the
        # workspace's running counts under origin="fleet": /metrics, the
        # service totals and the workspace's stats row then cover matching
        # that happened in the worker process, exactly
        with _obs.Capture() as counts:
            _obs.merge_telemetry(reply.get("telemetry"), origin="fleet")
        workspace.counts.add(counts)
        self._maybe_prune_memo()
        payload = reply["payload"]
        if profile and "profile" in payload:
            payload["profile"]["fleet_worker"] = {
                "index": self._fleet.shard(name), "pid": reply.get("pid")}
        return payload

    @_counted
    def query(self, name: str, patches: Sequence[dict], *,
              options: Optional[dict] = None, jobs: "int | str | None" = None,
              prefilter: bool = True, profile: bool = False) -> dict:
        """Match-only reporting: an ``apply`` that ships no diffs or texts
        and never replaces the workspace's warm result (so an exploratory
        query against a different patch list cannot cool the primary
        cookbook's reuse chain).  It still *reads* the warm state — the
        published file snapshot, the parse cache, the memo and the last
        result — but takes **no workspace lock**: a query never queues
        behind a slow apply, and an apply never waits for a query.  The
        ``since=`` seed is safe against any interleaving because the
        incremental engine re-verifies every content hash before reusing
        anything."""
        with self._checkout(name) as workspace:
            built = self.build_patches(patches, options_from_payload(options))
            # the atomically published file snapshot and the immutable last
            # result
            return workspace.run(
                built, files=workspace._files_view, since=workspace.last,
                store=False, diff=False, texts=False,
                profile=profile, memo=self.memo,
                jobs=self.default_jobs if jobs is None else jobs,
                prefilter=prefilter)

    @_counted
    def stats(self, name: Optional[str] = None) -> dict:
        """Service- and per-workspace counters: sizes, plus the traffic the
        service's requests (and each workspace's runs) counted — cache
        hit/miss/dedup included."""
        with self._lock:
            workspaces = list(self._workspaces.values())
        with self._patches_lock:  # the LRU overshoots by one inside it
            patches_cached = len(self._patches)
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "workspaces": len(workspaces),
            "max_workspaces": self.max_workspaces,
            "workers": self.workers,
            "requests_total": self.counts.total(_M_REQUESTS),
            "evictions": self.counts.total(_M_EVICTIONS),
            "patches_cached": patches_cached,
        }
        from ..engine.compile import matcher_counters

        payload["matcher"] = matcher_counters(self.counts)
        payload["memo"] = self.memo.counters(self.counts)
        # stats never takes a workspace lock (the running totals lock only
        # themselves), so a monitoring poll never queues behind a long
        # apply
        if name is not None:
            with self._checkout(name) as workspace:
                payload["workspace"] = workspace.stats_payload()
        else:
            payload["per_workspace"] = [workspace.stats_payload()
                                        for workspace in workspaces]
        if self._fleet is not None:
            # from the parent's own handles and shards: no worker round
            # trip, so a fleet-mode poll never queues behind an apply
            rows = [{"index": index, "pid": pid, "workspaces": [],
                     "restored": []}
                    for index, pid in enumerate(self._fleet.pids())]
            for workspace in sorted(workspaces, key=lambda w: w.name):
                row = rows[self._fleet.shard(workspace.name)]
                row["workspaces"].append(workspace.name)
                if workspace.restored:
                    row["restored"].append(workspace.name)
            payload["fleet"] = {"workers": self.workers,
                                "respawns": self._fleet.respawns,
                                "per_worker": rows}
        return payload

    def metrics(self) -> dict:
        """The process-wide metrics registry: the JSON snapshot, per-phase
        timing summaries, and the rendered Prometheus text — the ``metrics``
        wire verb and the daemon's HTTP ``/metrics`` endpoint both read
        this one surface."""
        return {"snapshot": _obs.REGISTRY.snapshot(),
                "phases": _obs.phase_summaries(),
                "prometheus": _obs.REGISTRY.render_prometheus()}

    def ping(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, "pid": os.getpid()}

    def close(self) -> None:
        """Stop watcher threads, the fleet, and drop all workspaces
        (daemon shutdown)."""
        with self._lock:
            workspaces = list(self._workspaces.values())
            self._workspaces.clear()
            _M_WORKSPACES.dec(len(workspaces))
        for workspace in workspaces:
            workspace.close()
        if self._fleet is not None:
            self._fleet.close()

    # -- memo GC -------------------------------------------------------------

    def prune_memo(self, max_bytes: Optional[int] = None,
                   max_age: Optional[float] = None) -> dict:
        """Run the memo disk-tier GC now (defaults to the configured
        policy); returns the prune summary."""
        return self.memo.prune(
            max_bytes=self.memo_max_bytes if max_bytes is None else max_bytes,
            max_age=self.memo_max_age if max_age is None else max_age)

    def _maybe_prune_memo(self) -> None:
        """Opportunistic GC: every 64 stored applies, prune the memo
        directory to the configured policy on a background thread (at most
        one prune in flight — an apply must never wait on a directory
        walk)."""
        if self.memo_max_bytes is None and self.memo_max_age is None:
            return
        with self._lock:
            self._applies_since_prune += 1
            if self._applies_since_prune < 64:
                return
            self._applies_since_prune = 0
        if not self._prune_pending.acquire(blocking=False):
            return

        def prune() -> None:
            try:
                self.prune_memo()
            finally:
                self._prune_pending.release()

        threading.Thread(target=prune, name="memo-prune",
                         daemon=True).start()
