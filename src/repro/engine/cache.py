"""Content-hash-keyed :class:`~repro.lang.parser.ParseTree` cache.

Parsing dominates the cost of applying a semantic patch to a code base, and
the same file contents are parsed over and over across benchmark sweeps,
differential runs (prefilter on/off) and repeated ``apply`` calls.  Trees are
immutable once built — matching and transformation only read them, and edits
always produce *new* text which re-parses under a new key — so they can be
shared safely between sessions and between patches that use the same parser
options.

The cache key is ``(filename, sha1(text), options)``: the filename matters
because diagnostics embedded in the tree carry it, and the (frozen, hashable)
options matter because they change how the front end disambiguates.

Two callers racing on the same key are deduplicated: the first one parses
while the others wait on a per-key in-flight marker, so a tree is never built
twice and the hit/miss counters stay exact (one miss per unique parse, one
hit per answered caller).  The cache can also be persisted (:meth:`save` /
:meth:`load`): content-hash keys stay valid across processes, which lets
repeated CLI invocations skip parsing files they have seen before.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import threading
from collections import OrderedDict
from typing import Optional

from ..lang.parser import ParseTree, parse_source
from ..lang.source import SourceFile
from ..obs import registry as _obs
from ..options import SpatchOptions

#: format tag for persisted caches; bump on incompatible layout changes
_PERSIST_VERSION = 1

# registry children created once at import: the hot path pays one locked
# integer add, and fork-pool workers ship these as deltas so parse-cache
# traffic aggregates in the parent (closing the old "per-worker, not
# aggregated" gap in PipelineStats.describe)
_M_HITS = _obs.REGISTRY.counter(
    "repro_parse_cache_hits_total", "Parse-cache hits", cache="tree")
_M_MISSES = _obs.REGISTRY.counter(
    "repro_parse_cache_misses_total", "Parse-cache misses (real parses)",
    cache="tree")
_M_SHARED_HITS = _obs.REGISTRY.counter(
    "repro_parse_cache_hits_total", "Shared-store hits", cache="shared")
_M_SHARED_MISSES = _obs.REGISTRY.counter(
    "repro_parse_cache_misses_total", "Shared-store misses", cache="shared")


def content_sha1(text: str) -> str:
    """The content hash every cache/incremental layer keys on.

    ``surrogatepass`` keeps lone surrogates from ``surrogateescape`` file
    loading hashable, so byte-identical non-UTF-8 files hash identically.
    """
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()


class _InFlight:
    """One racing parse: the owner fills ``tree``/``error`` and sets the
    event; waiters block on it instead of re-parsing the same text."""

    __slots__ = ("event", "tree", "error")

    def __init__(self):
        self.event = threading.Event()
        self.tree: Optional[ParseTree] = None
        self.error: Optional[BaseException] = None


class SharedTreeStore:
    """A content-addressed parse-tree layer shared *across* caches.

    Per-workspace :class:`TreeCache` keys include the filename (diagnostics
    derive it from ``tree.source.name``), so two workspaces holding the same
    vendored file under different paths each parse it.  This store drops the
    filename from the key — ``(sha1(text), options) → tree`` — and repairs
    the one filename capture on the way out: a hit whose stored tree was
    parsed under a different name is *rebound* by replacing ``tree.source``
    with a fresh :class:`~repro.lang.source.SourceFile` carrying the
    caller's name.  That is sound because the source object is the tree's
    only filename carrier: tokens hold offsets into the text, and the
    tolerant parser's recovery nodes hold token ranges, never paths — the
    matcher (``Position.filename``) and transform diagnostics both read
    ``tree.source.name`` at *use* time.  Rebinding costs one O(n)
    line-start scan, versus a full re-parse.

    Thread-safe; shared across workspaces (and per worker process in the
    apply fleet), wired in via ``TreeCache(shared=...)``.
    """

    def __init__(self, max_entries: int = 2048):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, ParseTree]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: hits answered for a different filename than the stored parse
        self.rebinds = 0
        self.evictions = 0

    def get(self, text_sha: str, options: SpatchOptions, name: str,
            text: str) -> Optional[ParseTree]:
        """The stored tree for this exact content (rebound to ``name`` if it
        was parsed under another path), or ``None``."""
        key = (text_sha, options)
        with self._lock:
            tree = self._entries.get(key)
            if tree is None:
                self.misses += 1
                if _obs.enabled():
                    _M_SHARED_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if _obs.enabled():
                _M_SHARED_HITS.inc()
            if tree.source.name == name:
                return tree
            self.rebinds += 1
        # rebind outside the lock: SourceFile.__post_init__ rescans line
        # starts, which is O(len(text)) work other callers need not wait on
        return dataclasses.replace(
            tree, source=SourceFile(name=name, text=text))

    def put(self, text_sha: str, options: SpatchOptions,
            tree: ParseTree) -> None:
        key = (text_sha, options)
        with self._lock:
            if key not in self._entries:
                self.stores += 1
            self._entries[key] = tree
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.stores = 0
            self.rebinds = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "rebinds": self.rebinds,
                    "evictions": self.evictions}


class TreeCache:
    """A bounded, thread-safe LRU cache of parse trees.

    ``shared`` optionally names a :class:`SharedTreeStore` consulted on a
    local miss (content-addressed, so identical files in *other* caches
    answer) and published to after every successful parse.  ``None`` — the
    default — keeps this cache fully self-contained."""

    def __init__(self, max_entries: int = 512,
                 shared: Optional[SharedTreeStore] = None):
        self.max_entries = max_entries
        self.shared = shared
        self._entries: "OrderedDict[tuple, ParseTree]" = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: hits that were answered by waiting on another caller's in-flight
        #: parse instead of a stored entry (how much concurrent dedup saved)
        self.dedup_waits = 0
        #: local misses answered by the shared content-addressed store
        #: (each one is a parse some other cache already paid for)
        self.shared_hits = 0
        #: entries dropped past the LRU bound since construction/clear
        self.evictions = 0

    @staticmethod
    def _key(text: str, name: str, options: SpatchOptions) -> tuple:
        return (name, content_sha1(text), options)

    def get_or_parse(self, text: str, name: str,
                     options: SpatchOptions) -> ParseTree:
        """Return the cached tree for ``text`` or parse (tolerantly) and cache it."""
        key = self._key(text, name, options)
        with self._lock:
            tree = self._entries.get(key)
            if tree is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if _obs.enabled():
                    _M_HITS.inc()
                return tree
            inflight = self._inflight.get(key)
            if inflight is None:
                inflight = self._inflight[key] = _InFlight()
                owner = True
            else:
                owner = False
        if not owner:
            # someone else is parsing this exact key right now: wait for
            # their tree instead of building a duplicate
            inflight.event.wait()
            if inflight.error is not None:
                raise inflight.error
            with self._lock:
                self.hits += 1
                if _obs.enabled():
                    _M_HITS.inc()
                self.dedup_waits += 1
                # a dedup-answered caller is a *use* of the entry like any
                # other hit: refresh its recency so the snapshot cap and the
                # LRU bound see the true access order
                if key in self._entries:
                    self._entries.move_to_end(key)
            return inflight.tree
        tree = None
        if self.shared is not None:
            try:
                tree = self.shared.get(key[1], options, name, text)
            except Exception:
                tree = None  # a broken share degrades to a parse, never a failure
        if tree is not None:
            with self._lock:
                self.hits += 1
                if _obs.enabled():
                    _M_HITS.inc()
                self.shared_hits += 1
                self._store(key, tree)
                del self._inflight[key]
            inflight.tree = tree
            inflight.event.set()
            return tree
        try:
            with _obs.phase("parse"):
                tree = parse_source(text, name=name, options=options,
                                    tolerant=True)
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            inflight.error = exc
            inflight.event.set()
            raise
        with self._lock:
            self.misses += 1
            if _obs.enabled():
                _M_MISSES.inc()
            self._store(key, tree)
            del self._inflight[key]
        inflight.tree = tree
        inflight.event.set()
        if self.shared is not None:
            try:
                self.shared.put(key[1], options, tree)
            except Exception:
                pass
        return tree

    def _store(self, key: tuple, tree: ParseTree) -> None:
        """Insert under the lock, evicting least-recently-used overflow."""
        self._entries[key] = tree
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.dedup_waits = 0
            self.shared_hits = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` counters since construction/clear."""
        return self.hits, self.misses

    def counters(self) -> dict:
        """Every counter this cache keeps, as one JSON-able dict — what
        ``--profile`` and the server's ``stats`` verb report (the hit/miss
        pair was previously only visible inside ``PipelineStats``)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "hits": self.hits, "misses": self.misses,
                    "dedup_waits": self.dedup_waits,
                    "shared_hits": self.shared_hits,
                    "evictions": self.evictions}

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> list[tuple[tuple, ParseTree]]:
        """The ``(key, tree)`` entries in LRU order (oldest first), for
        embedding in a larger persisted state (``--incremental``'s file);
        the embedder bounds the size (``PipelineState.max_cache_entries``
        keeps the hottest tail) — one capping mechanism, owned there."""
        with self._lock:
            return list(self._entries.items())

    def restore(self, entries) -> int:
        """Merge ``snapshot()``-shaped entries into this cache; returns how
        many were merged (the LRU bound still applies).  Keys already live
        in this cache keep their current recency — a stale snapshot must
        never promote its copy over entries the running process has been
        using more recently."""
        merged = 0
        with self._lock:
            for key, tree in entries:
                if key in self._entries:
                    continue
                self._store(key, tree)
                merged += 1
        return merged

    def save(self, path) -> int:
        """Pickle the ``(name, sha1, options) → tree`` entries to ``path``
        (LRU order preserved); returns the number of entries written."""
        entries = self.snapshot()
        payload = {"version": _PERSIST_VERSION, "entries": entries}
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return len(entries)

    def load(self, path) -> int:
        """Merge entries persisted by :meth:`save` into this cache; returns
        how many were loaded.  Unreadable or version-mismatched files load
        nothing (a stale cache must never break an application run)."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if payload.get("version") != _PERSIST_VERSION:
                return 0
            entries = payload["entries"]
        except Exception:
            # pickle failures surface as UnpicklingError, ValueError,
            # EOFError, AttributeError/ImportError (renamed classes), ... —
            # a stale cache must degrade to re-parsing, never break the run
            return 0
        return self.restore(entries)


#: process-wide cache shared by pipelines unless a caller supplies its own
DEFAULT_TREE_CACHE = TreeCache()
