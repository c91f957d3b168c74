"""Content-addressed :class:`~repro.lang.parser.ParseTree` cache.

Parsing dominates the cost of applying a semantic patch to a code base, and
the same file contents are parsed over and over across benchmark sweeps,
differential runs (prefilter on/off), repeated ``apply`` calls and — in the
daemon — every workspace holding a vendored copy of the same file.  Trees
are immutable once built — matching and transformation only read them, and
edits always produce *new* text which re-parses under a new key — so they
can be shared safely between sessions, workspaces and patches.

A tree is keyed only on what the parser reads: ``(sha1(text), is_cxx,
extra_types, attribute_names)``.  The lexer reads no options, and of the
C++ level the parser reads only whether there is one, so C++17 and C++23
callers share a tree, and so do callers differing only in matching options
(``verbose``, ``max_dots_statements``, ...).  Most HPC sources also parse
the same as C and as C++: the parser records whether any C++-gated branch
decided anything (``ParseTree.cxx_decided``), and a tree that never did is
stored under a *mode-free* key (``is_cxx`` replaced by ``None``) that a
lookup tries first, so one tree serves the cookbook's C and C++ patches
alike.  A text either decides in both modes or in neither, so it never has
both kinds of entry.  The filename is not in the key either.  A tree's one
filename carrier is its ``source``
(:class:`~repro.lang.source.SourceFile`): tokens hold offsets into the
text, the tolerant parser's recovery nodes hold token ranges, and the
matcher (``Position.filename``) and transform diagnostics read
``tree.source.name`` at *use* time.  So a hit whose stored tree was parsed
under another filename is *rebound*: the caller gets a shallow copy with a
fresh ``SourceFile`` carrying its own name (one O(n) line-start scan,
versus a full re-parse), and the stored entry stays as it is.  The copy
shares the nodes, so it also keeps the matcher's candidate index if the
stored tree has built one.

Two callers racing on the same key are deduplicated: the first one parses
while the others wait on a per-key in-flight marker, so a tree is never built
twice and the hit/miss counts stay exact (one miss per unique parse, one
hit per answered caller, one ``rebinds`` event per hit answered under
another filename).  Racing callers dedup on the exact key: a C and a C++
caller racing on one mode-free text both parse, and count two misses.  The
counts live in the metrics registry, so a capture around any stretch of
work reads exactly its traffic.  Trees never persist: they live and die
with the process, and a fresh process's warm start comes from the
transform memo's directory, whose hits parse nothing.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from typing import Optional

from ..lang.parser import ParseTree, parse_source
from ..lang.source import SourceFile
from ..obs import registry as _obs
from ..options import SpatchOptions


# every cache event increments exactly one of these registry children; the
# cache keeps only its size, and a capture around a run or request reads
# what that run counted (fork-pool and fleet workers ship theirs home)
_TREE = {event: _obs.REGISTRY.counter(f"repro_parse_cache_{event}_total",
                                      help_text, cache="tree")
         for event, help_text in (
             ("hits", "Parse-cache hits"),
             ("misses", "Parse-cache misses (real parses)"),
             ("dedup_waits",
              "Hits answered by waiting on another caller's parse"),
             ("rebinds", "Hits rebound to another filename"),
             ("evictions", "Parse-cache LRU evictions"))}


def parse_cache_counts(counts) -> dict:
    """The parse-cache traffic ``counts`` (a capture, or the registry for
    process-wide totals) recorded."""
    return {event: counts.total(child) for event, child in _TREE.items()}


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


def _named(tree: ParseTree, name: str, text: str) -> ParseTree:
    """``tree`` as seen by a caller naming the text ``name``: the stored
    tree itself, or a copy rebound to ``name`` (counted as a rebind)."""
    if tree.source.name == name:
        return tree
    _TREE["rebinds"].inc()
    # copy.copy keeps instance attributes such as the matcher's node index,
    # which holds only nodes and so is as valid for the copy
    rebound = copy.copy(tree)
    rebound.source = SourceFile(name=name, text=text)
    return rebound


class TreeCache:
    """A bounded, thread-safe LRU cache of parse trees, keyed on content.

    One instance serves every caller that may share trees: the process
    (:data:`DEFAULT_TREE_CACHE`), a daemon service across all its
    workspaces, or one apply-fleet worker across the workspaces pinned to
    it."""

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, ParseTree]" = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}
        self._lock = threading.Lock()

    def get_or_parse(self, text: str, name: str,
                     options: SpatchOptions) -> ParseTree:
        """Return the cached tree for ``text`` (named ``name``) or parse
        (tolerantly) and cache it."""
        sha1 = content_sha1(text)
        key = (sha1, options.is_cxx, options.extra_types,
               options.attribute_names)
        shared = (sha1, None, options.extra_types, options.attribute_names)
        with self._lock:
            hit_key = shared if shared in self._entries else key
            tree = self._entries.get(hit_key)
            if tree is not None:
                self._entries.move_to_end(hit_key)
                _TREE["hits"].inc()
            else:
                inflight = self._inflight.get(key)
                owner = inflight is None
                if owner:
                    inflight = self._inflight[key] = _InFlight()
        if tree is not None:
            # rebind outside the lock: a fresh SourceFile rescans line
            # starts, O(len(text)) work other callers need not wait on
            return _named(tree, name, text)
        if not owner:
            # someone else is parsing this exact content right now: wait
            # for their tree instead of building a duplicate
            inflight.event.wait()
            if inflight.error is not None:
                raise inflight.error
            _TREE["hits"].inc()
            _TREE["dedup_waits"].inc()
            stored = key if inflight.tree.cxx_decided else shared
            with self._lock:
                # a dedup-answered caller is a *use* of the entry like any
                # other hit: refresh its recency so the LRU bound sees the
                # true access order
                if stored in self._entries:
                    self._entries.move_to_end(stored)
            return _named(inflight.tree, name, text)
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
        _TREE["misses"].inc()
        with self._lock:
            self._store(key if tree.cxx_decided else shared, tree)
            del self._inflight[key]
        inflight.tree = tree
        inflight.event.set()
        return tree

    def _store(self, key: tuple, tree: ParseTree) -> None:
        """Insert under the lock, evicting least-recently-used overflow."""
        self._entries[key] = tree
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            _TREE["evictions"].inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self, counts) -> dict:
        """This cache's size plus the traffic ``counts`` recorded — what
        ``--profile`` and the server's ``stats`` verb report."""
        return {"entries": len(self._entries),
                "max_entries": self.max_entries, **parse_cache_counts(counts)}


#: process-wide cache shared by pipelines unless a caller supplies its own
DEFAULT_TREE_CACHE = TreeCache()
