"""Global content-addressed transform memoization.

Incremental splicing is *positional*: a file's cached results are reused
only inside that file's own prior result, for the same patch list, in one
process.  Yet the batch workload re-transforms identical inputs
constantly — vendored duplicate files, unchanged patches in an edited or
reordered patch list, separate workspaces holding the same tree, fresh
daemons re-doing work a previous process already finished.
:class:`TransformMemo` replaces position with *content*, like a
ccache/bazel action cache: every (file state, patch) transform is keyed
on

    ``(sha1 of the text entering the patch, patch fingerprint, mode flags)``

and maps to what the session produced — the output text (stored only when
the patch edited the file), the per-rule reports and the diagnostics.
Prefix, suffix, reorder, cross-file, cross-workspace and (with the on-disk
tier) cross-process reuse all fall out of this one mechanism.

Soundness
---------
A memo hit must be provably equivalent to running the session cold:

* the **content hash** pins the exact text entering the patch (the same
  ``content_sha1`` every cache/incremental layer keys on);
* the **patch fingerprint** (:func:`~repro.engine.pipeline.patch_fingerprint`)
  pins the SMPL source, the patch name and the frozen options — anything
  that can change what the patch does;
* the **mode flags** pin the prefilter setting (``allowed_rules`` — and so
  the reports a session emits — depend on whether gating is active);
* per-file **skip and gating decisions are never memoized** — the pipeline
  re-plans them against the *current* union prefilter, so coverage
  counters always match a cold run;
* for patches with per-file ``script:python`` rules the pipeline extends
  the fingerprint with a **digest of the script namespace** the session
  starts from (:func:`~repro.engine.scripting.namespace_digest`, free of
  addresses, so it is equal across processes) and **never stores an
  impure session** — one that changed the namespace.  A hit therefore only
  replays a pure session run from the same state.

Sessions are then pure functions of ``(text, patch, options,
allowed_rules, namespace state)`` — the fact incremental reuse also relies
on — with two filename-shaped exceptions.  Diagnostics embed the filename
they were produced under: entries therefore record their source filename
and an entry *with* diagnostics only answers that same filename.  And a
``script:python`` rule importing a ``position`` reads the filename (a
position renders as ``file:line:col``): for such patches the pipeline
extends the fingerprint with a hash of the filename.  Every other entry
(the overwhelmingly common case) is shared freely across
identically-hashed files.

On-disk tier
------------
``TransformMemo(path=...)`` adds a persistent tier: each entry is one
content-addressed file ``<dir>/<kk>/<key-sha1>.memo`` (two-hex-char shard
directories) holding a JSON ``{"version", "key", "entry"}`` record — plain
data, so loading an entry never runs code — written atomically (temp file +
``os.replace``) so concurrent writers — including forked pipeline workers
sharing the directory — can never interleave a torn entry.  Reads check the
version tag, the full key and every entry field's type and shape before
trusting an entry; corrupt, stale-versioned, key-mismatched or malformed
files (an old pickled entry included) degrade to a miss (and are unlinked
opportunistically), never to an error — the same "degrade, never break"
contract the parse cache and the server's workspace manifests follow.
This directory is the one persistent reuse store: ``--incremental`` is
another spelling of ``--memo-dir``, and the server's ``--state-root``
keeps its files' texts in the blob tier below.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..errors import Diagnostic
from ..obs import registry as _obs
from .cache import content_sha1
from .report import FileResult, RuleReport

#: format tag for on-disk entries; bump on incompatible layout changes
#: (stale-versioned entries degrade to a miss, never to wrong output);
#: 2 = JSON records (1 was pickled)
_DISK_VERSION = 2

#: every memo event's registry child, keyed like :meth:`TransformMemo.counters`
_COUNTS = {key: _obs.REGISTRY.counter(f"repro_memo_{family}_total", help_text,
                                      **labels)
           for key, family, help_text, labels in (
    ("hits", "lookups", "Transform-memo lookups", {"result": "hit"}),
    ("misses", "lookups", "Transform-memo lookups", {"result": "miss"}),
    ("stores", "stores", "Transform-memo entry stores", {}),
    ("evictions", "evictions", "Transform-memo LRU evictions", {}),
    ("disk_hits", "lookups", "Transform-memo lookups", {"result": "disk_hit"}),
    ("disk_misses", "disk", "On-disk tier traffic", {"event": "miss"}),
    ("disk_stores", "disk", "On-disk tier traffic", {"event": "store"}),
    ("disk_errors", "disk", "On-disk tier traffic", {"event": "error"}),
    ("blob_hits", "blob", "Raw-text blob tier traffic", {"event": "hit"}),
    ("blob_misses", "blob", "Raw-text blob tier traffic", {"event": "miss"}),
    ("blob_stores", "blob", "Raw-text blob tier traffic", {"event": "store"}))}


def memo_counts(counts) -> dict:
    """The memo traffic ``counts`` (a capture, or the registry) recorded."""
    return {key: counts.total(child) for key, child in _COUNTS.items()}


#: default bound on the in-memory LRU tier
DEFAULT_MEMO_ENTRIES = 4096


@dataclass(frozen=True)
class MemoEntry:
    """What one memoized session produced, filename-portable.

    ``text`` is ``None`` when the patch left the file untouched (the common
    case — most patches touch few files), so unchanged entries cost a few
    counters, not a copy of the file."""

    #: filename the entry was computed under; only consulted when
    #: ``diagnostics`` is non-empty (diagnostics embed it)
    filename: str
    #: output text, or ``None`` when identical to the input
    text: Optional[str]
    #: ``content_sha1`` of the output text (``None`` when unchanged) — lets
    #: a chained lookup reuse the hash instead of re-hashing the boundary
    output_sha: Optional[str]
    #: ``(rule, matches, deletions, insertions)`` per emitted report
    reports: tuple[tuple[str, int, int, int], ...]
    diagnostics: tuple

    @property
    def changed(self) -> bool:
        return self.text is not None

    def to_file_result(self, filename: str, input_text: str) -> FileResult:
        """Rebuild the exact :class:`~repro.engine.report.FileResult` a cold
        session over ``input_text`` would return."""
        return FileResult(
            filename=filename, original_text=input_text,
            text=self.text if self.text is not None else input_text,
            rule_reports=tuple(RuleReport(rule=rule, matches=matches,
                                          deletions=deletions,
                                          insertions=insertions)
                               for rule, matches, deletions, insertions
                               in self.reports),
            diagnostics=self.diagnostics)

    @classmethod
    def from_file_result(cls, file_result: FileResult) -> "MemoEntry":
        changed = file_result.text != file_result.original_text
        return cls(
            filename=file_result.filename,
            text=file_result.text if changed else None,
            output_sha=content_sha1(file_result.text) if changed else None,
            reports=tuple((report.rule, report.matches, report.deletions,
                           report.insertions)
                          for report in file_result.rule_reports),
            diagnostics=file_result.diagnostics)

    def to_json(self) -> dict:
        """The entry as plain JSON data (the on-disk record's ``entry``)."""
        return {"filename": self.filename, "text": self.text,
                "output_sha": self.output_sha,
                "reports": [list(report) for report in self.reports],
                "diagnostics": [{"severity": diagnostic.severity,
                                 "message": diagnostic.message,
                                 "filename": diagnostic.filename,
                                 "line": diagnostic.line}
                                for diagnostic in self.diagnostics]}

    @classmethod
    def from_json(cls, data) -> "MemoEntry":
        """The entry :meth:`to_json` wrote; raises ``ValueError`` on any
        field of the wrong type or shape, or an output hash that does not
        match the output text."""
        if not isinstance(data, dict):
            raise ValueError("memo entry is not an object")
        filename, text, output_sha = (data.get("filename"), data.get("text"),
                                      data.get("output_sha"))
        if not isinstance(filename, str):
            raise ValueError("memo entry filename is not a string")
        if (text is not None or output_sha is not None) and not (
                isinstance(text, str) and output_sha == content_sha1(text)):
            raise ValueError("memo entry output does not match its hash")
        reports = data.get("reports")
        if not (isinstance(reports, list) and all(
                isinstance(report, list) and len(report) == 4
                and isinstance(report[0], str)
                and all(_is_int(count) for count in report[1:])
                for report in reports)):
            raise ValueError("malformed memo entry reports")
        diagnostics = data.get("diagnostics")
        if not (isinstance(diagnostics, list) and all(
                isinstance(diagnostic, dict)
                and set(diagnostic) == {"severity", "message", "filename",
                                        "line"}
                and isinstance(diagnostic["severity"], str)
                and isinstance(diagnostic["message"], str)
                and isinstance(diagnostic["filename"], str)
                and _is_int(diagnostic["line"])
                for diagnostic in diagnostics)):
            raise ValueError("malformed memo entry diagnostics")
        return cls(filename=filename, text=text, output_sha=output_sha,
                   reports=tuple(tuple(report) for report in reports),
                   diagnostics=tuple(Diagnostic(**diagnostic)
                                     for diagnostic in diagnostics))


def atomic_write(target: str, data: bytes) -> None:
    """Publish ``data`` at ``target`` (creating its directory) through a
    temp file and ``os.replace``: concurrent writers each replace it with a
    complete file, so a reader never sees a torn one, and a process killed
    mid-write leaves the previous file intact."""
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _is_sha1(value) -> bool:
    """Whether ``value`` is a lowercase sha1 hex digest."""
    return (isinstance(value, str) and len(value) == 40
            and all(ch in "0123456789abcdef" for ch in value))


def _is_int(value) -> bool:
    """Whether a decoded JSON value is an integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def memo_flags(prefilter: bool) -> str:
    """The mode component of a memo key: entries never cross a prefilter
    toggle (``allowed_rules`` shape the reports).  The trailing ``c`` names
    the matcher and is kept so that memo directories and state roots
    written with it keep hitting."""
    return ("p" if prefilter else "-") + "c"


class TransformMemo:
    """A thread-safe, bounded ``(content sha1, patch fingerprint, flags) →``
    :class:`MemoEntry` store with an in-memory LRU tier and an optional
    persistent on-disk tier (see the module docstring)."""

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES,
                 path=None, max_blob_entries: int = 512):
        self.max_entries = max_entries
        self.max_blob_entries = max_blob_entries
        self.path = os.fspath(path) if path is not None else None
        self._entries: "OrderedDict[tuple, MemoEntry]" = OrderedDict()
        #: content-addressed raw-text tier (``sha1 → text``): what the
        #: memo-aware server sync stores/recalls so known file contents
        #: never cross the wire twice
        self._blobs: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)

    # -- lookup / store ------------------------------------------------------

    def lookup(self, text_sha: str, fingerprint: str, flags: str,
               filename: str) -> Optional[MemoEntry]:
        """The memoized session outcome for this exact (text, patch, mode),
        or ``None``.  ``filename`` guards the one filename-dependent case:
        an entry carrying diagnostics only answers the filename it was
        computed under."""
        key = (text_sha, fingerprint, flags)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.diagnostics and entry.filename != filename:
                    _COUNTS["misses"].inc()
                    return None
                self._entries.move_to_end(key)
                _COUNTS["hits"].inc()
                return entry
        entry = self._disk_lookup(key)
        if entry is not None:
            if entry.diagnostics and entry.filename != filename:
                _COUNTS["misses"].inc()
                return None
            with self._lock:
                self._store_locked(key, entry)
            _COUNTS["hits"].inc()
            _COUNTS["disk_hits"].inc()
            return entry
        _COUNTS["misses"].inc()
        return None

    def store(self, text_sha: str, fingerprint: str, flags: str,
              entry: MemoEntry) -> None:
        key = (text_sha, fingerprint, flags)
        with self._lock:
            known = key in self._entries
            self._store_locked(key, entry)
        if known:
            return  # refreshed recency; the disk entry is already there
        _COUNTS["stores"].inc()
        self._disk_store(key, entry)

    def store_result(self, text_sha: str, fingerprint: str, flags: str,
                     file_result: FileResult) -> Optional[str]:
        """Memoize one freshly computed session result; returns the output
        text's content hash when the session edited the file (``None``
        otherwise), so chained callers can thread boundary hashes without
        re-hashing."""
        entry = MemoEntry.from_file_result(file_result)
        self.store(text_sha, fingerprint, flags, entry)
        return entry.output_sha

    def _store_locked(self, key: tuple, entry: MemoEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            _COUNTS["evictions"].inc()

    # -- the on-disk tier ----------------------------------------------------

    def _entry_path(self, key: tuple) -> str:
        digest = hashlib.sha1("\x00".join(key).encode("ascii")).hexdigest()
        return os.path.join(self.path, digest[:2], digest + ".memo")

    def _disk_lookup(self, key: tuple) -> Optional[MemoEntry]:
        if self.path is None:
            return None
        target = self._entry_path(key)
        try:
            with open(target, "rb") as handle:
                payload = json.loads(handle.read().decode("ascii"))
            if (not isinstance(payload, dict)
                    or payload.get("version") != _DISK_VERSION
                    or payload.get("key") != list(key)):
                raise ValueError("stale or mismatched memo entry")
            entry = MemoEntry.from_json(payload.get("entry"))
        except FileNotFoundError:
            _COUNTS["disk_misses"].inc()
            return None
        except Exception:
            # corrupt, truncated, version-skewed or hash-colliding entries
            # all degrade to a miss; drop the file so the next store heals it
            _COUNTS["disk_errors"].inc()
            _COUNTS["disk_misses"].inc()
            try:
                os.unlink(target)
            except OSError:
                pass
            return None
        return entry

    def _disk_store(self, key: tuple, entry: MemoEntry) -> None:
        if self.path is None:
            return
        target = self._entry_path(key)
        try:
            # ensure_ascii escapes the lone surrogates of undecodable file
            # bytes, so they round-trip exactly
            data = json.dumps({"version": _DISK_VERSION, "key": list(key),
                               "entry": entry.to_json()}).encode("ascii")
            # forked pipeline workers share the directory: each replaces
            # the entry with a complete file
            atomic_write(target, data)
        except Exception:
            # a read-only or full disk must never break the apply; the
            # memory tier already holds the entry
            _COUNTS["disk_errors"].inc()
            return
        _COUNTS["disk_stores"].inc()

    # -- the blob (raw text) tier --------------------------------------------

    def _blob_path(self, text_sha: str) -> str:
        return os.path.join(self.path, "blobs", text_sha[:2],
                            text_sha + ".blob")

    def store_text(self, text: str, text_sha: Optional[str] = None) -> str:
        """Remember raw file text by content hash (memory LRU + on-disk
        blob when a ``path`` is configured); returns the hash.  This is the
        server-side half of memo-aware delta sync: texts a client already
        uploaded — or any process sharing the memo directory has seen —
        can be *recalled* by hash instead of re-uploaded."""
        if text_sha is None:
            text_sha = content_sha1(text)
        with self._lock:
            known = text_sha in self._blobs
            self._blobs[text_sha] = text
            self._blobs.move_to_end(text_sha)
            while len(self._blobs) > self.max_blob_entries:
                self._blobs.popitem(last=False)
        if not known:
            _COUNTS["blob_stores"].inc()
        if not known and self.path is not None:
            target = self._blob_path(text_sha)
            try:
                # surrogateescape, matching the read side: escaped bad
                # bytes in file texts round-trip to the same bytes the
                # client's file held, so the re-hash check on recall sees
                # the original content hash
                atomic_write(target, text.encode("utf-8", "surrogateescape"))
            except Exception:
                _COUNTS["disk_errors"].inc()
        return text_sha

    def recall_text(self, text_sha: str) -> Optional[str]:
        """The raw text previously stored under ``text_sha``, or ``None``.
        Disk reads are re-hashed before they are trusted — a corrupt blob
        degrades to a miss and is unlinked — and a ``text_sha`` that is not
        a sha1 hex digest never reaches the file system."""
        if not _is_sha1(text_sha):
            _COUNTS["blob_misses"].inc()
            return None
        with self._lock:
            text = self._blobs.get(text_sha)
            if text is not None:
                self._blobs.move_to_end(text_sha)
        if text is not None:
            _COUNTS["blob_hits"].inc()
            return text
        if self.path is not None:
            target = self._blob_path(text_sha)
            try:
                with open(target, "rb") as handle:
                    text = handle.read().decode("utf-8", "surrogateescape")
                if content_sha1(text) != text_sha:
                    raise ValueError("blob content does not match its hash")
            except FileNotFoundError:
                text = None
            except Exception:
                text = None
                _COUNTS["disk_errors"].inc()
                try:
                    os.unlink(target)
                except OSError:
                    pass
            if text is not None:
                _COUNTS["blob_hits"].inc()
                with self._lock:
                    self._blobs[text_sha] = text
                    self._blobs.move_to_end(text_sha)
                    while len(self._blobs) > self.max_blob_entries:
                        self._blobs.popitem(last=False)
                return text
        _COUNTS["blob_misses"].inc()
        return None

    # -- disk-tier garbage collection ----------------------------------------

    def prune(self, max_bytes: Optional[int] = None,
              max_age: Optional[float] = None) -> dict:
        """Size/age-bound the on-disk tier (entries *and* blobs).

        Files older than ``max_age`` seconds go first; if the directory
        still exceeds ``max_bytes``, the oldest-mtime files go until it
        fits — the disk analogue of the memory tier's LRU, using mtime as
        recency.  Concurrently vanished files are skipped, and the memory
        tiers are untouched (they are bounded separately).  Returns a
        summary: scanned/removed counts and byte totals."""
        summary = {"scanned": 0, "scanned_bytes": 0,
                   "removed": 0, "removed_bytes": 0}
        if self.path is None:
            return summary
        now = time.time()
        survivors: list[tuple[float, int, str]] = []  # (mtime, size, path)
        for dirpath, _dirnames, filenames in os.walk(self.path):
            for filename in filenames:
                if not filename.endswith((".memo", ".blob")):
                    continue  # never touch foreign/temp files
                target = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(target)
                except OSError:
                    continue
                summary["scanned"] += 1
                summary["scanned_bytes"] += stat.st_size
                if max_age is not None and now - stat.st_mtime > max_age:
                    self._prune_unlink(target, stat.st_size, summary)
                else:
                    survivors.append((stat.st_mtime, stat.st_size, target))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            survivors.sort()  # oldest mtime first
            index = 0
            while total > max_bytes and index < len(survivors):
                _mtime, size, target = survivors[index]
                index += 1
                if self._prune_unlink(target, size, summary):
                    total -= size
        return summary

    @staticmethod
    def _prune_unlink(target: str, size: int, summary: dict) -> bool:
        try:
            os.unlink(target)
        except OSError:
            return False  # concurrently removed, or unwritable — skip
        summary["removed"] += 1
        summary["removed_bytes"] += size
        return True

    # -- maintenance / observability -----------------------------------------

    def clear(self) -> None:
        """Drop the memory tiers (the on-disk tier is untouched — it is
        shared state other processes may be using)."""
        with self._lock:
            self._entries.clear()
            self._blobs.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self, counts) -> dict:
        """This memo's sizes plus the traffic ``counts`` recorded — what
        ``--profile`` and the server's ``stats`` verb report."""
        return {"entries": len(self._entries),
                "max_entries": self.max_entries, "path": self.path,
                "blob_entries": len(self._blobs), **memo_counts(counts)}
