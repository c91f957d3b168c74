"""Result and report types for semantic patch application, and the one
result schema every front end prints.

:func:`result_payload` renders an application result (a
:class:`~repro.engine.pipeline.PipelineResult`) into the JSON schema shared
by ``repro-spatch --json``, the CLI's plain/``--report``/``--in-place``
output and the server's ``apply``/``query`` responses, so local and remote
runs are comparable byte-for-byte.  The payload is split into a
**deterministic core** — texts, diffs, per-rule reports, summaries, exit
status, everything two byte-identical runs agree on — and a volatile
``"profile"`` section (:func:`profile_payload`: timings, cache counters,
reuse breakdowns) that is only attached on request and never part of
parity comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..errors import Diagnostic


@dataclass
class RuleReport:
    """What one rule did in one file."""

    rule: str
    matches: int = 0
    deletions: int = 0
    insertions: int = 0


@dataclass
class FileResult:
    """The outcome of applying a semantic patch to one file."""

    filename: str
    original_text: str
    text: str
    rule_reports: list[RuleReport] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: the unified diff, computed by the first :meth:`diff` call (the texts
    #: never change after construction, so it never goes stale; threads
    #: racing on a first call compute and store the same string)
    _diff: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)
    #: ``(added, removed)`` line counts of that diff, computed by the first
    #: :meth:`line_counts` call and carried by :meth:`copy` and pickling
    _counts: Optional[tuple[int, int]] = field(default=None, init=False,
                                               repr=False, compare=False)

    @property
    def changed(self) -> bool:
        return self.text != self.original_text

    def copy(self) -> "FileResult":
        """An independent, equal snapshot: incremental re-application splices
        cached results into fresh :class:`PatchResult`\\ s, and mutating one
        view must not leak into the other (reports included).  The diff and
        its line counts ride along, so a spliced file is never diffed or
        counted again."""
        clone = FileResult(filename=self.filename,
                           original_text=self.original_text, text=self.text,
                           rule_reports=[RuleReport(r.rule, r.matches,
                                                    r.deletions, r.insertions)
                                         for r in self.rule_reports],
                           diagnostics=list(self.diagnostics))
        clone._diff = self._diff
        clone._counts = self._counts
        return clone

    @property
    def total_matches(self) -> int:
        return sum(r.matches for r in self.rule_reports)

    def matches_of(self, rule: str) -> int:
        # a name can legitimately appear in several reports (a pipeline's
        # combined result concatenates reports across patches, and two
        # patches may both name a rule "r1"); sum them all
        return sum(report.matches for report in self.rule_reports
                   if report.rule == rule)

    def diff(self) -> str:
        """Unified diff between the original and the patched text, computed
        on the first call; :meth:`line_counts` (which every summary count
        reads), :meth:`added_lines` and :meth:`removed_lines` read this one
        diff."""
        if self._diff is None:
            import difflib

            self._diff = "".join(difflib.unified_diff(
                self.original_text.splitlines(keepends=True),
                self.text.splitlines(keepends=True),
                fromfile=f"a/{self.filename}",
                tofile=f"b/{self.filename}")) if self.changed else ""
        return self._diff

    def _body(self) -> list[str]:
        """The diff's lines below its ``---``/``+++`` file header, so an
        added ``++i;`` or a removed ``--i;`` is a line like any other."""
        return self.diff().splitlines()[2:]

    def line_counts(self) -> tuple[int, int]:
        """``(added, removed)`` lines of :meth:`diff`, counted once."""
        if self._counts is None:
            added = removed = 0
            for line in self._body() if self.changed else ():
                if line.startswith("+"):
                    added += 1
                elif line.startswith("-"):
                    removed += 1
            self._counts = (added, removed)
        return self._counts

    def added_lines(self) -> list[str]:
        return [line[1:] for line in self._body() if line.startswith("+")]

    def removed_lines(self) -> list[str]:
        return [line[1:] for line in self._body() if line.startswith("-")]


@dataclass
class PatchResult:
    """The outcome of applying a semantic patch to a whole code base."""

    files: dict[str, FileResult] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: timing/coverage breakdown (a ``PipelineStats``); not part of the
    #: semantic outcome, so excluded from equality
    stats: object = field(default=None, compare=False, repr=False)

    def __iter__(self) -> Iterator[FileResult]:
        return iter(self.files.values())

    def __getitem__(self, filename: str) -> FileResult:
        return self.files[filename]

    def get(self, filename: str) -> Optional[FileResult]:
        return self.files.get(filename)

    @property
    def changed_files(self) -> list[FileResult]:
        return [f for f in self.files.values() if f.changed]

    @property
    def total_matches(self) -> int:
        return sum(f.total_matches for f in self.files.values())

    def matches_of(self, rule: str) -> int:
        return sum(f.matches_of(rule) for f in self.files.values())

    def diff(self) -> str:
        """Concatenated unified diff across all changed files."""
        return "".join(f.diff() for f in self.files.values() if f.changed)

    def lines_added(self) -> int:
        return sum(f.line_counts()[0] for f in self.files.values())

    def lines_removed(self) -> int:
        return sum(f.line_counts()[1] for f in self.files.values())

    def summary(self) -> dict[str, int]:
        return {
            "files": len(self.files),
            "changed_files": len(self.changed_files),
            "matches": self.total_matches,
            "lines_added": self.lines_added(),
            "lines_removed": self.lines_removed(),
        }


# ---------------------------------------------------------------------------
# the result schema
# ---------------------------------------------------------------------------

#: schema tag of the result payload (shared by the CLI and the server)
RESULT_SCHEMA = "repro-spatch-result/1"


def dumps(payload: dict) -> str:
    """One canonical JSON line (sorted keys, compact separators, ASCII-only
    so surrogates survive a socket): byte-for-byte comparable output."""
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def nonguard_matches(patch, patch_result: PatchResult) -> int:
    """Match count excluding the patch's idempotence-guard rules (guard
    matches mean "already modernized, stood down", not "applied")."""
    guards = patch.ast.guard_rule_names()
    return sum(report.matches
               for file_result in patch_result
               for report in file_result.rule_reports
               if report.rule not in guards)


def exit_status(result, patches: Sequence) -> int:
    """The spatch-convention exit code for a pipeline result of
    ``patches``: 0 when any patch matched at a non-guard rule, 1 otherwise
    (usage errors never get this far)."""
    matched = any(nonguard_matches(patch, patch_result) > 0
                  for patch, patch_result in zip(patches, result.per_patch))
    return 0 if matched else 1


def _file_payload(file_result: FileResult, include_diff: bool,
                  include_texts: bool) -> dict:
    payload: dict = {
        "changed": file_result.changed,
        "matches": file_result.total_matches,
        "rules": [{"rule": r.rule, "matches": r.matches,
                   "deletions": r.deletions, "insertions": r.insertions}
                  for r in file_result.rule_reports],
    }
    if include_diff and file_result.changed:
        payload["diff"] = file_result.diff()
    if include_texts and file_result.changed:
        payload["text"] = file_result.text
    return payload


def result_payload(result, patches: Sequence, *, include_diff: bool = True,
                   include_texts: bool = False) -> dict:
    """The one serialization of a pipeline result of ``patches``.

    Deterministic by construction: no timings, no cache traffic, no reuse
    breakdown — a warm incremental server run and a cold local run over the
    same inputs produce byte-identical payloads (attach the volatile bits
    via :func:`profile_payload` under the separate ``"profile"`` key)."""
    code = exit_status(result, patches)
    return {
        "schema": RESULT_SCHEMA,
        "exit_status": code,
        "matched": code == 0,
        "patches": [patch.name for patch in patches],
        "summary": result.summary(),
        "files": {name: _file_payload(file_result, include_diff,
                                      include_texts)
                  for name, file_result in result.files.items()},
        "per_patch": result.per_patch_summary(),
    }


def profile_payload(result, counts, *, cache=None, memo=None) -> dict:
    """The volatile companion of :func:`result_payload`: timings and
    coverage from the run's stats, the incremental reuse breakdown, and —
    from ``counts``, the run's :class:`~repro.obs.registry.Capture` — the
    cache/memo/matcher traffic and per-phase wall times of that run alone
    (pass the :class:`~repro.engine.cache.TreeCache` /
    :class:`~repro.engine.memo.TransformMemo` actually used; their sizes
    ride along)."""
    from .compile import matcher_counters

    payload: dict = {}
    stats = getattr(result, "stats", None)
    if stats is not None:
        payload["stats"] = stats.as_dict()
    incremental = getattr(result, "incremental", None)
    if incremental is not None:
        payload["incremental"] = incremental.as_dict()
    if cache is not None:
        payload["parse_cache"] = cache.counters(counts)
    if memo is not None:
        payload["memo"] = memo.counters(counts)
    payload["matcher"] = matcher_counters(counts)
    # per-phase wall-time histograms (parse, prefilter, match, transform,
    # memo, splice, sync) — only phases that observed something appear
    phases = counts.phases()
    if phases:
        payload["phases"] = phases
    return payload
