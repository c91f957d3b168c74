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
parity comparisons; :func:`profile_lines` is its one ``--profile`` text
form, local and ``--server`` alike.

:class:`FileResult` and :class:`RuleReport` are immutable values that
results share instead of copying; each file's derived facts are computed
once and kept on the object (see :class:`FileResult`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, Optional, Sequence, TypeVar

from ..errors import Diagnostic

T = TypeVar("T")


class _fact(Generic[T]):
    """A fact derived from an immutable result: the first read computes it
    and stores it in the instance dict, where every later read (and every
    copy or pickle of the instance) finds it without calling back here.
    Threads racing on a first read compute and store equal values; no lock
    is taken, so a process forked mid-computation inherits none."""

    def __init__(self, compute: Callable[..., T]):
        self.compute = compute

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None) -> T:
        if instance is None:
            return self  # type: ignore[return-value]
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class RuleReport:
    """What one rule did in one file (an immutable value)."""

    rule: str
    matches: int = 0
    deletions: int = 0
    insertions: int = 0


@dataclass(frozen=True)
class FileResult:
    """The outcome of applying a semantic patch to one file.

    An immutable value: its fields cannot be assigned, and its reports and
    diagnostics are tuples (lists passed in are frozen into tuples).  Every
    result that holds it may therefore share it: an incremental run splices
    a prior result's objects, and a file no patch touched has one object
    for all of its views.  The facts derived from the fields (the diff, its
    line counts, the match total and the summary row) are each computed by
    the first read, set once by :class:`_fact` (the fields never change,
    so a fact never goes stale), and then travel with the object, its
    copies and its pickles."""

    filename: str
    original_text: str
    text: str
    rule_reports: tuple[RuleReport, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    def __post_init__(self) -> None:
        if type(self.rule_reports) is not tuple:
            object.__setattr__(self, "rule_reports", tuple(self.rule_reports))
        if type(self.diagnostics) is not tuple:
            object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @property
    def changed(self) -> bool:
        return self.text != self.original_text

    @_fact
    def total_matches(self) -> int:
        return sum(report.matches for report in self.rule_reports)

    def matches_of(self, rule: str) -> int:
        # a name can legitimately appear in several reports (a pipeline's
        # combined result concatenates reports across patches, and two
        # patches may both name a rule "r1"); sum them all
        return sum(report.matches for report in self.rule_reports
                   if report.rule == rule)

    @_fact
    def _diff(self) -> str:
        if not self.changed:
            return ""
        import difflib

        return "".join(difflib.unified_diff(
            self.original_text.splitlines(keepends=True),
            self.text.splitlines(keepends=True),
            fromfile=f"a/{self.filename}", tofile=f"b/{self.filename}"))

    def diff(self) -> str:
        """Unified diff between the original and the patched text;
        :meth:`line_counts` (which every summary count reads),
        :meth:`added_lines` and :meth:`removed_lines` read this one
        diff."""
        return self._diff

    def _body(self) -> list[str]:
        """The diff's lines below its ``---``/``+++`` file header, so an
        added ``++i;`` or a removed ``--i;`` is a line like any other."""
        return self.diff().splitlines()[2:]

    @_fact
    def _counts(self) -> tuple[int, int]:
        added = removed = 0
        for line in self._body() if self.changed else ():
            if line.startswith("+"):
                added += 1
            elif line.startswith("-"):
                removed += 1
        return added, removed

    def line_counts(self) -> tuple[int, int]:
        """``(added, removed)`` lines of :meth:`diff`."""
        return self._counts

    @_fact
    def _summary(self) -> tuple[int, int, int, int]:
        return (int(self.changed), self.total_matches, *self.line_counts())

    def summary_counts(self) -> tuple[int, int, int, int]:
        """``(changed, matches, added, removed)``: this file's share of
        :meth:`PatchResult.summary` (``changed`` is 0 or 1)."""
        return self._summary

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
        """Totals over the files' cached :meth:`FileResult.summary_counts`."""
        changed = matches = added = removed = 0
        for file_result in self.files.values():
            row = file_result.summary_counts()
            changed += row[0]
            matches += row[1]
            added += row[2]
            removed += row[3]
        return {
            "files": len(self.files),
            "changed_files": changed,
            "matches": matches,
            "lines_added": added,
            "lines_removed": removed,
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
    """The volatile companion of :func:`result_payload`: coverage and wall
    time from the run's stats, the incremental reuse breakdown, and —
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


def profile_lines(profile: dict) -> list[str]:
    """The one human-readable form of a :func:`profile_payload`, a local
    run's own or the ``"profile"`` a daemon answered with: one
    ``# section.key: value`` line per value, keys sorted so the two print
    alike (a top-level scalar is ``# key: value``; a value that is itself
    a mapping, a phase's histogram summary, stays on its line as sorted
    ``key=value`` pairs)."""
    lines = []
    for section, body in sorted(profile.items()):
        items = sorted(body.items()) if isinstance(body, dict) \
            else [(None, body)]
        for key, value in items:
            name = section if key is None else f"{section}.{key}"
            lines.append(f"# {name}: {_profile_value(value)}")
    return lines


def _profile_value(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{key}={_profile_value(item)}"
                        for key, item in sorted(value.items()))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
