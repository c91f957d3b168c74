"""Result and report types for semantic patch application."""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..errors import Diagnostic


@dataclass
class RuleReport:
    """What one rule did in one file."""

    rule: str
    matches: int = 0
    deletions: int = 0
    insertions: int = 0

    @property
    def changed_anything(self) -> bool:
        return self.deletions > 0 or self.insertions > 0


@dataclass
class FileResult:
    """The outcome of applying a semantic patch to one file."""

    filename: str
    original_text: str
    text: str
    rule_reports: list[RuleReport] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.text != self.original_text

    def copy(self) -> "FileResult":
        """An independent, equal snapshot: incremental re-application splices
        cached results into fresh :class:`PatchResult`\\ s, and mutating one
        view must not leak into the other (reports included)."""
        return FileResult(filename=self.filename,
                          original_text=self.original_text, text=self.text,
                          rule_reports=[replace(r) for r in self.rule_reports],
                          diagnostics=list(self.diagnostics))

    @property
    def total_matches(self) -> int:
        return sum(r.matches for r in self.rule_reports)

    def matches_of(self, rule: str) -> int:
        # a name can legitimately appear in several reports (a pipeline's
        # combined result concatenates reports across patches, and two
        # patches may both name a rule "r1"); sum them all
        return sum(report.matches for report in self.rule_reports
                   if report.rule == rule)

    def diff(self, context: int = 3) -> str:
        """Unified diff between the original and the patched text."""
        if not self.changed:
            return ""
        original = self.original_text.splitlines(keepends=True)
        patched = self.text.splitlines(keepends=True)
        lines = difflib.unified_diff(original, patched,
                                     fromfile=f"a/{self.filename}",
                                     tofile=f"b/{self.filename}", n=context)
        return "".join(lines)

    def added_lines(self) -> list[str]:
        return [line[1:] for line in self.diff().splitlines()
                if line.startswith("+") and not line.startswith("+++")]

    def removed_lines(self) -> list[str]:
        return [line[1:] for line in self.diff().splitlines()
                if line.startswith("-") and not line.startswith("---")]


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

    def diff(self, context: int = 3) -> str:
        """Concatenated unified diff across all changed files."""
        return "".join(f.diff(context) for f in self.files.values() if f.changed)

    def lines_added(self) -> int:
        return sum(len(f.added_lines()) for f in self.files.values())

    def lines_removed(self) -> int:
        return sum(len(f.removed_lines()) for f in self.files.values())

    def summary(self) -> dict[str, int]:
        return {
            "files": len(self.files),
            "changed_files": len(self.changed_files),
            "matches": self.total_matches,
            "lines_added": self.lines_added(),
            "lines_removed": self.lines_removed(),
        }
