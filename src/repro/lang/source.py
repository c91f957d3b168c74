"""Source file abstraction: text, line maps and locations.

Semantic patches produce *textual* edits against the original file so that
untouched code is preserved byte-for-byte; everything that needs to convert
between byte offsets and line/column coordinates goes through
:class:`SourceFile`.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterator

_NEWLINE_RE = re.compile("\n")


@dataclass(frozen=True, order=True)
class Location:
    """A position inside a source file (1-based line, 0-based column)."""

    line: int
    col: int
    offset: int = 0
    filename: str = "<string>"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.line}:{self.col}"


@dataclass
class SourceFile:
    """A named chunk of source text with fast offset<->line/column mapping."""

    name: str
    text: str
    _line_starts: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._line_starts = [0] + [m.end() for m in _NEWLINE_RE.finditer(self.text)]

    # -- basic queries ----------------------------------------------------

    @property
    def num_lines(self) -> int:
        """Number of physical lines (a trailing newline does not add one)."""
        n = len(self._line_starts)
        if self.text.endswith("\n") or not self.text:
            return n - 1 if self.text else 0
        return n

    def line_start(self, line: int) -> int:
        """Byte offset at which 1-based ``line`` starts."""
        return self._line_starts[line - 1]

    def line_end(self, line: int) -> int:
        """Byte offset one past the last character of ``line`` (excl. newline)."""
        if line < len(self._line_starts):
            end = self._line_starts[line] - 1
        else:
            end = len(self.text)
        return end

    def line_text(self, line: int) -> str:
        """The text of the 1-based ``line`` without its newline."""
        return self.text[self.line_start(line):self.line_end(line)]

    def lines(self) -> Iterator[str]:
        """Iterate over the lines of the file (without newlines)."""
        for i in range(1, max(self.num_lines, 0) + 1):
            yield self.line_text(i)

    # -- offset <-> location ----------------------------------------------

    def location(self, offset: int) -> Location:
        """Convert a byte offset into a :class:`Location`."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self._line_starts, offset)
        col = offset - self._line_starts[line - 1]
        return Location(line=line, col=col, offset=offset, filename=self.name)

    def offset(self, line: int, col: int = 0) -> int:
        """Convert a 1-based line and 0-based column into a byte offset."""
        return self.line_start(line) + col

    def indentation_of_line(self, line: int) -> str:
        """Leading whitespace of the given 1-based line."""
        text = self.line_text(line)
        return text[: len(text) - len(text.lstrip(" \t"))]

    def indentation_at(self, offset: int) -> str:
        """Leading whitespace of the line containing ``offset``."""
        return self.indentation_of_line(self.location(offset).line)

    # -- misc ---------------------------------------------------------------

    def slice(self, start: int, end: int) -> str:
        """Return ``text[start:end]`` (clamped)."""
        return self.text[max(0, start):min(len(self.text), end)]

    def count_loc(self) -> int:
        """Count non-blank, non-comment-only lines (a rough LoC metric)."""
        loc = 0
        in_block_comment = False
        for line in self.lines():
            stripped = line.strip()
            if in_block_comment:
                if "*/" in stripped:
                    in_block_comment = False
                    stripped = stripped.split("*/", 1)[1].strip()
                else:
                    continue
            if not stripped:
                continue
            if stripped.startswith("//"):
                continue
            if stripped.startswith("/*"):
                if "*/" not in stripped:
                    in_block_comment = True
                continue
            loc += 1
        return loc

    @classmethod
    def from_path(cls, path, name: str | None = None) -> "SourceFile":
        """Read a file from disk."""
        import pathlib

        p = pathlib.Path(path)
        return cls(name=name or str(p), text=p.read_text())
