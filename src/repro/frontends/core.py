"""Core machinery shared by the machine-patch frontends.

Machine-generated patches (JSON operation arrays, 'ap' snippet/anchor
locators, search/replace blocks) do not carry SmPL patterns — they carry
*textual operations*: a snippet to find, an optional anchor scoping the
search, an optional content hash pinning the expected old text, and a
replacement.  This module models one such operation as a
:class:`TextualRule` living inside a :class:`FrontendPatchAST`, a
:class:`~repro.smpl.ast.SemanticPatchAST` subclass, so frontend patches
flow through the existing prefilter / pipeline / memo / incremental /
server layers without those layers changing shape.

Locator semantics (the robustness tier):

* **tier 1** — exact substring occurrences of the snippet;
* **tier 2** — whitespace-resilient matching: the snippet is split on
  whitespace and rejoined with ``\\s+`` between word-adjacent chunks and
  ``\\s*`` elsewhere, so a reformatted file still locates;
* an **anchor**, when given, must occur exactly once and scopes the
  snippet search to the text after it;
* **ambiguity** (several matches, no ``occurrence`` index) is always an
  error — the engine never guesses;
* an **old_hash** (sha-256 hex prefix, ≥ 8 chars) is verified against the
  exact matched span before any edit;
* operation failures abort the whole file: the session reverts to the
  original text (all-or-nothing, so ``--in-place`` never half-applies)
  and the failure surfaces as an ``error`` diagnostic.

A snippet that is simply *absent* from a file is only an error for
**file-scoped** operations (``file:`` glob present); for unscoped
operations absence is an ordinary no-match, exactly like a SmPL rule that
matches nothing.
"""

from __future__ import annotations

import fnmatch
import hashlib
import posixpath
import re
from dataclasses import dataclass, field
from typing import Optional

from ..errors import Diagnostic, FrontendParseError
from ..options import SpatchOptions, DEFAULT_OPTIONS
from ..smpl.ast import DependencyExpr, SemanticPatchAST

#: actions a textual operation can take
ACTIONS = ("replace", "delete", "insert_after", "insert_before", "rewrite_file")

_WORD_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$")
_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


def sha256_hex(text: str) -> str:
    """Content hash used by ``old_hash`` verification."""
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


@dataclass(frozen=True)
class TextualOp:
    """One machine-patch operation, normalized across frontend formats."""

    action: str                 # one of ACTIONS
    search: str = ""            # snippet to locate (empty for rewrite_file)
    replacement: str = ""       # new text ("" + delete → pure removal)
    anchor: str = ""            # optional unique context scoping the search
    old_hash: str = ""          # optional sha-256 hex prefix of the old span
    file: str = ""              # optional fnmatch glob scoping to files
    occurrence: int = 0         # 1-based pick among several matches (0 = must be unique)
    lineno: int = 0             # line in the patch file, for diagnostics

    def validate(self) -> None:
        if self.action not in ACTIONS:
            raise FrontendParseError(
                f"unknown action {self.action!r} (expected one of {', '.join(ACTIONS)})",
                line=self.lineno)
        if self.action == "rewrite_file":
            if not self.file:
                raise FrontendParseError(
                    "rewrite_file requires a 'file' scope", line=self.lineno)
        elif not self.search:
            raise FrontendParseError(
                f"{self.action} requires a non-empty search snippet", line=self.lineno)
        if self.action in ("insert_after", "insert_before") and not self.replacement:
            raise FrontendParseError(
                f"{self.action} requires text to insert", line=self.lineno)
        if self.old_hash:
            cleaned = self.old_hash.lower()
            if len(cleaned) < 8 or len(cleaned) > 64 or \
                    any(c not in "0123456789abcdef" for c in cleaned):
                raise FrontendParseError(
                    f"old_hash must be a sha-256 hex prefix of 8..64 chars, "
                    f"got {self.old_hash!r}", line=self.lineno)
        if self.occurrence < 0:
            raise FrontendParseError(
                f"occurrence must be positive, got {self.occurrence}", line=self.lineno)


@dataclass
class TextualOutcome:
    """What applying one :class:`TextualOp` to one text did."""

    new_text: str
    matches: int = 0
    deletions: int = 0
    insertions: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: a located-but-unsafe application (stale hash, ambiguity, scoped
    #: snippet missing): the whole file must be rolled back
    failed: bool = False


# -- whitespace-resilient matching --------------------------------------------

def resilient_pattern(snippet: str) -> "re.Pattern[str]":
    """Compile the tier-2 locator regex for a snippet.

    Chunks (maximal non-whitespace runs) are matched literally; whitespace
    between two word characters must survive as whitespace (``\\s+``),
    elsewhere it may collapse entirely (``\\s*``).  Leading/trailing
    whitespace in the snippet demands a token boundary, so ``" foo "``
    cannot silently locate inside ``barfood``.
    """
    chunks = snippet.split()
    if not chunks:
        raise FrontendParseError("empty search snippet")
    parts: list[str] = []
    if snippet[0] in " \t\n\r" and chunks[0][0] in _WORD_CHARS:
        parts.append(r"(?<![A-Za-z0-9_$])")
    for i, chunk in enumerate(chunks):
        if i:
            prev = chunks[i - 1]
            sep = r"\s+" if prev[-1] in _WORD_CHARS and chunk[0] in _WORD_CHARS else r"\s*"
            parts.append(sep)
        parts.append(re.escape(chunk))
    if snippet[-1] in " \t\n\r" and chunks[-1][-1] in _WORD_CHARS:
        parts.append(r"(?![A-Za-z0-9_$])")
    return re.compile("".join(parts))


def find_spans(text: str, snippet: str) -> list[tuple[int, int]]:
    """All locations of ``snippet`` in ``text``: exact occurrences, falling
    back to whitespace-resilient matches when the exact form is absent."""
    spans: list[tuple[int, int]] = []
    start = 0
    while True:
        pos = text.find(snippet, start)
        if pos < 0:
            break
        spans.append((pos, pos + len(snippet)))
        start = pos + 1
    if spans:
        return spans
    return [m.span() for m in resilient_pattern(snippet).finditer(text)]


def interior_words(snippet: str) -> frozenset[str]:
    """Identifier-shaped words of a snippet that are *complete tokens* in any
    text the snippet (exactly or resiliently) matches: words bounded on both
    sides, within the snippet, by non-word characters.  Words touching the
    snippet's edges are excluded — under substring matching they may be
    fragments of larger tokens in the file."""
    words: set[str] = set()
    for m in _WORD_RE.finditer(snippet):
        s, e = m.span()
        if s == 0 or e == len(snippet):
            continue
        if snippet[s - 1] in _WORD_CHARS or snippet[e] in _WORD_CHARS:
            continue
        words.add(m.group())
    return frozenset(words)


def _file_in_scope(pattern: str, filename: str) -> bool:
    name = filename.replace("\\", "/")
    return (fnmatch.fnmatch(name, pattern)
            or fnmatch.fnmatch(posixpath.basename(name), pattern))


def _expand_to_lines(text: str, start: int, end: int) -> tuple[int, int]:
    """Grow a span to whole lines when it already covers them bar
    surrounding blank space — so deleting a full-line snippet removes the
    line, not just its characters."""
    line_start = text.rfind("\n", 0, start) + 1
    line_end = text.find("\n", end)
    line_end = len(text) if line_end < 0 else line_end + 1
    before = text[line_start:start]
    after = text[end:line_end]
    if before.strip() == "" and after.strip() in ("", "\n"):
        return line_start, line_end
    return start, end


def _line_bounds(text: str, pos: int) -> tuple[int, int]:
    start = text.rfind("\n", 0, pos) + 1
    end = text.find("\n", pos)
    return start, (len(text) if end < 0 else end + 1)


class TextualRule:
    """One :class:`TextualOp` wearing the rule interface the engine expects.

    It quacks enough like a :class:`~repro.smpl.ast.PatchRule` for the
    pipeline's bookkeeping (``name``, ``dependencies``, ``is_pure_match``,
    ``is_script``) while :class:`~repro.engine.session.FileSession`
    dispatches on ``is_textual`` to apply it directly to the file text.
    """

    is_textual = True
    is_script = False
    is_pure_match = False

    def __init__(self, name: str, op: TextualOp):
        self.name = name
        self.op = op
        self.dependencies = DependencyExpr()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextualRule({self.name!r}, {self.op!r})"

    # -- prefilter hooks ------------------------------------------------------

    def required_tokens(self) -> frozenset[str]:
        """Tokens a file must contain for this rule to possibly *match*.

        File-scoped operations are never gated: for them an absent snippet
        is an **error diagnostic**, and gating must stay observably
        identical to a no-match.
        """
        if self.op.file:
            return frozenset()
        return interior_words(self.op.search) | interior_words(self.op.anchor or "")

    def addable_tokens(self) -> tuple[frozenset[str], bool]:
        """Tokens this rule can introduce (static replacement text)."""
        return frozenset(_WORD_RE.findall(self.op.replacement)), False

    # -- application ----------------------------------------------------------

    def _fail(self, text: str, message: str, filename: str) -> TextualOutcome:
        return TextualOutcome(new_text=text, failed=True, diagnostics=[
            Diagnostic(severity="error", filename=filename, line=self.op.lineno,
                       message=f"{self.name}: {message}")])

    def apply_to_text(self, text: str, filename: str) -> TextualOutcome:
        """Apply this operation to one file's current text."""
        op = self.op
        if op.file and not _file_in_scope(op.file, filename):
            return TextualOutcome(new_text=text)

        if op.action == "rewrite_file":
            if op.old_hash and not sha256_hex(text).startswith(op.old_hash.lower()):
                return self._fail(text, "stale old_hash: the file changed since "
                                        "this patch was generated", filename)
            if text == op.replacement:
                return TextualOutcome(new_text=text)
            return TextualOutcome(new_text=op.replacement, matches=1,
                                  deletions=text.count("\n") or 1,
                                  insertions=op.replacement.count("\n") or 1)

        region_offset = 0
        region = text
        if op.anchor:
            anchors = find_spans(text, op.anchor)
            if not anchors:
                if op.file:
                    return self._fail(text, f"anchor not found: {op.anchor!r}", filename)
                return TextualOutcome(new_text=text)
            if len(anchors) > 1:
                return self._fail(
                    text, f"ambiguous anchor ({len(anchors)} occurrences): "
                          f"{op.anchor!r}", filename)
            region_offset = anchors[0][1]
            region = text[region_offset:]

        spans = find_spans(region, op.search)
        if not spans:
            if op.file:
                return self._fail(text, f"snippet not found: {op.search!r}", filename)
            return TextualOutcome(new_text=text)
        if len(spans) > 1:
            if not op.occurrence:
                return self._fail(
                    text, f"ambiguous snippet ({len(spans)} occurrences, "
                          f"no 'occurrence' index): {op.search!r}", filename)
            if op.occurrence > len(spans):
                return self._fail(
                    text, f"occurrence {op.occurrence} out of range "
                          f"({len(spans)} matches)", filename)
            spans = [spans[op.occurrence - 1]]
        start, end = spans[0][0] + region_offset, spans[0][1] + region_offset

        matched = text[start:end]
        if op.old_hash and not sha256_hex(matched).startswith(op.old_hash.lower()):
            return self._fail(text, "stale old_hash: the matched text changed "
                                    "since this patch was generated", filename)

        if op.action == "replace":
            repl = op.replacement
            # a line-oriented snippet ("...;\n") located resiliently inside a
            # line must not smuggle its trailing newline into the middle of it
            if op.search.endswith("\n") and repl.endswith("\n") \
                    and not matched.endswith("\n"):
                repl = repl[:-1]
            new_text = text[:start] + repl + text[end:]
            if new_text == text:
                return TextualOutcome(new_text=text, matches=1)
            return TextualOutcome(new_text=new_text, matches=1,
                                  deletions=matched.count("\n") + 1,
                                  insertions=repl.count("\n") + 1)
        if op.action == "delete":
            dstart, dend = _expand_to_lines(text, start, end)
            removed = text[dstart:dend]
            return TextualOutcome(new_text=text[:dstart] + text[dend:], matches=1,
                                  deletions=removed.count("\n") or 1)
        # insert_after / insert_before: line-based, reusing the matched
        # line's indentation when the inserted lines carry none
        line_start, line_end = _line_bounds(text, start if op.action == "insert_before"
                                            else end - 1 if end > start else end)
        line = text[line_start:line_end]
        indent = line[:len(line) - len(line.lstrip())]
        block = op.replacement
        if not block.endswith("\n"):
            block += "\n"
        if indent and not any(ln[:1] in (" ", "\t") for ln in block.splitlines() if ln):
            block = "".join(indent + ln + "\n" if ln else "\n"
                            for ln in block.splitlines())
        if op.action == "insert_before":
            new_text = text[:line_start] + block + text[line_start:]
        else:
            new_text = text[:line_end] + block + text[line_end:]
        return TextualOutcome(new_text=new_text, matches=1,
                              insertions=block.count("\n") or 1)


class FrontendPatchAST(SemanticPatchAST):
    """A parsed frontend patch: textual rules behind the SmPL AST interface.

    ``source_text`` holds the frontend file verbatim and ``format`` names
    the frontend kind, so patch fingerprints (memo / incremental
    identity) and server payloads come for free.
    """

    def __init__(self, rules: list[TextualRule], *, format: str,
                 options: Optional[SpatchOptions] = None, source_text: str = ""):
        super().__init__(rules=list(rules), options=options or DEFAULT_OPTIONS,
                         source_text=source_text)
        self.format = format

    def patch_rules(self):  # type: ignore[override]
        # textual rules count as patch rules for the pipeline's bookkeeping
        # (rule totals, gating counters, guard classification)
        return [r for r in self.rules if not getattr(r, "is_script", False)]
