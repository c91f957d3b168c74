"""Tokenizer for the C/C++ subset understood by the front end.

The same lexer is reused by the SmPL pattern parser (with
``smpl_mode=True``), which adds a handful of extra tokens: escaped
disjunction delimiters (``\\(``, ``\\|``, ``\\&``, ``\\)``), the position
operator ``@``, the regex-constraint operator ``=~`` and the concatenation
operator ``##`` used by ``fresh identifier`` declarations.

Preprocessor directives are lexed as single :data:`TokenKind.DIRECTIVE`
tokens covering the whole *logical* line (backslash continuations merged),
because semantic patches treat ``#pragma``/``#include`` lines as atomic
pattern elements, exactly as Coccinelle does.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import LexError
from .source import SourceFile


class TokenKind(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    DIRECTIVE = "directive"
    # SmPL-only kinds
    DOTS = "dots"          # ...
    DISJ_OPEN = "disj_open"    # \( or a column-0 '(' line
    DISJ_OR = "disj_or"        # \| or a column-0 '|' line
    CONJ_AND = "conj_and"      # \& or a column-0 '&' line
    DISJ_CLOSE = "disj_close"  # \) or a column-0 ')' line
    EOF = "eof"


#: Pattern-line annotations used by the SmPL machinery.  Plain C tokens carry
#: ``None``.
ANNOT_CONTEXT = " "
ANNOT_MINUS = "-"
ANNOT_PLUS = "+"


@dataclass
class Token:
    """One lexical token.

    ``offset``/``end`` index into the originating text, which is what the
    transformation stage uses to produce byte-accurate edits.  ``annot`` and
    ``pline`` are only populated for SmPL pattern tokens (the annotation of
    the pattern line the token came from, and that line's index).
    """

    kind: TokenKind
    value: str
    offset: int
    end: int
    line: int
    col: int
    annot: Optional[str] = None
    pline: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.value!r}, @{self.line}:{self.col})"

    def is_punct(self, *values: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value in values

    def is_ident(self, *names: str) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return not names or self.value in names

    def with_annotation(self, annot: str, pline: int) -> "Token":
        return replace(self, annot=annot, pline=pline)


# Multi-character punctuators, longest first.  ``<<<``/``>>>`` are the CUDA
# kernel-launch chevrons the paper's CUDA->HIP rules must recognise.
_PUNCTUATORS = [
    "<<<", ">>>",
    "<<=", ">>=", "...", "->*", "::*",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::", "##", "=~",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":", "#", "@",
]

_SMPL_ESCAPES = {
    "\\(": TokenKind.DISJ_OPEN,
    "\\|": TokenKind.DISJ_OR,
    "\\&": TokenKind.CONJ_AND,
    "\\)": TokenKind.DISJ_CLOSE,
}

#: an identifier or keyword; also the word shape of :func:`scan_word_tokens`
_IDENT_PATTERN = r"[A-Za-z_$][A-Za-z0-9_$]*"

_DEC_RUN = r"[0-9]+(?:'[0-9]+)*"
_HEX_RUN = r"[0-9a-fA-F]+(?:'[0-9a-fA-F]+)*"

#: a numeric literal after its first character, which a lookbehind
#: inspects: hex, or decimal with at most one dot before an optional signed
#: exponent (``e`` only counts when a digit or sign follows), then
#: ``uUlLfF`` suffixes.  A ``'`` digit separator (C++14, C23) belongs to the
#: number only between two digits of its base.  Matching the first
#: character outside the tail lets :func:`after_number` start with a plain
#: character class, which ``re`` searches for quickly.
_NUMBER_TAIL = (
    rf"(?:(?<=0)[xX](?:{_HEX_RUN})?"
    rf"|(?:(?<=[0-9])[0-9]*(?:'[0-9]+)*(?:\.(?:{_DEC_RUN})?)?|(?<=\.){_DEC_RUN})"
    rf"(?:[eE](?=[0-9+-])[+-]?(?:{_DEC_RUN})?)?)"
    r"[uUlLfF]*"
)
_NUMBER_PATTERN = "[0-9.]" + _NUMBER_TAIL

# Whitespace (form feed and vertical tab included) and stray line
# continuations, then at most one comment.  ``open`` is a block comment with
# no end.
_TRIVIA_RE = re.compile(
    r"(?:[ \t\r\n\f\v]+|\\\n)*"
    r"(?:(?P<comment>//[^\n]*|/\*.*?\*/)|(?P<open>/\*))?", re.S)

# One token.  The groups are tried in order and named after the token kind
# (``HASH`` is the ``#``/``##`` punctuator, which may start a directive).  The
# ``...`` group precedes the punctuators, among which only ``.`` also starts
# with a dot.  No group matches ``\`` (SmPL escapes, handled in Python) or an
# unterminated string or character literal.
_TOKEN_RE = re.compile(
    rf"(?P<IDENT>{_IDENT_PATTERN})"
    rf"|(?P<NUMBER>{_NUMBER_PATTERN})"
    r'|(?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*")'
    r"|(?P<CHAR>'[^'\\]*(?:\\.[^'\\]*)*')"
    r"|(?P<DOTS>\.\.\.)"
    r"|(?P<HASH>##|#)"
    r"|(?P<PUNCT>" + "|".join(map(re.escape, _PUNCTUATORS)) + ")",
    re.S)

_GROUP_KINDS = {
    "IDENT": TokenKind.IDENT, "NUMBER": TokenKind.NUMBER,
    "STRING": TokenKind.STRING, "CHAR": TokenKind.CHAR,
    "DOTS": TokenKind.DOTS, "HASH": TokenKind.PUNCT, "PUNCT": TokenKind.PUNCT,
}


class Lexer:
    """Tokenizer over a :class:`SourceFile`.

    Parameters
    ----------
    source:
        The file to tokenize.
    smpl_mode:
        Enable the SmPL-only tokens (escaped disjunction markers, ``...`` as
        a DOTS token, ``@``/``=~``/``##`` punctuators).  In plain C mode
        ``...`` is also emitted as DOTS (it only occurs in parameter lists as
        varargs, which the parser handles).
    directives_as_tokens:
        Lex ``#``-lines as single DIRECTIVE tokens (the default).  When
        disabled, ``#`` is an ordinary punctuator (used when tokenizing the
        *interior* of a pragma line).

    ``comments`` lists the ``(start, end)`` offsets of every comment skipped.
    """

    def __init__(self, source: SourceFile, smpl_mode: bool = False,
                 directives_as_tokens: bool = True):
        self.source = source
        self.text = source.text
        self.smpl_mode = smpl_mode
        self.directives_as_tokens = directives_as_tokens
        self.comments: list[tuple[int, int]] = []

    def _error(self, message: str, offset: int) -> LexError:
        loc = self.source.location(offset)
        return LexError(message, self.source.name, loc.line, loc.col)

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a final EOF token.

        Each step skips trivia with one regex match, then matches one token
        with another.  Lines and columns are carried forward by counting the
        newlines between consecutive token starts."""
        text = self.text
        n = len(text)
        trivia = _TRIVIA_RE.match
        token = _TOKEN_RE.match
        count = text.count
        kinds = _GROUP_KINDS
        comments = self.comments
        directives = self.directives_as_tokens
        tokens: list[Token] = []
        append = tokens.append
        pos = line_start = last = 0
        line = 1
        while True:
            m = trivia(text, pos)
            while m.lastgroup is not None:
                if m.lastgroup == "open":
                    raise self._error("unterminated block comment", m.start("open"))
                comments.append(m.span("comment"))
                m = trivia(text, m.end())
            pos = m.end()
            newlines = count("\n", last, pos)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", last, pos) + 1
            last = pos
            if pos >= n:
                append(Token(TokenKind.EOF, "", n, n, line, n - line_start))
                return tokens
            m = token(text, pos)
            if m is not None:
                group = m.lastgroup
                end = m.end()
                if group == "HASH" and directives and not text[line_start:pos].strip(" \t"):
                    value, end = self._lex_directive(pos)
                    append(Token(TokenKind.DIRECTIVE, value, pos, end, line, pos - line_start))
                else:
                    append(Token(kinds[group], m.group(), pos, end, line, pos - line_start))
                pos = end
                continue
            two = text[pos:pos + 2]
            if self.smpl_mode and two in _SMPL_ESCAPES:
                append(Token(_SMPL_ESCAPES[two], two, pos, pos + 2, line, pos - line_start))
                pos += 2
                continue
            if two[0] in "\"'":
                raise self._error("unterminated literal", pos)
            raise self._error(f"unexpected character {two[0]!r}", pos)

    def _lex_directive(self, start: int) -> tuple[str, int]:
        """Lex a whole ``#...`` logical line (merging ``\\`` continuations):
        its normalised value and its end offset."""
        text = self.text
        end = start
        while True:
            end = text.find("\n", end)
            if end < 0:
                end = len(text)
                break
            # merged continuation?
            back = end - 1
            while back > start and text[back] in " \t\r":
                back -= 1
            if text[back] != "\\":
                break
            end += 1
        raw = text[start:end]
        # normalise continuations and collapse whitespace runs in the value;
        # the raw extent is still [start, end) for edit purposes.
        return " ".join(raw.replace("\\\n", " ").replace("\\\r\n", " ").split()), end


def tokenize(text: str, name: str = "<string>", smpl_mode: bool = False,
             directives_as_tokens: bool = True) -> list[Token]:
    """Convenience wrapper: tokenize a string into a token list (with EOF)."""
    src = SourceFile(name=name, text=text)
    return Lexer(src, smpl_mode=smpl_mode,
                 directives_as_tokens=directives_as_tokens).tokenize()


def tokenize_pragma_text(text: str) -> list[str]:
    """Split the body of a ``#pragma`` (after the ``#pragma`` keyword) into
    word/punctuation tokens.  Used for prefix matching of pragma patterns
    such as ``#pragma omp ...``."""
    toks: list[str] = []
    try:
        for tok in tokenize(text, directives_as_tokens=False):
            if tok.kind is TokenKind.EOF:
                break
            toks.append(tok.value)
    except LexError:
        toks = text.split()
    return toks


_WORD_SCAN_RE = re.compile(_IDENT_PATTERN)


def after_number(word: str) -> str:
    """Regex source matching, at every offset, a numeric literal immediately
    followed by ``word`` (captured as group ``word``).  Only the literal's
    first character is consumed, so matches may overlap.

    The lexer ends a number before any letter the number pattern rejects, so
    an identifier can start inside a run of identifier characters:
    ``100us`` lexes as ``100u`` ``s`` and ``0x1g`` as ``0x1`` ``g``.  The
    inner lookahead and back-reference make the number atomic, so it ends
    exactly where the lexer's would."""
    return (rf"[0-9.](?=(?=(?P<number>{_NUMBER_TAIL}))(?P=number)"
            rf"(?P<word>{word}))")


_GLUED_WORD_RE = re.compile(after_number(_IDENT_PATTERN))


def scan_word_tokens(text: str) -> set[str]:
    """Lightweight token scan: the set of identifier-like words in ``text``.

    This is the prefilter's view of a file: a superset of the IDENT token
    values the full lexer would produce (words inside comments, strings and
    directives are included, which only makes the scan more conservative).
    An IDENT token either follows a character that cannot continue an
    identifier, so the plain word scan starts there too, or follows a
    numeric literal (see :func:`after_number`), which the second scan
    covers.  It never raises — unterminated literals or stray characters
    that would make :class:`Lexer` error are simply skipped over — and runs
    an order of magnitude faster than full tokenization, which is what makes
    it usable as a per-code-base index."""
    words = set(_WORD_SCAN_RE.findall(text))
    words.update(match["word"] for match in _GLUED_WORD_RE.finditer(text))
    return words
