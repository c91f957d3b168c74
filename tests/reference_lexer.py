"""Character-at-a-time reference tokenizer: the oracle for the lexer.

:class:`repro.lang.lexer.Lexer` scans with one compiled master regex.  This
module keeps the straightforward scanner it replaced — one character at a
time, every punctuator tried with ``str.startswith``, every location looked
up through :meth:`SourceFile.location` — so that
``tests/test_lexer_differential.py`` can require both to agree on every
token's kind, value, extent, line and column, on the recorded comments and on
every :class:`LexError` message and position.

It is test-only and not tuned for speed.  Behaviour changes to the lexer must
be made here too, deliberately and in the same change.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.lexer import Token, TokenKind
from repro.lang.source import SourceFile

# Multi-character punctuators, longest first.
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

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_HEX_DIGITS = set("0123456789abcdefABCDEF")


class ReferenceLexer:
    """Same constructor and ``tokenize``/``comments`` surface as
    :class:`repro.lang.lexer.Lexer`."""

    def __init__(self, source: SourceFile, smpl_mode: bool = False,
                 directives_as_tokens: bool = True):
        self.source = source
        self.text = source.text
        self.smpl_mode = smpl_mode
        self.directives_as_tokens = directives_as_tokens
        self.pos = 0
        self.comments: list[tuple[int, int]] = []

    def _error(self, message: str, offset: int) -> LexError:
        loc = self.source.location(offset)
        return LexError(message, self.source.name, loc.line, loc.col)

    def _make(self, kind: TokenKind, value: str, start: int, end: int) -> Token:
        loc = self.source.location(start)
        return Token(kind=kind, value=value, offset=start, end=end,
                     line=loc.line, col=loc.col)

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            tok = self._next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                break
        return tokens

    def _skip_trivia(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "/" and self.pos + 1 < n and text[self.pos + 1] == "/":
                start = self.pos
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
                self.comments.append((start, self.pos))
            elif ch == "/" and self.pos + 1 < n and text[self.pos + 1] == "*":
                start = self.pos
                self.pos += 2
                while self.pos < n and not text.startswith("*/", self.pos):
                    self.pos += 1
                if self.pos >= n:
                    raise self._error("unterminated block comment", start)
                self.pos += 2
                self.comments.append((start, self.pos))
            elif ch == "\\" and self.pos + 1 < n and text[self.pos + 1] == "\n":
                self.pos += 2
            else:
                break

    def _at_line_start(self, offset: int) -> bool:
        i = offset - 1
        while i >= 0 and self.text[i] in " \t":
            i -= 1
        return i < 0 or self.text[i] == "\n"

    def _next_token(self) -> Token:
        self._skip_trivia()
        text, n = self.text, len(self.text)
        if self.pos >= n:
            return self._make(TokenKind.EOF, "", n, n)
        start = self.pos
        ch = text[start]

        if ch == "#" and self.directives_as_tokens and self._at_line_start(start):
            return self._lex_directive(start)

        if self.smpl_mode and ch == "\\" and start + 1 < n:
            two = text[start:start + 2]
            if two in _SMPL_ESCAPES:
                self.pos = start + 2
                return self._make(_SMPL_ESCAPES[two], two, start, self.pos)

        if ch in _IDENT_START:
            end = start + 1
            while end < n and text[end] in _IDENT_CONT:
                end += 1
            self.pos = end
            return self._make(TokenKind.IDENT, text[start:end], start, end)

        if ch in _DIGITS or (ch == "." and start + 1 < n and text[start + 1] in _DIGITS):
            return self._lex_number(start)

        if ch == '"':
            return self._lex_quoted(start, '"', TokenKind.STRING)
        if ch == "'":
            return self._lex_quoted(start, "'", TokenKind.CHAR)

        for punct in _PUNCTUATORS:
            if text.startswith(punct, start):
                end = start + len(punct)
                self.pos = end
                kind = TokenKind.DOTS if punct == "..." else TokenKind.PUNCT
                return self._make(kind, punct, start, end)

        raise self._error(f"unexpected character {ch!r}", start)

    def _lex_directive(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        end = start
        while end < n:
            if text[end] == "\n":
                back = end - 1
                while back > start and text[back] in " \t\r":
                    back -= 1
                if text[back] == "\\":
                    end += 1
                    continue
                break
            end += 1
        self.pos = end
        raw = text[start:end]
        value = " ".join(raw.replace("\\\n", " ").replace("\\\r\n", " ").split())
        return self._make(TokenKind.DIRECTIVE, value, start, end)

    def _separator(self, end: int, digits: set[str]) -> bool:
        """A digit separator: ``'`` between two digits of the literal's base."""
        text = self.text
        return (text[end] == "'" and text[end - 1] in digits
                and end + 1 < len(text) and text[end + 1] in digits)

    def _lex_number(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        end = start
        if text.startswith(("0x", "0X"), start):
            end = start + 2
            while end < n and (text[end] in _HEX_DIGITS or self._separator(end, _HEX_DIGITS)):
                end += 1
        else:
            seen_dot = seen_exp = False
            while end < n:
                c = text[end]
                if c in _DIGITS or self._separator(end, _DIGITS):
                    end += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    end += 1
                elif c in "eE" and not seen_exp and end + 1 < n and (
                        text[end + 1] in _DIGITS or text[end + 1] in "+-"):
                    seen_exp = True
                    end += 1
                    if text[end] in "+-":
                        end += 1
                else:
                    break
        while end < n and text[end] in "uUlLfF":
            end += 1
        self.pos = end
        return self._make(TokenKind.NUMBER, text[start:end], start, end)

    def _lex_quoted(self, start: int, quote: str, kind: TokenKind) -> Token:
        text, n = self.text, len(self.text)
        end = start + 1
        while end < n and text[end] != quote:
            if text[end] == "\\" and end + 1 < n:
                end += 2
            else:
                end += 1
        if end >= n:
            raise self._error("unterminated literal", start)
        end += 1
        self.pos = end
        return self._make(kind, text[start:end], start, end)
