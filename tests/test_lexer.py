"""Tests for the C/SmPL tokenizer."""

import pytest

from repro.cli.spatch import main as spatch_main
from repro.errors import LexError
from repro.lang.lexer import Lexer, TokenKind, tokenize, tokenize_pragma_text
from repro.lang.parser import parse_source
from repro.lang.source import SourceFile


def kinds(text, **kw):
    return [t.kind for t in tokenize(text, **kw) if t.kind is not TokenKind.EOF]


def values(text, **kw):
    return [t.value for t in tokenize(text, **kw) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_identifiers_and_numbers(self):
        assert values("alpha x_1 _tmp 42 3.14 1e-3 0x1F 10UL") == \
            ["alpha", "x_1", "_tmp", "42", "3.14", "1e-3", "0x1F", "10UL"]

    def test_kinds(self):
        assert kinds("a 1 \"s\" 'c' +") == [TokenKind.IDENT, TokenKind.NUMBER,
                                            TokenKind.STRING, TokenKind.CHAR,
                                            TokenKind.PUNCT]

    def test_float_without_leading_digit(self):
        assert values(".5 + x")[0] == ".5"

    def test_string_with_escapes(self):
        assert values(r'"a\"b\n"') == [r'"a\"b\n"']

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("int a; ` b;")

    def test_digit_separators(self):
        assert values("1'000'000 0xFF'FF 1'0.2'5e1'0f") == \
            ["1'000'000", "0xFF'FF", "1'0.2'5e1'0f"]

    def test_separator_only_between_digits_of_the_base(self):
        assert values("0x'1' 1'e' 1.'2'") == ["0x", "'1'", "1", "'e'", "1.", "'2'"]
        assert values("09'a'") == ["09", "'a'"]

    @pytest.mark.parametrize("text, expected", [
        ("int a; ` b;", (1, 7, "unexpected character '`'")),
        ("int a;\n  /* oops", (2, 2, "unterminated block comment")),
        ("x = 1;\ny = 'a", (2, 4, "unterminated literal")),
        ("x = \"abc\\", (1, 4, "unterminated literal")),
    ])
    def test_error_positions(self, text, expected):
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert (info.value.line, info.value.col, info.value.message) == expected


class TestOperators:
    def test_multichar_operators(self):
        assert values("a += b == c && d <<= e -> f :: g ## h") == \
            ["a", "+=", "b", "==", "c", "&&", "d", "<<=", "e", "->", "f", "::",
             "g", "##", "h"]

    def test_chevrons(self):
        toks = values("k<<<grid, block>>>(x)")
        assert "<<<" in toks and ">>>" in toks

    def test_shift_still_works(self):
        assert values("a << b >> c") == ["a", "<<", "b", ">>", "c"]

    def test_ellipsis_is_dots_kind(self):
        toks = tokenize("f(int a, ...)")
        dots = [t for t in toks if t.kind is TokenKind.DOTS]
        assert len(dots) == 1 and dots[0].value == "..."


class TestCommentsAndTrivia:
    def test_line_comment_skipped(self):
        assert values("int a; // comment with * tokens\nint b;") == \
            ["int", "a", ";", "int", "b", ";"]

    def test_block_comment_skipped(self):
        assert values("int /* hi */ a;") == ["int", "a", ";"]

    def test_form_feed_and_vertical_tab_are_whitespace(self):
        toks = tokenize("int a;\f\n\vint b;\f")
        assert [t.value for t in toks[:-1]] == ["int", "a", ";", "int", "b", ";"]
        assert (toks[3].line, toks[3].col) == (2, 1)

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("int a; /* oops")

    def test_comment_offsets_recorded(self):
        src = SourceFile(name="x.c", text="int a; /* c */ int b;")
        lexer = Lexer(src)
        lexer.tokenize()
        assert lexer.comments and src.text[slice(*lexer.comments[0])] == "/* c */"


class TestDirectives:
    def test_include_directive_single_token(self):
        toks = tokenize('#include <omp.h>\nint a;')
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert toks[0].value == "#include <omp.h>"

    def test_pragma_with_continuation_merged(self):
        text = "#pragma acc parallel loop \\\n    copyin(x[0:n])\nint a;"
        toks = tokenize(text)
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert "copyin(x[0:n])" in toks[0].value
        assert "\\" not in toks[0].value
        # the raw extent still covers both physical lines
        assert text[toks[0].offset:toks[0].end].count("\n") == 1

    def test_hash_mid_line_not_a_directive(self):
        # '#' not at start of line: stays an ordinary punct (e.g. in macros)
        toks = tokenize("a # b")
        assert [t.value for t in toks[:3]] == ["a", "#", "b"]

    def test_directives_disabled(self):
        toks = tokenize("#pragma omp for", directives_as_tokens=False)
        assert toks[0].value == "#"

    def test_offsets_and_positions(self):
        toks = tokenize("int a;\n  double b;")
        b_tok = [t for t in toks if t.value == "b"][0]
        assert (b_tok.line, b_tok.col) == (2, 9)

    def test_positions_after_multiline_tokens(self):
        text = '#define X \\\n 1\ns = "a\\\nb"; /* c\n */ t;'
        toks = tokenize(text)
        assert [(t.value, t.line, t.col) for t in toks] == [
            ("#define X 1", 1, 0), ("s", 3, 0), ("=", 3, 2),
            ('"a\\\nb"', 3, 4), (";", 4, 2), ("t", 5, 4), (";", 5, 5),
            ("", 5, 6)]


class TestSmplMode:
    def test_escaped_disjunction_tokens(self):
        toks = tokenize(r"\( a \| b \& c \)", smpl_mode=True)
        assert [t.kind for t in toks[:1]] == [TokenKind.DISJ_OPEN]
        kinds_present = {t.kind for t in toks}
        assert TokenKind.DISJ_OR in kinds_present
        assert TokenKind.CONJ_AND in kinds_present
        assert TokenKind.DISJ_CLOSE in kinds_present

    def test_escapes_not_recognised_outside_smpl_mode(self):
        with pytest.raises(LexError):
            tokenize(r"\( a \)")

    def test_at_and_regex_operators(self):
        assert values("fn@p =~", smpl_mode=True) == ["fn", "@", "p", "=~"]

    def test_annotation_defaults(self):
        tok = tokenize("x", smpl_mode=True)[0]
        assert tok.annot is None and tok.pline == -1
        annotated = tok.with_annotation("-", 3)
        assert annotated.annot == "-" and annotated.pline == 3


class TestPragmaTextTokenizer:
    def test_words_and_punct(self):
        assert tokenize_pragma_text("omp parallel for reduction(+:acc)") == \
            ["omp", "parallel", "for", "reduction", "(", "+", ":", "acc", ")"]

    def test_empty(self):
        assert tokenize_pragma_text("") == []


class TestRealWorldInputs:
    """Inputs found in real HPC sources; a lexer error on one file would
    abort the whole run."""

    def test_separator_literal_parses_as_int(self):
        tree = parse_source("int x = 1'000'000;", "sep.c")
        literal = tree.unit.decls[0].declarators[0].init
        assert (literal.value, literal.category) == ("1'000'000", "int")

    def test_tree_with_form_feed_and_separators_is_patched(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        # ^L page break between two functions, as in older GNU sources
        (tree / "paged.c").write_text(
            "void f(void) { old(); }\n\f\nvoid g(void) { old(); }\n")
        (tree / "sep.c").write_text(
            "int big = 1'000'000;\nvoid h(void) { old(); }\n")
        patch = tmp_path / "p.cocci"
        patch.write_text("@r@ @@\n- old();\n+ new_call();\n")
        rc = spatch_main(["--sp-file", str(patch), "--in-place", str(tree)])
        assert rc == 0, capsys.readouterr().err
        assert (tree / "paged.c").read_text().count("new_call();") == 2
        assert "\f" in (tree / "paged.c").read_text()
        assert (tree / "sep.c").read_text() == \
            "int big = 1'000'000;\nvoid h(void) { new_call(); }\n"
