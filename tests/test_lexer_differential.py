"""Differential tier: the regex lexer against the character-at-a-time oracle.

:class:`repro.lang.lexer.Lexer` must agree with ``reference_lexer`` — the
scanner it replaced, kept in ``tests/`` — on every token's
``(kind, value, offset, end, line, col)``, on ``comments`` and on every
:class:`LexError` message, line and column, in all four
``smpl_mode`` × ``directives_as_tokens`` configurations.  Inputs:

* seeded random strings over a C/SmPL-heavy alphabet whose pieces sit on
  the lexer's edges (``.5.3``, ``1e+``, ``0x``, ``\\``-newline, ``/*`` with
  no end, form feeds, digit separators, ``=~``, ``##``, ``<<<``);
* every :mod:`repro.workloads` generator;
* the golden corpus: the patched side of every checked-in diff and the
  cookbook's semantic-patch sources.

The same inputs check the prefilter's soundness premise: the word scan
(:func:`scan_word_tokens`) finds every IDENT the lexer produces.

The default run is a quick fixed-seed sweep.  ``REPRO_FUZZ_SECONDS=N``
keeps drawing fresh seeds for the random-string tests until the budget
(split across them) is spent; a failure prints the seed, which
``REPRO_FUZZ_SEED=<seed>`` replays.
"""

import functools
import os
import pathlib
import random
import time

import pytest

import repro.workloads
from reference_lexer import ReferenceLexer
from repro.errors import LexError
from repro.lang.lexer import Lexer, TokenKind, scan_word_tokens
from repro.lang.source import SourceFile

#: (smpl_mode, directives_as_tokens)
CONFIGS = [(False, True), (False, False), (True, True), (True, False)]
CONFIG_IDS = ["c", "c-nodirectives", "smpl", "smpl-nodirectives"]

#: random strings per configuration in the quick sweep
SMOKE_STRINGS = 1500
#: nightly mode: spend this many seconds drawing seeds (0 = quick sweep)
FUZZ_SECONDS = float(os.environ.get("REPRO_FUZZ_SECONDS", "0") or 0)
#: replay hook: run exactly this seed (printed by a failing sweep)
FUZZ_SEED = os.environ.get("REPRO_FUZZ_SEED")

ALPHABET = list(
    "abexXfFuUlL_$0123456789.'\"\\/*\n \t\r\f\v#@+-<>=~!&|^%?:;,()[]{}`"
) + [
    ".5.3", "1e+", "1e", "0x", "0X1", "\\\n", "\\\r\n", "/*", "*/", "//",
    "1'0", "0xF'F", "=~", "##", "<<<", ">>>", "...", "->*", "::*",
    "\\(", "\\|", "\\&", "\\)", "#pragma omp ", "#define X 1 \\\n",
    "'a'", '"s\\"t"', "100us", "1.fx",
]

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _lex(lexer_class, text, smpl_mode, directives):
    lexer = lexer_class(SourceFile(name="f.c", text=text), smpl_mode=smpl_mode,
                        directives_as_tokens=directives)
    try:
        tokens = lexer.tokenize()
    except LexError as err:
        return ("error", err.message, err.line, err.col), lexer.comments
    return ([(t.kind, t.value, t.offset, t.end, t.line, t.col) for t in tokens],
            lexer.comments)


def assert_same_as_reference(text, smpl_mode, directives):
    """Both lexers agree on ``text``; returns the tokens (``None`` on error)."""
    expected = _lex(ReferenceLexer, text, smpl_mode, directives)
    actual = _lex(Lexer, text, smpl_mode, directives)
    assert actual == expected, (text, smpl_mode, directives)
    tokens = actual[0]
    return None if tokens[0] == "error" else tokens


def assert_scan_covers_idents(text, tokens):
    if tokens is None:
        return
    idents = {value for kind, value, *_ in tokens if kind is TokenKind.IDENT}
    missing = idents - scan_word_tokens(text)
    assert not missing, (text, missing)


def random_text(seed):
    rng = random.Random(seed)
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40)))


def _seeds(budget_share):
    """The quick sweep's seeds, then more until a time budget is spent."""
    if FUZZ_SEED is not None:
        yield int(FUZZ_SEED)
        return
    deadline = time.monotonic() + FUZZ_SECONDS * budget_share
    seed = 0
    while seed < SMOKE_STRINGS or time.monotonic() < deadline:
        yield seed
        seed += 1


def _check_seed(seed, check):
    try:
        check(random_text(seed))
    except AssertionError:
        print(f"\nLEXER FUZZ FAILURE: seed={seed}\n"
              f"replay: REPRO_FUZZ_SEED={seed} PYTHONPATH=src "
              f"python -m pytest tests/test_lexer_differential.py")
        raise


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _workload_texts():
    texts = []
    for name in repro.workloads.__all__:
        # librsb_like repeats one kernel template 288 times by default
        extra = {"combos_per_file": 24} if name == "librsb_like" else {}
        codebase = getattr(repro.workloads, name).generate(n_files=1, seed=1, **extra)
        texts.extend(text for _, text in sorted(codebase.files.items()))
    return tuple(texts)


def _patched_side(diff):
    """The new text of every hunk of a unified diff: what the patch made."""
    return "".join(line[1:] for line in diff.splitlines(keepends=True)
                   if line.startswith((" ", "+")) and not line.startswith("+++"))


@functools.lru_cache(maxsize=None)
def _golden_texts():
    from repro.cookbook import builders

    texts = [_patched_side(path.read_text())
             for path in sorted(GOLDEN_DIR.glob("*.diff"))]
    texts.extend(build().ast.source_text
                 for _, build in sorted(builders().items()))
    return tuple(texts)


CORPUS = {"workloads": _workload_texts, "golden": _golden_texts}


@pytest.mark.parametrize("corpus", sorted(CORPUS))
@pytest.mark.parametrize("smpl_mode,directives", CONFIGS, ids=CONFIG_IDS)
def test_corpus_matches_reference(corpus, smpl_mode, directives):
    for text in CORPUS[corpus]():
        tokens = assert_same_as_reference(text, smpl_mode, directives)
        assert_scan_covers_idents(text, tokens)


def test_corpus_is_mostly_lexable():
    """Meta-check: the corpus exercises tokens, not just error paths."""
    texts = _workload_texts() + _golden_texts()
    lexed = sum(_lex(Lexer, text, False, True)[0][0] != "error" for text in texts)
    assert lexed >= 0.9 * len(texts), (lexed, len(texts))


# ---------------------------------------------------------------------------
# random strings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("smpl_mode,directives", CONFIGS, ids=CONFIG_IDS)
def test_random_strings_match_reference(smpl_mode, directives):
    def check(text):
        tokens = assert_same_as_reference(text, smpl_mode, directives)
        assert_scan_covers_idents(text, tokens)

    for seed in _seeds(1 / len(CONFIGS)):
        _check_seed(seed, check)


def test_random_strings_reach_every_outcome():
    """Meta-check: the quick sweep produces every token kind the alphabet
    can spell, and every error."""
    kinds, errors = set(), set()
    for seed in range(SMOKE_STRINGS):
        for smpl_mode, directives in CONFIGS:
            tokens, _ = _lex(Lexer, random_text(seed), smpl_mode, directives)
            if tokens[0] == "error":
                errors.add(tokens[1].split(" ")[1])
            else:
                kinds.update(kind for kind, *_ in tokens)
    assert kinds == set(TokenKind), set(TokenKind) - kinds
    assert errors == {"block", "literal", "character"}, errors
