"""One parse tree per text across language modes.

The tree cache keys a tree on what the parser reads, and a tree whose
parse no C++-gated branch decided (``ParseTree.cxx_decided`` unset) is
stored under a mode-free key that C and C++ callers share.  The contract
under test: a tree a cache serves is always the tree a fresh
:func:`~repro.lang.parser.parse_source` builds in the asking mode (the
same token values and offsets, an equal unit dump, equal
``known_types``), and a text is mode-free in both modes or in neither.

The inputs are every text the tree cache is asked for while the full
cookbook runs on every ``repro.workloads`` generator, while the golden
corpus is rebuilt and while the edit-script fuzzer's quick seeds run cold,
plus one case per gated parser site, each asked for in both orders (C
first, C++ first).
"""

import random

import pytest

from repro import CodeBase, PatchSet
from repro.cookbook import full_modernization_pipeline
from repro.engine.cache import TreeCache
from repro.lang.parser import ParseTree, parse_source
from repro.options import SpatchOptions

import test_golden_corpus as golden
from test_fuzz_incremental import (SMOKE_SEEDS, STEPS_PER_SEED,
                                   _build_patchset, _init_case, _mutate)
from test_matcher_differential import _every_generator

C = SpatchOptions()
CXX = SpatchOptions(cxx=17)
ORDERS = [(C, CXX), (CXX, C)]
ORDER_IDS = ["c_first", "cxx_first"]


def _token_view(tree: ParseTree) -> list[tuple]:
    return [(tok.kind, tok.value, tok.offset, tok.end) for tok in tree.tokens]


def assert_same_tree(served: ParseTree, fresh: ParseTree) -> None:
    assert _token_view(served) == _token_view(fresh)
    assert repr(served.unit) == repr(fresh.unit)
    assert served.known_types == fresh.known_types
    assert served.cxx_decided == fresh.cxx_decided


def assert_served_exactly(text: str) -> bool:
    """Ask fresh caches for ``text`` in both orders of modes and compare
    every answer with a fresh parse in the asking mode.  Returns whether
    the text is mode-free."""
    fresh = {options: parse_source(text, name="t.c", options=options,
                                   tolerant=True)
             for options in (C, CXX)}
    assert fresh[C].cxx_decided == fresh[CXX].cxx_decided
    shared = not fresh[C].cxx_decided
    for first, second in ORDERS:
        cache = TreeCache()
        stored = cache.get_or_parse(text, "t.c", first)
        served = cache.get_or_parse(text, "t.c", second)
        assert_same_tree(stored, fresh[first])
        assert_same_tree(served, fresh[second])
        assert (served is stored) == shared
        assert len(cache) == (1 if shared else 2)
    return shared


def _asked_texts(monkeypatch, run) -> list[str]:
    """Every distinct text any tree cache is asked for while ``run`` runs."""
    texts: dict[str, None] = {}
    get_or_parse = TreeCache.get_or_parse

    def recording(self, text, name, options):
        texts.setdefault(text)
        return get_or_parse(self, text, name, options)

    monkeypatch.setattr(TreeCache, "get_or_parse", recording)
    run()
    monkeypatch.undo()
    return list(texts)


def _run_generators():
    PatchSet(list(full_modernization_pipeline())).apply(
        _every_generator(), prefilter=False)


def _run_golden_corpus():
    for name in sorted(golden.COOKBOOK_WORKLOADS):
        golden._expected_diff(name)
    golden._expected_pipeline_diff()
    for fmt in golden.FRONTEND_GOLDENS.values():
        golden._expected_frontend_diff(fmt)


def _run_fuzz_quick_seeds():
    for seed in range(SMOKE_SEEDS):
        rng = random.Random(seed)
        files, descs = _init_case(rng)
        for step in range(STEPS_PER_SEED):
            _mutate(rng, files, descs, step)
            _build_patchset(descs).apply(CodeBase.from_files(dict(files)),
                                         jobs=1, prefilter=False)


@pytest.mark.parametrize("run", [_run_generators, _run_golden_corpus,
                                 _run_fuzz_quick_seeds],
                         ids=["generators", "golden_corpus", "fuzz_seeds"])
def test_shared_trees_equal_fresh_parses(monkeypatch, run):
    texts = _asked_texts(monkeypatch, run)
    assert texts
    shared = [text for text in texts if assert_served_exactly(text)]
    assert shared  # the corpus exercises the mode-free entries


#: one text per C++-gated parser site; C and C++ read each differently
GATED_SITES = {
    "range_for": "void f(int *xs) { for (auto &v : xs) v = 0; }\n",
    "lambda": "void f(int n) { g([=](int i) { return i + n; }); }\n",
    "dim3": "void f(int n) { dim3 grid(n); launch(grid); }\n",
    "constructor_init": "void f(int a, int b) { double x(a, b); use(x); }\n",
    "template_args": "void f(vector<int> v) { use(v); }\n",
}


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("site", sorted(GATED_SITES))
def test_gated_site_gets_a_tree_per_mode(site, order):
    text = GATED_SITES[site]
    first, second = order
    cache = TreeCache()
    stored = cache.get_or_parse(text, "s.c", first)
    served = cache.get_or_parse(text, "s.c", second)
    assert stored.cxx_decided and served.cxx_decided
    assert served is not stored
    assert repr(served.unit) != repr(stored.unit)
    assert len(cache) == 2
    for tree, options in ((stored, first), (served, second)):
        assert_same_tree(tree, parse_source(text, name="s.c",
                                            options=options, tolerant=True))


def test_c_mode_discards_what_a_cxx_attempt_declared():
    """Plain C tries the range-``for`` header only to learn that C++ would
    decide there: the attempt's body declares a type, and the C tree keeps
    none of it (the type name stays unknown after the loop)."""
    text = ("void f(int *xs) {\n"
            "  for (int v : xs) { typedef int cell; }\n"
            "  cell * w;\n}\n")
    c_tree = parse_source(text, options=C)
    cxx_tree = parse_source(text, options=CXX)
    assert c_tree.cxx_decided and cxx_tree.cxx_decided
    assert "cell" in cxx_tree.known_types
    assert "cell" not in c_tree.known_types


def test_pattern_parses_never_record_a_decision():
    from repro.lang.lexer import Lexer
    from repro.lang.parser import parse_tokens
    from repro.lang.source import SourceFile

    source = SourceFile(name="<pattern>", text="dim3 grid(n);\n")
    tokens = Lexer(source, smpl_mode=True).tokenize()
    parser = parse_tokens(tokens, source, options=CXX,
                          metavars={"n": "expression"}, tolerant=False)
    parser.parse_statement_list()
    assert not parser.cxx_decided
