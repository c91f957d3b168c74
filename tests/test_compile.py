"""Tests for the compiled matcher backend (:mod:`repro.engine.compile`).

The contract under test is strict behavioural equality: for every cookbook
patch over every workload family, the compiled backend must produce the
same output texts, the same per-rule match reports and the same
diagnostics as the interpreted reference matcher — the two backends are
the same function, one of them just runs faster.  On top of the
differential sweep there are targeted units for the pieces with their own
invariants: the pattern trie's per-rule demultiplexing, ``match_expr_list``
dots backtracking, the vectorized :class:`TokenQuery` scan and the
fingerprint-keyed compile cache.
"""

import os

import pytest

from repro import CodeBase, PatchSet
from repro.engine.bindings import EMPTY_ENV
from repro.engine.compile import (CompiledPatch, CompiledRule, backend_enabled,
                                  clear_compile_cache, compile_cache_info,
                                  compiled_patch_for, evict_compiled,
                                  matcher_counters)
from repro.engine.matcher import Matcher
from repro.engine.prefilter import PatchPrefilter, TokenQuery, scan_token_set
from repro.lang.parser import parse_source
from repro.obs import REGISTRY, Capture
from repro.options import SpatchOptions
from repro.smpl.parser import parse_semantic_patch

from test_pipeline_differential import ALL_COOKBOOK, _mini
from test_prefilter import _cookbook_patch

WORKLOAD_PARTS = ("omp", "gadget", "cuda", "acc", "raw", "unroll", "mv",
                  "rsb", "kokkos")


# ---------------------------------------------------------------------------
# interpreted vs. compiled: the full cookbook over every workload family
# ---------------------------------------------------------------------------

def _assert_identical(interp, compiled, context):
    assert len(compiled.per_patch) == len(interp.per_patch), context
    for index, (ref, got) in enumerate(zip(interp.per_patch,
                                           compiled.per_patch)):
        assert set(got.files) == set(ref.files), (context, index)
        for filename in ref.files:
            where = (context, index, filename)
            assert got[filename].text == ref[filename].text, where
            assert got[filename].rule_reports == \
                ref[filename].rule_reports, where
            assert got[filename].diagnostics == \
                ref[filename].diagnostics, where
    assert list(compiled.files) == list(interp.files), context
    for filename in interp.files:
        assert compiled[filename].text == interp[filename].text, context


@pytest.mark.parametrize("part", WORKLOAD_PARTS)
def test_differential_full_cookbook(part):
    """Every cookbook patch, in pipeline order, over one workload family:
    the compiled backend must be byte-identical to the interpreter."""
    patches = [_cookbook_patch(name) for name in ALL_COOKBOOK]
    codebase = _mini(part)
    interp = PatchSet(patches).apply(codebase, compile=False)
    compiled = PatchSet(patches).apply(codebase, compile=True)
    _assert_identical(interp, compiled, part)


def test_differential_without_prefilter():
    """The prefilter must not mask a backend divergence: with it disabled
    every rule runs in every file, compiled and interpreted alike."""
    patches = [_cookbook_patch(name) for name in ALL_COOKBOOK]
    codebase = _mini("gadget", "cuda")
    interp = PatchSet(patches).apply(codebase, prefilter=False, compile=False)
    compiled = PatchSet(patches).apply(codebase, prefilter=False, compile=True)
    _assert_identical(interp, compiled, "no-prefilter")


def test_compiled_is_the_default_backend(monkeypatch):
    monkeypatch.delenv("REPRO_MATCHER", raising=False)
    assert backend_enabled(None) is True
    monkeypatch.setenv("REPRO_MATCHER", "interp")
    assert backend_enabled(None) is False
    # an explicit kwarg beats the environment in both directions
    assert backend_enabled(True) is True
    monkeypatch.setenv("REPRO_MATCHER", "compiled")
    assert backend_enabled(False) is False


# ---------------------------------------------------------------------------
# per-rule lowering against the reference matcher
# ---------------------------------------------------------------------------

def _both_backends(patch_text: str, code: str, rule_index: int = 0,
                   cxx: bool = False, env=EMPTY_ENV):
    patch = parse_semantic_patch(patch_text)
    options = patch.options if patch.options.cxx else \
        (SpatchOptions(cxx=17) if cxx else patch.options)
    rule = patch.patch_rules()[rule_index]
    tree = parse_source(code, "m.c", options=options)
    ref = Matcher(rule, tree, options=options).match_all(env)
    crule = CompiledRule(rule, options)
    got = crule.match_all(tree, env)
    return ref, got, crule


def _signatures(instances):
    return [inst.signature() for inst in instances]


def test_expr_list_dots_backtracking():
    """``f(..., E, ...)`` forces the expression-list matcher to try every
    split; the compiled ``mlist`` closure must enumerate the same set, in
    the same order, as the interpreter's recursion."""
    patch = "@r@\nexpression E;\n@@\nf(..., E, ...)\n"
    code = "void g(void) { f(a, b, c); f(); f(x); }"
    ref, got, crule = _both_backends(patch, code)
    assert not crule._fallback
    assert _signatures(got) == _signatures(ref)
    # the dedup the session applies collapses them to one instance per span,
    # but the raw enumeration must agree even before dedup
    assert len(got) == len(ref)


def test_expr_list_trailing_dots_and_pairs():
    patch = "@r@\nexpression A,B;\n@@\nmemcpy(A, B, ...)\n"
    code = ("void g(void) { memcpy(dst, src, n); memcpy(p, q, n, extra); "
            "memcpy(one); }")
    ref, got, crule = _both_backends(patch, code)
    assert not crule._fallback
    assert _signatures(got) == _signatures(ref)


def test_statement_dots_sequence_parity():
    patch = ("@r@\nexpression E;\n@@\n- lock(E);\n  ...\n- unlock(E);\n")
    code = ("void g(void) { lock(m); a(); b(); unlock(m); lock(n); "
            "unlock(q); }")
    ref, got, crule = _both_backends(patch, code)
    assert not crule._fallback
    assert _signatures(got) == _signatures(ref)


def test_isomorphism_parity_under_filters():
    """The candidate-root filters must admit isomorphic spellings: ``E++``
    also matches ``E += 1`` (and vice versa), ``v == k`` also matches
    ``k == v``, ``y[i+0]`` also matches ``y[i]``."""
    for patch_text, code in [
        ("@r@\nidentifier i;\n@@\n- i++\n+ step(i)\n",
         "void f(void) { a++; b += 1; d += 2; e = 1; }"),
        ("@r@\nidentifier v;\nconstant k;\n@@\nv == k\n",
         "void f(void) { if (x == 3) a(); if (4 == y) b(); }"),
        ("@r@\nidentifier i;\n@@\ny[i+0]\n",
         "void f(void) { q = y[i]; r = y[j+0]; s = z[i]; }"),
    ]:
        ref, got, crule = _both_backends(patch_text, code)
        assert not crule._fallback, patch_text
        assert _signatures(got) == _signatures(ref), patch_text


# ---------------------------------------------------------------------------
# the pattern trie: shared roots, demultiplexed results
# ---------------------------------------------------------------------------

TRIE_PATCH = """\
@a@
expression E;
@@
- old_free(E)
+ new_free(E)

@b@
expression E;
@@
- old_free(E)

@c@
expression X,Y;
@@
- X == Y
"""


def test_trie_fuses_shared_call_roots():
    patch = parse_semantic_patch(TRIE_PATCH)
    compiled = CompiledPatch(patch, patch.options)
    trie = compiled.trie()
    # rules a and b probe the same (Call, callee) bucket: one shared walk
    assert trie.rules_at("expr", "Call", "old_free") == ["a", "b"]
    assert trie.fusion_factor > 1.0
    assert trie.rules_at("expr", "BinaryOp") == ["c"]


def test_trie_demultiplexes_per_rule_reports():
    """Fused candidate enumeration must still attribute matches to the
    right rule: rule a rewrites the call, rule b then sees nothing (the
    session re-parses after an edit), rule c matches independently."""
    code = "void f(void) { old_free(p); if (x == y) g(); }"
    from repro.api import SemanticPatch

    for compile_flag in (False, True):
        patch = SemanticPatch.from_string(TRIE_PATCH, name="trie")
        result = patch.apply({"t.c": code}, compile=compile_flag)
        reports = {r.rule: r.matches for r in result.files["t.c"].rule_reports}
        assert reports == {"a": 1, "c": 1}, compile_flag
        assert "new_free(p)" in result.files["t.c"].text, compile_flag


def test_unfilterable_rule_lands_on_star_root():
    patch = parse_semantic_patch(
        "@r@\nexpression E1,E2;\n@@\n- E1 = E2\n")
    compiled = CompiledPatch(patch, patch.options)
    trie = compiled.trie()
    assert trie.rules_at("expr", "Assignment") == ["r"] or \
        trie.rules_at("expr", "*") == ["r"]


# ---------------------------------------------------------------------------
# the vectorized token-query scan
# ---------------------------------------------------------------------------

class TestTokenQuery:
    UNIVERSE = frozenset({"foo", "bar_2", "omp", "cudaMalloc", "<<<", ">>>"})

    def _reference(self, text):
        return self.UNIVERSE & scan_token_set(text)

    @pytest.mark.parametrize("text", [
        "int foo; bar_2(); /* omp */ \"cudaMalloc\"",
        "foo12 a1foo _foo foo_ foo",     # word-boundary traps
        "12foo",                         # digit prefix: lexes as 'foo'
        "a1foo",                         # letter+digit prefix: one token
        "k<<<grid, n>>>(x)",             # chevron punctuators
        "foo<<<bar_2>>>foo",
        "",                              # empty file
        "foofoo barbar_2 xomp",          # superstrings only
        "#pragma omp parallel for",
        "foo\nbar_2\r\nomp\tcudaMalloc",
    ])
    def test_matches_full_scan(self, text):
        query = TokenQuery(self.UNIVERSE)
        assert query.scan(text) == self._reference(text)

    def test_workload_texts_match_full_scan(self):
        codebase = _mini("omp", "cuda", "raw")
        for name in ALL_COOKBOOK:
            prefilter = PatchPrefilter(_cookbook_patch(name).ast)
            for text in codebase.files.values():
                full = scan_token_set(text)
                query = prefilter.scan_query(text)
                # same plan from either token set — the soundness contract
                assert prefilter.plan_for(query) == prefilter.plan_for(full), \
                    name

    def test_early_exit_still_complete(self):
        query = TokenQuery({"a", "b"})
        assert query.scan("b a b a b a") == {"a", "b"}

    def test_unfilterable_words_reported_present(self):
        # a non-identifier, non-chevron word cannot gate soundly: it must
        # always scan as present, never silently filter a rule out
        query = TokenQuery({"foo", "??!"})
        assert "??!" in query.scan("nothing here")
        assert query.scan("foo") == {"foo", "??!"}


# ---------------------------------------------------------------------------
# the fingerprint-keyed compile cache
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_twin_patches_share_a_compilation(self):
        clear_compile_cache()
        patch_a = parse_semantic_patch(TRIE_PATCH)
        patch_b = parse_semantic_patch(TRIE_PATCH)
        with Capture() as counts:
            compiled_a = compiled_patch_for(patch_a, patch_a.options)
            compiled_b = compiled_patch_for(patch_b, patch_b.options)
        assert compiled_a is compiled_b
        counters = matcher_counters(counts)
        assert counters["compile_cache_misses"] == 1
        assert counters["compile_cache_hits"] == 1
        # the twin rule resolves by name to the cached compilation's rule
        twin_rule = patch_b.patch_rules()[0]
        crule = compiled_a.rule_for(twin_rule)
        assert crule is not None and crule.rule.name == twin_rule.name

    def test_evict_compiled_drops_the_entry(self):
        clear_compile_cache()
        patch = parse_semantic_patch(TRIE_PATCH)
        compiled_patch_for(patch, patch.options)
        assert compile_cache_info()["entries"] == 1
        entries = REGISTRY.gauge("repro_compile_cache_entries")
        assert entries.value == 1
        assert evict_compiled(patch, patch.options) is True
        assert compile_cache_info()["entries"] == 0
        assert entries.value == 0
        assert evict_compiled(patch, patch.options) is False

    def test_engine_compile_kwarg_beats_environment(self, monkeypatch):
        from repro.engine.engine import Engine

        patch = parse_semantic_patch(TRIE_PATCH)
        monkeypatch.setenv("REPRO_MATCHER", "interp")
        assert Engine(patch).compiled() is None
        assert Engine(patch, compile=True).compiled() is not None
        monkeypatch.delenv("REPRO_MATCHER")
        assert Engine(patch, compile=False).compiled() is None
        assert Engine(patch).compiled() is not None

    def test_matcher_counters_shape(self):
        counters = matcher_counters()
        for key in ("match_calls", "candidates_visited",
                    "candidates_filtered", "filter_rate", "rules_compiled",
                    "rules_fallback", "compile_cache_hits", "trees_indexed",
                    "index_reuses", "fusion_factor"):
            assert key in counters
