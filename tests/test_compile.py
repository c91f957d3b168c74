"""Tests for the matcher (:mod:`repro.engine.compile`).

The contract under test is strict behavioural equality: for every cookbook
patch over every workload family, the compiled matcher must produce the
same output texts, the same per-rule match reports and the same
diagnostics as a run whose every match comes from the tree-walking
reference matcher in ``tests/reference_matcher.py`` — the two are the same
function, one of them just runs faster.  On top of the differential sweep
there are targeted units for the pieces with their own invariants: one
shared tree walk serving several rules, per-rule demultiplexing,
expression-list dots backtracking, the vectorized :class:`TokenQuery`
scan and the one compiled form per patch object.
"""

import pytest

from repro import CodeBase, PatchSet
from repro.engine.bindings import EMPTY_ENV
from repro.engine.compile import (CompiledPatch, CompiledRule,
                                  compiled_patch_for, matcher_counters)
from repro.engine.prefilter import PatchPrefilter, TokenQuery, scan_token_set
from repro.lang.parser import parse_source
from repro.obs import Capture
from repro.options import SpatchOptions
from repro.smpl.parser import parse_semantic_patch

from reference_matcher import Matcher, reference_backend
from test_pipeline_differential import ALL_COOKBOOK, _mini
from test_prefilter import _cookbook_patch

WORKLOAD_PARTS = ("omp", "gadget", "cuda", "acc", "raw", "unroll", "mv",
                  "rsb", "kokkos")


# ---------------------------------------------------------------------------
# reference vs. compiled: the full cookbook over every workload family
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
    the compiled matcher must be byte-identical to the reference."""
    patches = [_cookbook_patch(name) for name in ALL_COOKBOOK]
    codebase = _mini(part)
    with reference_backend():
        interp = PatchSet(patches).apply(codebase)
    compiled = PatchSet(patches).apply(codebase)
    _assert_identical(interp, compiled, part)


def test_differential_without_prefilter():
    """The prefilter must not mask a divergence: with it disabled every
    rule runs in every file, on either matcher."""
    patches = [_cookbook_patch(name) for name in ALL_COOKBOOK]
    codebase = _mini("gadget", "cuda")
    with reference_backend():
        interp = PatchSet(patches).apply(codebase, prefilter=False)
    compiled = PatchSet(patches).apply(codebase, prefilter=False)
    _assert_identical(interp, compiled, "no-prefilter")


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
    assert _signatures(got) == _signatures(ref)
    # the dedup the session applies collapses them to one instance per span,
    # but the raw enumeration must agree even before dedup
    assert len(got) == len(ref)


def test_expr_list_trailing_dots_and_pairs():
    patch = "@r@\nexpression A,B;\n@@\nmemcpy(A, B, ...)\n"
    code = ("void g(void) { memcpy(dst, src, n); memcpy(p, q, n, extra); "
            "memcpy(one); }")
    ref, got, crule = _both_backends(patch, code)
    assert _signatures(got) == _signatures(ref)


def test_statement_dots_sequence_parity():
    patch = ("@r@\nexpression E;\n@@\n- lock(E);\n  ...\n- unlock(E);\n")
    code = ("void g(void) { lock(m); a(); b(); unlock(m); lock(n); "
            "unlock(q); }")
    ref, got, crule = _both_backends(patch, code)
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
        assert _signatures(got) == _signatures(ref), patch_text


# ---------------------------------------------------------------------------
# one tree walk shared by rules, demultiplexed results
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


def test_rules_on_one_tree_share_one_index_walk():
    """Rules a and b probe the same (Call, callee) bucket of one
    :class:`NodeIndex`: the tree is walked once and the index reused."""
    patch = parse_semantic_patch(TRIE_PATCH)
    compiled = compiled_patch_for(patch, patch.options)
    tree = parse_source("void f(void) { old_free(p); if (x == y) g(); }",
                        "t.c", options=patch.options)
    rule_a, rule_b = patch.patch_rules()[:2]
    with Capture() as counts:
        found = [len(compiled.rule_for(rule).match_all(tree))
                 for rule in (rule_a, rule_b)]
    counters = matcher_counters(counts)
    assert found == [1, 1]
    assert counters["trees_indexed"] == 1
    assert counters["index_reuses"] >= 1


def test_unfilterable_rule_matches_every_candidate_of_its_kind():
    """A rule with no callee to file it under (``E1 = E2``) is answered
    from the index's node-type bucket: every assignment is a candidate
    and a match, and no other expression is visited."""
    patch = parse_semantic_patch("@r@\nexpression E1,E2;\n@@\n- E1 = E2\n")
    compiled = compiled_patch_for(patch, patch.options)
    tree = parse_source("void f(void) { a = 1; g(b = c); x == y; }",
                        "t.c", options=patch.options)
    rule = patch.patch_rules()[0]
    with Capture() as counts:
        found = compiled.rule_for(rule).match_all(tree)
    counters = matcher_counters(counts)
    assert len(found) == 2
    assert counters["candidates_visited"] == 2
    assert counters["candidates_filtered"] > 0


def test_shared_walk_demultiplexes_per_rule_reports():
    """Fused candidate enumeration must still attribute matches to the
    right rule: rule a rewrites the call, rule b then sees nothing (the
    session re-parses after an edit), rule c matches independently."""
    code = "void f(void) { old_free(p); if (x == y) g(); }"
    from repro.api import SemanticPatch

    def run():
        patch = SemanticPatch.from_string(TRIE_PATCH, name="trie")
        return patch.apply({"t.c": code}).files["t.c"]

    with reference_backend():
        reference = run()
    for backend, result in (("reference", reference), ("compiled", run())):
        reports = {r.rule: r.matches for r in result.rule_reports}
        assert reports == {"a": 1, "c": 1}, backend
        assert "new_free(p)" in result.text, backend


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
        "1ufoo 0xAUbar_2 2.fomp 3e5cudaMalloc",  # glued to a number
        "1ufoo ufoo",                    # both the glued and the plain word
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

    def test_regexes_compile_on_first_scan_once_across_threads(
            self, monkeypatch):
        """Building a query compiles nothing; its first scans, racing on
        more threads than cores with a short switch interval, compile the
        alternation once and all answer like a full scan."""
        import sys
        import threading

        from repro.engine import prefilter as prefilter_module

        compiles = []
        after_number = prefilter_module.after_number

        def counting(pattern):
            compiles.append(pattern)
            return after_number(pattern)

        monkeypatch.setattr(prefilter_module, "after_number", counting)
        texts = ["int foo; bar_2();", "k<<<g, n>>>(cudaMalloc)", "omp 1ufoo"]
        expected = [self._reference(text) for text in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _attempt in range(20):
                query = TokenQuery(self.UNIVERSE)
                assert compiles == []
                results = []
                start = threading.Barrier(8)

                def scan_all():
                    start.wait(timeout=10)
                    results.append([query.scan(text) for text in texts])

                threads = [threading.Thread(target=scan_all)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
                assert len(compiles) == 1
                compiles.clear()
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# one compiled form per patch object
# ---------------------------------------------------------------------------

class TestCompiledPatch:
    def test_one_compiled_form_per_patch_object_and_options(self):
        patch = parse_semantic_patch(TRIE_PATCH)
        twin = parse_semantic_patch(TRIE_PATCH)
        options = patch.options
        with Capture() as counts:
            compiled = compiled_patch_for(patch, options)
            rules = [compiled.rule_for(rule) for rule in patch.patch_rules()]
            assert compiled_patch_for(patch, options) is compiled
            assert all(compiled.rule_for(rule) is crule for rule, crule
                       in zip(patch.patch_rules(), rules))
        assert matcher_counters(counts)["rules_compiled"] == 3
        # an equal patch parsed again, or other options, is another form
        assert compiled_patch_for(twin, options) is not compiled
        other = SpatchOptions(apply_isomorphisms=not options.apply_isomorphisms)
        assert compiled_patch_for(patch, other) is not compiled

    def test_matcher_counters_shape(self):
        counters = matcher_counters()
        assert set(counters) == {
            "match_calls", "candidates_visited", "candidates_filtered",
            "rules_compiled", "trees_indexed", "index_reuses",
            "filter_rate", "fusion_factor"}


def test_rule_for_names_a_missing_rule():
    """Every rule a session applies belongs to the compiled patch; asking
    for one that does not is a caller bug, reported with the rule's name.
    An equal rule of another patch object is such a rule too."""
    patch = parse_semantic_patch(TRIE_PATCH)
    compiled = CompiledPatch(patch.patch_rules(), SpatchOptions())
    stranger = parse_semantic_patch("@zz@ @@\n- gone();\n").patch_rules()[0]
    twin = parse_semantic_patch(TRIE_PATCH).patch_rules()[0]
    assert twin == patch.patch_rules()[0]
    for rule, name in ((stranger, "zz"), (twin, "a")):
        with pytest.raises(KeyError, match=name):
            compiled.rule_for(rule)
