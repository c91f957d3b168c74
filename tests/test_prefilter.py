"""Differential and unit tests for the required-token prefilter.

The prefilter's contract is stronger than "same patched text": gating a rule
(or skipping a file) must be observably identical to the rule matching
nothing.  The differential tests therefore compare texts *and* per-rule
reports between prefilter-on and prefilter-off application for every
cookbook patch × its matching workload.
"""

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.engine import prefilter as prefilter_module
from repro.engine.prefilter import (MAX_CACHED_SCANS, PatchPrefilter,
                                    required_tokens, scan_token_set,
                                    token_set)
from repro.lang.lexer import TokenKind, tokenize


# ---------------------------------------------------------------------------
# cookbook patch × matching workload differential suite
# ---------------------------------------------------------------------------

def _openmp():
    from repro.workloads import openmp_kernels
    return openmp_kernels.generate(n_files=2, kernels_per_file=2,
                                   regions_per_file=2, seed=7)


def _gadget():
    from repro.workloads import gadget
    return gadget.generate(n_files=2, loops_per_file=2,
                           grid_kernels_per_file=2, seed=7)


COOKBOOK_WORKLOADS = {
    "likwid_instrumentation": _openmp,
    "declare_variant": _openmp,
    "target_multiversioning": _openmp,
    "bloat_removal": lambda: __import__(
        "repro.workloads.multiversion_app", fromlist=["generate"]
    ).generate(n_files=2, clone_sets_per_file=2, seed=7),
    "reroll_p0": lambda: __import__(
        "repro.workloads.unrolled", fromlist=["generate"]
    ).generate(n_files=2, unrolled_per_file=2, impostors_per_file=1, seed=7),
    "reroll_p1r1": lambda: __import__(
        "repro.workloads.unrolled", fromlist=["generate"]
    ).generate(n_files=2, unrolled_per_file=2, impostors_per_file=1, seed=7),
    "mdspan_multiindex": _gadget,
    "cuda_to_hip": lambda: __import__(
        "repro.workloads.cuda_app", fromlist=["generate"]
    ).generate(n_files=2, seed=7),
    "acc_to_omp": lambda: __import__(
        "repro.workloads.openacc_app", fromlist=["generate"]
    ).generate(n_files=2, loops_per_file=3, seed=7),
    "raw_loop_to_find": lambda: __import__(
        "repro.workloads.rawloops", fromlist=["generate"]
    ).generate(n_files=2, searches_per_file=3, counters_per_file=1, seed=7),
    "kokkos_lambda": lambda: __import__(
        "repro.workloads.kokkos_exercise", fromlist=["generate"]
    ).generate(n_files=1, seed=7),
    "gcc_workaround": lambda: __import__(
        "repro.workloads.librsb_like", fromlist=["generate"]
    ).generate(n_files=2, seed=7),
}


def _cookbook_patch(name: str) -> SemanticPatch:
    if name == "mdspan_multiindex":
        # the CLI default targets an array literally named 'a'; point the
        # same cookbook patch at the arrays the GADGET workload declares
        from repro.cookbook import mdspan
        return mdspan.multiindex_patch_for_arrays({"rho": 3, "phi": 3})
    from repro.cookbook import builders
    return builders()[name]()


@pytest.mark.parametrize("name", sorted(COOKBOOK_WORKLOADS))
def test_differential_prefilter_on_off(name):
    """prefilter on and off must produce byte-identical results on every
    cookbook patch applied to its matching workload."""
    workload = COOKBOOK_WORKLOADS[name]()
    baseline = _cookbook_patch(name).apply(workload, prefilter=False)
    filtered = _cookbook_patch(name).apply(workload, prefilter=True)

    assert set(baseline.files) == set(filtered.files)
    for filename in baseline.files:
        assert filtered[filename].text == baseline[filename].text, filename
        assert filtered[filename].rule_reports == \
            baseline[filename].rule_reports, filename
    assert filtered.total_matches == baseline.total_matches
    # the pairing is meaningful: the patch actually does something here
    assert baseline.total_matches > 0


@pytest.mark.parametrize("name", sorted(COOKBOOK_WORKLOADS))
def test_differential_on_irrelevant_codebase(name):
    """On a code base the patch has nothing to do with, the prefilter must
    still be invisible (and files it skips must come back untouched)."""
    codebase = CodeBase.from_files({
        "plain.c": "int add(int a, int b) { return a + b; }\n",
        "strings.c": 'const char *s = "cudaMalloc kernels <<<look>>>";\n',
    })
    baseline = _cookbook_patch(name).apply(codebase, prefilter=False)
    filtered = _cookbook_patch(name).apply(codebase, prefilter=True)
    for filename in codebase:
        assert filtered[filename].text == baseline[filename].text


# ---------------------------------------------------------------------------
# required-token extraction unit tests
# ---------------------------------------------------------------------------

def _only_rule(patch_text: str):
    ast = SemanticPatch.from_string(patch_text).ast
    return ast.patch_rules()[0]


class TestRequiredTokens:
    def test_literal_identifiers_are_required(self):
        rule = _only_rule("@r@ @@\n- old_api();\n+ new_api();\n")
        required = required_tokens(rule)
        assert "old_api" in required
        assert "new_api" not in required  # plus material is never required

    def test_metavariables_are_not_required(self):
        rule = _only_rule("@r@\nidentifier fn;\nexpression list el;\n"
                          "position p;\n@@\nfn@p(el)\n")
        assert required_tokens(rule) == frozenset()

    def test_inherited_metavariables_are_not_required(self):
        # inherited metavariables are "optional" from the file's point of
        # view: their binding comes from another rule's environment
        text = ("@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                "@b@\nidentifier a.f;\n@@\n- f();\n")
        ast = SemanticPatch.from_string(text).ast
        rule_b = ast.patch_rules()[1]
        assert required_tokens(rule_b) == frozenset()

    def test_disjunction_tokens_are_not_required(self):
        rule = _only_rule("@r@ @@\nanchor_call();\n(\n- left_call();\n|\n"
                          "- right_call();\n)\n")
        required = required_tokens(rule)
        assert "anchor_call" in required
        assert "left_call" not in required and "right_call" not in required

    def test_chevrons_are_required_but_other_punct_is_not(self):
        from repro.cookbook import cuda_hip
        rule = cuda_hip.kernel_launch_patch().ast.patch_rules()[0]
        required = required_tokens(rule)
        assert "<<<" in required and ">>>" in required
        assert "(" not in required and "," not in required

    def test_directive_words_up_to_dots(self):
        rule = _only_rule("@r@ @@\n#pragma omp parallel ...\n{\n+ MARK();\n"
                          "...\n}\n")
        required = required_tokens(rule)
        assert {"pragma", "omp", "parallel"} <= required

    def test_directive_words_after_pragmainfo_metavar_not_required(self):
        # pragma matching is prefix-based and a pragmainfo metavariable
        # absorbs the rest of the line: literal words after it are optional
        rule = _only_rule("@r@\npragmainfo P;\n@@\n- #pragma omp P distinctiveword\n")
        required = required_tokens(rule)
        assert {"pragma", "omp"} <= required
        assert "distinctiveword" not in required and "P" not in required

    def test_include_directive_words(self):
        rule = _only_rule("@r@ @@\n#include <omp.h>\n+ #include <likwid.h>\n")
        required = required_tokens(rule)
        assert {"include", "omp", "h"} <= required
        assert "likwid" not in required

    def test_numbers_are_not_required(self):
        # E + 0 / E += 1 isomorphisms mean numeric literals can match other
        # spellings; they must never gate a file
        rule = _only_rule("@r@\nidentifier i;\n@@\n- i = i + 0;\n")
        assert not any(tok.isdigit() for tok in required_tokens(rule))


class TestScanTokenSet:
    def test_words_and_chevrons(self):
        tokens = scan_token_set("k<<<grid, block>>>(arg); // cudaFree later\n")
        assert {"k", "grid", "block", "arg", "cudaFree", "<<<", ">>>"} <= tokens

    def test_scan_never_raises_on_broken_sources(self):
        # an unterminated literal would make the full lexer error out
        tokens = scan_token_set('const char *s = "unterminated\nint next_sym;\n')
        assert "next_sym" in tokens

    def test_identifiers_glued_to_numbers(self):
        # the lexer ends a number before a letter it rejects: ``100us`` is
        # ``100u`` ``s``, ``0x1g`` is ``0x1`` ``g``, ``1.fx`` is ``1.f`` ``x``
        text = "sleep_for(100us); y = 0x1g + 1.fx + 1e5z;"
        idents = {t.value for t in tokenize(text) if t.kind is TokenKind.IDENT}
        assert {"s", "g", "x", "z"} <= idents <= scan_token_set(text)


# ---------------------------------------------------------------------------
# file-plan semantics
# ---------------------------------------------------------------------------

class TestTokenIndexStaleness:
    def test_direct_files_mutation_is_picked_up(self):
        # `files` is a public dict and was always mutable in place; the
        # prefilter must scan the text it is handed, never an older copy
        codebase = CodeBase.from_files({"a.c": "int main(void) { return 0; }\n"})
        patch = SemanticPatch.from_string("@r@ @@\n- old_fn();\n+ new_fn();\n")
        assert patch.apply(codebase).total_matches == 0
        codebase.files["a.c"] = "void f(void) { old_fn(); }\n"
        result = patch.apply(codebase)
        assert result.total_matches == 1
        assert "new_fn();" in result["a.c"].text

    def test_pragmainfo_suffix_pattern_matches_with_prefilter(self):
        # end-to-end repro of the directive-word unsoundness: the literal
        # word after the pragmainfo metavariable is absent from the file
        patch_text = "@r@\npragmainfo P;\n@@\n- #pragma omp P distinctiveword\n"
        code = {"a.c": "void f(void) {\n#pragma omp simd\nwork();\n}\n"}
        patch = SemanticPatch.from_string(patch_text)
        baseline = patch.apply(dict(code), prefilter=False)
        filtered = patch.apply(dict(code), prefilter=True)
        assert filtered["a.c"].text == baseline["a.c"].text
        assert filtered.total_matches == baseline.total_matches


class TestScanCache:
    """The planning scan goes through one process-wide, content-keyed LRU:
    a text scanned once is not scanned again, whatever patch list, code
    base or service plans it next."""

    TREE = {"a.c": "void f(void) { old_fn(); }\n",
            "b.c": "void g(void) { other(); }\n"}

    @staticmethod
    def rename(new):
        return SemanticPatch.from_string(
            f"@r@ @@\n- old_fn();\n+ {new}();\n")

    @pytest.fixture
    def scans(self, monkeypatch):
        token_set.cache_clear()
        calls = []

        def counted(text):
            calls.append(text)
            return scan_token_set(text)

        monkeypatch.setattr(prefilter_module, "scan_token_set", counted)
        yield calls
        token_set.cache_clear()

    def test_new_patch_over_an_unchanged_tree_scans_nothing_again(self,
                                                                  scans):
        # the authoring loop: the patch list changes, the tree does not
        codebase = CodeBase.from_files(dict(self.TREE))
        result = PatchSet([self.rename("first")]).apply(codebase)
        assert len(scans) == 2
        for new in ("second", "third"):
            result = PatchSet([self.rename(new)]).apply(codebase,
                                                        since=result)
            assert result["a.c"].text == f"void f(void) {{ {new}(); }}\n"
        assert len(scans) == 2

    def test_an_edited_text_is_scanned_and_answers_fresh(self, scans):
        codebase = CodeBase.from_files(dict(self.TREE))
        patch = self.rename("new_fn")
        assert patch.apply(codebase).total_matches == 1
        codebase["a.c"] = "void f(void) { nothing(); }\n"
        assert patch.apply(codebase).total_matches == 0
        assert scans[-1] == "void f(void) { nothing(); }\n"
        assert len(scans) == 3

    def test_another_code_base_with_the_same_texts_reuses_the_scans(
            self, scans):
        self.rename("x").apply(CodeBase.from_files(dict(self.TREE)))
        self.rename("y").apply(CodeBase.from_files(dict(self.TREE)))
        assert len(scans) == 2

    def test_the_cache_is_bounded(self):
        assert token_set.cache_info().maxsize == MAX_CACHED_SCANS


class TestRuleChains:
    def test_token_inserted_by_earlier_rule_does_not_gate_later_rule(self):
        # rule b's required token 'bar_api' only exists because rule a
        # inserted it; the prefilter must not gate b on the original text
        text = ("@a@ @@\n- foo_api();\n+ bar_api();\n\n"
                "@b@ @@\n- bar_api();\n+ baz_api();\n")
        code = {"a.c": "void f(void) { foo_api(); }\n"}
        patch = SemanticPatch.from_string(text)
        baseline = patch.apply(dict(code), prefilter=False)
        filtered = patch.apply(dict(code), prefilter=True)
        assert "baz_api();" in baseline["a.c"].text
        assert filtered["a.c"].text == baseline["a.c"].text

    def test_metavar_in_plus_material_makes_later_rules_unfilterable(self):
        # a '+' line splicing a metavariable can insert unbounded text (e.g.
        # from a script rule), so later requirements must be dropped entirely
        text = ("@a@\nidentifier f;\n@@\n- old_marker(f);\n+ f();\n\n"
                "@b@ @@\n- anything_at_all();\n")
        prefilter = PatchPrefilter(SemanticPatch.from_string(text).ast)
        assert prefilter.requirements["a"] == frozenset({"old_marker"})
        assert prefilter.requirements["b"] == frozenset()

    def test_literal_plus_material_keeps_later_requirements_precise(self):
        text = ("@a@ @@\n- foo_api();\n+ bar_api();\n\n"
                "@b@ @@\n- unrelated_api();\n")
        prefilter = PatchPrefilter(SemanticPatch.from_string(text).ast)
        assert prefilter.requirements["b"] == frozenset({"unrelated_api"})


class TestFilePlans:
    def test_file_without_required_tokens_is_skipped(self):
        ast = SemanticPatch.from_string("@r@ @@\n- special_call();\n").ast
        prefilter = PatchPrefilter(ast)
        plan = prefilter.plan_for_text("int main(void) { return 0; }\n")
        assert not plan.needs_session and not plan.allowed_rules

    def test_unfilterable_rule_keeps_every_file(self):
        # every identifier is a metavariable: the rule could match anywhere
        ast = SemanticPatch.from_string(
            "@r@\nidentifier fn;\nexpression list el;\n@@\nfn(el)\n").ast
        plan = PatchPrefilter(ast).plan_for_text("int x;\n")
        assert plan.needs_session and "r" in plan.allowed_rules

    def test_unconditional_script_rule_keeps_sessions_alive(self):
        text = ("@r@ @@\n- special_call();\n\n"
                "@script:python s@\nnf;\n@@\ncoccinelle.nf = cocci.make_ident('x')\n")
        prefilter = PatchPrefilter(SemanticPatch.from_string(text).ast)
        plan = prefilter.plan_for_text("int main(void) { return 0; }\n")
        assert plan.needs_session  # the script could still run here

    def test_script_whose_imports_cannot_run_allows_skip(self):
        from repro.cookbook import cuda_hip
        # the function-rename chain's script imports from cfe, which is
        # unfilterable, so cuda_to_hip never skips whole files...
        ast = cuda_hip.cuda_to_hip_patch().ast
        plan = PatchPrefilter(ast).plan_for_text("int x;\n")
        assert plan.needs_session
        # ...but a chain whose matching rule is gated lets the file skip
        text = ("@a@\nposition p;\n@@\nspecial_call@p();\n\n"
                "@script:python s@\np << a.p;\nnf;\n@@\n"
                "coccinelle.nf = cocci.make_ident('x')\n")
        prefilter = PatchPrefilter(SemanticPatch.from_string(text).ast)
        plan = prefilter.plan_for_text("int main(void) { return 0; }\n")
        assert not plan.needs_session

    def test_dependent_rule_cannot_run_without_its_dependency(self):
        text = ("@first@ @@\n- special_call();\n\n"
                "@second depends on first@ @@\n- other_call();\n")
        prefilter = PatchPrefilter(SemanticPatch.from_string(text).ast)
        # other_call is present but special_call is not: 'second' can never
        # have its dependency satisfied, so the whole file may be skipped
        plan = prefilter.plan_for_text("void f(void) { other_call(); }\n")
        assert "second" in plan.allowed_rules and "first" not in plan.allowed_rules
        assert not plan.needs_session
