"""Tests for rule orchestration, transformation and scripting."""

import pytest

from repro import SemanticPatch, apply_patch
from repro.engine.scripting import CocciHelpers, ScriptRunner, TaggedValue
from repro.engine.bindings import BoundValue, Env
from repro.smpl.ast import ScriptRule


class TestTransformBasics:
    def test_replacement_preserves_untouched_bytes(self):
        patch = "@r@\nexpression x,y,z;\nsymbol a;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n"
        code = "void f(void) {   s +=   a[i][j][k] * 2.0;  /* keep me */ }\n"
        result = apply_patch(patch, code)
        assert "a[i, j, k]" in result.text
        assert "/* keep me */" in result.text
        assert "  s +=   " in result.text  # original spacing preserved

    def test_whole_function_removal_removes_lines(self):
        patch = ('@c@\ntype T;\nfunction f;\nparameter list PL;\n@@\n'
                 '- __attribute__((target("avx2")))\n- T f(PL) { ... }\n')
        code = ('__attribute__((target("avx2")))\nint fast(int x) { return x; }\n\n'
                'int keep(int x) { return x; }\n')
        result = apply_patch(patch, code)
        assert "fast" not in result.text
        assert "keep" in result.text
        assert "avx2" not in result.text

    def test_insertion_indentation_matches_context(self):
        patch = "@r@ @@\n#pragma omp ...\n{\n+ MARK();\n...\n}\n"
        code = "void f(void) {\n    #pragma omp parallel\n    {\n        work();\n    }\n}\n"
        result = apply_patch(patch, code)
        lines = result.text.splitlines()
        mark = [l for l in lines if "MARK" in l][0]
        assert mark.startswith("        ")

    def test_fresh_identifier_generation_and_collision(self):
        patch = ('@r@\ntype T;\nidentifier f =~ "kern";\nparameter list PL;\n'
                 'statement list SL;\nfresh identifier g = "v_" ## f;\n@@\n'
                 "+ T g (PL) { SL }\nT f (PL) { SL }\n")
        code = "int v_kern(int a) { return a; }\nint kern(int a) { return a + 1; }\n"
        result = apply_patch(patch, code)
        # 'v_kern' already exists, so the fresh name is uniquified
        assert "int v_kern_1 (int a)" in result.text

    def test_no_match_means_no_change(self):
        patch = "@r@ @@\n- nonexistent_call();\n"
        code = "void f(void) { other(); }\n"
        result = apply_patch(patch, code)
        assert not result.changed
        assert result.diff() == ""

    def test_pure_match_rule_produces_no_edits(self):
        patch = "@r@\nidentifier f;\nexpression list el;\n@@\nf(el)\n"
        code = "void g(void) { work(1); }\n"
        result = apply_patch(patch, code)
        assert not result.changed
        assert result.matches_of("r") >= 1


class TestRuleSequencing:
    def test_later_rule_sees_earlier_edits(self):
        patch = ("@one@ @@\n- old_api();\n+ mid_api();\n\n"
                 "@two@ @@\n- mid_api();\n+ new_api();\n")
        code = "void f(void) { old_api(); }\n"
        result = apply_patch(patch, code)
        assert "new_api();" in result.text
        assert result.matches_of("two") == 1

    def test_depends_on_not_satisfied(self):
        patch = ("@first@ @@\n- marker_alpha();\n\n"
                 "@second depends on first@ @@\n- marker_beta();\n")
        code = "void f(void) { marker_beta(); }\n"
        result = apply_patch(patch, code)
        # 'first' never matched, so 'second' must not run
        assert "marker_beta();" in result.text

    def test_depends_on_satisfied(self):
        patch = ("@first@ @@\n- marker_alpha();\n\n"
                 "@second depends on first@ @@\n- marker_beta();\n")
        code = "void f(void) { marker_alpha(); marker_beta(); }\n"
        result = apply_patch(patch, code)
        assert "marker_beta" not in result.text

    def test_metavariable_inheritance_filters_sites(self):
        patch = ('@c@\ntype T;\nfunction f;\nparameter list PL;\n@@\n'
                 '- __attribute__((target("avx512")))\n- T f(PL) { ... }\n\n'
                 "@d@\ntype c.T;\nfunction c.f;\nparameter list c.PL;\n@@\n"
                 '- __attribute__((target("default")))\nT f(PL) { ... }\n')
        code = ('__attribute__((target("default")))\nint work(int x) { return x; }\n'
                '__attribute__((target("avx512")))\nint work(int x) { return x + 1; }\n'
                '__attribute__((target("default")))\nint other(int x) { return x; }\n')
        result = apply_patch(patch, code)
        # 'other' had no avx512 clone: its default attribute must survive
        assert result.text.count('__attribute__((target("default")))') == 1
        assert "avx512" not in result.text

    def test_per_file_isolation(self):
        patch = ("@first@ @@\n- marker_alpha();\n\n"
                 "@second depends on first@ @@\n- marker_beta();\n")
        sp = SemanticPatch.from_string(patch)
        result = sp.apply({"a.c": "void f(void) { marker_alpha(); marker_beta(); }\n",
                           "b.c": "void g(void) { marker_beta(); }\n"})
        assert "marker_beta" not in result["a.c"].text
        assert "marker_beta" in result["b.c"].text


class TestScripting:
    def test_cocci_helpers(self):
        helpers = CocciHelpers()
        assert helpers.make_ident("x").kind == "identifier"
        assert helpers.make_type("t").kind == "type"
        assert helpers.make_expr("a + 1").kind == "expression"
        assert helpers.make_stmt("return;").kind == "statement"
        assert helpers.make_pragmainfo("omp").text == "omp"
        helpers.include_match(False)
        assert helpers._include_match is False

    def test_script_rule_extends_environment(self):
        runner = ScriptRunner()
        rule = ScriptRule(name="s", imports=[("fn", "cfe", "fn")], outputs=["nf"],
                          code="coccinelle.nf = cocci.make_ident(fn.upper())")
        env = Env().bind("cfe.fn", BoundValue.for_name("identifier", "curand"))
        outcome = runner.run_script(rule, [env])
        assert outcome.environments[0].get("s.nf").text == "CURAND"

    def test_script_exception_drops_environment(self):
        runner = ScriptRunner()
        rule = ScriptRule(name="s", imports=[("fn", "cfe", "fn")], outputs=["nf"],
                          code="coccinelle.nf = cocci.make_ident(TABLE[fn])")
        runner.globals["TABLE"] = {"known": "renamed"}
        envs = [Env().bind("cfe.fn", BoundValue.for_name("identifier", "known")),
                Env().bind("cfe.fn", BoundValue.for_name("identifier", "unknown"))]
        outcome = runner.run_script(rule, envs)
        assert len(outcome.environments) == 1
        assert outcome.diagnostics  # the dropped environment is reported

    def test_include_match_false_filters(self):
        runner = ScriptRunner()
        rule = ScriptRule(name="s", imports=[("v", "m", "v")], outputs=[],
                          code="cocci.include_match(v == 'keep')")
        envs = [Env().bind("m.v", BoundValue.for_name("identifier", "keep")),
                Env().bind("m.v", BoundValue.for_name("identifier", "drop"))]
        outcome = runner.run_script(rule, envs)
        assert len(outcome.environments) == 1

    def test_initialize_shares_globals_with_scripts(self):
        runner = ScriptRunner()
        init = ScriptRule(name="i", when="initialize", code="LOOKUP = {'a': 'b'}")
        assert runner.run_initialize(init) == []
        rule = ScriptRule(name="s", imports=[("x", "m", "x")], outputs=["y"],
                          code="coccinelle.y = cocci.make_ident(LOOKUP[x])")
        env = Env().bind("m.x", BoundValue.for_name("identifier", "a"))
        outcome = runner.run_script(rule, [env])
        assert outcome.environments[0].get("s.y").text == "b"

    def test_annotations_are_objects_not_strings(self):
        """Script code compiles under its own future flags only, not the
        engine module's ``from __future__ import annotations``."""
        runner = ScriptRunner()
        init = ScriptRule(name="i", when="initialize",
                          code="def scale(x: int) -> float:\n"
                               "    return x * 1.5\n")
        assert runner.run_initialize(init) == []
        assert runner.globals["scale"].__annotations__ == \
            {"x": int, "return": float}

    def test_disabled_scripting(self):
        runner = ScriptRunner(enabled=False)
        rule = ScriptRule(name="s", imports=[], outputs=[], code="x = 1")
        outcome = runner.run_script(rule, [Env()])
        assert not outcome.environments and outcome.diagnostics

    def test_end_to_end_dictionary_rename(self):
        patch = """\
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn])

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)
"""
        code = ("double sample(curandState *st) {\n"
                "    double r = curand_uniform_double(st);\n"
                "    return cos(r);\n}\n")
        result = apply_patch(patch, code)
        assert "rocrand_uniform_double(st)" in result.text
        assert "cos(r)" in result.text  # unknown functions untouched
