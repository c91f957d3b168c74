"""Tests for the matching engine (expression/statement/toplevel patterns,
metavariable binding, dots, disjunction/conjunction, constraints).

Every case runs :class:`~repro.engine.compile.CompiledRule`, and the
tree-walking reference matcher (``tests/reference_matcher.py``) is a second
oracle: both must return the same match signatures, in order."""

import pytest

from repro.engine.bindings import EMPTY_ENV
from repro.engine.compile import CompiledRule
from repro.lang.parser import parse_source
from repro.options import SpatchOptions
from repro.smpl.parser import parse_semantic_patch

from reference_matcher import Matcher


def match_rule(patch_text: str, code: str, rule_index: int = 0, cxx=False, env=EMPTY_ENV):
    patch = parse_semantic_patch(patch_text)
    options = patch.options if patch.options.cxx else (SpatchOptions(cxx=17) if cxx else patch.options)
    rule = patch.patch_rules()[rule_index]
    tree = parse_source(code, "m.c", options=options)
    found = CompiledRule(rule, options).match_all(tree, env)
    reference = Matcher(rule, tree, options=options).match_all(env)
    assert [inst.signature() for inst in found] == \
        [inst.signature() for inst in reference]
    return found, tree


class TestExpressionPatterns:
    def test_chained_subscript_binds_metavars(self):
        patch = "@r@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n"
        code = "void f(void) { b = a[i+1][j][k] * a[0][0][0]; c = d[i][j][k]; }"
        insts, tree = match_rule(patch, code)
        assert len(insts) == 2  # only the array literally named 'a'
        bound = sorted(inst.env.get("x").text for inst in insts)
        assert bound == ["0", "i + 1"]

    def test_metavariable_consistency_within_a_match(self):
        patch = "@r@\nexpression E;\n@@\n- f(E, E)\n+ g(E)\n"
        code = "void h(void) { f(a, a); f(a, b); }"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_constant_value_set(self):
        patch = "@r@\nconstant k={4};\nidentifier i;\n@@\n- i+k\n+ i\n"
        code = "void f(void) { x = n+4; y = n+8; }"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_regex_constraint_on_identifier(self):
        patch = '@r@\nidentifier f =~ "^cuda";\nexpression list el;\n@@\nf(el)\n'
        code = "void g(void) { cudaMalloc(&p, n); memset(p, 0, n); cudaFree(p); }"
        insts, _ = match_rule(patch, code)
        assert sorted(i.env.get("f").text for i in insts) == ["cudaFree", "cudaMalloc"]

    def test_kernel_launch_pattern(self):
        patch = ("@r@\nidentifier k;\nexpression b,t;\nexpression list el;\n@@\n"
                 "- k<<<b,t>>>(el)\n+ hipLaunchKernelGGL(k,b,t,el)\n")
        code = "void f(void) { saxpy<<<grid, 256>>>(x, y, n); }"
        insts, _ = match_rule(patch, code, cxx=True)
        assert len(insts) == 1
        assert insts[0].env.get("el").render().replace(" ", "") == "x,y,n"

    def test_commutative_isomorphism(self):
        patch = "@r@\nidentifier v;\nconstant k;\n@@\nv == k\n"
        code = "void f(void) { if (x == 3) a(); if (4 == y) b(); if (x != 3) c(); }"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 2

    def test_plus_zero_isomorphism(self):
        patch = "@r@\nidentifier i;\n@@\ny[i+0]\n"
        code = "void f(void) { q = y[i]; r = y[j+0]; }"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 2

    def test_position_binding(self):
        patch = "@r@\nidentifier f;\nexpression list el;\nposition p;\n@@\nf@p(el)\n"
        code = "void g(void) {\n  work(1);\n}\n"
        insts, _ = match_rule(patch, code)
        pos = insts[0].env.get("p").position
        assert pos.line == 2


class TestStatementPatterns:
    def test_pragma_prefix_dots(self):
        patch = "@r@ @@\n#pragma omp ...\n{\n...\n}\n"
        code = ("void f(void) {\n#pragma omp parallel\n{ x = 1; }\n"
                "#pragma acc kernels\n{ y = 2; }\n}\n")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_pragmainfo_binding(self):
        patch = "@r@\npragmainfo pi;\n@@\n#pragma acc pi\n"
        code = "void f(void) {\n#pragma acc parallel loop copyin(x)\nfor (;;) g();\n}\n"
        insts, _ = match_rule(patch, code)
        assert insts[0].env.get("pi").text == "parallel loop copyin(x)"

    def test_sequence_with_dots_between_statements(self):
        patch = ("@r@\nidentifier flag;\n@@\n- bool flag = false;\n...\n- flag = true;\n")
        code = ("void f(void) { bool seen = false; int other = 0; count(); "
                "seen = true; use(seen); }")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1
        assert insts[0].env.get("flag").text == "seen"

    def test_statement_metavariable_and_conjunction(self):
        patch = ("@r@\nstatement A;\nidentifier i;\n@@\n"
                 "for (...; i < 4; ...)\n{\n\\( A \\& i+1 \\)\n}\n")
        code = ("void f(void) { for (int i = 0; i < 4; ++i) { y[i+1] = x[i+1]; } "
                "for (int j = 0; j < 4; ++j) { y[j] = x[j]; } }")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_compound_anchored_at_both_ends(self):
        patch = "@r@\nidentifier r;\n@@\nif (...)\n{\n...\nr = true;\nbreak;\n}\n"
        code = ("void f(void) { for (;;) { if (q == 1) { log(); ok = true; break; } } "
                "for (;;) { if (q == 2) { ok = true; break; extra(); } } }")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1  # the second if does not END with the pattern

    def test_include_pattern_matches_toplevel(self):
        patch = "@r@ @@\n#include <omp.h>\n"
        code = "#include <stdio.h>\n#include <omp.h>\nint x;\n"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_declaration_pattern_matches_globals_and_locals(self):
        patch = "@r@\ntype c_t;\nidentifier i;\n@@\n- curandState i;\n"
        code = "curandState g;\nvoid f(void) { curandState s; double d; }\n"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 2


class TestToplevelPatterns:
    def test_function_pattern_with_regex(self):
        patch = ('@r@\ntype T;\nidentifier f =~ "kernel";\nparameter list PL;\n'
                 "statement list SL;\n@@\nT f (PL) { SL }\n")
        code = ("double norm_kernel(const double *x, int n) { return x[0]; }\n"
                "void helper(double *x) { x[0] = 1.0; }\n")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1
        env = insts[0].env
        assert env.get("T").text == "double"
        assert "const double" in env.get("PL").text

    def test_attribute_pattern_with_dots_args(self):
        patch = ('@r@\nidentifier f;\ntype T;\n@@\n'
                 '__attribute__((target(...,"avx512",...)))\nT f(...)\n{\n...\n}\n')
        code = ('__attribute__((target("avx512")))\nint a(int x) { return x; }\n'
                '__attribute__((target("avx2")))\nint b(int x) { return x; }\n')
        insts, _ = match_rule(patch, code)
        assert [i.env.get("f").text for i in insts] == ["a"]

    def test_specifier_in_pattern_restricts_match(self):
        patch = "@r@\nexpression N;\n@@\n- extern struct particle P[N];\n"
        code = ("struct particle { double m; };\nextern struct particle P[64];\n"
                "struct particle Q[64];\n")
        insts, _ = match_rule(patch, code)
        assert len(insts) == 1

    def test_inherited_environment_constrains_match(self):
        patch = "@r@\nidentifier f;\n@@\n- f(1)\n+ f(2)\n"
        code = "void g(void) { alpha(1); beta(1); }"
        from repro.engine.bindings import BoundValue
        env = EMPTY_ENV.bind("f", BoundValue.for_name("identifier", "beta"))
        insts, _ = match_rule(patch, code, env=env)
        assert len(insts) == 1


class TestDisjunction:
    def test_expression_disjunction_ordered(self):
        patch = "@r@\nidentifier e;\nconstant k;\n@@\n\\( e == k \\| k == e \\)\n"
        code = "void f(void) { if (v == 3) a(); if (9 == w) b(); }"
        insts, _ = match_rule(patch, code)
        assert len(insts) == 2

    def test_statement_disjunction_first_branch_wins(self):
        patch = ("@r@\nstatement fc;\n@@\n(\nfc\n&\n(\n"
                 "- for (...;...;...) { ... result += ...; }\n"
                 "+ parallel_reduce();\n|\n- for (...;...;...) { ... }\n"
                 "+ parallel_for();\n)\n)\n")
        code = ("void f(int n) { for (int i=0;i<n;++i) { result += x[i]; } "
                "for (int j=0;j<n;++j) { y[j] = 0; } }")
        patchobj = parse_semantic_patch(patch)
        result_text = None
        from repro import SemanticPatch
        res = SemanticPatch(patchobj).apply_to_source(code)
        assert "parallel_reduce();" in res.text
        assert "parallel_for();" in res.text
