"""The compiled matcher against the tree-walking reference, call by call.

Within :func:`reference_matcher.checked_matcher` every
``CompiledRule.match_all`` call also runs the reference matcher of
``tests/reference_matcher.py`` and asserts that both return the same
:class:`~repro.engine.matcher.MatchInstance` signatures, in the same order.
The substitution lives in the tests only; ``src/`` has one matcher and no
switch.  The sweeps below drive it through:

* the golden corpus (every cookbook patch on its example workload, the
  whole-cookbook pipeline and the frontend formats), whose diffs must also
  stay byte-identical to the checked-in goldens;
* the full cookbook on every ``repro.workloads`` generator at its default
  size, with the prefilter on (rules gated per file) and off (every rule
  on every file);
* the edit-script fuzzer's quick seeds (serial; the four-config sweep stays
  in ``tests/test_fuzz_incremental.py``).  ``REPRO_FUZZ_SECONDS`` turns the
  seed sweep into a time-budgeted one, as it does for the fuzzer itself;
* one small case per pattern kind the corpus above never distinguishes
  (casts, sizeof, initializer lists, comma steps, range-for, declaration
  specifiers, struct and lambda shapes ...), each with near misses.
"""

import time

import pytest

from repro import CodeBase, PatchSet
from repro.cookbook import full_modernization_pipeline
from repro.engine.compile import CompiledRule
from repro.lang.parser import parse_source
from repro.options import SpatchOptions
from repro.smpl.parser import parse_semantic_patch
from repro.workloads import (cuda_app, gadget, kokkos_exercise, librsb_like,
                             multiversion_app, openacc_app, openmp_kernels,
                             rawloops, unrolled)

import test_golden_corpus as golden
from reference_matcher import Matcher, checked_matcher
from test_fuzz_incremental import (FUZZ_MEMO_DIR, FUZZ_SECONDS, SMOKE_SEEDS,
                                   _run_fuzz_case)

GENERATORS = (cuda_app, gadget, kokkos_exercise, librsb_like,
              multiversion_app, openacc_app, openmp_kernels, rawloops,
              unrolled)


def _every_generator() -> CodeBase:
    files: dict[str, str] = {}
    for module in GENERATORS:
        name = module.__name__.rsplit(".", 1)[1]
        for filename, text in module.generate().items():
            files[f"{name}/{filename}"] = text
    return CodeBase.from_files(files)


def test_golden_corpus_matches_reference():
    with checked_matcher() as calls:
        for name in sorted(golden.COOKBOOK_WORKLOADS):
            assert golden._expected_diff(name) == \
                (golden.GOLDEN_DIR / f"{name}.diff").read_text(
                    encoding="utf-8", errors="surrogateescape"), name
        assert golden._expected_pipeline_diff() == \
            (golden.GOLDEN_DIR / f"{golden.PIPELINE_GOLDEN}.diff").read_text(
                encoding="utf-8", errors="surrogateescape")
        for name, fmt in golden.FRONTEND_GOLDENS.items():
            assert golden._expected_frontend_diff(fmt) == \
                (golden.GOLDEN_DIR / f"{name}.diff").read_text(
                    encoding="utf-8", errors="surrogateescape"), name
    assert calls[0] > 0


@pytest.mark.parametrize("prefilter", [True, False],
                         ids=["prefilter_on", "prefilter_off"])
def test_full_cookbook_on_every_generator(prefilter):
    codebase = _every_generator()
    assert len(codebase.files) == 28
    patches = PatchSet(list(full_modernization_pipeline()))
    with checked_matcher() as calls:
        result = patches.apply(codebase, prefilter=prefilter)
    assert result.summary()["changed_files"] > 0
    assert calls[0] > 0


@pytest.mark.parametrize("prefilter", [True, False],
                         ids=["prefilter_on", "prefilter_off"])
def test_fuzz_quick_seeds(prefilter, tmp_path):
    memo_dir = FUZZ_MEMO_DIR or str(tmp_path / "memo")
    with checked_matcher() as calls:
        if FUZZ_SECONDS > 0:
            deadline = time.monotonic() + FUZZ_SECONDS / 2
            seed = 0
            while seed < SMOKE_SEEDS or time.monotonic() < deadline:
                _run_fuzz_case(seed, prefilter, 1, memo_dir)
                seed += 1
        else:
            for seed in range(SMOKE_SEEDS):
                _run_fuzz_case(seed, prefilter, 1, memo_dir)
    assert calls[0] > 0


#: (id, SMPL, code, C++?, matches): every case holds near misses that a
#: closure ignoring one field of its pattern kind would also match
KIND_CASES = [
    ("cast", "@r@\nexpression E;\n@@\n- (double)E\n+ to_double(E)\n",
     "void f(int n, int m) { x = (double)n; y = (float)m; z = (double)(m); }",
     False, 2),
    ("init_list", "@r@\nidentifier a;\nexpression E1, E2;\n@@\n"
     "- int a[] = {E1, E2};\n",
     "void f(void) { int p[] = {1, 2}; int q[] = {1, 2, 3}; int r[] = {4}; }",
     False, 1),
    ("comma_step", "@r@\nexpression E1, E2, C;\nstatement S;\n@@\n"
     "- for (...; C; E1, E2) S\n",
     "void f(int n) { for (i = 0; i < n; i++, j++) g(); "
     "for (i = 0; i < n; i++, j++, k++) g(); for (i = 0; i < n; i++) g(); }",
     False, 1),
    ("sizeof_type", "@r@ @@\n- sizeof(double)\n+ sizeof(real)\n",
     "void f(void) { a = sizeof(double); b = sizeof(float); c = sizeof(x); }",
     False, 1),
    ("sizeof_expr", "@r@\nexpression E;\n@@\n- sizeof(E)\n+ SIZE(E)\n",
     "void f(void) { a = sizeof(x); b = sizeof(int); c = sizeof(p[0]); }",
     False, 2),
    ("range_for", "@r@\nidentifier v;\nexpression E;\nstatement S;\n@@\n"
     "- for (auto &v : E) S\n+ for_each(E);\n",
     "void f(void) { for (auto &a : xs) g(a); for (auto b : ys) g(b); "
     "for (double &c : zs) g(c); }", True, 1),
    ("specifiers", "@r@\nidentifier i;\n@@\n- static int i;\n",
     "static int a;\nint b;\nvoid f(void) { static int c; int d; }\n",
     False, 2),
    ("for_init", "@r@\nidentifier i;\nexpression N;\n@@\n"
     "- for (int i = 0; i < N; i++) { ... }\n",
     "void f(int n) { for (int i = 0; i < n; i++) { g(i); } "
     "for (long j = 0; j < n; j++) { g(j); } "
     "for (k = 0; k < n; k++) { g(k); } }", False, 1),
    ("declarator_type", "@r@\ntype T;\nidentifier x;\n@@\n- T x = 0;\n",
     "void f(void) { int a = 0; double b = 0; float c = 1; int *d = 0; }",
     False, 2),
    ("function_params", "@r@\nidentifier f, x;\n@@\n"
     "- void f(double *x) { ... }\n",
     "void a(double *p) { g(p); }\nvoid b(double p) { g(p); }\n"
     "void c(float *p) { g(p); }\nvoid d(double *p, int n) { g(p); }\n",
     False, 1),
    ("param_list", "@r@\nidentifier f;\nparameter list PL;\n@@\n"
     "- void f(PL) { ... }\n",
     "void a(int x, int y) { g(); }\nint b(int x) { return x; }\n", False, 1),
    ("attribute", '@r@\nidentifier f;\ntype T;\n@@\n'
     '__attribute__((target("avx2")))\nT f(...)\n{\n...\n}\n',
     '__attribute__((target("avx2")))\nint a(int x) { return x; }\n'
     '__attribute__((target("avx512")))\nint b(int x) { return x; }\n'
     '__attribute__((noinline))\nint c(int x) { return x; }\n', False, 1),
    ("member", "@r@\nexpression E;\n@@\n- E.pos\n+ E.position\n",
     "void f(void) { a = p.pos; b = p.mass; c = q->pos; }", False, 1),
    ("struct", "@r@ @@\n- struct P { double m; };\n",
     "struct P { double m; };\nstruct Q { double m; };\n"
     "struct P { int m; };\n", False, 1),
    ("lambda", "@r@\nidentifier i;\n@@\n- [&](int i) { ... }\n",
     "void f(void) { h([&](int i) { g(i); }); h([=](int i) { g(i); }); "
     "h([&](long i) { g(i); }); }", True, 1),
]


@pytest.mark.parametrize("smpl,code,cxx,matches",
                         [case[1:] for case in KIND_CASES],
                         ids=[case[0] for case in KIND_CASES])
def test_every_lowered_kind(smpl, code, cxx, matches):
    options = SpatchOptions(cxx=17) if cxx else SpatchOptions()
    rule = parse_semantic_patch(smpl, options=options).patch_rules()[0]
    tree = parse_source(code, "kinds.cpp" if cxx else "kinds.c",
                        options=options)
    found = CompiledRule(rule, options).match_all(tree)
    reference = Matcher(rule, tree, options=options).match_all()
    assert [inst.signature() for inst in found] == \
        [inst.signature() for inst in reference]
    assert len(found) == matches
