"""repro — a Python reproduction of "Advances in Semantic Patching for
HPC-oriented Refactorings with Coccinelle" (Martone & Lawall, IPPS 2025).

The package provides:

* :mod:`repro.lang` — a from-scratch C/C++-subset front end (lexer, parser,
  AST, pretty printer, symbol tables),
* :mod:`repro.smpl` — the Semantic Patch Language: rules, metavariables,
  dots, disjunction/conjunction, python scripting rules, isomorphisms,
* :mod:`repro.engine` — the matching and transformation engine producing
  byte-accurate edits and unified diffs,
* :mod:`repro.cookbook` — the paper's eleven HPC refactoring use cases plus
  the AoS→SoA case study, as reusable, parameterisable semantic patches,
* :mod:`repro.workloads` — synthetic HPC code bases standing in for the
  codes the paper refers to (GADGET, Kokkos tutorial, LIBRSB, CUDA/OpenACC
  mini-apps, script-generated unrolled kernels),
* :mod:`repro.baselines` — the text/line-oriented tools the paper contrasts
  with (hipify-perl-like, Intel-migration-script-like, sed-like),
* :mod:`repro.eval` — a mini C interpreter used to check that
  transformations preserve observable behaviour,
* :mod:`repro.analysis` — metrics (terseness, robustness, scaling) backing
  the experiment harness in ``benchmarks/``.

Quick start::

    from repro import SemanticPatch, CodeBase
    from repro.cookbook import instrumentation
    from repro.workloads import openmp_kernels

    code = openmp_kernels.generate(n_files=4, kernels_per_file=6, seed=0)
    patch = instrumentation.likwid_patch()
    result = patch.apply(code)
    print(result.summary())
"""

from .api import CodeBase, PatchSet, SemanticPatch, apply_patch
from .options import SpatchOptions, DEFAULT_OPTIONS
from .errors import (
    CParseError, Diagnostic, EditConflictError, FrontendParseError,
    InterpreterError, LexError, MetavarError, PatchFileError, ReproError,
    ScriptRuleError, SmplParseError, TransformError, WorkloadError,
)
from .engine.report import FileResult, PatchResult, RuleReport

__version__ = "1.3.0"

__all__ = [
    "CodeBase", "PatchSet", "SemanticPatch", "apply_patch",
    "SpatchOptions", "DEFAULT_OPTIONS",
    "FileResult", "PatchResult", "RuleReport",
    "ReproError", "LexError", "CParseError", "SmplParseError", "MetavarError",
    "ScriptRuleError", "TransformError", "EditConflictError",
    "InterpreterError", "WorkloadError", "Diagnostic",
    "FrontendParseError", "PatchFileError",
    "__version__",
]
