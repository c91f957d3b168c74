"""Use case: OpenMP ``declare variant`` function cloning.

Paper, Section 3, *"OpenMP's declare variant"*: for every function whose name
matches a regular expression (``"kernel"`` in the paper), create one clone
per target instruction-set architecture, and declare the clones as variants
of the base function with ``#pragma omp declare variant`` lines placed just
above the base definition.  The clone names are built with ``fresh
identifier`` metavariables using the ``##`` concatenation operator.

Note on the published listing: the paper's pragma lines reference ``v512_f``
and ``v10_f`` while the declared fresh identifiers are ``f512`` and ``f10``;
we use the declared names so the generated pragmas actually refer to the
clones (the discrepancy is recorded in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import SemanticPatch


@dataclass(frozen=True)
class VariantSpec:
    """One ISA variant to generate: clone-name prefix and the ``match`` clause
    device ISA string."""

    prefix: str
    isa: str


DEFAULT_VARIANTS = (
    VariantSpec(prefix="avx512_", isa="core-avx512"),
    VariantSpec(prefix="avx10_", isa="core-avx10"),
)


PAPER_LISTING = """\
@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier f512 = "avx512_" ## f;
fresh identifier f10 = "avx10_" ## f;
@@
+ T f512 (PL) { SL }
+ T f10 (PL) { SL }
+ #pragma omp declare variant(f512) match(device={isa("core-avx512")})
+ #pragma omp declare variant(f10) match(device={isa("core-avx10")})
T f (PL) { SL }
"""


def paper_listing() -> str:
    """The semantic patch essentially as printed in the paper."""
    return PAPER_LISTING


def patch_text(function_regex: str = "kernel",
               variants: tuple[VariantSpec, ...] = DEFAULT_VARIANTS) -> str:
    """Render the declare-variant cloning patch for arbitrary ISA variants."""
    fresh_decls = []
    clone_lines = []
    pragma_lines = []
    for idx, spec in enumerate(variants):
        mv = f"fv{idx}"
        fresh_decls.append(f'fresh identifier {mv} = "{spec.prefix}" ## f;')
        clone_lines.append(f"+ T {mv} (PL) {{ SL }}")
        pragma_lines.append(
            f'+ #pragma omp declare variant({mv}) match(device={{isa("{spec.isa}")}})')
    decls = "\n".join(fresh_decls)
    plus = "\n".join(clone_lines + pragma_lines)
    # the pure-match guard makes the cloning idempotent at file granularity:
    # a file that already carries declare-variant pragmas (only this patch
    # introduces them in the targeted kernels) is not cloned again — without
    # it a second application would clone the clones
    return f"""\
@has_variants@ @@
#pragma omp declare ...

@clone depends on !has_variants@
type T;
identifier f =~ "{function_regex}";
parameter list PL;
statement list SL;
{decls}
@@
{plus}
T f (PL) {{ SL }}
"""


def declare_variant_patch(function_regex: str = "kernel",
                          variants: tuple[VariantSpec, ...] = DEFAULT_VARIANTS) -> SemanticPatch:
    """The paper's declare-variant cloning patch, parameterised."""
    return SemanticPatch.from_string(patch_text(function_regex, variants),
                                     name="declare-variant")
