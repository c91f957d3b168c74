"""Case study: Array-of-Structures → Structure-of-Arrays (GADGET, [ML21]).

Paper, Section 2: the motivating prior work [ML21] transformed the GADGET
cosmological code from AoS to SoA with a collection of Coccinelle rules, so
that the domain scientists keep developing the clearer AoS code while the
vectorization-friendly SoA copy is regenerated on demand ("replayable
refactoring").  The data-structure definition is small enough to change by
hand, but the rules must patch "many tens of array-accessing expressions
within each of thousands of loops" — which is what the per-field expression
rules generated here do.

:func:`aos_to_soa_patch` builds the patch from an explicit description of the
struct; :func:`derive_spec` / :func:`aos_to_soa_patch_from_codebase` extract
that description from the code base itself via the symbol table (struct
definition + global arrays of that struct).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import CodeBase, SemanticPatch
from ..lang.parser import parse_source
from ..options import SpatchOptions, DEFAULT_OPTIONS


@dataclass(frozen=True)
class FieldSpec:
    """One field of the AoS struct: C type, name, and inner array length
    (0 for scalar fields, e.g. 3 for ``double pos[3]``)."""

    ctype: str
    name: str
    inner_dim: int = 0


@dataclass
class AosSpec:
    """Everything needed to generate the AoS→SoA rules for one array."""

    struct_name: str
    array_name: str
    fields: list[FieldSpec] = field(default_factory=list)
    keep_fields: tuple[str, ...] = ()   # fields to keep in AoS form (paper: fine-grained control)

    def soa_name(self, field_name: str) -> str:
        return f"{self.array_name}_{field_name}"

    def transformed_fields(self) -> list[FieldSpec]:
        return [f for f in self.fields if f.name not in self.keep_fields]


# ---------------------------------------------------------------------------
# patch generation
# ---------------------------------------------------------------------------

def _access_rules(spec: AosSpec) -> list[str]:
    rules = []
    for index, f in enumerate(spec.transformed_fields()):
        soa = spec.soa_name(f.name)
        if f.inner_dim:
            rules.append(f"""\
@acc_{index}@
expression E, D;
@@
- {spec.array_name}[E].{f.name}[D]
+ {soa}[E][D]
""")
        else:
            rules.append(f"""\
@acc_{index}@
expression E;
@@
- {spec.array_name}[E].{f.name}
+ {soa}[E]
""")
    return rules


def _declaration_rule(spec: AosSpec) -> str:
    def plus_lines(prefix: str) -> str:
        lines = []
        for f in spec.transformed_fields():
            soa = spec.soa_name(f.name)
            inner = f"[{f.inner_dim}]" if f.inner_dim else ""
            lines.append(f"+ {prefix}{f.ctype} {soa}[N]{inner};")
        return "\n".join(lines)

    keep = [f for f in spec.fields if f.name in spec.keep_fields]
    minus = "-" if not keep else " "
    # the extern rule must come first: once the extern declarations (headers)
    # are rewritten, the definition rule handles the remaining ones
    return f"""\
@soa_decl_extern@
expression N;
@@
{minus} extern struct {spec.struct_name} {spec.array_name}[N];
{plus_lines("extern ")}

@soa_decl@
expression N;
@@
{minus} struct {spec.struct_name} {spec.array_name}[N];
{plus_lines("")}
"""


def patch_text(spec: AosSpec) -> str:
    """Render the full AoS→SoA patch: per-field access rules first, then the
    declaration replacement."""
    chunks = _access_rules(spec)
    chunks.append(_declaration_rule(spec))
    return "\n".join(chunks)


def aos_to_soa_patch(spec: AosSpec) -> SemanticPatch:
    """Build the AoS→SoA semantic patch for one array-of-structures."""
    return SemanticPatch.from_string(patch_text(spec),
                                     name=f"aos-to-soa-{spec.array_name}")


# ---------------------------------------------------------------------------
# derivation from a code base
# ---------------------------------------------------------------------------

def derive_spec(codebase: CodeBase, struct_name: str | None = None,
                array_name: str | None = None,
                keep_fields: tuple[str, ...] = (),
                options: SpatchOptions = DEFAULT_OPTIONS) -> AosSpec:
    """Derive the AoS description (struct fields + global array) from the
    declarations found in a code base."""
    from ..lang.symbols import build_symbol_table

    struct_info = None
    chosen_array = None
    for name, text in codebase.items():
        tree = parse_source(text, name=name, options=options)
        table = build_symbol_table(tree)
        for sname, sinfo in table.structs.items():
            if struct_name is not None and sname != struct_name:
                continue
            arrays = table.arrays_of_struct(sname)
            if array_name is not None:
                arrays = [a for a in arrays if a.name == array_name]
            if arrays:
                struct_info = sinfo
                chosen_array = arrays[0]
                break
        if struct_info is not None:
            break
    if struct_info is None or chosen_array is None:
        raise ValueError(
            "could not find an array-of-structures declaration to transform"
            + (f" (struct {struct_name!r})" if struct_name else ""))
    spec = AosSpec(struct_name=struct_info.name, array_name=chosen_array.name,
                   fields=[], keep_fields=keep_fields)
    for ftype, fname, dims in struct_info.fields:
        inner = 0
        if dims:
            extents = struct_info.field_extents.get(fname, [])
            try:
                inner = int(extents[0]) if extents and extents[0] else 0
            except ValueError:
                inner = 0
        spec.fields.append(FieldSpec(ctype=ftype, name=fname, inner_dim=inner))
    return spec


def aos_to_soa_patch_from_codebase(codebase: CodeBase, struct_name: str | None = None,
                                   array_name: str | None = None,
                                   keep_fields: tuple[str, ...] = ()) -> SemanticPatch:
    """Derive the AoS spec from the code base and build the patch."""
    spec = derive_spec(codebase, struct_name=struct_name, array_name=array_name,
                       keep_fields=keep_fields)
    return aos_to_soa_patch(spec)


def reverse_patch(spec: AosSpec) -> SemanticPatch:
    """The inverse transformation (SoA back to AoS accesses), demonstrating
    the reversibility/replayability the paper's discussion section calls for."""
    rules = []
    for index, f in enumerate(spec.transformed_fields()):
        soa = spec.soa_name(f.name)
        if f.inner_dim:
            rules.append(f"""\
@racc_{index}@
expression E, D;
@@
- {soa}[E][D]
+ {spec.array_name}[E].{f.name}[D]
""")
        else:
            rules.append(f"""\
@racc_{index}@
expression E;
@@
- {soa}[E]
+ {spec.array_name}[E].{f.name}
""")
    return SemanticPatch.from_string("\n".join(rules),
                                     name=f"soa-to-aos-{spec.array_name}")
