"""Use case: advanced expression modification (multi-index subscripts).

Paper, Section 3, *"Advanced expression modification (e.g. mdspan)"*:
converting a data structure to C++23 ``std::mdspan`` requires rewriting a
large number of array-access expressions from the chained form
``a[x][y][z]`` to the multi-index form ``a[x, y, z]``.  The rule is applied
per array name; the paper notes that in production the array names should be
derived from global declarations — :func:`multiindex_patch_for_arrays`
accepts that list, and :func:`multiindex_patch_from_codebase` derives it from
the declarations in a code base via the symbol table.
"""

from __future__ import annotations

from ..api import CodeBase, SemanticPatch
from ..lang.parser import parse_source
from ..options import SpatchOptions


PAPER_LISTING = """\
# spatch --c++=23
@tomultiindex@
symbol a;
expression x,y,z;
@@
- a[x][y][z]
+ a[x, y, z]
"""


def paper_listing() -> str:
    """The semantic patch exactly as printed in the paper."""
    return PAPER_LISTING


def _rule_for(array: str, rank: int, index: int) -> str:
    metavars = [f"x{i}" for i in range(rank)]
    chained = "".join(f"[{m}]" for m in metavars)
    multi = ", ".join(metavars)
    return f"""\
@tomultiindex_{index}@
symbol {array};
expression {", ".join(metavars)};
@@
- {array}{chained}
+ {array}[{multi}]
"""


def multiindex_patch(array: str = "a", rank: int = 3) -> SemanticPatch:
    """The paper's rule for one array name (default: the literal ``a`` of the
    listing) and one rank."""
    text = "# spatch --c++=23\n" + _rule_for(array, rank, 0)
    return SemanticPatch.from_string(text, name=f"mdspan-{array}")


def multiindex_patch_for_arrays(arrays: dict[str, int]) -> SemanticPatch:
    """One rule per ``{array_name: rank}`` entry, in a single patch."""
    chunks = ["# spatch --c++=23"]
    for index, (array, rank) in enumerate(sorted(arrays.items())):
        chunks.append(_rule_for(array, rank, index))
    return SemanticPatch.from_string("\n".join(chunks), name="mdspan-multi")


def arrays_of_rank(codebase: CodeBase, min_rank: int = 2,
                   options: SpatchOptions | None = None) -> dict[str, int]:
    """Find global arrays with at least ``min_rank`` dimensions in a code
    base — the "follow a match in a global declaration" refinement the paper
    recommends before applying the rewrite in production."""
    from ..lang.symbols import build_symbol_table

    options = options or SpatchOptions(cxx=23)
    found: dict[str, int] = {}
    for name, text in codebase.items():
        tree = parse_source(text, name=name, options=options)
        table = build_symbol_table(tree)
        for var in table.globals.values():
            if len(var.array_dims) >= min_rank:
                rank = len(var.array_dims)
                found[var.name] = max(rank, found.get(var.name, 0))
    return found


def multiindex_patch_from_codebase(codebase: CodeBase, min_rank: int = 2) -> SemanticPatch:
    """Derive the per-array rules from the code base's own declarations."""
    arrays = arrays_of_rank(codebase, min_rank=min_rank)
    if not arrays:
        # fall back to the paper's literal example so the patch is well formed
        return multiindex_patch()
    return multiindex_patch_for_arrays(arrays)
