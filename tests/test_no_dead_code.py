"""Every function, method and class in ``src/`` is referenced somewhere.

A definition whose name appears nowhere outside its own body — not in
``src/``, ``tests/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` — is
dead code: delete it, or give it a caller and a test if it is meant to be
public API.  The check is by name, read with :mod:`ast`: a name loaded or
imported anywhere counts, and so does an identifier inside a string
literal (script-rule code, ``getattr`` targets, ``__all__`` entries), but
a docstring or a comment does not.  Dunder methods are called by Python
itself and are not checked.
"""

import ast
import pathlib
import re
from collections import Counter

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")

#: reached only through names built at run time: the printer's
#: per-node-type ``getattr`` dispatch, and the cookbook's listing-by-listing
#: reproductions of the paper
ALLOWED_PREFIXES = ("_print_", "paper_listing")
#: request-handler hooks ``http.server`` calls by name
ALLOWED_NAMES = frozenset({"do_GET", "log_message"}) | frozenset(
    repro.__all__)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _names(node: ast.AST, docstrings: set[int]) -> Counter:
    """Every name ``node``'s subtree refers to, with multiplicity."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in docstrings:
            names.update(_WORD.findall(sub.value))
    return names


def _unreferenced() -> list[str]:
    references: Counter = Counter()
    definitions = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = _docstrings(tree)
            references += _names(tree, docstrings)
            if top != "src":
                continue
            for node in ast.walk(tree):
                if isinstance(node, _DEFS):
                    own = _names(node, docstrings)[node.name]
                    definitions.append((path, node.lineno, node.name, own))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name, own in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and not name.startswith(ALLOWED_PREFIXES)
            and name not in ALLOWED_NAMES
            and references[name] <= own]


def test_every_src_definition_is_referenced():
    assert _unreferenced() == []
