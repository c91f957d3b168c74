"""Facts derived from one semantic patch object, computed once per object.

A warm request re-applies patch objects it has already seen: the service's
patch-spec LRU hands every request for the same spec the same
:class:`~repro.smpl.ast.SemanticPatchAST`.  Whatever is a pure function of
that object (its fingerprint under some options and name, its prefilter,
its compiled rules under some options) is derived on first use and looked
up afterwards, and lives exactly as long as the patch.  Forked pipeline
workers inherit the table with the patch objects, so they derive nothing
their parent already did.

The table lives beside the patch, never on it: a caller may pickle or
copy an AST, and derived state must not travel with it.  Patch ASTs
are ``eq=True`` dataclasses and so unhashable, which rules out a
``WeakKeyDictionary``; entries are keyed by ``id`` instead, and a weak
reference's callback drops an entry when its patch dies, before the id can
be reused.  A derived value must therefore not refer to its patch, or the
patch would never die.  A built patch is never mutated after its first
use, which is what keeps a derived value from going stale.
"""

from __future__ import annotations

import weakref
from typing import Callable, TypeVar

T = TypeVar("T")

#: ``id(patch)`` -> (weak reference to the patch, {key: derived value})
_FACTS: "dict[int, tuple[weakref.ref, dict]]" = {}


def _forget(key: int, ref: weakref.ref) -> None:
    entry = _FACTS.get(key)
    if entry is not None and entry[0] is ref:
        del _FACTS[key]


def derived(patch, key, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``(patch object, key)``.  Threads
    racing on a first call may both build; they build equal values."""
    entry = _FACTS.get(id(patch))
    if entry is None or entry[0]() is not patch:
        ident = id(patch)
        entry = (weakref.ref(patch, lambda ref: _forget(ident, ref)), {})
        _FACTS[ident] = entry
    facts = entry[1]
    value = facts.get(key)
    if value is None:
        value = facts[key] = build()
    return value
