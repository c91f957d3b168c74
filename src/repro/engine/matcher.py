"""Match state: what a match records, and the helpers matchers bind with.

Matching is purely functional: every match function receives a match state
(:class:`MState`: metavariable environment + correspondence list) and returns
the list of extended states under which the pattern matches the code.  The
correspondences — which pattern node matched which code node — are what the
transformation stage later uses to turn ``-`` annotations into byte-accurate
deletions and to anchor ``+`` code.  The matcher itself is
:class:`~repro.engine.compile.CompiledRule`.

Correspondence kinds
--------------------
``node``      structural pattern node ↔ code node (fixed tokens align 1:1)
``binding``   metavariable reference ↔ the code node(s) it bound
``dots``      ``...`` ↔ the code nodes it absorbed (possibly none)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..lang import ast_nodes as A
from ..lang.parser import ParseTree
from ..smpl.ast import PatchRule
from .bindings import BoundValue, Env, Position

# ---------------------------------------------------------------------------
# match state
# ---------------------------------------------------------------------------

class Correspondence:
    """Immutable by convention; a plain slotted class because states are
    created once per partial match step — the matcher's hottest allocation."""

    __slots__ = ("kind", "pattern", "code")

    def __init__(self, kind: str, pattern: A.Node,
                 code: "tuple[A.Node, ...]"):
        self.kind = kind               # "node" | "binding" | "dots"
        self.pattern = pattern
        self.code = code               # one node for node/binding, 0..n for dots/lists

    @property
    def single(self) -> Optional[A.Node]:
        return self.code[0] if self.code else None


class MState:
    __slots__ = ("env", "corr")

    def __init__(self, env: Env, corr: "tuple[Correspondence, ...]" = ()):
        self.env = env
        self.corr = corr

    def bind(self, name: str, value: BoundValue) -> Optional["MState"]:
        env = self.env.bind(name, value)
        if env is None:
            return None
        return MState(env, self.corr)

    def add(self, kind: str, pattern: A.Node, code) -> "MState":
        nodes = tuple(code) if code.__class__ in (list, tuple) else (code,)
        corr = Correspondence.__new__(Correspondence)
        corr.kind = kind
        corr.pattern = pattern
        corr.code = nodes
        state = MState.__new__(MState)
        state.env = self.env
        state.corr = self.corr + (corr,)
        return state


@dataclass
class MatchInstance:
    """One successful match of a rule somewhere in a file."""

    rule: PatchRule
    env: Env
    correspondences: tuple[Correspondence, ...]
    tree: ParseTree

    def signature(self) -> tuple:
        """Used to de-duplicate identical matches found via different paths."""
        spans = tuple(sorted({(c.kind, c.pattern.start, n.start, n.end)
                              for c in self.correspondences for n in c.code}))
        bind_sig = tuple(sorted((k, v.text) for k, v in self.env.items()))
        return spans, bind_sig


# ---------------------------------------------------------------------------
# runtime helpers: the only facts a match needs from the tree it runs over
# ---------------------------------------------------------------------------

def code_value(tree: ParseTree, kind: str,
               node: A.Node | Sequence[A.Node]) -> BoundValue:
    """The value a metavariable of ``kind`` binds to ``node`` (or to a list
    of nodes) of ``tree``."""
    if isinstance(node, (list, tuple)):
        if not node:
            return BoundValue(kind=kind, text="", source_text="")
        texts = []
        sources = []
        for n in node:
            texts.append(" ".join(tree.node_token_values(n)))
            sources.append(tree.node_text(n))
        return BoundValue(kind=kind, text=" ".join(texts),
                          source_text="\n".join(sources) if kind == "statement list"
                          else ", ".join(sources))
    text = " ".join(tree.node_token_values(node))
    return BoundValue(kind=kind, text=text, source_text=tree.node_text(node))


def bind_positions(tree: ParseTree, pat: A.Node, code: A.Node,
                   st: MState) -> Optional[MState]:
    """``st`` with every position metavariable attached to ``pat`` bound to
    where ``code`` starts, or ``None`` when a binding conflicts."""
    for pos_name in pat.pos_metavars:
        loc = tree.node_location(code)
        value = BoundValue.for_position(Position(
            filename=tree.source.name, line=loc.line, col=loc.col,
            offset=loc.offset))
        st = st.bind(pos_name, value)
        if st is None:
            return None
    return st
