"""Compiled matching: per-rule specialized matchers over a fused node index.

The interpreted :class:`~repro.engine.matcher.Matcher` re-discovers the same
facts for every candidate node: which metavariable declaration a pattern
identifier refers to, which isomorphisms are live for a pattern shape, which
handler a pattern node kind dispatches to — and it enumerates *every*
expression (or statement-sequence start) of a file as a candidate for every
rule.  This module performs that work **once per rule** instead:

* :class:`CompiledRule` lowers a rule's pattern into a chain of closures —
  one specialized match function per pattern node, with the metavariable
  declaration, isomorphism flags, ``E + 0`` base pattern and position
  metavariables resolved at compile time.  Pattern kinds without a
  specialized lowering fall back to the interpreted matcher *for that node
  only*, so the compiled path is byte-identical by construction.
* :class:`NodeIndex` replaces the per-rule tree walks with **one** pre-order
  walk per parse tree, bucketing candidates by root node type (plus callee
  name for calls).  The index is cached on the tree object, and because the
  :class:`~repro.engine.cache.TreeCache` shares parse trees across the patch
  boundaries of a :class:`~repro.engine.pipeline.PatchPipeline`, a 12-patch
  cookbook pays ~one walk per patch boundary instead of twelve.
* :class:`PatternTrie` records which rules of a patch share candidate root
  keys: rules with a common structural prefix probe the same index bucket,
  and their results demultiplex into the ordinary per-rule reports because
  every rule still consumes its own match list.

Soundness of candidate filtering
--------------------------------
A bucket filter must never drop a candidate the interpreter would match.
The filters are therefore isomorphism-aware: a ``++``/``--`` unary pattern
also admits :class:`~repro.lang.ast_nodes.Assignment` candidates (the
``E += 1`` isomorphism), a ``+=``/``-=`` assignment pattern admits
:class:`~repro.lang.ast_nodes.UnaryOp` candidates, an ``E + 0`` pattern
admits everything its base pattern admits, and disjunctions take the union
(conjunctions the intersection) of their branches.  Parenthesized
candidates may be skipped even though the interpreter matches them after
stripping: the stripped expression is itself the next candidate in
pre-order and produces the same correspondences and bindings, so the
signature-level de-duplication of ``match_all`` makes the omission
invisible.  Identifier buckets keyed by *name* (call callees) are consulted
only when the inherited environment cannot rebind that name, because an
undeclared identifier pattern matches whatever an inherited binding says.

Compiled patches are cached globally by
:func:`~repro.engine.pipeline.patch_fingerprint`, so warm spatchd
workspaces and ``--watch`` loops never recompile an unchanged rule.  The
interpreted matcher remains the reference implementation behind
``REPRO_MATCHER=interp`` (or ``compile=False``).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from itertools import chain
from operator import itemgetter
from threading import Lock
from typing import Callable, Optional, Sequence

from ..lang import ast_nodes as A
from ..lang.parser import ParseTree
from ..obs import registry as _obs
from ..options import SpatchOptions
from ..smpl.ast import (KIND_EXPRESSION, KIND_STATEMENTS, KIND_TOPLEVEL,
                        PatchRule, SemanticPatchAST)
from ..smpl.isomorphisms import (DEFAULT_ISOS, IsoConfig, increment_variants,
                                 plus_zero_operand)
from .bindings import BoundValue, Env, EMPTY_ENV
from .matcher import Matcher, MatchInstance, MState


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def backend_enabled(compile_flag: Optional[bool] = None) -> bool:
    """Resolve the matching backend: an explicit ``compile=`` argument wins,
    otherwise the ``REPRO_MATCHER`` environment variable (``interp`` selects
    the reference interpreter; anything else — including unset — selects the
    compiled matcher)."""
    if compile_flag is not None:
        return bool(compile_flag)
    return os.environ.get("REPRO_MATCHER", "compiled").strip().lower() != "interp"


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

#: the matcher's counters, in ``matcher_counters`` key order.  Deliberately
#: *not* part of ``PipelineStats``: those are reconstructed exactly by
#: incremental splicing ("stats match a cold run's modulo timing"), which
#: volatile matcher traffic would break.  Surfaced through ``--profile``
#: and the server's ``"profile"`` payload instead.
_MATCHER = {field: _obs.REGISTRY.counter(f"repro_matcher_{field}_total",
                                         help_text)
            for field, help_text in (
    ("match_calls", "Compiled match_all invocations"),
    ("candidates_visited", "Candidate nodes or sequence starts attempted"),
    ("candidates_filtered", "Candidates skipped by the root-type filters"),
    ("dispatch_fallbacks", "Pattern nodes answered by the interpreter"),
    ("rules_compiled", "Rules lowered to closure chains"),
    ("rules_fallback", "Rules whose whole pattern fell back"),
    ("compile_cache_hits", "Compiled-patch cache hits"),
    ("compile_cache_misses", "Compiled-patch cache misses"),
    ("compile_cache_evictions", "Compiled-patch cache evictions"),
    ("trees_indexed", "Fresh NodeIndex walks"),
    ("index_reuses", "Reuses of a cached NodeIndex"))}
#: pattern-trie shape of the most recently built compiled patch
_M_TRIE_RULES = _obs.REGISTRY.gauge(
    "repro_matcher_trie_rules", "Rules in the latest pattern trie")
_M_TRIE_ROOTS = _obs.REGISTRY.gauge(
    "repro_matcher_trie_roots", "Root paths in the latest pattern trie")
_M_COMPILE_ENTRIES = _obs.REGISTRY.gauge(
    "repro_compile_cache_entries", "Compiled patches currently cached")


def matcher_counters(counts=_obs.REGISTRY) -> dict:
    """The matcher counters ``counts`` recorded (a run's or request's
    capture; the whole process by default), the latest trie shape, and
    the derived ``filter_rate`` / ``fusion_factor``."""
    payload = {field: counts.total(child) for field, child in _MATCHER.items()}
    payload["trie_rules"] = int(_M_TRIE_RULES.value)
    payload["trie_roots"] = int(_M_TRIE_ROOTS.value)
    candidates = payload["candidates_visited"] + payload["candidates_filtered"]
    payload["filter_rate"] = payload["candidates_filtered"] / candidates \
        if candidates else 0.0
    indexed = payload["trees_indexed"]
    # tree walks saved by index sharing: matches served per walk
    payload["fusion_factor"] = (indexed + payload["index_reuses"]) / indexed \
        if indexed else 0.0
    return payload


# ---------------------------------------------------------------------------
# the fused per-tree candidate index
# ---------------------------------------------------------------------------

_EMPTY: tuple = ()


class NodeIndex:
    """Candidate buckets for one parse tree, built in a single pre-order walk.

    ``exprs`` lists every expression as ``(rank, node)`` in the exact order
    ``ast_nodes.expressions_of`` yields them; ``exprs_by_type`` buckets the
    same entries by concrete node type and ``by_callee`` additionally keys
    calls by their (paren-stripped) callee identifier.  ``stmt_seqs`` are
    the statement candidate sequences in the interpreter's
    ``_candidate_sequences`` order: the top-level declarations first, then
    every compound block in pre-order.
    """

    __slots__ = ("exprs", "exprs_by_type", "by_callee", "stmt_seqs",
                 "seq_starts", "stmt_total", "_filter_starts")

    def __init__(self, tree: ParseTree):
        exprs: list[tuple[int, A.Node]] = []
        by_type: dict[type, list[tuple[int, A.Node]]] = {}
        by_callee: dict[str, list[tuple[int, A.Node]]] = {}
        seqs: list[list[A.Node]] = [list(tree.unit.decls)]
        rank = 0
        for node in A.walk(tree.unit):
            if isinstance(node, A.Expr):
                entry = (rank, node)
                exprs.append(entry)
                by_type.setdefault(type(node), []).append(entry)
                if type(node) is A.Call:
                    callee = node.func
                    while isinstance(callee, A.Paren) and callee.expr is not None:
                        callee = callee.expr
                    if isinstance(callee, A.Ident):
                        by_callee.setdefault(callee.name, []).append(entry)
            elif isinstance(node, A.CompoundStmt):
                seqs.append(node.stmts)
            rank += 1
        self.exprs = exprs
        self.exprs_by_type = by_type
        self.by_callee = by_callee
        self.stmt_seqs = seqs
        #: per sequence: concrete element type -> ascending start positions,
        #: so a type-filtered rule probes only viable sequence starts
        starts: list[dict[type, list[int]]] = []
        for seq in seqs:
            by_start: dict[type, list[int]] = {}
            for position, stmt in enumerate(seq):
                by_start.setdefault(type(stmt), []).append(position)
            starts.append(by_start)
        self.seq_starts = starts
        self.stmt_total = sum(len(seq) for seq in seqs)
        self._filter_starts: dict[frozenset, list] = {}

    def starts_for(self, filt: frozenset) -> list:
        """``(sequence index, ascending start positions)`` pairs for the
        sequences holding at least one element whose type is in ``filt`` —
        merged once per (tree, filter) and shared by every rule with the
        same start filter."""
        cached = self._filter_starts.get(filt)
        if cached is None:
            cached = []
            for seq_index, by_type in enumerate(self.seq_starts):
                lists = [bucket for t in filt
                         if (bucket := by_type.get(t))]
                if not lists:
                    continue
                merged = lists[0] if len(lists) == 1 \
                    else sorted(chain.from_iterable(lists))
                cached.append((seq_index, merged))
            self._filter_starts[filt] = cached
        return cached


def index_for(tree: ParseTree) -> NodeIndex:
    """The (cached) candidate index of a tree.  Attached to the tree object
    itself so :class:`~repro.engine.cache.TreeCache` sharing across rules,
    patches and pipeline patch boundaries fuses their walks automatically."""
    index = getattr(tree, "_node_index", None)
    if index is not None:
        _MATCHER["index_reuses"].inc()
        return index
    index = NodeIndex(tree)
    tree._node_index = index
    _MATCHER["trees_indexed"].inc()
    return index


# ---------------------------------------------------------------------------
# candidate root filters (isomorphism-aware; see the module docstring)
# ---------------------------------------------------------------------------

#: expression pattern kinds whose dispatch admits exactly their own type
_EXACT_EXPR = (A.Ternary, A.Call, A.KernelLaunch, A.Subscript, A.Member,
               A.Cast, A.InitList, A.CommaExpr, A.SizeofExpr, A.Lambda)


def _expr_filter(pat: A.Node, mvs, isos: IsoConfig) -> Optional[frozenset]:
    """Concrete code node types an expression pattern could match at its
    root (post paren-stripping), or ``None`` when unfilterable."""
    base = _expr_filter_base(pat, mvs, isos)
    if base is None:
        return None
    # the match_expr envelope also tries the 'E + 0' base pattern
    pz = plus_zero_operand(pat, isos)
    if pz is not None:
        sub = _expr_filter(pz, mvs, isos)
        if sub is None:
            return None
        base = base | sub
    return frozenset(base)


def _expr_filter_base(pat: A.Node, mvs, isos: IsoConfig):
    if isinstance(pat, (A.DotsExpr, A.MetaExprList)):
        return None
    if isinstance(pat, A.Disjunction):
        out: set = set()
        for branch in pat.branches:
            f = _expr_filter(branch, mvs, isos)
            if f is None:
                return None
            out |= f
        return out
    if isinstance(pat, A.Conjunction):
        out = None
        for branch in pat.branches:
            f = _expr_filter(branch, mvs, isos)
            if f is not None:
                out = set(f) if out is None else out & f
        return out
    if isinstance(pat, A.Paren):
        if pat.expr is None:
            return None
        inner = _expr_filter(pat.expr, mvs, isos)
        if inner is None:
            return None
        return set(inner) | {A.Paren}
    if isinstance(pat, A.Ident):
        decl = mvs.get(pat.name)
        kind = decl.kind if decl is not None else None
        if kind is None or kind in ("symbol", "identifier", "function",
                                    "declarer", "iterator", "type"):
            return {A.Ident}
        if kind == "constant":
            return {A.Literal}
        return None  # expression-valued metavariables match anything
    if isinstance(pat, A.Literal):
        return {A.Literal}
    if isinstance(pat, A.UnaryOp):
        out = {A.UnaryOp}
        if isos.increment_forms and pat.op in ("++", "--"):
            out.add(A.Assignment)  # i += 1 matches a ++ pattern
        return out
    if isinstance(pat, A.Assignment):
        out = {A.Assignment}
        if isos.increment_forms and pat.op in ("+=", "-="):
            out.add(A.UnaryOp)  # i++ matches a += 1 pattern
        return out
    if isinstance(pat, A.BinaryOp):
        return {A.BinaryOp}
    # dedicated handlers and the generic structural fallback both require
    # the exact code type (the hierarchy is flat: every concrete node class
    # is a leaf)
    return {type(pat)}


def _stmt_filter(pat: A.Node, mvs) -> Optional[frozenset]:
    """Concrete code node types a statement pattern could match, or ``None``
    when unfilterable (dots / statement metavariables / containment)."""
    if isinstance(pat, (A.DotsStmt, A.MetaStmt, A.MetaStmtList)):
        return None
    if isinstance(pat, A.Disjunction):
        out: set = set()
        for branch in pat.branches:
            f = _stmt_branch_filter(branch, mvs)
            if f is None:
                return None
            out |= f
        return frozenset(out)
    if isinstance(pat, A.Conjunction):
        out = None
        for branch in pat.branches:
            f = _stmt_branch_filter(branch, mvs)
            if f is not None:
                out = set(f) if out is None else out & f
        return frozenset(out) if out is not None else None
    if isinstance(pat, A.ExprStmt):
        return frozenset({A.ExprStmt})
    if isinstance(pat, A.DeclStmt):
        return frozenset({A.DeclStmt, A.Declaration})
    if isinstance(pat, A.Declaration):
        return frozenset({A.Declaration, A.DeclStmt})
    return frozenset({type(pat)})


def _stmt_branch_filter(branch: A.Node, mvs) -> Optional[frozenset]:
    if isinstance(branch, A.ExprStmt) and not branch.has_semicolon:
        return None  # containment: the expression may occur in any statement
    return _stmt_filter(branch, mvs)


def _stmt_first_pred(pat: A.Node, mvs) -> Optional[Callable]:
    """Secondary candidate key for a sequence's first pattern element:
    directive matching is prefix-based and environment-independent, so a
    literal leading pragma word (or an include's exact target) can prune
    starts before any match state is built."""
    if isinstance(pat, A.PragmaDirective):
        words = pat.text.split()
        if words and words[0] != "...":
            decl = mvs.get(words[0])
            if decl is None or decl.kind != "pragmainfo":
                first = words[0]

                def pragma_pred(node: A.Node) -> bool:
                    head = node.text.split(None, 1)
                    return bool(head) and head[0] == first

                return pragma_pred
        return None
    if isinstance(pat, A.IncludeDirective):
        target, system = pat.target, pat.system

        def include_pred(node: A.Node) -> bool:
            return node.target == target and node.system == system

        return include_pred
    return None


# ---------------------------------------------------------------------------
# the rule compiler
# ---------------------------------------------------------------------------

def _match_none(m: Matcher, code, st: MState) -> list[MState]:
    """Compiled form of ``match_expr(None, code, st)``."""
    return [st] if code is None else []


class CompiledRule:
    """One rule lowered to specialized closures plus a candidate plan.

    Every closure takes ``(m, code, st)`` where ``m`` is a per-(rule, tree)
    interpreted :class:`~repro.engine.matcher.Matcher` — the runtime context
    providing ``_code_value``/``_bind_positions`` and the reference
    implementation for pattern kinds without a specialized lowering.
    """

    def __init__(self, rule: PatchRule, options: SpatchOptions):
        self.rule = rule
        self.options = options
        self.isos = DEFAULT_ISOS if options.apply_isomorphisms \
            else IsoConfig.all_disabled()
        self.mvs = rule.metavars
        self.kind = rule.pattern_kind
        self._full_cache: dict[int, Callable] = {}
        self._dispatch_cache: dict[int, Callable] = {}
        self._stmt_cache: dict[int, Callable] = {}
        self._fallback = False
        self.expr_filter: Optional[frozenset] = None
        self.first_filter: Optional[frozenset] = None
        self.first_pred: Optional[Callable] = None
        self.callee_key: Optional[tuple[str, str]] = None
        self.min_len = 0
        try:
            self._lower()
            _MATCHER["rules_compiled"].inc()
        except Exception:
            # a pattern shape the compiler does not understand: keep the
            # rule correct by running it through the reference interpreter
            self._fallback = True
            _MATCHER["rules_fallback"].inc()

    def _lower(self) -> None:
        rule = self.rule
        if self.kind == KIND_EXPRESSION:
            if not rule.pattern_nodes:
                raise ValueError("empty expression pattern")
            pat = rule.pattern_nodes[0]
            self._expr_f = self._expr_full(pat)
            self.expr_filter = _expr_filter(pat, self.mvs, self.isos)
            if isinstance(pat, A.Call) and isinstance(pat.func, A.Ident) \
                    and plus_zero_operand(pat, self.isos) is None:
                decl = self.mvs.get(pat.func.name)
                if decl is None:
                    self.callee_key = ("env", pat.func.name)
                elif decl.kind == "symbol":
                    self.callee_key = ("always", pat.func.name)
        elif self.kind in (KIND_STATEMENTS, KIND_TOPLEVEL):
            if not rule.pattern_nodes:
                raise ValueError("empty statement pattern")
            self._seq_f = self._compile_seq(rule.pattern_nodes)
            first = rule.pattern_nodes[0]
            self.first_filter = _stmt_filter(first, self.mvs)
            self.first_pred = _stmt_first_pred(first, self.mvs)
            self.min_len = sum(
                1 for p in rule.pattern_nodes
                if not isinstance(p, (A.DotsStmt, A.MetaStmtList)))

    # -- entry point ----------------------------------------------------------

    def match_all(self, tree: ParseTree,
                  inherited_env: Env = EMPTY_ENV) -> list[MatchInstance]:
        m = Matcher(self.rule, tree, options=self.options)
        if self._fallback:
            return m.match_all(inherited_env)
        _MATCHER["match_calls"].inc()
        base = MState(env=inherited_env)
        results: list[MState] = []
        if self.kind == KIND_EXPRESSION:
            index = index_for(tree)
            expr_f = self._expr_f
            for _rank, node in self._expr_candidates(index, inherited_env):
                results.extend(expr_f(m, node, base))
        elif self.kind == KIND_STATEMENTS:
            self._seq_results(m, index_for(tree), base, results)
        elif self.kind == KIND_TOPLEVEL:
            self._seq_results(m, index_for(tree), base, results,
                              toplevel=True)

        instances = [MatchInstance(rule=self.rule, env=st.env,
                                   correspondences=st.corr, tree=tree)
                     for st in results]
        seen: set = set()
        unique: list[MatchInstance] = []
        for inst in instances:
            sig = inst.signature()
            if sig in seen:
                continue
            seen.add(sig)
            unique.append(inst)
        return unique

    # -- candidate plans ------------------------------------------------------

    def _expr_candidates(self, index: NodeIndex, env: Env):
        visited = _MATCHER["candidates_visited"]
        filtered = _MATCHER["candidates_filtered"]
        if self.callee_key is not None:
            mode, name = self.callee_key
            if mode == "always" or env.get(name) is None:
                bucket = index.by_callee.get(name, _EMPTY)
                visited.inc(len(bucket))
                filtered.inc(len(index.exprs) - len(bucket))
                return bucket
        filt = self.expr_filter
        if filt is None:
            visited.inc(len(index.exprs))
            return index.exprs
        lists = [bucket for t in filt
                 if (bucket := index.exprs_by_type.get(t))]
        if not lists:
            filtered.inc(len(index.exprs))
            return _EMPTY
        if len(lists) == 1:
            merged = lists[0]
        else:
            merged = sorted(chain.from_iterable(lists), key=itemgetter(0))
        visited.inc(len(merged))
        filtered.inc(len(index.exprs) - len(merged))
        return merged

    def _seq_results(self, m: Matcher, index: NodeIndex, base: MState,
                     results: list[MState], toplevel: bool = False) -> None:
        filt, pred, min_len = self.first_filter, self.first_pred, self.min_len
        seq_f = self._seq_f
        seqs = index.stmt_seqs
        total = len(seqs[0]) if toplevel else index.stmt_total
        visited = 0
        if filt is None:
            for seq in (seqs[:1] if toplevel else seqs):
                n = len(seq)
                # the interpreter attempts starts 0..n-min_len (every start
                # when min_len is 0): later ones cannot fit the pattern's
                # concrete elements
                limit = n - min_len if min_len else n - 1
                for start in range(limit + 1):
                    for st, _end in seq_f(m, seq, start, base, False, 0):
                        results.append(st)
                if limit >= 0:
                    visited += limit + 1
        else:
            for seq_index, starts in index.starts_for(filt):
                if toplevel and seq_index:
                    break
                seq = seqs[seq_index]
                n = len(seq)
                limit = n - min_len if min_len else n - 1
                for start in starts:
                    if start > limit:
                        break
                    if pred is not None and not pred(seq[start]):
                        continue
                    visited += 1
                    for st, _end in seq_f(m, seq, start, base, False, 0):
                        results.append(st)
        _MATCHER["candidates_visited"].inc(visited)
        _MATCHER["candidates_filtered"].inc(total - visited)

    # -- statement lowering ---------------------------------------------------

    def _stmt_full(self, pat: A.Node) -> Callable:
        key = id(pat)
        cached = self._stmt_cache.get(key)
        if cached is None:
            cached = self._compile_stmt(pat)
            self._stmt_cache[key] = cached
        return cached

    def _with_stmt_envelope(self, pat: A.Node, handler: Callable) -> Callable:
        if not pat.pos_metavars:
            return handler

        def full(m, code, st):
            out = []
            for s in handler(m, code, st):
                s2 = m._bind_positions(pat, code, s)
                if s2 is not None:
                    out.append(s2)
            return out

        return full

    def _stmt_interp(self, pat: A.Node) -> Callable:
        def fallback(m, code, st):
            _MATCHER["dispatch_fallbacks"].inc()
            return m.match_stmt(pat, code, st)

        return fallback

    def _compile_stmt(self, pat: A.Node) -> Callable:
        if isinstance(pat, A.Disjunction):
            branches = [self._compile_stmt_branch(b) for b in pat.branches]

            def disj(m, code, st):
                for branch_f in branches:
                    results = branch_f(m, code, st)
                    if results:
                        return results
                return []

            return disj

        if isinstance(pat, A.Conjunction):
            branches = [self._compile_stmt_branch(b) for b in pat.branches]

            def conj(m, code, st):
                states = [st]
                for branch_f in branches:
                    states = [s2 for s in states for s2 in branch_f(m, code, s)]
                    if not states:
                        return []
                return states

            return conj

        if isinstance(pat, A.MetaStmt):
            name = pat.name

            def meta_stmt(m, code, st):
                st2 = st.bind(name, m._code_value("statement", code))
                if st2 is None:
                    return []
                st2 = m._bind_positions(pat, code, st2)
                if st2 is None:
                    return []
                return [st2.add("binding", pat, code)]

            return meta_stmt

        if isinstance(pat, A.MetaStmtList):
            name = pat.name

            def meta_list(m, code, st):
                st2 = st.bind(name, m._code_value("statement list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None else []

            return meta_list

        if isinstance(pat, A.ExprStmt) and pat.expr is not None:
            expr_f = self._expr_full(pat.expr)

            def expr_stmt(m, code, st):
                if not isinstance(code, A.ExprStmt):
                    return []
                return [s.add("node", pat, code)
                        for s in expr_f(m, code.expr, st)]

            return self._with_stmt_envelope(pat, expr_stmt)

        if isinstance(pat, A.PragmaDirective):
            return self._with_stmt_envelope(pat, self._compile_pragma(pat))

        if isinstance(pat, A.IncludeDirective):
            target, system = pat.target, pat.system

            def include(m, code, st):
                if isinstance(code, A.IncludeDirective) and \
                        code.target == target and code.system == system:
                    return [st.add("node", pat, code)]
                return []

            return self._with_stmt_envelope(pat, include)

        if isinstance(pat, A.ReturnStmt):
            value_f = self._expr_full(pat.value) if pat.value is not None else None

            def return_stmt(m, code, st):
                if not isinstance(code, A.ReturnStmt):
                    return []
                if value_f is None:
                    return [st.add("node", pat, code)] if code.value is None else []
                if code.value is None:
                    return []
                return [s.add("node", pat, code)
                        for s in value_f(m, code.value, st)]

            return self._with_stmt_envelope(pat, return_stmt)

        if isinstance(pat, (A.BreakStmt, A.ContinueStmt, A.EmptyStmt)):
            want = type(pat)

            def leaf(m, code, st):
                return [st.add("node", pat, code)] if type(code) is want else []

            return self._with_stmt_envelope(pat, leaf)

        if isinstance(pat, A.IfStmt) and pat.cond is not None \
                and pat.then is not None:
            cond_f = self._expr_full(pat.cond)
            then_f = self._stmt_full(pat.then)
            orelse_f = self._stmt_full(pat.orelse) if pat.orelse is not None \
                else None

            def if_stmt(m, code, st):
                if not isinstance(code, A.IfStmt):
                    return []
                out = []
                for s1 in cond_f(m, code.cond, st):
                    for s2 in then_f(m, code.then, s1):
                        if orelse_f is None and code.orelse is None:
                            out.append(s2.add("node", pat, code))
                        elif orelse_f is not None and code.orelse is not None:
                            for s3 in orelse_f(m, code.orelse, s2):
                                out.append(s3.add("node", pat, code))
                return out

            return self._with_stmt_envelope(pat, if_stmt)

        if isinstance(pat, A.WhileStmt) and pat.cond is not None \
                and pat.body is not None:
            cond_f = self._expr_full(pat.cond)
            body_f = self._stmt_full(pat.body)

            def while_stmt(m, code, st):
                if not isinstance(code, A.WhileStmt):
                    return []
                out = []
                for s in cond_f(m, code.cond, st):
                    for s2 in body_f(m, code.body, s):
                        out.append(s2.add("node", pat, code))
                return out

            return self._with_stmt_envelope(pat, while_stmt)

        if isinstance(pat, A.DoWhileStmt) and pat.cond is not None \
                and pat.body is not None:
            cond_f = self._expr_full(pat.cond)
            body_f = self._stmt_full(pat.body)

            def do_while(m, code, st):
                if not isinstance(code, A.DoWhileStmt):
                    return []
                out = []
                for s in body_f(m, code.body, st):
                    for s2 in cond_f(m, code.cond, s):
                        out.append(s2.add("node", pat, code))
                return out

            return self._with_stmt_envelope(pat, do_while)

        if isinstance(pat, A.ForStmt):
            return self._with_stmt_envelope(pat, self._compile_for(pat))

        if isinstance(pat, A.CompoundStmt):
            seq_f = self._compile_seq(pat.stmts)

            def compound(m, code, st):
                if not isinstance(code, A.CompoundStmt):
                    return []
                return [s.add("node", pat, code)
                        for s, _pos in seq_f(m, code.stmts, 0, st, True, 0)]

            return self._with_stmt_envelope(pat, compound)

        # declarations, function definitions, range-for and anything else:
        # the interpreter's handlers (which do their own position binding)
        return self._stmt_interp(pat)

    def _compile_stmt_branch(self, branch: A.Node) -> Callable:
        if isinstance(branch, (A.Disjunction, A.Conjunction)):
            return self._stmt_full(branch)
        if isinstance(branch, A.ExprStmt) and not branch.has_semicolon:
            if branch.expr is None:
                return lambda m, code, st: []
            expr_f = self._expr_full(branch.expr)

            def containment(m, code, st):
                current, matched = st, False
                for sub in A.expressions_of(code):
                    results = expr_f(m, sub, current)
                    if results:
                        current = results[0]
                        matched = True
                return [current] if matched else []

            return containment
        return self._stmt_full(branch)

    def _compile_pragma(self, pat: A.PragmaDirective) -> Callable:
        plan: list[tuple] = []
        open_ended = False
        for word in pat.text.split():
            if word == "...":
                plan.append(("dots",))
                open_ended = True
                break
            decl = self.mvs.get(word)
            if decl is not None and decl.kind == "pragmainfo":
                plan.append(("info", word))
                open_ended = True
                break
            plan.append(("lit", word))
        n_words = len(pat.text.split())

        def pragma(m, code, st):
            if not isinstance(code, A.PragmaDirective):
                return []
            code_words = code.text.split()
            for i, item in enumerate(plan):
                op = item[0]
                if op == "dots":
                    return [st.add("node", pat, code)]
                if op == "info":
                    rest = " ".join(code_words[i:])
                    st2 = st.bind(item[1], BoundValue(kind="pragmainfo",
                                                      text=rest,
                                                      source_text=rest))
                    return [st2.add("node", pat, code)] if st2 is not None else []
                if i >= len(code_words) or code_words[i] != item[1]:
                    return []
            if not open_ended and len(code_words) != n_words:
                return []
            return [st.add("node", pat, code)]

        return pragma

    def _compile_for(self, pat: A.ForStmt) -> Callable:
        def part_plan(part, compile_expr: bool):
            if isinstance(part, A.DotsExpr):
                return ("dots", part)
            if part is None:
                return ("none",)
            if compile_expr:
                return ("match", self._expr_full(part))
            return ("init", part)

        init_plan = part_plan(pat.init, compile_expr=False)
        cond_plan = part_plan(pat.cond, compile_expr=True)
        step_plan = part_plan(pat.step, compile_expr=True)
        body_f = self._stmt_full(pat.body) if pat.body is not None else None

        def run_part(plan, m, code_part, states):
            out = []
            op = plan[0]
            for s in states:
                if op == "dots":
                    absorbed = [code_part] if code_part is not None else []
                    out.append(s.add("dots", plan[1], absorbed))
                elif op == "none":
                    if code_part is None:
                        out.append(s)
                elif code_part is not None:
                    if op == "init":
                        out.extend(m.match_for_init(plan[1], code_part, s))
                    else:
                        out.extend(plan[1](m, code_part, s))
            return out

        def for_stmt(m, code, st):
            if not isinstance(code, A.ForStmt):
                return []
            states = [st]
            states = run_part(init_plan, m, code.init, states)
            states = run_part(cond_plan, m, code.cond, states)
            states = run_part(step_plan, m, code.step, states)
            out = []
            for s in states:
                if body_f is None and code.body is None:
                    out.append(s.add("node", pat, code))
                elif body_f is not None and code.body is not None:
                    for s2 in body_f(m, code.body, s):
                        out.append(s2.add("node", pat, code))
            return out

        return for_stmt

    def _compile_seq(self, pats: Sequence[A.Node]) -> Callable:
        steps: list[tuple] = []
        for p in pats:
            if isinstance(p, A.MetaStmtList):
                steps.append(("list", p))
            elif isinstance(p, A.DotsStmt):
                steps.append(("dots", p))
            else:
                steps.append(("stmt", p, self._stmt_full(p)))
        n_steps = len(steps)
        max_dots = self.options.max_dots_statements

        def mseq(m, codes, pos, st, anchored_end, step):
            if step == n_steps:
                if anchored_end and pos != len(codes):
                    return []
                return [(st, pos)]
            item = steps[step]
            if item[0] != "stmt":
                head = item[1]
                out = []
                max_skip = min(len(codes) - pos, max_dots)
                last = step == n_steps - 1
                for skip in range(0, max_skip + 1):
                    absorbed = list(codes[pos:pos + skip])
                    if item[0] == "list":
                        st2 = st.bind(head.name,
                                      m._code_value("statement list", absorbed))
                        if st2 is None:
                            continue
                        st2 = st2.add("binding", head, absorbed)
                    else:
                        st2 = st.add("dots", head, absorbed)
                    tails = mseq(m, codes, pos + skip, st2, anchored_end,
                                 step + 1)
                    out.extend(tails)
                    if tails and not anchored_end and last:
                        break
                return out
            if pos >= len(codes):
                return []
            stmt_f = item[2]
            out = []
            for st2 in stmt_f(m, codes[pos], st):
                out.extend(mseq(m, codes, pos + 1, st2, anchored_end, step + 1))
            return out

        return mseq

    # -- expression lowering --------------------------------------------------

    def _expr_full_opt(self, pat: Optional[A.Node]) -> Callable:
        if pat is None:
            return _match_none
        return self._expr_full(pat)

    def _expr_full(self, pat: A.Node) -> Callable:
        key = id(pat)
        cached = self._full_cache.get(key)
        if cached is not None:
            return cached
        dispatch = self._expr_dispatch(pat)
        strip = self.isos.drop_parens and not isinstance(pat, A.Paren)
        pz = plus_zero_operand(pat, self.isos)
        pz_dispatch = self._expr_dispatch(pz) if pz is not None else None
        pos_names = pat.pos_metavars
        Paren = A.Paren

        def full(m, code, st):
            if code is None:
                return []
            if strip and isinstance(code, Paren):
                stripped = code
                while isinstance(stripped, Paren) and stripped.expr is not None:
                    stripped = stripped.expr
                code = stripped
            results = dispatch(m, code, st)
            if not results and pz_dispatch is not None:
                results = [s.add("binding", pat, code)
                           for s in pz_dispatch(m, code, st)]
            if not pos_names:
                return results
            out = []
            for s in results:
                s2 = m._bind_positions(pat, code, s)
                if s2 is not None:
                    out.append(s2)
            return out

        self._full_cache[key] = full
        return full

    def _expr_interp(self, pat: A.Node) -> Callable:
        def fallback(m, code, st):
            _MATCHER["dispatch_fallbacks"].inc()
            return m._match_expr_dispatch(pat, code, st)

        return fallback

    def _expr_dispatch(self, pat: A.Node) -> Callable:
        key = id(pat)
        cached = self._dispatch_cache.get(key)
        if cached is None:
            cached = self._compile_dispatch(pat)
            self._dispatch_cache[key] = cached
        return cached

    def _compile_dispatch(self, pat: A.Node) -> Callable:
        isos = self.isos

        if isinstance(pat, A.DotsExpr):
            def dots(m, code, st):
                return [st.add("dots", pat, [code])]

            return dots

        if isinstance(pat, A.Disjunction):
            branches = [self._expr_full(b) for b in pat.branches]

            def disj(m, code, st):
                for branch_f in branches:
                    results = branch_f(m, code, st)
                    if results:
                        return results
                return []

            return disj

        if isinstance(pat, A.Conjunction):
            branches = [self._expr_full(b) for b in pat.branches]

            def conj(m, code, st):
                states = [st]
                for branch_f in branches:
                    states = [s2 for s in states for s2 in branch_f(m, code, s)]
                    if not states:
                        return []
                return states

            return conj

        if isinstance(pat, A.Ident):
            return self._compile_ident(pat)

        if isinstance(pat, A.Literal):
            value = pat.value

            def literal(m, code, st):
                if isinstance(code, A.Literal) and value == code.value:
                    return [st.add("node", pat, code)]
                return []

            return literal

        if isinstance(pat, A.Paren):
            inner_f = self._expr_full_opt(pat.expr)

            def paren(m, code, st):
                if isinstance(code, A.Paren):
                    return [s.add("node", pat, code)
                            for s in inner_f(m, code.expr, st)]
                return inner_f(m, code, st)

            return paren

        if isinstance(pat, A.BinaryOp):
            op = pat.op
            left_f = self._expr_full_opt(pat.left)
            right_f = self._expr_full_opt(pat.right)
            commute = isos.commutative and op in A.COMMUTATIVE_OPS

            def binary(m, code, st):
                if not (isinstance(code, A.BinaryOp) and code.op == op):
                    return []
                out = []
                for s in left_f(m, code.left, st):
                    for s2 in right_f(m, code.right, s):
                        out.append(s2.add("node", pat, code))
                if out or not commute:
                    return out
                for s in left_f(m, code.right, st):
                    for s2 in right_f(m, code.left, s):
                        out.append(s2.add("node", pat, code))
                return out

            return binary

        if isinstance(pat, A.UnaryOp):
            op, prefix = pat.op, pat.prefix
            operand_f = self._expr_full_opt(pat.operand)
            inc = isos.increment_forms

            def unary(m, code, st):
                out = []
                if isinstance(code, A.UnaryOp) and code.op == op \
                        and code.prefix == prefix:
                    out = [s.add("node", pat, code)
                           for s in operand_f(m, code.operand, st)]
                if not out and inc:
                    for alt in increment_variants(code, isos):
                        inner = unary(m, alt, st)
                        out = [s.add("binding", pat, code) for s in inner]
                        if out:
                            break
                return out

            return unary

        if isinstance(pat, A.Assignment):
            op = pat.op
            target_f = self._expr_full_opt(pat.target)
            value_f = self._expr_full_opt(pat.value)
            inc = isos.increment_forms

            def assign(m, code, st):
                if isinstance(code, A.Assignment) and code.op == op:
                    out = []
                    for s in target_f(m, code.target, st):
                        for s2 in value_f(m, code.value, s):
                            out.append(s2.add("node", pat, code))
                    return out
                if inc:
                    for alt in increment_variants(code, isos):
                        if isinstance(alt, A.Assignment):
                            inner = assign(m, alt, st)
                            if inner:
                                return [s.add("binding", pat, code)
                                        for s in inner]
                return []

            return assign

        if isinstance(pat, A.Ternary):
            cond_f = self._expr_full_opt(pat.cond)
            then_f = self._expr_full_opt(pat.then)
            orelse_f = self._expr_full_opt(pat.orelse)

            def ternary(m, code, st):
                if not isinstance(code, A.Ternary):
                    return []
                out = []
                for s in cond_f(m, code.cond, st):
                    for s2 in then_f(m, code.then, s):
                        for s3 in orelse_f(m, code.orelse, s2):
                            out.append(s3.add("node", pat, code))
                return out

            return ternary

        if isinstance(pat, A.Call):
            func_f = self._expr_full_opt(pat.func)
            args_f = self._compile_expr_list(pat.args)

            def call(m, code, st):
                if not isinstance(code, A.Call):
                    return []
                out = []
                for s in func_f(m, code.func, st):
                    for s2, _pos in args_f(m, code.args, 0, s, 0):
                        out.append(s2.add("node", pat, code))
                return out

            return call

        if isinstance(pat, A.KernelLaunch):
            func_f = self._expr_full_opt(pat.func)
            config_f = self._compile_expr_list(pat.config)
            args_f = self._compile_expr_list(pat.args)

            def launch(m, code, st):
                if not isinstance(code, A.KernelLaunch):
                    return []
                out = []
                for s in func_f(m, code.func, st):
                    for s2, _p in config_f(m, code.config, 0, s, 0):
                        for s3, _p2 in args_f(m, code.args, 0, s2, 0):
                            out.append(s3.add("node", pat, code))
                return out

            return launch

        if isinstance(pat, A.Subscript):
            base_f = self._expr_full_opt(pat.base)
            indices_f = self._compile_expr_list(pat.indices)

            def subscript(m, code, st):
                if not isinstance(code, A.Subscript):
                    return []
                out = []
                for s in base_f(m, code.base, st):
                    for s2, _pos in indices_f(m, code.indices, 0, s, 0):
                        out.append(s2.add("node", pat, code))
                return out

            return subscript

        if isinstance(pat, A.Member):
            op, name = pat.op, pat.name
            base_f = self._expr_full_opt(pat.base)

            def member(m, code, st):
                if not isinstance(code, A.Member) or op != code.op:
                    return []
                out = []
                for s in base_f(m, code.base, st):
                    s2 = m._match_name(name, code.name, s)
                    if s2 is not None:
                        out.append(s2.add("node", pat, code))
                return out

            return member

        if isinstance(pat, A.MetaExprList):
            name = pat.name

            def meta_expr_list(m, code, st):
                st2 = st.bind(name, m._code_value("expression list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None \
                    else []

            return meta_expr_list

        # Cast / InitList / CommaExpr / SizeofExpr / Lambda and anything the
        # parser grows later: the interpreter's dispatch ladder is the
        # reference for these colder shapes
        return self._expr_interp(pat)

    def _compile_ident(self, pat: A.Ident) -> Callable:
        name = pat.name
        decl = self.mvs.get(name)
        kind = decl.kind if decl is not None else None

        if decl is None:
            def plain(m, code, st):
                if isinstance(code, A.Ident):
                    bound = st.env.get(name)
                    target = bound.text if bound is not None else name
                    if code.name == target:
                        return [st.add("node", pat, code)]
                return []

            return plain

        if kind == "symbol":
            def symbol(m, code, st):
                if isinstance(code, A.Ident) and code.name == name:
                    return [st.add("node", pat, code)]
                return []

            return symbol

        if kind in ("identifier", "function", "declarer", "iterator"):
            check = decl.check_name_constraint

            def ident(m, code, st):
                if not isinstance(code, A.Ident):
                    return []
                if not check(code.name):
                    return []
                st2 = st.bind(name, BoundValue.for_name(kind, code.name))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return ident

        if kind == "constant":
            check = decl.check_constant_constraint

            def constant(m, code, st):
                if not isinstance(code, A.Literal):
                    return []
                if not check(code.value):
                    return []
                st2 = st.bind(name, BoundValue(kind="constant", text=code.value,
                                               source_text=code.value))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return constant

        if kind in ("expression", "idexpression", "local idexpression"):
            def expr_mv(m, code, st):
                st2 = st.bind(name, m._code_value("expression", code))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return expr_mv

        if kind == "expression list":
            def expr_list_mv(m, code, st):
                st2 = st.bind(name, m._code_value("expression list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None \
                    else []

            return expr_list_mv

        if kind == "type":
            def type_mv(m, code, st):
                if isinstance(code, A.Ident):
                    st2 = st.bind(name, BoundValue(kind="type", text=code.name,
                                                   source_text=code.name))
                    return [st2.add("binding", pat, code)] if st2 is not None \
                        else []
                return []

            return type_mv

        def never(m, code, st):
            return []

        return never

    def _compile_expr_list(self, pats: Sequence[A.Node]) -> Callable:
        elems: list[tuple] = []
        for p in pats:
            if isinstance(p, A.MetaExprList):
                elems.append(("list", p))
            elif isinstance(p, A.DotsExpr):
                elems.append(("dots", p))
            else:
                elems.append(("expr", p, self._expr_full(p)))
        n_elems = len(elems)

        def mlist(m, codes, pos, st, step):
            if step == n_elems:
                return [(st, pos)] if pos == len(codes) else []
            item = elems[step]
            if item[0] != "expr":
                head = item[1]
                out = []
                for skip in range(0, len(codes) - pos + 1):
                    absorbed = list(codes[pos:pos + skip])
                    if item[0] == "list":
                        st2 = st.bind(head.name,
                                      m._code_value("expression list", absorbed))
                        if st2 is None:
                            continue
                        st2 = st2.add("binding", head, absorbed)
                    else:
                        st2 = st.add("dots", head, absorbed)
                    out.extend(mlist(m, codes, pos + skip, st2, step + 1))
                return out
            if pos >= len(codes):
                return []
            out = []
            for s in item[2](m, codes[pos], st):
                out.extend(mlist(m, codes, pos + 1, s, step + 1))
            return out

        return mlist


# ---------------------------------------------------------------------------
# the per-patch trie + compiled-patch container
# ---------------------------------------------------------------------------

class PatternTrie:
    """Which rules of one compiled patch share candidate root keys.

    The first trie level is the candidate root (node type for expression and
    statement patterns, ``*`` for unfilterable rules); the second level is
    the secondary key where one exists (call callee name, leading pragma
    word, include target).  Rules mapped to the same path probe the same
    :class:`NodeIndex` bucket — one shared walk, per-rule demultiplexed
    results — which is what makes a multi-rule patch cost ~one traversal
    per tree state instead of one per rule.
    """

    def __init__(self, rules: Sequence[CompiledRule]):
        self.paths: dict[tuple, list[str]] = {}
        for crule in rules:
            for path in self._paths_of(crule):
                self.paths.setdefault(path, []).append(crule.rule.name)
        self.n_rules = len(rules)
        _M_TRIE_RULES.set(self.n_rules)
        _M_TRIE_ROOTS.set(len(self.paths))

    @staticmethod
    def _paths_of(crule: CompiledRule) -> list[tuple]:
        kind = crule.kind
        if kind == KIND_EXPRESSION:
            if crule.callee_key is not None:
                return [("expr", A.Call.__name__, crule.callee_key[1])]
            if crule.expr_filter is None:
                return [("expr", "*")]
            return [("expr", t.__name__) for t in sorted(
                crule.expr_filter, key=lambda t: t.__name__)]
        if kind in (KIND_STATEMENTS, KIND_TOPLEVEL):
            if crule.first_filter is None:
                return [("stmt", "*")]
            first = crule.rule.pattern_nodes[0]
            if isinstance(first, A.PragmaDirective) and crule.first_pred:
                return [("stmt", A.PragmaDirective.__name__,
                         first.text.split()[0])]
            if isinstance(first, A.IncludeDirective):
                return [("stmt", A.IncludeDirective.__name__, first.target)]
            return [("stmt", t.__name__) for t in sorted(
                crule.first_filter, key=lambda t: t.__name__)]
        return [("other", "*")]

    @property
    def fusion_factor(self) -> float:
        """Rules served per distinct root path (>1 means prefix sharing)."""
        return self.n_rules / len(self.paths) if self.paths else 0.0

    def rules_at(self, *path) -> list[str]:
        return list(self.paths.get(tuple(path), []))


class CompiledPatch:
    """Lazily compiled rules of one semantic patch under one options set."""

    def __init__(self, patch: SemanticPatchAST, options: SpatchOptions):
        self.patch = patch
        self.options = options
        self._rules: dict[str, CompiledRule] = {}
        self._by_id = {id(rule): rule for rule in patch.patch_rules()}
        self._by_name = {rule.name: rule for rule in patch.patch_rules()}
        self._trie: Optional[PatternTrie] = None

    def rule_for(self, rule: PatchRule) -> Optional[CompiledRule]:
        """The compiled form of ``rule`` — matched by identity for the patch
        this compilation came from, by name for a fingerprint-equal twin AST
        (identical SMPL source parses to an identical rule, so the compiled
        twin is interchangeable for matching *and* transforming as long as
        the caller consistently uses ``compiled.rule``)."""
        base = self._by_id.get(id(rule)) or self._by_name.get(rule.name)
        if base is None:
            return None
        compiled = self._rules.get(base.name)
        if compiled is None:
            compiled = CompiledRule(base, self.options)
            self._rules[base.name] = compiled
        return compiled

    def trie(self) -> PatternTrie:
        """The patch's pattern trie (compiles every rule on first use)."""
        if self._trie is None:
            for rule in self.patch.patch_rules():
                self.rule_for(rule)
            self._trie = PatternTrie(list(self._rules.values()))
        return self._trie


# ---------------------------------------------------------------------------
# the fingerprint-keyed compile cache
# ---------------------------------------------------------------------------

MAX_COMPILED_PATCHES = 128

_COMPILE_CACHE: "OrderedDict[str, CompiledPatch]" = OrderedDict()
_COMPILE_LOCK = Lock()


def _compile_key(patch: SemanticPatchAST, options: SpatchOptions) -> str:
    from .pipeline import patch_fingerprint

    # the patch's display name cannot change what compilation produces, so
    # every alias of one (source, options) pair shares a cache entry
    return patch_fingerprint(patch, options, "<compiled>")


def compile_key(patch: SemanticPatchAST, options: SpatchOptions) -> str:
    """The cache identity of ``patch``'s compiled form — what
    :func:`evict_compiled` would drop.  Holders that share the global cache
    (the server's workspaces refcount these keys) use it to agree on when an
    eviction is actually safe."""
    return _compile_key(patch, options)


def compiled_patch_for(patch: SemanticPatchAST,
                       options: SpatchOptions) -> CompiledPatch:
    """The (globally cached) compiled form of ``patch`` under ``options``,
    keyed by :func:`~repro.engine.pipeline.patch_fingerprint` so warm
    spatchd workspaces and ``--watch`` loops never recompile an unchanged
    rule."""
    key = _compile_key(patch, options)
    with _COMPILE_LOCK:
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            _COMPILE_CACHE.move_to_end(key)
            _MATCHER["compile_cache_hits"].inc()
            return cached
        _MATCHER["compile_cache_misses"].inc()
    compiled = CompiledPatch(patch, options)
    with _COMPILE_LOCK:
        _COMPILE_CACHE[key] = compiled
        while len(_COMPILE_CACHE) > MAX_COMPILED_PATCHES:
            _COMPILE_CACHE.popitem(last=False)
            _MATCHER["compile_cache_evictions"].inc()
        _M_COMPILE_ENTRIES.set(len(_COMPILE_CACHE))
    return compiled


def evict_compiled(patch: SemanticPatchAST, options: SpatchOptions) -> bool:
    """Drop a patch's compiled form (the server calls this when its
    per-workspace patch-spec LRU evicts the spec that produced it)."""
    key = _compile_key(patch, options)
    with _COMPILE_LOCK:
        if key in _COMPILE_CACHE:
            del _COMPILE_CACHE[key]
            _MATCHER["compile_cache_evictions"].inc()
            _M_COMPILE_ENTRIES.set(len(_COMPILE_CACHE))
            return True
    return False


def compile_cache_info() -> dict:
    with _COMPILE_LOCK:
        return {"entries": len(_COMPILE_CACHE),
                "max_entries": MAX_COMPILED_PATCHES}


def clear_compile_cache() -> None:
    with _COMPILE_LOCK:
        _COMPILE_CACHE.clear()
        _M_COMPILE_ENTRIES.set(0)
