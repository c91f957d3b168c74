"""The matcher: per-rule closures over a fused node index.

Matching a rule means asking the same questions for every candidate node:
which metavariable declaration a pattern identifier refers to, which
isomorphisms are live for a pattern shape, how a pattern node kind is
matched.  This module answers them **once per rule**:

* :class:`CompiledRule` lowers a rule's pattern into a chain of closures —
  one specialized match function per pattern node, with the metavariable
  declaration, isomorphism flags, ``E + 0`` base pattern and position
  metavariables resolved at compile time.  Every pattern node kind has its
  own lowering; kinds without a dedicated one (``Lambda``, struct
  definitions, raw declarations ...) get a field-by-field structural
  closure.  The match state types and the two helpers closures call at
  run time live in :mod:`~repro.engine.matcher`.
* :class:`NodeIndex` replaces per-rule tree walks with **one** pre-order
  walk per parse tree, bucketing candidates by root node type (plus callee
  name for calls).  The index is cached on the tree object, and because the
  :class:`~repro.engine.cache.TreeCache` shares parse trees across the patch
  boundaries of a :class:`~repro.engine.pipeline.PatchPipeline`, a 12-patch
  cookbook pays ~one walk per patch boundary instead of twelve.
* :class:`CompiledPatch` holds a patch's compiled rules, each lowered on
  first use.  It is a derived fact of the patch object
  (:mod:`~repro.engine.derived`), so compiled forms live as long as their
  patch: every session, pipeline and warm request that reuses a patch
  object reuses its matchers, and they die with it.

Soundness of candidate filtering
--------------------------------
A bucket filter must never drop a candidate the pattern could match.
The filters are therefore isomorphism-aware: a ``++``/``--`` unary pattern
also admits :class:`~repro.lang.ast_nodes.Assignment` candidates (the
``E += 1`` isomorphism), a ``+=``/``-=`` assignment pattern admits
:class:`~repro.lang.ast_nodes.UnaryOp` candidates, an ``E + 0`` pattern
admits everything its base pattern admits, and disjunctions take the union
(conjunctions the intersection) of their branches.  Parenthesized
candidates may be skipped even though the pattern matches them after
stripping: the stripped expression is itself the next candidate in
pre-order and produces the same correspondences and bindings, so the
signature-level de-duplication of ``match_all`` makes the omission
invisible.  Identifier buckets keyed by *name* (call callees) are consulted
only when the inherited environment cannot rebind that name, because an
undeclared identifier pattern matches whatever an inherited binding says.

The test suite keeps a tree-walking reference matcher
(``tests/reference_matcher.py``) that enumerates every expression and every
statement-sequence start; the differential tests require both to return the
same match signatures, in order, for every call.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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
from .derived import derived
from .matcher import MatchInstance, MState, bind_positions, code_value


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
    ("match_calls", "match_all invocations"),
    ("candidates_visited", "Candidate nodes or sequence starts attempted"),
    ("candidates_filtered", "Candidates skipped by the root-type filters"),
    ("rules_compiled", "Rules lowered to closure chains"),
    ("trees_indexed", "Fresh NodeIndex walks"),
    ("index_reuses", "Reuses of a cached NodeIndex"))}


def matcher_counters(counts=_obs.REGISTRY) -> dict:
    """The matcher counters ``counts`` recorded (a run's or request's
    capture; the whole process by default) and the derived
    ``filter_rate`` / ``fusion_factor``."""
    payload = {field: counts.total(child) for field, child in _MATCHER.items()}
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
    the statement candidate sequences: the top-level declarations first,
    then every compound block in pre-order.
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
    # dedicated lowerings and the generic structural closure both require
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

def _match_none(tree, code, st: MState) -> list[MState]:
    """Compiled form of a missing sub-pattern: it matches only a missing
    code node."""
    return [st] if code is None else []


def _never(tree, code, st: MState) -> list[MState]:
    return []


def _same_name(code_name: str, st: MState) -> MState:
    return st


class CompiledRule:
    """One rule lowered to specialized closures plus a candidate plan.

    Every closure takes ``(tree, code, st)``: the
    :class:`~repro.lang.parser.ParseTree` being matched (the runtime
    context of :func:`~repro.engine.matcher.code_value` and
    :func:`~repro.engine.matcher.bind_positions`), a code node and a match
    state, and returns the extended states under which its pattern node
    matches.  Name matchers (function, declarator, parameter, member and
    attribute names are plain strings) take ``(code_name, st)`` and return
    one state or ``None``.
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
        self.expr_filter: Optional[frozenset] = None
        self.first_filter: Optional[frozenset] = None
        self.first_pred: Optional[Callable] = None
        self.callee_key: Optional[tuple[str, str]] = None
        self.min_len = 0
        self._lower()
        _MATCHER["rules_compiled"].inc()

    def _lower(self) -> None:
        rule = self.rule
        if self.kind == KIND_EXPRESSION:
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
        _MATCHER["match_calls"].inc()
        base = MState(env=inherited_env)
        results: list[MState] = []
        if self.kind == KIND_EXPRESSION:
            index = index_for(tree)
            expr_f = self._expr_f
            for _rank, node in self._expr_candidates(index, inherited_env):
                results.extend(expr_f(tree, node, base))
        elif self.kind == KIND_STATEMENTS:
            self._seq_results(tree, index_for(tree), base, results)
        elif self.kind == KIND_TOPLEVEL:
            self._seq_results(tree, index_for(tree), base, results,
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

    def _seq_results(self, tree: ParseTree, index: NodeIndex, base: MState,
                     results: list[MState], toplevel: bool = False) -> None:
        filt, pred, min_len = self.first_filter, self.first_pred, self.min_len
        seq_f = self._seq_f
        seqs = index.stmt_seqs
        total = len(seqs[0]) if toplevel else index.stmt_total
        visited = 0
        if filt is None:
            for seq in (seqs[:1] if toplevel else seqs):
                n = len(seq)
                # starts past n-min_len (every start when min_len is 0)
                # cannot fit the pattern's concrete elements
                limit = n - min_len if min_len else n - 1
                for start in range(limit + 1):
                    for st, _end in seq_f(tree, seq, start, base, False, 0):
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
                    for st, _end in seq_f(tree, seq, start, base, False, 0):
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

    def _compile_stmt(self, pat: A.Node) -> Callable:
        if isinstance(pat, A.Disjunction):
            branches = [self._compile_stmt_branch(b) for b in pat.branches]

            def disj(tree, code, st):
                for branch_f in branches:
                    results = branch_f(tree, code, st)
                    if results:
                        return results
                return []

            return disj

        if isinstance(pat, A.Conjunction):
            branches = [self._compile_stmt_branch(b) for b in pat.branches]

            def conj(tree, code, st):
                states = [st]
                for branch_f in branches:
                    states = [s2 for s in states
                              for s2 in branch_f(tree, code, s)]
                    if not states:
                        return []
                return states

            return conj

        if isinstance(pat, A.MetaStmt):
            name = pat.name

            def meta_stmt(tree, code, st):
                st2 = st.bind(name, code_value(tree, "statement", code))
                if st2 is None:
                    return []
                st2 = bind_positions(tree, pat, code, st2)
                if st2 is None:
                    return []
                return [st2.add("binding", pat, code)]

            return meta_stmt

        if isinstance(pat, A.MetaStmtList):
            name = pat.name

            def meta_list(tree, code, st):
                st2 = st.bind(name, code_value(tree, "statement list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None else []

            return meta_list

        handler = self._compile_stmt_kind(pat)
        if not pat.pos_metavars:
            return handler

        def with_positions(tree, code, st):
            out = []
            for s in handler(tree, code, st):
                s2 = bind_positions(tree, pat, code, s)
                if s2 is not None:
                    out.append(s2)
            return out

        return with_positions

    def _compile_stmt_kind(self, pat: A.Node) -> Callable:
        """The closure of one statement (or top-level) pattern node, before
        its position metavariables are bound."""
        if isinstance(pat, A.ExprStmt):
            expr_f = self._expr_full(pat.expr)

            def expr_stmt(tree, code, st):
                if not isinstance(code, A.ExprStmt):
                    return []
                return [s.add("node", pat, code)
                        for s in expr_f(tree, code.expr, st)]

            return expr_stmt

        if isinstance(pat, A.DeclStmt):
            decl_f = self._compile_declaration(pat.decl)

            def decl_stmt(tree, code, st):
                # file-scope declarations are bare Declaration nodes;
                # statement-level ones are wrapped in DeclStmt — the pattern
                # matches both
                if isinstance(code, A.DeclStmt):
                    code_decl = code.decl
                elif isinstance(code, A.Declaration):
                    code_decl = code
                else:
                    return []
                return [s.add("node", pat, code)
                        for s in decl_f(tree, code_decl, st)]

            return decl_stmt

        if isinstance(pat, A.Declaration):
            decl_f = self._compile_declaration(pat)

            def declaration(tree, code, st):
                if isinstance(code, A.Declaration):
                    return decl_f(tree, code, st)
                if isinstance(code, A.DeclStmt):
                    return [s.add("node", pat, code)
                            for s in decl_f(tree, code.decl, st)]
                return []

            return declaration

        if isinstance(pat, A.FunctionDef):
            return self._compile_function(pat)

        if isinstance(pat, A.PragmaDirective):
            return self._compile_pragma(pat)

        if isinstance(pat, A.IncludeDirective):
            target, system = pat.target, pat.system

            def include(tree, code, st):
                if isinstance(code, A.IncludeDirective) and \
                        code.target == target and code.system == system:
                    return [st.add("node", pat, code)]
                return []

            return include

        if isinstance(pat, A.ReturnStmt):
            value_f = self._expr_full(pat.value) if pat.value is not None else None

            def return_stmt(tree, code, st):
                if not isinstance(code, A.ReturnStmt):
                    return []
                if value_f is None:
                    return [st.add("node", pat, code)] if code.value is None else []
                if code.value is None:
                    return []
                return [s.add("node", pat, code)
                        for s in value_f(tree, code.value, st)]

            return return_stmt

        if isinstance(pat, (A.BreakStmt, A.ContinueStmt, A.EmptyStmt)):
            want = type(pat)

            def leaf(tree, code, st):
                return [st.add("node", pat, code)] if type(code) is want else []

            return leaf

        if isinstance(pat, A.IfStmt):
            cond_f = self._expr_full(pat.cond)
            then_f = self._stmt_full(pat.then)
            orelse_f = self._stmt_full(pat.orelse) if pat.orelse is not None \
                else None

            def if_stmt(tree, code, st):
                if not isinstance(code, A.IfStmt):
                    return []
                out = []
                for s1 in cond_f(tree, code.cond, st):
                    for s2 in then_f(tree, code.then, s1):
                        if orelse_f is None and code.orelse is None:
                            out.append(s2.add("node", pat, code))
                        elif orelse_f is not None and code.orelse is not None:
                            for s3 in orelse_f(tree, code.orelse, s2):
                                out.append(s3.add("node", pat, code))
                return out

            return if_stmt

        if isinstance(pat, A.WhileStmt):
            cond_f = self._expr_full(pat.cond)
            body_f = self._stmt_full(pat.body)

            def while_stmt(tree, code, st):
                if not isinstance(code, A.WhileStmt):
                    return []
                out = []
                for s in cond_f(tree, code.cond, st):
                    for s2 in body_f(tree, code.body, s):
                        out.append(s2.add("node", pat, code))
                return out

            return while_stmt

        if isinstance(pat, A.DoWhileStmt):
            cond_f = self._expr_full(pat.cond)
            body_f = self._stmt_full(pat.body)

            def do_while(tree, code, st):
                if not isinstance(code, A.DoWhileStmt):
                    return []
                out = []
                for s in body_f(tree, code.body, st):
                    for s2 in cond_f(tree, code.cond, s):
                        out.append(s2.add("node", pat, code))
                return out

            return do_while

        if isinstance(pat, A.ForStmt):
            return self._compile_for(pat)

        if isinstance(pat, A.RangeForStmt):
            return self._compile_range_for(pat)

        if isinstance(pat, A.CompoundStmt):
            seq_f = self._compile_seq(pat.stmts)

            def compound(tree, code, st):
                if not isinstance(code, A.CompoundStmt):
                    return []
                return [s.add("node", pat, code)
                        for s, _pos in seq_f(tree, code.stmts, 0, st, True, 0)]

            return compound

        return self._compile_generic(pat)

    def _compile_stmt_branch(self, branch: A.Node) -> Callable:
        """A branch of a statement-level disjunction/conjunction.  A bare
        expression branch (no semicolon) is a *containment* constraint: the
        expression must occur somewhere inside the statement; every
        occurrence is matched, threading the environment through them."""
        if isinstance(branch, A.ExprStmt) and not branch.has_semicolon:
            if branch.expr is None:
                return _never
            expr_f = self._expr_full(branch.expr)

            def containment(tree, code, st):
                current, matched = st, False
                for sub in A.expressions_of(code):
                    results = expr_f(tree, sub, current)
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
                plan.append(("dots",))  # the rest of the pragma is arbitrary
                open_ended = True
                break
            decl = self.mvs.get(word)
            if decl is not None and decl.kind == "pragmainfo":
                plan.append(("info", word))
                open_ended = True
                break
            plan.append(("lit", word))
        n_words = len(pat.text.split())

        def pragma(tree, code, st):
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
            # pattern exhausted: require the code to be exhausted too
            if not open_ended and len(code_words) != n_words:
                return []
            return [st.add("node", pat, code)]

        return pragma

    def _compile_for(self, pat: A.ForStmt) -> Callable:
        def part_plan(part, part_f):
            if isinstance(part, A.DotsExpr):
                return ("dots", part)
            if part is None:
                return ("none",)
            return ("match", part_f(part))

        init_plan = part_plan(pat.init, self._compile_for_init)
        cond_plan = part_plan(pat.cond, self._expr_full)
        step_plan = part_plan(pat.step, self._expr_full)
        body_f = self._stmt_full(pat.body) if pat.body is not None else None

        def run_part(plan, tree, code_part, states):
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
                    out.extend(plan[1](tree, code_part, s))
            return out

        def for_stmt(tree, code, st):
            if not isinstance(code, A.ForStmt):
                return []
            states = [st]
            states = run_part(init_plan, tree, code.init, states)
            states = run_part(cond_plan, tree, code.cond, states)
            states = run_part(step_plan, tree, code.step, states)
            out = []
            for s in states:
                if body_f is None and code.body is None:
                    out.append(s.add("node", pat, code))
                elif body_f is not None and code.body is not None:
                    for s2 in body_f(tree, code.body, s):
                        out.append(s2.add("node", pat, code))
            return out

        return for_stmt

    def _compile_for_init(self, pat: A.Node) -> Callable:
        """A ``for`` header's init clause: a declaration or an expression
        statement (the parser never puts a bare declaration there), matched
        without binding its position metavariables."""
        if isinstance(pat, (A.DeclStmt, A.ExprStmt)):
            return self._compile_stmt_kind(pat)
        return _never

    def _compile_range_for(self, pat: A.RangeForStmt) -> Callable:
        type_f = self._compile_type(pat.type)
        reference = pat.reference
        var_f = self._compile_name(pat.var)
        iterable_f = self._expr_full_opt(pat.iterable)
        body_f = self._stmt_full(pat.body) if pat.body is not None else None

        def range_for(tree, code, st):
            if not isinstance(code, A.RangeForStmt) \
                    or code.reference != reference:
                return []
            out = []
            for s in type_f(tree, code.type, st):
                s2 = var_f(code.var, s)
                if s2 is None:
                    continue
                for s3 in iterable_f(tree, code.iterable, s2):
                    if body_f is None:
                        out.append(s3.add("node", pat, code))
                    elif code.body is not None:
                        for s4 in body_f(tree, code.body, s3):
                            out.append(s4.add("node", pat, code))
            return out

        return range_for

    def _compile_seq(self, pats: Sequence[A.Node]) -> Callable:
        """Match a pattern element sequence against ``codes`` starting at
        ``pos``: the closure returns ``(state, next_position)`` pairs; when
        ``anchored_end`` the whole remaining code sequence must be covered.
        ``...`` and statement-list metavariables absorb a variable number of
        elements."""
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

        def mseq(tree, codes, pos, st, anchored_end, step):
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
                        st2 = st.bind(head.name, code_value(
                            tree, "statement list", absorbed))
                        if st2 is None:
                            continue
                        st2 = st2.add("binding", head, absorbed)
                    else:
                        st2 = st.add("dots", head, absorbed)
                    tails = mseq(tree, codes, pos + skip, st2, anchored_end,
                                 step + 1)
                    out.extend(tails)
                    if tails and not anchored_end and last:
                        break
                return out
            if pos >= len(codes):
                return []
            stmt_f = item[2]
            out = []
            for st2 in stmt_f(tree, codes[pos], st):
                out.extend(mseq(tree, codes, pos + 1, st2, anchored_end,
                                step + 1))
            return out

        return mseq

    # -- declarations, functions, types and names -----------------------------

    def _compile_declaration(self, pat: Optional[A.Declaration]) -> Callable:
        """A declaration pattern against a code ``Declaration``: specifiers
        the pattern mentions (extern, static, ...) must be present on the
        code (extra ones are allowed), then the type and every declarator."""
        if pat is None:
            return _never
        specifiers = frozenset(pat.specifiers)
        type_f = self._compile_type(pat.type)
        declarator_fs = [self._compile_declarator(d) for d in pat.declarators]
        n_declarators = len(declarator_fs)

        def declaration(tree, code, st):
            if code is None or not specifiers.issubset(code.specifiers) \
                    or len(code.declarators) != n_declarators:
                return []
            states = type_f(tree, code.type, st)
            for declarator_f, cd in zip(declarator_fs, code.declarators):
                if not states:
                    return []
                states = [s2 for s in states
                          for s2 in declarator_f(tree, cd, s)]
            return [s.add("node", pat, code) for s in states]

        return declaration

    def _compile_declarator(self, pat: A.Declarator) -> Callable:
        pointer, reference = pat.pointer, pat.reference
        name_f = self._compile_name(pat.name)
        array_fs = [self._expr_full(a) if a is not None else None
                    for a in pat.arrays]
        n_arrays = len(array_fs)
        init_f = self._expr_full(pat.init) if pat.init is not None else None

        def declarator(tree, code, st):
            if code.pointer != pointer or code.reference != reference:
                return []
            s = name_f(code.name, st)
            if s is None or len(code.arrays) != n_arrays:
                return []
            states = [s]
            for array_f, ca in zip(array_fs, code.arrays):
                if array_f is None or ca is None:
                    if array_f is not None or ca is not None:
                        return []
                else:
                    states = [s3 for s2 in states
                              for s3 in array_f(tree, ca, s2)]
            out = []
            for s2 in states:
                if init_f is None:
                    if code.init is None:
                        out.append(s2.add("node", pat, code))
                elif code.init is not None:
                    for s3 in init_f(tree, code.init, s2):
                        out.append(s3.add("node", pat, code))
            return out

        return declarator

    def _compile_function(self, pat: A.FunctionDef) -> Callable:
        """Attributes (every pattern attribute matches a code attribute, in
        order; extra code attributes are allowed), return type, pointer,
        name, parameters, then the body."""
        attr_fs = [self._compile_attribute(a) for a in pat.attributes]
        n_attrs = len(attr_fs)
        return_f = self._compile_type(pat.return_type)
        pointer = pat.pointer
        name_f = self._compile_name(pat.name)
        params_f = self._compile_param_list(pat.params)
        body_f = self._stmt_full(pat.body) if pat.body is not None else None

        def function(tree, code, st):
            if not isinstance(code, A.FunctionDef) or code.pointer != pointer:
                return []
            states = [st]
            if attr_fs:
                if len(code.attributes) < n_attrs:
                    return []
                for attr_f, code_attr in zip(attr_fs, code.attributes):
                    states = [s2 for s in states
                              for s2 in attr_f(tree, code_attr, s)]
                    if not states:
                        return []
            states = [s2 for s in states
                      for s2 in return_f(tree, code.return_type, s)]
            states = [s2 for s in states
                      if (s2 := name_f(code.name, s)) is not None]
            states = [s2 for s in states
                      for s2 in params_f(tree, code.params, s)]
            if body_f is None:
                return [s.add("node", pat, code) for s in states]
            if code.body is None:
                return []
            return [s2.add("node", pat, code) for s in states
                    for s2 in body_f(tree, code.body, s)]

        return function

    def _compile_attribute(self, pat: A.AttributeSpec) -> Callable:
        name_f = self._compile_name(pat.name)
        has_args = pat.has_args
        args_f = self._compile_expr_list(pat.args)

        def attribute(tree, code, st):
            s = name_f(code.name, st)
            if s is None or has_args != code.has_args:
                return []
            if not has_args:
                return [s.add("node", pat, code)]
            return [s2.add("node", pat, code)
                    for s2, _pos in args_f(tree, code.args, 0, s, 0)]

        return attribute

    def _compile_param_list(self, pat: Optional[A.ParamList]) -> Callable:
        """A parameter list; a lone ``parameter list`` metavariable or
        ``...`` absorbs every parameter."""
        if pat is None:
            return _match_none
        pats = pat.params
        if len(pats) == 1 and isinstance(pats[0], A.MetaParamList):
            head = pats[0]

            def meta_params(tree, code, st):
                if code is None:
                    return []
                codes = code.params
                st2 = st.bind(head.name,
                              code_value(tree, "parameter list", codes))
                if st2 is None:
                    return []
                return [st2.add("binding", head, codes).add("node", pat, code)]

            return meta_params
        if len(pats) == 1 and isinstance(pats[0], A.DotsParam):
            head = pats[0]

            def dots_params(tree, code, st):
                if code is None:
                    return []
                return [st.add("dots", head, code.params).add("node", pat, code)]

            return dots_params
        param_fs = [self._compile_param(p) for p in pats]
        n_params = len(param_fs)

        def params(tree, code, st):
            if code is None or len(code.params) != n_params:
                return []
            states = [st]
            for param_f, cp in zip(param_fs, code.params):
                states = [s2 for s in states for s2 in param_f(tree, cp, s)]
                if not states:
                    return []
            return [s.add("node", pat, code) for s in states]

        return params

    def _compile_param(self, pat: A.Node) -> Callable:
        if isinstance(pat, A.DotsParam):
            def dots_param(tree, code, st):
                return [st.add("dots", pat, [code])]

            return dots_param
        if not isinstance(pat, A.Param):
            return _never
        type_f = self._compile_type(pat.type)
        pointer, reference = pat.pointer, pat.reference
        name_f = self._compile_name(pat.name)

        def param(tree, code, st):
            if not isinstance(code, A.Param) or code.pointer != pointer \
                    or code.reference != reference:
                return []
            return [s2.add("node", pat, code)
                    for s in type_f(tree, code.type, st)
                    if (s2 := name_f(code.name, s)) is not None]

        return param

    def _compile_type(self, pat: Optional[A.TypeName]) -> Callable:
        """A type: a lone ``type`` metavariable binds the code type, any
        other type must be spelled the same."""
        if pat is None:
            return _match_none
        if pat.is_single_identifier:
            name = pat.parts[0]
            decl = self.mvs.get(name)
            if decl is not None and decl.kind == "type":
                def type_mv(tree, code, st):
                    if code is None:
                        return []
                    st2 = st.bind(name, BoundValue(
                        kind="type", text=code.text,
                        source_text=tree.node_text(code) or code.text))
                    return [st2.add("binding", pat, code)] if st2 is not None \
                        else []

                return type_mv
        text = pat.text

        def type_name(tree, code, st):
            if code is not None and code.text == text:
                return [st.add("node", pat, code)]
            return []

        return type_name

    def _compile_name(self, pat_name: str) -> Callable:
        """An identifier that appears as a plain string field (function,
        declarator, parameter, member and attribute names)."""
        if not pat_name:
            return _same_name
        decl = self.mvs.get(pat_name)
        if decl is None:
            # inherited names arrive pre-seeded in the environment
            def plain(code_name, st):
                bound = st.env.get(pat_name)
                target = bound.text if bound is not None else pat_name
                return st if code_name == target else None

            return plain
        kind = decl.kind
        if kind in ("identifier", "function", "declarer", "iterator",
                    "attribute name"):
            check = decl.check_name_constraint

            def bind_name(code_name, st):
                if not check(code_name):
                    return None
                return st.bind(pat_name, BoundValue.for_name(kind, code_name))

            return bind_name

        def fixed(code_name, st):
            return st if code_name == pat_name else None

        return fixed

    def _compile_generic(self, pat: A.Node) -> Callable:
        """Field-by-field structural matching for node kinds without a
        dedicated lowering: the code node has the pattern's exact type,
        scalar fields compare equal, and child nodes match as statements or
        expressions according to their pattern type."""
        want = type(pat)
        plan: list[tuple] = []
        for fname, pval in A.child_fields(pat):
            if isinstance(pval, A.Node):
                plan.append((fname, "node", self._child_f(pval)))
            elif isinstance(pval, (list, tuple)) and pval \
                    and isinstance(pval[0], A.Node):
                plan.append((fname, "list", [self._child_f(p) for p in pval]))
            else:
                plan.append((fname, "value", pval))

        def generic(tree, code, st):
            if type(code) is not want:
                return []
            states = [st]
            for fname, how, arg in plan:
                cval = getattr(code, fname)
                if how == "value":
                    if isinstance(cval, A.Node) or cval != arg:
                        return []
                elif how == "node":
                    if not isinstance(cval, A.Node):
                        return []
                    states = [s2 for s in states for s2 in arg(tree, cval, s)]
                else:
                    if not isinstance(cval, (list, tuple)) \
                            or len(cval) != len(arg):
                        return []
                    for item_f, c_item in zip(arg, cval):
                        states = [s2 for s in states
                                  for s2 in item_f(tree, c_item, s)]
                if not states:
                    return []
            return [s.add("node", pat, code) for s in states]

        return generic

    def _child_f(self, pat: Optional[A.Node]) -> Callable:
        if isinstance(pat, A.Stmt):
            return self._stmt_full(pat)
        return self._expr_full_opt(pat)

    # -- expression lowering --------------------------------------------------

    def _expr_full_opt(self, pat: Optional[A.Node]) -> Callable:
        if pat is None:
            return _match_none
        return self._expr_full(pat)

    def _expr_full(self, pat: A.Node) -> Callable:
        """``pat`` at an expression position: transparent parentheses on the
        code side, the ``E + 0`` isomorphism, then its position
        metavariables."""
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

        def full(tree, code, st):
            if code is None:
                return []
            if strip and isinstance(code, Paren):
                stripped = code
                while isinstance(stripped, Paren) and stripped.expr is not None:
                    stripped = stripped.expr
                code = stripped
            results = dispatch(tree, code, st)
            if not results and pz_dispatch is not None:
                # pattern 'E + 0' also matches plain 'E'
                results = [s.add("binding", pat, code)
                           for s in pz_dispatch(tree, code, st)]
            if not pos_names:
                return results
            out = []
            for s in results:
                s2 = bind_positions(tree, pat, code, s)
                if s2 is not None:
                    out.append(s2)
            return out

        self._full_cache[key] = full
        return full

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
            def dots(tree, code, st):
                return [st.add("dots", pat, [code])]

            return dots

        if isinstance(pat, A.Disjunction):
            branches = [self._expr_full(b) for b in pat.branches]

            def disj(tree, code, st):
                for branch_f in branches:
                    results = branch_f(tree, code, st)
                    if results:
                        return results
                return []

            return disj

        if isinstance(pat, A.Conjunction):
            branches = [self._expr_full(b) for b in pat.branches]

            def conj(tree, code, st):
                states = [st]
                for branch_f in branches:
                    states = [s2 for s in states
                              for s2 in branch_f(tree, code, s)]
                    if not states:
                        return []
                return states

            return conj

        if isinstance(pat, A.Ident):
            return self._compile_ident(pat)

        if isinstance(pat, A.Literal):
            value = pat.value

            def literal(tree, code, st):
                if isinstance(code, A.Literal) and value == code.value:
                    return [st.add("node", pat, code)]
                return []

            return literal

        if isinstance(pat, A.Paren):
            inner_f = self._expr_full_opt(pat.expr)

            def paren(tree, code, st):
                if isinstance(code, A.Paren):
                    return [s.add("node", pat, code)
                            for s in inner_f(tree, code.expr, st)]
                return inner_f(tree, code, st)

            return paren

        if isinstance(pat, A.BinaryOp):
            op = pat.op
            left_f = self._expr_full_opt(pat.left)
            right_f = self._expr_full_opt(pat.right)
            commute = isos.commutative and op in A.COMMUTATIVE_OPS

            def binary(tree, code, st):
                if not (isinstance(code, A.BinaryOp) and code.op == op):
                    return []
                out = []
                for s in left_f(tree, code.left, st):
                    for s2 in right_f(tree, code.right, s):
                        out.append(s2.add("node", pat, code))
                if out or not commute:
                    return out
                for s in left_f(tree, code.right, st):
                    for s2 in right_f(tree, code.left, s):
                        out.append(s2.add("node", pat, code))
                return out

            return binary

        if isinstance(pat, A.UnaryOp):
            op, prefix = pat.op, pat.prefix
            operand_f = self._expr_full_opt(pat.operand)
            inc = isos.increment_forms

            def unary(tree, code, st):
                out = []
                if isinstance(code, A.UnaryOp) and code.op == op \
                        and code.prefix == prefix:
                    out = [s.add("node", pat, code)
                           for s in operand_f(tree, code.operand, st)]
                if not out and inc:
                    for alt in increment_variants(code, isos):
                        inner = unary(tree, alt, st)
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

            def assign(tree, code, st):
                if isinstance(code, A.Assignment) and code.op == op:
                    out = []
                    for s in target_f(tree, code.target, st):
                        for s2 in value_f(tree, code.value, s):
                            out.append(s2.add("node", pat, code))
                    return out
                if inc:
                    for alt in increment_variants(code, isos):
                        if isinstance(alt, A.Assignment):
                            inner = assign(tree, alt, st)
                            if inner:
                                return [s.add("binding", pat, code)
                                        for s in inner]
                return []

            return assign

        if isinstance(pat, A.Ternary):
            cond_f = self._expr_full_opt(pat.cond)
            then_f = self._expr_full_opt(pat.then)
            orelse_f = self._expr_full_opt(pat.orelse)

            def ternary(tree, code, st):
                if not isinstance(code, A.Ternary):
                    return []
                out = []
                for s in cond_f(tree, code.cond, st):
                    for s2 in then_f(tree, code.then, s):
                        for s3 in orelse_f(tree, code.orelse, s2):
                            out.append(s3.add("node", pat, code))
                return out

            return ternary

        if isinstance(pat, A.Call):
            func_f = self._expr_full_opt(pat.func)
            args_f = self._compile_expr_list(pat.args)

            def call(tree, code, st):
                if not isinstance(code, A.Call):
                    return []
                out = []
                for s in func_f(tree, code.func, st):
                    for s2, _pos in args_f(tree, code.args, 0, s, 0):
                        out.append(s2.add("node", pat, code))
                return out

            return call

        if isinstance(pat, A.KernelLaunch):
            func_f = self._expr_full_opt(pat.func)
            config_f = self._compile_expr_list(pat.config)
            args_f = self._compile_expr_list(pat.args)

            def launch(tree, code, st):
                if not isinstance(code, A.KernelLaunch):
                    return []
                out = []
                for s in func_f(tree, code.func, st):
                    for s2, _p in config_f(tree, code.config, 0, s, 0):
                        for s3, _p2 in args_f(tree, code.args, 0, s2, 0):
                            out.append(s3.add("node", pat, code))
                return out

            return launch

        if isinstance(pat, A.Subscript):
            base_f = self._expr_full_opt(pat.base)
            indices_f = self._compile_expr_list(pat.indices)

            def subscript(tree, code, st):
                if not isinstance(code, A.Subscript):
                    return []
                out = []
                for s in base_f(tree, code.base, st):
                    for s2, _pos in indices_f(tree, code.indices, 0, s, 0):
                        out.append(s2.add("node", pat, code))
                return out

            return subscript

        if isinstance(pat, A.Member):
            op = pat.op
            base_f = self._expr_full_opt(pat.base)
            name_f = self._compile_name(pat.name)

            def member(tree, code, st):
                if not isinstance(code, A.Member) or op != code.op:
                    return []
                out = []
                for s in base_f(tree, code.base, st):
                    s2 = name_f(code.name, s)
                    if s2 is not None:
                        out.append(s2.add("node", pat, code))
                return out

            return member

        if isinstance(pat, A.Cast):
            type_f = self._compile_type(pat.type)
            expr_f = self._expr_full_opt(pat.expr)

            def cast(tree, code, st):
                if not isinstance(code, A.Cast):
                    return []
                return [s2.add("node", pat, code)
                        for s in type_f(tree, code.type, st)
                        for s2 in expr_f(tree, code.expr, s)]

            return cast

        if isinstance(pat, (A.InitList, A.CommaExpr)):
            want = type(pat)
            item_fs = [self._expr_full_opt(p) for p in pat.items]
            n_items = len(item_fs)

            def items(tree, code, st):
                if not isinstance(code, want) or len(code.items) != n_items:
                    return []
                states = [st]
                for item_f, ci in zip(item_fs, code.items):
                    states = [s2 for s in states for s2 in item_f(tree, ci, s)]
                return [s.add("node", pat, code) for s in states]

            return items

        if isinstance(pat, A.SizeofExpr):
            if isinstance(pat.arg, A.TypeName):
                type_f = self._compile_type(pat.arg)

                def sizeof_type(tree, code, st):
                    if not isinstance(code, A.SizeofExpr) \
                            or not isinstance(code.arg, A.TypeName):
                        return []
                    return [s.add("node", pat, code)
                            for s in type_f(tree, code.arg, st)]

                return sizeof_type
            arg_f = self._expr_full_opt(pat.arg)

            def sizeof_expr(tree, code, st):
                if not isinstance(code, A.SizeofExpr) \
                        or isinstance(code.arg, A.TypeName):
                    return []
                return [s.add("node", pat, code)
                        for s in arg_f(tree, code.arg, st)]

            return sizeof_expr

        if isinstance(pat, A.MetaExprList):
            name = pat.name

            def meta_expr_list(tree, code, st):
                st2 = st.bind(name, code_value(tree, "expression list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None \
                    else []

            return meta_expr_list

        return self._compile_generic(pat)

    def _compile_ident(self, pat: A.Ident) -> Callable:
        name = pat.name
        decl = self.mvs.get(name)
        kind = decl.kind if decl is not None else None

        if decl is None:
            # an undeclared identifier matches only itself, or what an
            # inherited binding seeded in the environment says
            def plain(tree, code, st):
                if isinstance(code, A.Ident):
                    bound = st.env.get(name)
                    target = bound.text if bound is not None else name
                    if code.name == target:
                        return [st.add("node", pat, code)]
                return []

            return plain

        if kind == "symbol":
            def symbol(tree, code, st):
                if isinstance(code, A.Ident) and code.name == name:
                    return [st.add("node", pat, code)]
                return []

            return symbol

        if kind in ("identifier", "function", "declarer", "iterator"):
            check = decl.check_name_constraint

            def ident(tree, code, st):
                if not isinstance(code, A.Ident):
                    return []
                if not check(code.name):
                    return []
                st2 = st.bind(name, BoundValue.for_name(kind, code.name))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return ident

        if kind == "constant":
            check = decl.check_constant_constraint

            def constant(tree, code, st):
                if not isinstance(code, A.Literal):
                    return []
                if not check(code.value):
                    return []
                st2 = st.bind(name, BoundValue(kind="constant", text=code.value,
                                               source_text=code.value))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return constant

        if kind in ("expression", "idexpression", "local idexpression"):
            def expr_mv(tree, code, st):
                st2 = st.bind(name, code_value(tree, "expression", code))
                return [st2.add("binding", pat, code)] if st2 is not None else []

            return expr_mv

        if kind == "expression list":
            def expr_list_mv(tree, code, st):
                st2 = st.bind(name, code_value(tree, "expression list", [code]))
                return [st2.add("binding", pat, [code])] if st2 is not None \
                    else []

            return expr_list_mv

        if kind == "type":
            def type_mv(tree, code, st):
                if isinstance(code, A.Ident):
                    st2 = st.bind(name, BoundValue(kind="type", text=code.name,
                                                   source_text=code.name))
                    return [st2.add("binding", pat, code)] if st2 is not None \
                        else []
                return []

            return type_mv

        return _never

    def _compile_expr_list(self, pats: Sequence[A.Node]) -> Callable:
        """Argument-list matching with dots and ``expression list``
        metavariables; must consume the whole code list."""
        elems: list[tuple] = []
        for p in pats:
            if isinstance(p, A.MetaExprList):
                elems.append(("list", p))
            elif isinstance(p, A.DotsExpr):
                elems.append(("dots", p))
            else:
                elems.append(("expr", p, self._expr_full(p)))
        n_elems = len(elems)

        def mlist(tree, codes, pos, st, step):
            if step == n_elems:
                return [(st, pos)] if pos == len(codes) else []
            item = elems[step]
            if item[0] != "expr":
                head = item[1]
                out = []
                for skip in range(0, len(codes) - pos + 1):
                    absorbed = list(codes[pos:pos + skip])
                    if item[0] == "list":
                        st2 = st.bind(head.name, code_value(
                            tree, "expression list", absorbed))
                        if st2 is None:
                            continue
                        st2 = st2.add("binding", head, absorbed)
                    else:
                        st2 = st.add("dots", head, absorbed)
                    out.extend(mlist(tree, codes, pos + skip, st2, step + 1))
                return out
            if pos >= len(codes):
                return []
            out = []
            for s in item[2](tree, codes[pos], st):
                out.extend(mlist(tree, codes, pos + 1, s, step + 1))
            return out

        return mlist


# ---------------------------------------------------------------------------
# the per-patch container
# ---------------------------------------------------------------------------

class CompiledPatch:
    """The compiled rules of one semantic patch under one options set, each
    lowered on first use.  Holds the patch's rules, never the patch itself
    (see :func:`compiled_patch_for`)."""

    def __init__(self, rules: Sequence[PatchRule], options: SpatchOptions):
        self.options = options
        self._rules = {id(rule): rule for rule in rules}
        self._compiled: dict[int, CompiledRule] = {}

    def rule_for(self, rule: PatchRule) -> CompiledRule:
        """The compiled form of ``rule``, which must be one of this patch's
        rule objects; raises :class:`KeyError` for any other rule."""
        compiled = self._compiled.get(id(rule))
        if compiled is None:
            if self._rules.get(id(rule)) is not rule:
                raise KeyError(
                    f"rule {rule.name!r} is not in the compiled patch")
            compiled = self._compiled[id(rule)] = \
                CompiledRule(rule, self.options)
        return compiled


def compiled_patch_for(patch: SemanticPatchAST,
                       options: SpatchOptions) -> CompiledPatch:
    """The compiled form of ``patch`` under ``options``: one per (patch
    object, options), derived on first use and freed with the patch."""
    return derived(patch, ("compiled", options),
                   lambda: CompiledPatch(patch.patch_rules(), options))
