"""Tree-walking reference matcher: the oracle for the compiled matcher.

:class:`repro.engine.compile.CompiledRule` lowers each rule's pattern to
closures once and probes a per-tree candidate index.  This module keeps the
interpreter it replaced: one recursive dispatch over pattern node kinds,
re-run for every candidate expression and every statement-sequence start,
so that ``tests/test_matcher_differential.py`` (and the matcher unit tests)
can require both to produce the same :class:`MatchInstance` signatures, in
the same order, for every rule and file they see.

It is test-only and not tuned for speed, and it bumps no registry counter,
so a checked run's ``repro_matcher_*`` counts are the compiled matcher's
alone.  Behaviour changes to the matcher must be made here too,
deliberately and in the same change.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from repro.engine.bindings import BoundValue, Env, Position, EMPTY_ENV
from repro.engine.compile import CompiledRule
from repro.engine.matcher import MatchInstance, MState
from repro.lang import ast_nodes as A
from repro.lang.parser import ParseTree
from repro.options import SpatchOptions, DEFAULT_OPTIONS
from repro.smpl.ast import (PatchRule, KIND_EXPRESSION, KIND_STATEMENTS,
                            KIND_TOPLEVEL)
from repro.smpl.isomorphisms import (
    IsoConfig, DEFAULT_ISOS, commutative_swap, plus_zero_operand, strip_parens,
    increment_variants,
)
from repro.smpl.metavars import MetavarDecl


class Matcher:
    """Matches one rule against one parsed file."""

    def __init__(self, rule: PatchRule, tree: ParseTree,
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 isos: IsoConfig = DEFAULT_ISOS):
        self.rule = rule
        self.tree = tree
        self.options = options
        self.isos = isos if options.apply_isomorphisms else IsoConfig.all_disabled()
        self.mvs = rule.metavars

    # -- helpers ---------------------------------------------------------------

    def _decl(self, name: str) -> Optional[MetavarDecl]:
        return self.mvs.get(name)

    def _code_value(self, kind: str, node: A.Node | Sequence[A.Node]) -> BoundValue:
        if isinstance(node, (list, tuple)):
            if not node:
                return BoundValue(kind=kind, text="", source_text="")
            texts = []
            sources = []
            for n in node:
                texts.append(" ".join(self.tree.node_token_values(n)))
                sources.append(self.tree.node_text(n))
            return BoundValue(kind=kind, text=" ".join(texts),
                              source_text="\n".join(sources) if kind == "statement list"
                              else ", ".join(sources))
        text = " ".join(self.tree.node_token_values(node))
        return BoundValue(kind=kind, text=text, source_text=self.tree.node_text(node))

    def _position_of(self, node: A.Node) -> Position:
        loc = self.tree.node_location(node)
        return Position(filename=self.tree.source.name, line=loc.line, col=loc.col,
                        offset=loc.offset)

    def _bind_positions(self, pat: A.Node, code: A.Node, st: MState) -> Optional[MState]:
        for pos_name in pat.pos_metavars:
            value = BoundValue.for_position(self._position_of(code))
            st = st.bind(pos_name, value)
            if st is None:
                return None
        return st

    # -- entry point ------------------------------------------------------------

    def match_all(self, inherited_env: Env = EMPTY_ENV) -> list[MatchInstance]:
        base = MState(env=inherited_env)
        results: list[MState] = []
        kind = self.rule.pattern_kind
        if kind == KIND_EXPRESSION:
            results = self._match_expression_pattern(base)
        elif kind == KIND_STATEMENTS:
            results = self._match_statement_pattern(base)
        elif kind == KIND_TOPLEVEL:
            results = self._match_toplevel_pattern(base)

        instances = [MatchInstance(rule=self.rule, env=st.env,
                                   correspondences=st.corr, tree=self.tree)
                     for st in results]
        # de-duplicate matches that cover the same code with the same bindings
        seen: set = set()
        unique: list[MatchInstance] = []
        for inst in instances:
            sig = inst.signature()
            if sig in seen:
                continue
            seen.add(sig)
            unique.append(inst)
        return unique

    # -- per-pattern-kind walks ----------------------------------------------------

    def _match_expression_pattern(self, base: MState) -> list[MState]:
        pattern = self.rule.pattern_nodes[0]
        out: list[MState] = []
        for expr in A.expressions_of(self.tree.unit):
            out.extend(self.match_expr(pattern, expr, base))
        return out

    def _candidate_sequences(self) -> list[list[A.Node]]:
        seqs: list[list[A.Node]] = [list(self.tree.unit.decls)]
        for block in A.compound_blocks_of(self.tree.unit):
            seqs.append(block.stmts)
        return seqs

    def _match_statement_pattern(self, base: MState) -> list[MState]:
        pats = self.rule.pattern_nodes
        out: list[MState] = []
        for seq in self._candidate_sequences():
            for start in range(len(seq)):
                for st, _end in self.match_seq(pats, seq, start, base, anchored_end=False):
                    out.append(st)
        return out

    def _match_toplevel_pattern(self, base: MState) -> list[MState]:
        pats = self.rule.pattern_nodes
        decls = list(self.tree.unit.decls)
        out: list[MState] = []
        for start in range(len(decls)):
            for st, _end in self.match_seq(pats, decls, start, base, anchored_end=False):
                out.append(st)
        return out

    # -- sequences ----------------------------------------------------------------

    def match_seq(self, pats: Sequence[A.Node], codes: Sequence[A.Node], pos: int,
                  st: MState, anchored_end: bool) -> list[tuple[MState, int]]:
        """Match a pattern element sequence against ``codes`` starting at
        ``pos``.  Returns ``(state, next_position)`` pairs; when
        ``anchored_end`` the whole remaining code sequence must be covered."""
        if not pats:
            if anchored_end and pos != len(codes):
                return []
            return [(st, pos)]

        head, rest = pats[0], pats[1:]

        # '...' and statement-list metavariables absorb a variable number of
        # elements.
        if isinstance(head, (A.DotsStmt, A.MetaStmtList)):
            out: list[tuple[MState, int]] = []
            max_skip = min(len(codes) - pos, self.options.max_dots_statements)
            for skip in range(0, max_skip + 1):
                absorbed = list(codes[pos:pos + skip])
                if isinstance(head, A.MetaStmtList):
                    st2 = st.bind(head.name, self._code_value("statement list", absorbed))
                    if st2 is None:
                        continue
                    st2 = st2.add("binding", head, absorbed)
                else:
                    st2 = st.add("dots", head, absorbed)
                tails = self.match_seq(rest, codes, pos + skip, st2, anchored_end)
                out.extend(tails)
                if tails and not anchored_end and not rest:
                    break
            return out

        if pos >= len(codes):
            return []

        out = []
        for st2 in self.match_stmt(head, codes[pos], st):
            out.extend(self.match_seq(rest, codes, pos + 1, st2, anchored_end))
        return out

    # -- statements -----------------------------------------------------------------

    def match_stmt(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        # disjunction / conjunction wrappers
        if isinstance(pat, A.Disjunction):
            for branch in pat.branches:
                results = self._match_stmt_branch(branch, code, st)
                if results:
                    return results
            return []
        if isinstance(pat, A.Conjunction):
            states = [st]
            for branch in pat.branches:
                new_states: list[MState] = []
                for s in states:
                    new_states.extend(self._match_stmt_branch(branch, code, s))
                states = new_states
                if not states:
                    return []
            return states

        # statement metavariable
        if isinstance(pat, A.MetaStmt):
            decl = self._decl(pat.name)
            value = self._code_value("statement", code)
            st2 = st.bind(pat.name, value)
            if st2 is None:
                return []
            st2 = self._bind_positions(pat, code, st2)
            if st2 is None:
                return []
            return [st2.add("binding", pat, code)]

        if isinstance(pat, A.MetaStmtList):
            st2 = st.bind(pat.name, self._code_value("statement list", [code]))
            return [st2.add("binding", pat, [code])] if st2 is not None else []

        handler = getattr(self, f"_match_stmt_{type(pat).__name__}", None)
        if handler is not None:
            results = handler(pat, code, st)
        else:
            results = self._match_generic(pat, code, st)
        out: list[MState] = []
        for s in results:
            s2 = self._bind_positions(pat, code, s)
            if s2 is not None:
                out.append(s2)
        return out

    def _match_stmt_branch(self, branch: A.Node, code: A.Node, st: MState) -> list[MState]:
        """A branch of a statement-level disjunction/conjunction.  A bare
        expression branch (no semicolon) is a *containment* constraint: the
        expression must occur somewhere inside the statement; every occurrence
        is recorded so the transformation applies to each of them."""
        if isinstance(branch, (A.Disjunction, A.Conjunction)):
            return self.match_stmt(branch, code, st)
        if isinstance(branch, A.ExprStmt) and not branch.has_semicolon:
            return self._match_containment(branch.expr, code, st)
        return self.match_stmt(branch, code, st)

    def _match_containment(self, pat_expr: A.Node, code_stmt: A.Node,
                           st: MState) -> list[MState]:
        """Match ``pat_expr`` against every subexpression of ``code_stmt``;
        succeed if at least one occurrence matches, threading the environment
        through all matching occurrences."""
        current = st
        matched_any = False
        for sub in A.expressions_of(code_stmt):
            results = self.match_expr(pat_expr, sub, current)
            if results:
                current = results[0]
                matched_any = True
        return [current] if matched_any else []

    # individual statement kinds ---------------------------------------------------

    def _match_stmt_ExprStmt(self, pat: A.ExprStmt, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.ExprStmt):
            return []
        out = []
        for s in self.match_expr(pat.expr, code.expr, st):
            out.append(s.add("node", pat, code))
        return out

    def _match_stmt_DeclStmt(self, pat: A.DeclStmt, code: A.Node, st: MState) -> list[MState]:
        # file-scope declarations are bare Declaration nodes; statement-level
        # ones are wrapped in DeclStmt — the pattern matches both
        if isinstance(code, A.Declaration):
            return [s.add("node", pat, code)
                    for s in self.match_declaration(pat.decl, code, st)]
        if not isinstance(code, A.DeclStmt):
            return []
        out = []
        for s in self.match_declaration(pat.decl, code.decl, st):
            out.append(s.add("node", pat, code))
        return out

    def _match_stmt_CompoundStmt(self, pat: A.CompoundStmt, code: A.Node,
                                 st: MState) -> list[MState]:
        if not isinstance(code, A.CompoundStmt):
            return []
        out = []
        for s, _pos in self.match_seq(pat.stmts, code.stmts, 0, st, anchored_end=True):
            out.append(s.add("node", pat, code))
        return out

    def _match_stmt_IfStmt(self, pat: A.IfStmt, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.IfStmt):
            return []
        out: list[MState] = []
        for s1 in self.match_expr(pat.cond, code.cond, st):
            for s2 in self.match_stmt(pat.then, code.then, s1):
                if pat.orelse is None and code.orelse is None:
                    out.append(s2.add("node", pat, code))
                elif pat.orelse is not None and code.orelse is not None:
                    for s3 in self.match_stmt(pat.orelse, code.orelse, s2):
                        out.append(s3.add("node", pat, code))
        return out

    def _match_stmt_ForStmt(self, pat: A.ForStmt, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.ForStmt):
            return []
        states = [st]
        states = self._match_for_part(pat.init, code.init, states, self.match_for_init)
        states = self._match_for_part(pat.cond, code.cond, states, self.match_expr)
        states = self._match_for_part(pat.step, code.step, states, self.match_expr)
        out: list[MState] = []
        for s in states:
            if pat.body is None and code.body is None:
                out.append(s.add("node", pat, code))
            elif pat.body is not None and code.body is not None:
                for s2 in self.match_stmt(pat.body, code.body, s):
                    out.append(s2.add("node", pat, code))
        return out

    def _match_for_part(self, pat_part, code_part, states: list[MState],
                        matcher) -> list[MState]:
        out: list[MState] = []
        for s in states:
            if isinstance(pat_part, A.DotsExpr):
                absorbed = [code_part] if code_part is not None else []
                out.append(s.add("dots", pat_part, absorbed))
            elif pat_part is None:
                if code_part is None:
                    out.append(s)
            else:
                if code_part is not None:
                    out.extend(matcher(pat_part, code_part, s))
        return out

    def match_for_init(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        if isinstance(pat, A.DeclStmt) and isinstance(code, A.DeclStmt):
            return [s.add("node", pat, code)
                    for s in self.match_declaration(pat.decl, code.decl, st)]
        if isinstance(pat, A.ExprStmt) and isinstance(code, A.ExprStmt):
            return [s.add("node", pat, code)
                    for s in self.match_expr(pat.expr, code.expr, st)]
        return []

    def _match_stmt_RangeForStmt(self, pat: A.RangeForStmt, code: A.Node,
                                 st: MState) -> list[MState]:
        if not isinstance(code, A.RangeForStmt):
            return []
        states = self.match_type(pat.type, code.type, st)
        out: list[MState] = []
        for s in states:
            if pat.reference != code.reference:
                continue
            s2 = self._match_name(pat.var, code.var, s)
            if s2 is None:
                continue
            for s3 in self.match_expr(pat.iterable, code.iterable, s2):
                if pat.body is None:
                    out.append(s3.add("node", pat, code))
                elif code.body is not None:
                    for s4 in self.match_stmt(pat.body, code.body, s3):
                        out.append(s4.add("node", pat, code))
        return out

    def _match_stmt_WhileStmt(self, pat: A.WhileStmt, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.WhileStmt):
            return []
        out = []
        for s in self.match_expr(pat.cond, code.cond, st):
            for s2 in self.match_stmt(pat.body, code.body, s):
                out.append(s2.add("node", pat, code))
        return out

    def _match_stmt_DoWhileStmt(self, pat: A.DoWhileStmt, code: A.Node,
                                st: MState) -> list[MState]:
        if not isinstance(code, A.DoWhileStmt):
            return []
        out = []
        for s in self.match_stmt(pat.body, code.body, st):
            for s2 in self.match_expr(pat.cond, code.cond, s):
                out.append(s2.add("node", pat, code))
        return out

    def _match_stmt_ReturnStmt(self, pat: A.ReturnStmt, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.ReturnStmt):
            return []
        if pat.value is None:
            return [st.add("node", pat, code)] if code.value is None else []
        if code.value is None:
            return []
        return [s.add("node", pat, code) for s in self.match_expr(pat.value, code.value, st)]

    def _match_stmt_BreakStmt(self, pat, code, st: MState) -> list[MState]:
        return [st.add("node", pat, code)] if isinstance(code, A.BreakStmt) else []

    def _match_stmt_ContinueStmt(self, pat, code, st: MState) -> list[MState]:
        return [st.add("node", pat, code)] if isinstance(code, A.ContinueStmt) else []

    def _match_stmt_EmptyStmt(self, pat, code, st: MState) -> list[MState]:
        return [st.add("node", pat, code)] if isinstance(code, A.EmptyStmt) else []

    def _match_stmt_PragmaDirective(self, pat: A.PragmaDirective, code: A.Node,
                                    st: MState) -> list[MState]:
        if not isinstance(code, A.PragmaDirective):
            return []
        result = self._match_pragma_text(pat.text, code.text, st)
        if result is None:
            return []
        return [result.add("node", pat, code)]

    def _match_pragma_text(self, pat_text: str, code_text: str, st: MState) -> Optional[MState]:
        pat_words = pat_text.split()
        code_words = code_text.split()
        i = 0
        for i, word in enumerate(pat_words):
            if word == "...":
                return st  # the rest of the pragma is arbitrary
            decl = self._decl(word)
            if decl is not None and decl.kind == "pragmainfo":
                rest = " ".join(code_words[i:])
                return st.bind(word, BoundValue(kind="pragmainfo", text=rest,
                                                source_text=rest))
            if i >= len(code_words) or code_words[i] != word:
                return None
        # pattern exhausted: require the code to be exhausted too
        return st if len(code_words) == len(pat_words) else None

    def _match_stmt_IncludeDirective(self, pat: A.IncludeDirective, code: A.Node,
                                     st: MState) -> list[MState]:
        if not isinstance(code, A.IncludeDirective):
            return []
        if pat.target == code.target and pat.system == code.system:
            return [st.add("node", pat, code)]
        return []

    def _match_stmt_FunctionDef(self, pat: A.FunctionDef, code: A.Node,
                                st: MState) -> list[MState]:
        return self.match_function(pat, code, st)

    def _match_stmt_Declaration(self, pat: A.Declaration, code: A.Node,
                                st: MState) -> list[MState]:
        if isinstance(code, A.Declaration):
            return self.match_declaration(pat, code, st)
        if isinstance(code, A.DeclStmt):
            return [s.add("node", pat, code)
                    for s in self.match_declaration(pat, code.decl, st)]
        return []

    # -- declarations / functions ------------------------------------------------------

    def match_declaration(self, pat: A.Declaration, code: A.Declaration,
                          st: MState) -> list[MState]:
        if pat is None or code is None:
            return []
        # specifiers mentioned in the pattern (extern, static, ...) must be
        # present on the code declaration; extra code specifiers are allowed
        if not set(pat.specifiers) <= set(code.specifiers):
            return []
        states = self.match_type(pat.type, code.type, st)
        if not states:
            return []
        if len(pat.declarators) != len(code.declarators):
            return []
        for pd, cd in zip(pat.declarators, code.declarators):
            new_states: list[MState] = []
            for s in states:
                new_states.extend(self.match_declarator(pd, cd, s))
            states = new_states
            if not states:
                return []
        return [s.add("node", pat, code) for s in states]

    def match_declarator(self, pat: A.Declarator, code: A.Declarator,
                         st: MState) -> list[MState]:
        if pat.pointer != code.pointer or pat.reference != code.reference:
            return []
        s = self._match_name(pat.name, code.name, st)
        if s is None:
            return []
        if len(pat.arrays) != len(code.arrays):
            return []
        states = [s]
        for pa, ca in zip(pat.arrays, code.arrays):
            new_states = []
            for s2 in states:
                if pa is None and ca is None:
                    new_states.append(s2)
                elif pa is not None and ca is not None:
                    new_states.extend(self.match_expr(pa, ca, s2))
            states = new_states
        out: list[MState] = []
        for s2 in states:
            if pat.init is None and code.init is None:
                out.append(s2.add("node", pat, code))
            elif pat.init is not None and code.init is not None:
                for s3 in self.match_expr(pat.init, code.init, s2):
                    out.append(s3.add("node", pat, code))
        return out

    def match_type(self, pat: Optional[A.TypeName], code: Optional[A.TypeName],
                   st: MState) -> list[MState]:
        if pat is None or code is None:
            return [st] if pat is code else []
        if pat.is_single_identifier:
            name = pat.parts[0]
            decl = self._decl(name)
            if decl is not None and decl.kind == "type":
                value = BoundValue(kind="type", text=code.text,
                                   source_text=self.tree.node_text(code) or code.text)
                st2 = st.bind(name, value)
                return [st2.add("binding", pat, code)] if st2 is not None else []
        if pat.text == code.text:
            return [st.add("node", pat, code)]
        return []

    def match_function(self, pat: A.FunctionDef, code: A.Node, st: MState) -> list[MState]:
        if not isinstance(code, A.FunctionDef):
            return []
        # attributes: every pattern attribute must match a code attribute, in
        # order; extra code attributes are allowed only if the pattern has none
        states = [st]
        if pat.attributes:
            if len(code.attributes) < len(pat.attributes):
                return []
            code_attrs = code.attributes
            for idx, pattr in enumerate(pat.attributes):
                new_states = []
                for s in states:
                    if idx < len(code_attrs):
                        new_states.extend(self.match_attribute(pattr, code_attrs[idx], s))
                states = new_states
                if not states:
                    return []
        # return type
        new_states = []
        for s in states:
            new_states.extend(self.match_type(pat.return_type, code.return_type, s))
        states = new_states
        if not states or pat.pointer != code.pointer:
            return []
        # name
        new_states = []
        for s in states:
            s2 = self._match_name(pat.name, code.name, s, allow_function=True)
            if s2 is not None:
                new_states.append(s2)
        states = new_states
        if not states:
            return []
        # parameters
        new_states = []
        for s in states:
            new_states.extend(self.match_param_list(pat.params, code.params, s))
        states = new_states
        if not states:
            return []
        # body
        out: list[MState] = []
        for s in states:
            if pat.body is None:
                out.append(s.add("node", pat, code))
            elif code.body is None:
                continue
            else:
                for s2 in self.match_stmt(pat.body, code.body, s):
                    out.append(s2.add("node", pat, code))
        return out

    def match_attribute(self, pat: A.AttributeSpec, code: A.AttributeSpec,
                        st: MState) -> list[MState]:
        s = self._match_name(pat.name, code.name, st)
        if s is None:
            return []
        if not pat.has_args and not code.has_args:
            return [s.add("node", pat, code)]
        if pat.has_args != code.has_args:
            return []
        out = []
        for s2, _pos in self.match_expr_list(pat.args, code.args, 0, s):
            out.append(s2.add("node", pat, code))
        return out

    def match_param_list(self, pat: Optional[A.ParamList], code: Optional[A.ParamList],
                         st: MState) -> list[MState]:
        if pat is None or code is None:
            return [st] if pat is code else []
        pats = pat.params
        codes = code.params
        # a single 'parameter list' metavariable or '...' absorbs everything
        if len(pats) == 1 and isinstance(pats[0], A.MetaParamList):
            value = self._code_value("parameter list", codes)
            st2 = st.bind(pats[0].name, value)
            if st2 is None:
                return []
            return [st2.add("binding", pats[0], codes).add("node", pat, code)]
        if len(pats) == 1 and isinstance(pats[0], A.DotsParam):
            return [st.add("dots", pats[0], codes).add("node", pat, code)]
        if len(pats) != len(codes):
            return []
        states = [st]
        for pp, cp in zip(pats, codes):
            new_states: list[MState] = []
            for s in states:
                new_states.extend(self.match_param(pp, cp, s))
            states = new_states
            if not states:
                return []
        return [s.add("node", pat, code) for s in states]

    def match_param(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        if isinstance(pat, A.DotsParam):
            return [st.add("dots", pat, [code])]
        if not isinstance(pat, A.Param) or not isinstance(code, A.Param):
            return []
        states = self.match_type(pat.type, code.type, st)
        out: list[MState] = []
        for s in states:
            if pat.pointer != code.pointer or pat.reference != code.reference:
                continue
            if pat.name:
                s2 = self._match_name(pat.name, code.name, s)
                if s2 is None:
                    continue
            else:
                s2 = s
            out.append(s2.add("node", pat, code))
        return out

    # -- names -------------------------------------------------------------------------

    def _match_name(self, pat_name: str, code_name: str, st: MState,
                    allow_function: bool = False) -> Optional[MState]:
        """Match an identifier that appears as a plain string field (function
        names, declarator names, parameter names, member names)."""
        if not pat_name:
            return st if not code_name else st
        decl = self._decl(pat_name)
        if decl is not None and decl.kind in ("identifier", "function", "declarer",
                                              "iterator", "attribute name"):
            if not decl.check_name_constraint(code_name):
                return None
            return st.bind(pat_name, BoundValue.for_name(decl.kind, code_name))
        if decl is not None and decl.kind == "symbol":
            return st if pat_name == code_name else None
        # inherited names arrive pre-seeded in the environment
        bound = st.env.get(pat_name)
        if bound is not None and decl is None:
            return st if bound.text == code_name else None
        return st if pat_name == code_name else None

    # -- expressions -------------------------------------------------------------------

    def match_expr(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        if pat is None or code is None:
            return [st] if pat is code else []

        # transparent parentheses on the code side
        stripped = strip_parens(code, self.isos)
        if stripped is not code and not isinstance(pat, A.Paren):
            code = stripped

        results = self._match_expr_dispatch(pat, code, st)

        # isomorphism: pattern 'E + 0' also matches plain 'E'
        if not results:
            pat_base = plus_zero_operand(pat, self.isos)
            if pat_base is not None:
                inner = self._match_expr_dispatch(pat_base, code, st)
                results = [s.add("binding", pat, code) for s in inner]

        out: list[MState] = []
        for s in results:
            s2 = self._bind_positions(pat, code, s)
            if s2 is not None:
                out.append(s2)
        return out

    def _match_expr_dispatch(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        if isinstance(pat, A.DotsExpr):
            return [st.add("dots", pat, [code])]

        if isinstance(pat, A.Disjunction):
            for branch in pat.branches:
                results = self.match_expr(branch, code, st)
                if results:
                    return results
            return []

        if isinstance(pat, A.Conjunction):
            states = [st]
            for branch in pat.branches:
                states = [s2 for s in states for s2 in self.match_expr(branch, code, s)]
                if not states:
                    return []
            return states

        if isinstance(pat, A.Ident):
            return self._match_ident(pat, code, st)

        if isinstance(pat, A.Literal):
            if isinstance(code, A.Literal) and pat.value == code.value:
                return [st.add("node", pat, code)]
            return []

        if isinstance(pat, A.Paren):
            inner_code = code.expr if isinstance(code, A.Paren) else code
            return [s.add("node", pat, code) if isinstance(code, A.Paren) else s
                    for s in self.match_expr(pat.expr, inner_code, st)]

        if isinstance(pat, A.BinaryOp):
            return self._match_binary(pat, code, st)

        if isinstance(pat, A.UnaryOp):
            out: list[MState] = []
            if isinstance(code, A.UnaryOp) and pat.op == code.op and pat.prefix == code.prefix:
                out = [s.add("node", pat, code)
                       for s in self.match_expr(pat.operand, code.operand, st)]
            if not out and self.isos.increment_forms:
                for alt in increment_variants(code, self.isos):
                    inner = self._match_expr_dispatch(pat, alt, st)
                    out = [s.add("binding", pat, code) for s in inner]
                    if out:
                        break
            return out

        if isinstance(pat, A.Assignment):
            if isinstance(code, A.Assignment) and pat.op == code.op:
                out = []
                for s in self.match_expr(pat.target, code.target, st):
                    for s2 in self.match_expr(pat.value, code.value, s):
                        out.append(s2.add("node", pat, code))
                return out
            if self.isos.increment_forms:
                for alt in increment_variants(code, self.isos):
                    if isinstance(alt, A.Assignment):
                        inner = self._match_expr_dispatch(pat, alt, st)
                        if inner:
                            return [s.add("binding", pat, code) for s in inner]
            return []

        if isinstance(pat, A.Ternary):
            if not isinstance(code, A.Ternary):
                return []
            out = []
            for s in self.match_expr(pat.cond, code.cond, st):
                for s2 in self.match_expr(pat.then, code.then, s):
                    for s3 in self.match_expr(pat.orelse, code.orelse, s2):
                        out.append(s3.add("node", pat, code))
            return out

        if isinstance(pat, A.Call):
            if not isinstance(code, A.Call):
                return []
            out = []
            for s in self.match_expr(pat.func, code.func, st):
                for s2, _pos in self.match_expr_list(pat.args, code.args, 0, s):
                    out.append(s2.add("node", pat, code))
            return out

        if isinstance(pat, A.KernelLaunch):
            if not isinstance(code, A.KernelLaunch):
                return []
            out = []
            for s in self.match_expr(pat.func, code.func, st):
                for s2, _p in self.match_expr_list(pat.config, code.config, 0, s):
                    for s3, _p2 in self.match_expr_list(pat.args, code.args, 0, s2):
                        out.append(s3.add("node", pat, code))
            return out

        if isinstance(pat, A.Subscript):
            if not isinstance(code, A.Subscript):
                return []
            out = []
            for s in self.match_expr(pat.base, code.base, st):
                for s2, _pos in self.match_expr_list(pat.indices, code.indices, 0, s):
                    out.append(s2.add("node", pat, code))
            return out

        if isinstance(pat, A.Member):
            if not isinstance(code, A.Member) or pat.op != code.op:
                return []
            out = []
            for s in self.match_expr(pat.base, code.base, st):
                s2 = self._match_name(pat.name, code.name, s)
                if s2 is not None:
                    out.append(s2.add("node", pat, code))
            return out

        if isinstance(pat, A.Cast):
            if not isinstance(code, A.Cast):
                return []
            out = []
            for s in self.match_type(pat.type, code.type, st):
                for s2 in self.match_expr(pat.expr, code.expr, s):
                    out.append(s2.add("node", pat, code))
            return out

        if isinstance(pat, A.InitList):
            if not isinstance(code, A.InitList) or len(pat.items) != len(code.items):
                return []
            states = [st]
            for pi, ci in zip(pat.items, code.items):
                states = [s2 for s in states for s2 in self.match_expr(pi, ci, s)]
            return [s.add("node", pat, code) for s in states]

        if isinstance(pat, A.CommaExpr):
            if not isinstance(code, A.CommaExpr) or len(pat.items) != len(code.items):
                return []
            states = [st]
            for pi, ci in zip(pat.items, code.items):
                states = [s2 for s in states for s2 in self.match_expr(pi, ci, s)]
            return [s.add("node", pat, code) for s in states]

        if isinstance(pat, A.SizeofExpr):
            if not isinstance(code, A.SizeofExpr):
                return []
            if isinstance(pat.arg, A.TypeName) and isinstance(code.arg, A.TypeName):
                return [s.add("node", pat, code)
                        for s in self.match_type(pat.arg, code.arg, st)]
            if isinstance(pat.arg, A.TypeName) or isinstance(code.arg, A.TypeName):
                return []
            return [s.add("node", pat, code)
                    for s in self.match_expr(pat.arg, code.arg, st)]

        if isinstance(pat, A.MetaExprList):
            value = self._code_value("expression list", [code])
            st2 = st.bind(pat.name, value)
            return [st2.add("binding", pat, [code])] if st2 is not None else []

        return self._match_generic(pat, code, st)

    def _match_ident(self, pat: A.Ident, code: A.Node, st: MState) -> list[MState]:
        decl = self._decl(pat.name)
        if decl is None or decl.kind == "symbol":
            # an undeclared / symbol identifier matches only itself; an
            # inherited binding seeded in the environment also constrains it
            bound = st.env.get(pat.name) if decl is None else None
            if isinstance(code, A.Ident):
                target = bound.text if bound is not None else pat.name
                if code.name == target:
                    return [st.add("node", pat, code)]
            return []

        kind = decl.kind
        if kind in ("identifier", "function", "declarer", "iterator"):
            if not isinstance(code, A.Ident):
                return []
            if not decl.check_name_constraint(code.name):
                return []
            st2 = st.bind(pat.name, BoundValue.for_name(kind, code.name))
            return [st2.add("binding", pat, code)] if st2 is not None else []

        if kind == "constant":
            if not isinstance(code, A.Literal):
                return []
            if not decl.check_constant_constraint(code.value):
                return []
            st2 = st.bind(pat.name, BoundValue(kind="constant", text=code.value,
                                               source_text=code.value))
            return [st2.add("binding", pat, code)] if st2 is not None else []

        if kind in ("expression", "idexpression", "local idexpression"):
            value = self._code_value("expression", code)
            st2 = st.bind(pat.name, value)
            return [st2.add("binding", pat, code)] if st2 is not None else []

        if kind == "expression list":
            value = self._code_value("expression list", [code])
            st2 = st.bind(pat.name, value)
            return [st2.add("binding", pat, [code])] if st2 is not None else []

        if kind == "type":
            if isinstance(code, A.Ident):
                st2 = st.bind(pat.name, BoundValue(kind="type", text=code.name,
                                                   source_text=code.name))
                return [st2.add("binding", pat, code)] if st2 is not None else []
            return []

        return []

    def _match_binary(self, pat: A.BinaryOp, code: A.Node, st: MState) -> list[MState]:
        candidates: list[A.Node] = []
        if isinstance(code, A.BinaryOp) and code.op == pat.op:
            candidates.append(code)
            swapped = commutative_swap(code, self.isos)
            if swapped is not None:
                candidates.append(swapped)
        out: list[MState] = []
        for cand in candidates:
            for s in self.match_expr(pat.left, cand.left, st):
                for s2 in self.match_expr(pat.right, cand.right, s):
                    out.append(s2.add("node", pat, code))
            if out:
                break
        return out

    def match_expr_list(self, pats: Sequence[A.Node], codes: Sequence[A.Node], pos: int,
                        st: MState) -> list[tuple[MState, int]]:
        """Argument-list matching with dots and ``expression list``
        metavariables; must consume the whole code list."""
        if not pats:
            return [(st, pos)] if pos == len(codes) else []
        head, rest = pats[0], pats[1:]
        out: list[tuple[MState, int]] = []
        if isinstance(head, (A.DotsExpr, A.MetaExprList)) :
            for skip in range(0, len(codes) - pos + 1):
                absorbed = list(codes[pos:pos + skip])
                if isinstance(head, A.MetaExprList):
                    st2 = st.bind(head.name, self._code_value("expression list", absorbed))
                    if st2 is None:
                        continue
                    st2 = st2.add("binding", head, absorbed)
                else:
                    st2 = st.add("dots", head, absorbed)
                out.extend(self.match_expr_list(rest, codes, pos + skip, st2))
            return out
        if pos >= len(codes):
            return []
        for s in self.match_expr(head, codes[pos], st):
            out.extend(self.match_expr_list(rest, codes, pos + 1, s))
        return out

    # -- generic structural fallback ------------------------------------------------------

    def _match_generic(self, pat: A.Node, code: A.Node, st: MState) -> list[MState]:
        """Field-by-field structural matching for node kinds without a
        dedicated handler."""
        if type(pat) is not type(code):
            return []
        states = [st]
        for (fname, pval), (_f2, cval) in zip(A.child_fields(pat), A.child_fields(code)):
            if isinstance(pval, A.Node) or isinstance(cval, A.Node):
                if not (isinstance(pval, A.Node) and isinstance(cval, A.Node)):
                    return []
                new_states = []
                for s in states:
                    if isinstance(pval, (A.Stmt,)):
                        new_states.extend(self.match_stmt(pval, cval, s))
                    else:
                        new_states.extend(self.match_expr(pval, cval, s))
                states = new_states
            elif isinstance(pval, (list, tuple)) and pval and isinstance(pval[0], A.Node):
                if not isinstance(cval, (list, tuple)) or len(pval) != len(cval):
                    return []
                for p_item, c_item in zip(pval, cval):
                    new_states = []
                    for s in states:
                        if isinstance(p_item, A.Stmt):
                            new_states.extend(self.match_stmt(p_item, c_item, s))
                        else:
                            new_states.extend(self.match_expr(p_item, c_item, s))
                    states = new_states
            else:
                if pval != cval:
                    return []
            if not states:
                return []
        return [s.add("node", pat, code) for s in states]


# ---------------------------------------------------------------------------
# test-side substitutions of CompiledRule.match_all
# ---------------------------------------------------------------------------

def _reference_match_all(crule, tree: ParseTree,
                         inherited_env: Env = EMPTY_ENV) -> list[MatchInstance]:
    return Matcher(crule.rule, tree, options=crule.options) \
        .match_all(inherited_env)


@contextmanager
def reference_backend():
    """Within the block, every :class:`CompiledRule` answers through the
    reference matcher instead (the end-to-end comparison side)."""
    with _substituted(_reference_match_all):
        yield


@contextmanager
def checked_matcher():
    """Within the block, every ``CompiledRule.match_all`` call also runs the
    reference and asserts equal :class:`MatchInstance` signatures, in order.
    Yields a one-element list counting the checked calls, so a caller can
    tell a sweep that matched nothing from one that was checked."""
    original = CompiledRule.match_all
    calls = [0]

    def match_all(crule, tree, inherited_env=EMPTY_ENV):
        found = original(crule, tree, inherited_env)
        expected = _reference_match_all(crule, tree, inherited_env)
        got = [inst.signature() for inst in found]
        want = [inst.signature() for inst in expected]
        assert got == want, (
            f"rule {crule.rule.name!r} on {tree.source.name!r}: compiled "
            f"matcher found {len(got)} instance(s), reference {len(want)}")
        calls[0] += 1
        return found

    with _substituted(match_all):
        yield calls


@contextmanager
def _substituted(match_all):
    original = CompiledRule.match_all
    CompiledRule.match_all = match_all
    try:
        yield
    finally:
        CompiledRule.match_all = original
