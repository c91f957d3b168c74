"""Recursive-descent parser for the C/C++ subset used by the paper's patches.

The same parser parses both real source files and SmPL pattern fragments
(the minus slice of a rule); in the latter case it is given the table of
declared metavariables so that, e.g., a lone statement metavariable ``A`` or
a ``parameter list`` metavariable ``PL`` parse into the dedicated pattern
nodes, and dots / disjunction tokens are accepted in the corresponding
positions.

The top-level parser is *error tolerant*: constructs outside the supported
subset are preserved verbatim as :class:`RawDecl` / :class:`RawStmt` nodes so
that applying a semantic patch never corrupts a file just because it contains
syntax the front end does not model (pattern mode is strict instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import CParseError
from ..options import SpatchOptions, DEFAULT_OPTIONS
from .lexer import Lexer, Token, TokenKind
from .source import SourceFile
from .ast_nodes import (
    AttributeSpec, Assignment, BinaryOp, BreakStmt, Call, Cast, CommaExpr,
    CompoundStmt, Conjunction, ContinueStmt, Declaration, Declarator,
    DeclStmt, DefineDirective, Disjunction, DoWhileStmt, DotsExpr, DotsParam,
    DotsStmt, EmptyStmt, Expr, ExprStmt, ForStmt, FunctionDef, Ident, IfStmt,
    IncludeDirective, InitList, KernelLaunch, Lambda, Literal, Member,
    MetaExprList, MetaParamList, MetaStmt, MetaStmtList, Node, OtherDirective,
    Param, ParamList, Paren, PragmaDirective, RangeForStmt, RawDecl, RawStmt,
    ReturnStmt, SizeofExpr, StructDef, Stmt, Subscript, Ternary,
    TranslationUnit, TypeName, UnaryOp, WhileStmt,
)


#: Keywords that may begin a type.
TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double", "bool",
    "signed", "unsigned", "auto", "_Bool", "_Complex",
    "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "float32_t", "float64_t", "wchar_t",
}

#: Declaration specifiers / qualifiers that may precede the type.
SPECIFIER_KEYWORDS = {
    "static", "extern", "inline", "register", "restrict", "volatile",
    "constexpr", "consteval", "constinit", "mutable", "virtual", "explicit",
    "__restrict__", "__inline__", "_Noreturn", "noexcept",
    "__global__", "__device__", "__host__", "__forceinline__",
}

#: ``const`` can appear both as a qualifier and inside the type.
QUALIFIER_KEYWORDS = {"const", "volatile", "restrict", "__restrict__"}

STATEMENT_KEYWORDS = {
    "if", "else", "for", "while", "do", "return", "break", "continue",
    "switch", "case", "default", "goto",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_BINARY_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: ``{operator: level}`` for precedence climbing (higher binds tighter)
_BINARY_PREC = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

UNARY_OPS = {"!", "~", "-", "+", "*", "&", "++", "--"}

#: punctuators that continue a postfix expression
_POSTFIX_OPS = {"(", "[", ".", "->", "++", "--", "<<<"}


# ---------------------------------------------------------------------------
# parse result container
# ---------------------------------------------------------------------------

@dataclass
class ParseTree:
    """The result of parsing one file (or one pattern fragment)."""

    source: SourceFile
    tokens: list[Token]
    unit: TranslationUnit
    known_types: set[str] = field(default_factory=set)
    #: whether any C++-gated branch decided something while parsing; when
    #: not, parsing the same text as C or as C++ builds this same tree
    cxx_decided: bool = False

    # -- extent helpers ----------------------------------------------------

    def token_slice(self, node: Node) -> list[Token]:
        if node.start < 0 or node.end < 0:
            return []
        return self.tokens[node.start:node.end]

    def node_offsets(self, node: Node) -> tuple[int, int]:
        """Byte-offset extent ``(start, end)`` of a node in the source text."""
        toks = self.token_slice(node)
        if not toks:
            return (0, 0)
        return toks[0].offset, toks[-1].end

    def node_text(self, node: Node) -> str:
        start, end = self.node_offsets(node)
        return self.source.text[start:end]

    def node_token_values(self, node: Node) -> list[str]:
        """Normalised token spelling of a node (used for metavariable
        equality checks, which must ignore whitespace differences)."""
        return [t.value for t in self.token_slice(node)]

    def own_token_indices(self, node: Node) -> list[int]:
        """Token indices covered by ``node`` but not by any of its children.

        These are the node's *fixed* tokens (keywords, operators, braces,
        names stored as plain strings) and are what the transformation stage
        aligns between pattern and code.
        """
        if node.start < 0:
            return []
        covered = [False] * (node.end - node.start)
        from .ast_nodes import iter_child_nodes

        for child in iter_child_nodes(node):
            if child.start < 0:
                continue
            for i in range(max(child.start, node.start), min(child.end, node.end)):
                covered[i - node.start] = True
        return [node.start + i for i, c in enumerate(covered) if not c]

    def node_location(self, node: Node):
        start, _ = self.node_offsets(node)
        return self.source.location(start)


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

class CParser:
    """Parser over a token list.

    Parameters
    ----------
    tokens / source:
        The token stream (ending in EOF) and the file it came from.
    options:
        Language options (C vs C++ subset, extra type names).
    metavars:
        ``{name: kind}`` of SmPL metavariables when parsing pattern code;
        ``None`` for real source code.
    tolerant:
        Recover from parse errors by emitting Raw nodes (real code); pattern
        parsing is strict.
    """

    def __init__(self, tokens: Sequence[Token], source: SourceFile,
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 metavars: dict[str, str] | None = None,
                 tolerant: bool = True):
        self.tokens = list(tokens)
        #: index of the last token (EOF): reads past the end return it
        self._last = len(self.tokens) - 1
        self.source = source
        self.options = options
        self.metavars = metavars or {}
        self.pattern_mode = metavars is not None
        self.tolerant = tolerant and not self.pattern_mode
        self.i = 0
        self.known_types: set[str] = set(TYPE_KEYWORDS)
        self.known_types.update(options.extra_types)
        self.known_types.update(
            name for name, kind in self.metavars.items() if kind == "type")
        self.attribute_names = {"__attribute__", "__declspec"} | set(options.attribute_names)
        self.cxx_decided = False

    # -- token helpers ------------------------------------------------------

    def _tok(self, offset: int = 0) -> Token:
        idx = self.i + offset
        return self.tokens[idx if idx < self._last else self._last]

    def _at_end(self) -> bool:
        return self._tok().kind is TokenKind.EOF

    def _advance(self) -> Token:
        tok = self._tok()
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _check_punct(self, *values: str) -> bool:
        tok = self._tok()
        return tok.kind is TokenKind.PUNCT and tok.value in values

    def _check_ident(self, *names: str) -> bool:
        return self._tok().is_ident(*names)

    def _match_punct(self, *values: str) -> Optional[Token]:
        if self._check_punct(*values):
            return self._advance()
        return None

    def _expect_punct(self, value: str) -> Token:
        if not self._check_punct(value):
            raise self._error(f"expected {value!r}, found {self._tok().value!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._tok().kind is not TokenKind.IDENT:
            raise self._error(f"expected identifier, found {self._tok().value!r}")
        return self._advance()

    def _error(self, message: str) -> CParseError:
        tok = self._tok()
        return CParseError(message, self.source.name, tok.line, tok.col)

    def _mv_kind(self, name: str) -> Optional[str]:
        return self.metavars.get(name)

    # -- language mode -------------------------------------------------------

    def _cxx(self) -> bool:
        """The language mode, read where it decides the parse.  Each caller
        checks it last in its condition, so reaching here means C and C++
        read the text differently; the tree records that (``cxx_decided``),
        and a tree that never decided serves both modes."""
        if not self.pattern_mode:
            self.cxx_decided = True
        return self.options.is_cxx

    def _cxx_attempt(self, attempt, start: int):
        """Try a C++-only construct (a range-``for`` header or a lambda).

        Pattern code and C++ keep what the attempt parsed.  Plain C makes the
        attempt too, only to learn whether C++ would decide here, and then
        discards it along with any type names it declared."""
        save = self.i
        if self.pattern_mode:
            node = attempt(start)
            if node is None:
                self.i = save
            return node
        types = set(self.known_types)
        node = attempt(start)
        if node is not None or len(self.known_types) != len(types):
            self.cxx_decided = True
        if self.options.is_cxx and node is not None:
            return node
        self.i = save
        if not self.options.is_cxx:
            self.known_types = types
        return None

    # -- entry points --------------------------------------------------------

    def parse_translation_unit(self) -> ParseTree:
        start = self.i
        decls: list[Node] = []
        while not self._at_end():
            before = self.i
            try:
                decl = self.parse_external_decl()
                if decl is not None:
                    decls.append(decl)
            except CParseError:
                if not self.tolerant:
                    raise
                decls.append(self._recover_raw_decl(before))
            if self.i == before:  # safety: always make progress
                self._advance()
        unit = TranslationUnit(decls=decls)
        unit.with_extent(start, self.i)
        return ParseTree(source=self.source, tokens=self.tokens, unit=unit,
                         known_types=set(self.known_types),
                         cxx_decided=self.cxx_decided)

    def parse_statement_list(self) -> list[Node]:
        """Parse the token stream as a sequence of statements (pattern use)."""
        stmts: list[Node] = []
        while not self._at_end():
            stmts.append(self.parse_statement())
        return stmts

    def parse_single_expression(self) -> Expr:
        """Parse the token stream as one expression (pattern use)."""
        expr = self.parse_expression()
        if not self._at_end():
            raise self._error("trailing tokens after expression")
        return expr

    # -- error recovery ------------------------------------------------------

    def _recover_raw_decl(self, from_index: int) -> RawDecl:
        self.i = max(self.i, from_index)
        depth = 0
        start = from_index
        while not self._at_end():
            tok = self._advance()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
                if depth <= 0:
                    break
            elif tok.is_punct(";") and depth == 0:
                break
        node = RawDecl(text=self._text_between(start, self.i))
        return node.with_extent(start, self.i)

    def _recover_raw_stmt(self, from_index: int) -> RawStmt:
        self.i = max(self.i, from_index)
        depth = 0
        start = from_index
        while not self._at_end():
            tok = self._tok()
            if tok.is_punct("}") and depth == 0:
                break
            self._advance()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
                if depth <= 0:
                    break
            elif tok.is_punct(";") and depth == 0:
                break
        node = RawStmt(text=self._text_between(start, self.i))
        return node.with_extent(start, self.i)

    def _text_between(self, start_idx: int, end_idx: int) -> str:
        if end_idx <= start_idx:
            return ""
        return self.source.text[self.tokens[start_idx].offset:self.tokens[end_idx - 1].end]

    # -- directives ----------------------------------------------------------

    def parse_directive(self) -> Node:
        start = self.i
        tok = self._advance()
        value = tok.value  # normalised '#... ...'
        body = value[1:].strip() if value.startswith("#") else value
        node: Node
        if body.startswith("include"):
            rest = body[len("include"):].strip()
            system = rest.startswith("<")
            target = rest.strip("<>\"") if rest else ""
            node = IncludeDirective(target=target, system=system, raw=value)
        elif body.startswith("pragma"):
            node = PragmaDirective(text=body[len("pragma"):].strip(), raw=value)
        elif body.startswith(("define", "undef")):
            node = DefineDirective(raw=value)
        else:
            node = OtherDirective(raw=value)
        return node.with_extent(start, self.i)

    # -- attributes ----------------------------------------------------------

    def _at_attribute(self) -> bool:
        return self._tok().kind is TokenKind.IDENT and self._tok().value in self.attribute_names

    def parse_attribute_specs(self) -> list[AttributeSpec]:
        attrs: list[AttributeSpec] = []
        while self._at_attribute():
            attrs.append(self.parse_attribute_spec())
        return attrs

    def parse_attribute_spec(self) -> AttributeSpec:
        start = self.i
        self._advance()  # __attribute__
        self._expect_punct("(")
        self._expect_punct("(")
        name_tok = self._expect_ident()
        args: list[Expr] = []
        has_args = False
        if self._match_punct("("):
            has_args = True
            args = self._parse_attr_args()
            self._expect_punct(")")
        self._expect_punct(")")
        self._expect_punct(")")
        node = AttributeSpec(name=name_tok.value, args=args, has_args=has_args)
        return node.with_extent(start, self.i)

    def _parse_attr_args(self) -> list[Expr]:
        args: list[Expr] = []
        while not self._check_punct(")"):
            args.append(self._parse_arg_element())
            if not self._match_punct(","):
                break
        return args

    def _parse_arg_element(self) -> Expr:
        """One element of an argument list; in pattern mode it may be dots, a
        disjunction group or an ``expression list`` metavariable."""
        tok = self._tok()
        if tok.kind is TokenKind.DOTS:
            start = self.i
            self._advance()
            return DotsExpr().with_extent(start, self.i)
        if tok.kind is TokenKind.DISJ_OPEN:
            return self._parse_group(self.parse_assignment)
        expr = self.parse_assignment()
        if (isinstance(expr, Ident) and self._mv_kind(expr.name) == "expression list"):
            repl = MetaExprList(name=expr.name)
            repl.with_extent(expr.start, expr.end)
            repl.pos_metavars = expr.pos_metavars
            return repl
        return expr

    # -- groups (disjunction / conjunction) -----------------------------------

    def _parse_group(self, parse_branch) -> Node:
        """Parse ``\\( b1 \\| b2 ... \\)`` or ``\\( b1 \\& b2 \\)``."""
        start = self.i
        self._advance()  # DISJ_OPEN
        branches = [parse_branch()]
        op: Optional[str] = None
        while True:
            tok = self._tok()
            if tok.kind is TokenKind.DISJ_CLOSE:
                self._advance()
                break
            if tok.kind is TokenKind.DISJ_OR:
                if op == "&":
                    raise self._error("cannot mix \\| and \\& at the same level")
                op = "|"
                self._advance()
                branches.append(parse_branch())
            elif tok.kind is TokenKind.CONJ_AND:
                if op == "|":
                    raise self._error("cannot mix \\| and \\& at the same level")
                op = "&"
                self._advance()
                branches.append(parse_branch())
            else:
                raise self._error(f"unexpected token {tok.value!r} in disjunction")
        node: Node = Conjunction(branches=branches) if op == "&" else Disjunction(branches=branches)
        return node.with_extent(start, self.i)

    def _parse_group_branch_stmt(self) -> Node:
        """A branch of a statement-level group: one statement, or a nested
        group, or a bare expression (constraint branch of a conjunction)."""
        tok = self._tok()
        if tok.kind is TokenKind.DISJ_OPEN:
            return self._parse_group(self._parse_group_branch_stmt)
        save = self.i
        try:
            return self.parse_statement()
        except CParseError:
            self.i = save
            start = self.i
            expr = self.parse_expression()
            node = ExprStmt(expr=expr, has_semicolon=False)
            return node.with_extent(start, self.i)

    # -- types ----------------------------------------------------------------

    def _is_type_start(self, tok: Token, lookahead: int = 0) -> bool:
        if tok.kind is not TokenKind.IDENT:
            return False
        name = tok.value
        if name in TYPE_KEYWORDS or name in QUALIFIER_KEYWORDS:
            return True
        if name in ("struct", "union", "enum"):
            return True
        if name in self.known_types:
            return True
        if self._mv_kind(name) == "type":
            return True
        if name.endswith("_t") and name not in STATEMENT_KEYWORDS:
            # common convention for typedef'd types (size_t, cudaStream_t, ...)
            return True
        return False

    def looks_like_declaration(self) -> bool:
        """Heuristic: does a declaration start at the current position?"""
        tok = self._tok()
        if tok.kind is not TokenKind.IDENT:
            return False
        if tok.value in STATEMENT_KEYWORDS:
            return False
        if tok.value in SPECIFIER_KEYWORDS or self._is_type_start(tok):
            return True
        # ``sometype name ;/=/[/,`` with an unknown type name
        nxt, nxt2 = self._tok(1), self._tok(2)
        if nxt.kind is TokenKind.IDENT and nxt.value not in STATEMENT_KEYWORDS:
            if nxt2.is_punct(";", "=", "[", ","):
                return True
            if nxt2.is_punct("(") and self._cxx():
                # constructor-style initialisation ``dim3 grid(n);``
                return True
        return False

    def parse_type(self, allow_unknown: bool = False) -> TypeName:
        start = self.i
        parts: list[str] = []
        has_base = False
        while True:
            tok = self._tok()
            if tok.kind is not TokenKind.IDENT:
                break
            name = tok.value
            if name in ("struct", "union", "enum"):
                parts.append(name)
                has_base = True
                self._advance()
                if self._tok().kind is TokenKind.IDENT:
                    parts.append(self._advance().value)
                break
            is_known = (name in TYPE_KEYWORDS or name in QUALIFIER_KEYWORDS
                        or name in self.known_types or self._mv_kind(name) == "type"
                        or (name.endswith("_t") and name not in STATEMENT_KEYWORDS))
            if is_known or (allow_unknown and not has_base and name not in STATEMENT_KEYWORDS):
                parts.append(name)
                if name not in QUALIFIER_KEYWORDS:
                    has_base = True
                self._advance()
                # optional template arguments (C++ subset): fold into the part
                if self._check_punct("<") and self._template_args_follow() and self._cxx():
                    parts[-1] = parts[-1] + self._consume_template_args()
                # qualified names: Kokkos::View etc.
                while self._check_punct("::") and self._tok(1).kind is TokenKind.IDENT:
                    self._advance()
                    parts[-1] = parts[-1] + "::" + self._advance().value
                    if self._check_punct("<") and self._template_args_follow() and self._cxx():
                        parts[-1] = parts[-1] + self._consume_template_args()
                # a qualifier or builtin word may be followed by more type
                # words (``unsigned long``, ``const struct particle``);
                # otherwise stop after the base name.
                nxt = self._tok()
                if (nxt.kind is TokenKind.IDENT
                        and (nxt.value in TYPE_KEYWORDS or nxt.value in QUALIFIER_KEYWORDS
                             or (not has_base and self._is_type_start(nxt))
                             or nxt.value in ("struct", "union", "enum"))):
                    continue
                break
            break
        if not parts:
            raise self._error("expected a type")
        node = TypeName(parts=parts)
        return node.with_extent(start, self.i)

    def _template_args_follow(self) -> bool:
        """Cheap balanced scan to decide whether ``<`` opens template args."""
        depth = 0
        j = self.i
        limit = min(len(self.tokens), self.i + 64)
        while j < limit:
            tok = self.tokens[j]
            if tok.is_punct("<"):
                depth += 1
            elif tok.is_punct(">"):
                depth -= 1
                if depth == 0:
                    return True
            elif tok.is_punct(">>"):
                depth -= 2
                if depth <= 0:
                    return True
            elif tok.is_punct(";", "{", "}") or tok.kind is TokenKind.EOF:
                return False
            j += 1
        return False

    def _consume_template_args(self) -> str:
        start_tok = self._tok()
        depth = 0
        start_off = start_tok.offset
        end_off = start_off
        while not self._at_end():
            tok = self._advance()
            end_off = tok.end
            if tok.is_punct("<"):
                depth += 1
            elif tok.is_punct(">"):
                depth -= 1
                if depth == 0:
                    break
            elif tok.is_punct(">>"):
                depth -= 2
                if depth <= 0:
                    break
        return self.source.text[start_off:end_off]

    # -- external declarations -------------------------------------------------

    def parse_external_decl(self) -> Optional[Node]:
        tok = self._tok()
        if tok.kind is TokenKind.DIRECTIVE:
            return self.parse_directive()
        if tok.is_punct(";"):
            start = self.i
            self._advance()
            return EmptyStmt().with_extent(start, self.i)
        if tok.kind is TokenKind.DOTS:
            start = self.i
            self._advance()
            return DotsStmt().with_extent(start, self.i)
        if tok.kind is TokenKind.DISJ_OPEN:
            return self._parse_group(self._parse_group_branch_stmt)
        if tok.is_ident("typedef"):
            return self._parse_typedef()
        if tok.is_ident("struct", "union", "enum") and self._struct_definition_follows():
            return self._parse_struct_def(is_typedef=False)
        if tok.is_ident("using") or tok.is_ident("namespace"):
            return self._parse_passthrough_to_semicolon_or_block()
        return self._parse_function_or_declaration()

    def _struct_definition_follows(self) -> bool:
        # struct NAME { ... } ;   vs   struct NAME var ;
        j = self.i + 1
        if self.tokens[j].kind is TokenKind.IDENT:
            j += 1
        return self.tokens[j].is_punct("{")

    def _parse_passthrough_to_semicolon_or_block(self) -> RawDecl:
        start = self.i
        depth = 0
        while not self._at_end():
            tok = self._advance()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
                if depth == 0 and not self._check_punct(";"):
                    break
            elif tok.is_punct(";") and depth == 0:
                break
        return RawDecl(text=self._text_between(start, self.i)).with_extent(start, self.i)

    def _parse_typedef(self) -> Node:
        start = self.i
        self._advance()  # typedef
        if self._check_ident("struct", "union", "enum") and self._struct_definition_follows():
            node = self._parse_struct_def(is_typedef=True, start=start)
            return node
        ty = self.parse_type()
        decl = self._parse_declaration_tail(specifiers=["typedef"], ty=ty, start=start,
                                            is_typedef=True)
        for d in decl.declarators:
            if d.name:
                self.known_types.add(d.name)
        return decl

    def _parse_struct_def(self, is_typedef: bool, start: int | None = None) -> StructDef:
        if start is None:
            start = self.i
        keyword = self._advance().value
        name = ""
        if self._tok().kind is TokenKind.IDENT:
            name = self._advance().value
        members: list[Declaration] = []
        enumerators: list[str] = []
        self._expect_punct("{")
        if keyword == "enum":
            while not self._check_punct("}") and not self._at_end():
                if self._tok().kind is TokenKind.IDENT:
                    enumerators.append(self._advance().value)
                    if self._match_punct("="):
                        self.parse_assignment()
                if not self._match_punct(","):
                    break
        else:
            while not self._check_punct("}") and not self._at_end():
                if self._tok().kind is TokenKind.DIRECTIVE:
                    self.parse_directive()
                    continue
                ty = self.parse_type()
                decl = self._parse_declaration_tail(specifiers=[], ty=ty, start=self.i - 1)
                members.append(decl)
        self._expect_punct("}")
        typedef_name = ""
        if is_typedef:
            if self._tok().kind is TokenKind.IDENT:
                typedef_name = self._advance().value
                self.known_types.add(typedef_name)
        if name:
            self.known_types.add(name)
        self._match_punct(";")
        node = StructDef(keyword=keyword, name=name, members=members,
                         enumerators=enumerators, is_typedef=is_typedef,
                         typedef_name=typedef_name)
        return node.with_extent(start, self.i)

    def _parse_function_or_declaration(self) -> Node:
        start = self.i
        attributes = self.parse_attribute_specs()
        specifiers: list[str] = []
        while self._tok().kind is TokenKind.IDENT and self._tok().value in SPECIFIER_KEYWORDS:
            specifiers.append(self._advance().value)
        attributes += self.parse_attribute_specs()
        # at file scope only declarations occur, so unknown identifiers in
        # type position are accepted as type names
        ty = self.parse_type(allow_unknown=not self.pattern_mode)
        pointer = ""
        while self._check_punct("*"):
            pointer += "*"
            self._advance()
        if self._tok().kind is not TokenKind.IDENT:
            raise self._error("expected a declarator name")
        name_tok = self._advance()
        name = name_tok.value
        while self._check_punct("::") and self._tok(1).kind is TokenKind.IDENT:
            self._advance()
            name += "::" + self._advance().value
        if self._check_punct("("):
            return self._parse_function_rest(start, attributes, specifiers, ty, pointer, name)
        # plain declaration: rewind to re-parse declarators uniformly
        self.i = start
        attributes2 = self.parse_attribute_specs()
        specifiers2: list[str] = []
        while self._tok().kind is TokenKind.IDENT and self._tok().value in SPECIFIER_KEYWORDS:
            specifiers2.append(self._advance().value)
        self.parse_attribute_specs()
        ty2 = self.parse_type(allow_unknown=not self.pattern_mode)
        decl = self._parse_declaration_tail(specifiers=specifiers2, ty=ty2, start=start)
        decl.attributes = attributes2
        return decl

    def _parse_function_rest(self, start: int, attributes: list[AttributeSpec],
                             specifiers: list[str], ty: TypeName, pointer: str,
                             name: str) -> FunctionDef:
        params = self.parse_param_list()
        # trailing qualifiers / attributes between ')' and '{'
        while self._check_ident("const", "noexcept", "override", "final"):
            self._advance()
        body: CompoundStmt | MetaStmtList | None = None
        is_prototype = False
        if self._check_punct("{"):
            body = self.parse_compound()
        elif self._match_punct(";"):
            is_prototype = True
        else:
            raise self._error("expected function body or ';'")
        node = FunctionDef(attributes=attributes, specifiers=specifiers,
                           return_type=ty, pointer=pointer, name=name,
                           params=params, body=body, is_prototype=is_prototype)
        return node.with_extent(start, self.i)

    def parse_param_list(self) -> ParamList:
        start = self.i
        self._expect_punct("(")
        params: list[Node] = []
        if not self._check_punct(")"):
            while True:
                params.append(self._parse_param())
                if not self._match_punct(","):
                    break
        self._expect_punct(")")
        node = ParamList(params=params)
        return node.with_extent(start, self.i)

    def _parse_param(self) -> Node:
        tok = self._tok()
        start = self.i
        if tok.kind is TokenKind.DOTS:
            self._advance()
            return DotsParam().with_extent(start, self.i)
        if (tok.kind is TokenKind.IDENT and self._mv_kind(tok.value) == "parameter list"):
            self._advance()
            return MetaParamList(name=tok.value).with_extent(start, self.i)
        if tok.is_ident("void") and self._tok(1).is_punct(")"):
            self._advance()
            return Param(type=TypeName(parts=["void"]).with_extent(start, self.i)) \
                .with_extent(start, self.i)
        # Inside a parameter list only types occur, so an unknown identifier
        # in type position is accepted as a type name (cudaStream_t, dim3, ...).
        ty = self.parse_type(allow_unknown=True)
        pointer = ""
        reference = False
        while self._check_punct("*", "&"):
            if self._advance().value == "*":
                pointer += "*"
            else:
                reference = True
        name = ""
        if self._tok().kind is TokenKind.IDENT:
            name = self._advance().value
        arrays: list[Optional[Expr]] = []
        while self._match_punct("["):
            if self._check_punct("]"):
                arrays.append(None)
            else:
                arrays.append(self.parse_assignment())
            self._expect_punct("]")
        default = None
        if self._match_punct("="):
            default = self.parse_assignment()
        node = Param(type=ty, pointer=pointer, reference=reference, name=name,
                     arrays=arrays, default=default)
        return node.with_extent(start, self.i)

    def _parse_declaration_tail(self, specifiers: list[str], ty: TypeName,
                                start: int, is_typedef: bool = False) -> Declaration:
        declarators: list[Declarator] = []
        while True:
            declarators.append(self._parse_declarator())
            if not self._match_punct(","):
                break
        self._expect_punct(";")
        node = Declaration(specifiers=specifiers, type=ty, declarators=declarators,
                           is_typedef=is_typedef)
        return node.with_extent(start, self.i)

    def _parse_declarator(self) -> Declarator:
        start = self.i
        pointer = ""
        reference = False
        while self._check_punct("*", "&"):
            if self._advance().value == "*":
                pointer += "*"
            else:
                reference = True
        name = ""
        if self._tok().kind is TokenKind.IDENT:
            name = self._advance().value
        arrays: list[Optional[Expr]] = []
        while self._match_punct("["):
            if self._check_punct("]"):
                arrays.append(None)
            else:
                arrays.append(self.parse_expression())
            self._expect_punct("]")
        init: Expr | None = None
        if self._match_punct("="):
            if self._check_punct("{"):
                init = self._parse_init_list()
            else:
                init = self.parse_assignment()
        elif self._check_punct("(") and name and self._cxx():
            # constructor-style initialisation ``T x(args);``
            self._advance()
            args = self._parse_call_args()
            self._expect_punct(")")
            init = InitList(items=args).with_extent(start, self.i)
        node = Declarator(pointer=pointer, reference=reference, name=name,
                          arrays=arrays, init=init)
        return node.with_extent(start, self.i)

    def _parse_init_list(self) -> InitList:
        start = self.i
        self._expect_punct("{")
        items: list[Expr] = []
        while not self._check_punct("}") and not self._at_end():
            if self._check_punct("{"):
                items.append(self._parse_init_list())
            else:
                items.append(self.parse_assignment())
            if not self._match_punct(","):
                break
        self._expect_punct("}")
        return InitList(items=items).with_extent(start, self.i)

    # -- statements -------------------------------------------------------------

    def parse_compound(self) -> CompoundStmt:
        start = self.i
        self._expect_punct("{")
        stmts: list[Node] = []
        while not self._check_punct("}") and not self._at_end():
            # statement-list metavariable covering the whole remaining body
            tok = self._tok()
            if (self.pattern_mode and tok.kind is TokenKind.IDENT
                    and self._mv_kind(tok.value) == "statement list"
                    and self._tok(1).is_punct("}")):
                s = self.i
                self._advance()
                stmts.append(MetaStmtList(name=tok.value).with_extent(s, self.i))
                continue
            before = self.i
            try:
                stmts.append(self.parse_statement())
            except CParseError:
                if not self.tolerant:
                    raise
                stmts.append(self._recover_raw_stmt(before))
            if self.i == before:
                self._advance()
        self._expect_punct("}")
        node = CompoundStmt(stmts=stmts)
        return node.with_extent(start, self.i)

    def parse_statement(self) -> Node:
        tok = self._tok()
        start = self.i

        if tok.kind is TokenKind.DIRECTIVE:
            return self.parse_directive()
        if tok.kind is TokenKind.DOTS:
            self._advance()
            return DotsStmt().with_extent(start, self.i)
        if tok.kind is TokenKind.DISJ_OPEN:
            return self._parse_group(self._parse_group_branch_stmt)
        if tok.is_punct("{"):
            return self.parse_compound()
        if tok.is_punct(";"):
            self._advance()
            return EmptyStmt().with_extent(start, self.i)

        if tok.kind is TokenKind.IDENT:
            kw = tok.value
            if kw == "if":
                return self._parse_if()
            if kw == "for":
                return self._parse_for()
            if kw == "while":
                return self._parse_while()
            if kw == "do":
                return self._parse_do()
            if kw == "return":
                self._advance()
                value = None
                if not self._check_punct(";"):
                    value = self.parse_expression()
                self._expect_punct(";")
                return ReturnStmt(value=value).with_extent(start, self.i)
            if kw == "break":
                self._advance()
                self._expect_punct(";")
                return BreakStmt().with_extent(start, self.i)
            if kw == "continue":
                self._advance()
                self._expect_punct(";")
                return ContinueStmt().with_extent(start, self.i)
            if kw in ("switch", "goto", "case", "default"):
                if not self.tolerant:
                    raise self._error(f"unsupported statement keyword {kw!r}")
                return self._recover_raw_stmt(start)
            if kw == "typedef":
                decl = self._parse_typedef()
                if isinstance(decl, Declaration):
                    return DeclStmt(decl=decl).with_extent(start, self.i)
                return decl

            # SmPL statement metavariable, optionally with a position
            mv = self._mv_kind(kw)
            if self.pattern_mode and mv == "statement":
                self._advance()
                positions = self._parse_position_suffix()
                node = MetaStmt(name=kw)
                node.pos_metavars = positions
                self._match_punct(";")
                return node.with_extent(start, self.i)
            if self.pattern_mode and mv == "statement list":
                self._advance()
                return MetaStmtList(name=kw).with_extent(start, self.i)

        # declaration?
        if self.looks_like_declaration():
            save = self.i
            try:
                specifiers: list[str] = []
                while (self._tok().kind is TokenKind.IDENT
                        and self._tok().value in SPECIFIER_KEYWORDS):
                    specifiers.append(self._advance().value)
                # the heuristic above already decided this is a declaration,
                # so an unknown identifier in type position is a type name
                ty = self.parse_type(allow_unknown=True)
                decl = self._parse_declaration_tail(specifiers=specifiers, ty=ty, start=start)
                return DeclStmt(decl=decl).with_extent(start, self.i)
            except CParseError:
                self.i = save  # fall back to expression statement

        # expression statement
        expr = self.parse_expression()
        has_semi = True
        if not self._match_punct(";"):
            nxt = self._tok()
            if self.pattern_mode and (nxt.kind in (TokenKind.EOF, TokenKind.DISJ_OR,
                                                   TokenKind.CONJ_AND, TokenKind.DISJ_CLOSE)
                                      or nxt.is_punct("}")):
                has_semi = False
            else:
                raise self._error("expected ';' after expression")
        return ExprStmt(expr=expr, has_semicolon=has_semi).with_extent(start, self.i)

    def _parse_position_suffix(self) -> tuple[str, ...]:
        positions: list[str] = []
        while (self._check_punct("@") and self._tok(1).kind is TokenKind.IDENT
               and self._mv_kind(self._tok(1).value) == "position"):
            self._advance()
            positions.append(self._advance().value)
        return tuple(positions)

    def _parse_if(self) -> IfStmt:
        start = self.i
        self._advance()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then = self.parse_statement()
        orelse = None
        if self._check_ident("else"):
            self._advance()
            orelse = self.parse_statement()
        return IfStmt(cond=cond, then=then, orelse=orelse).with_extent(start, self.i)

    def _parse_while(self) -> WhileStmt:
        start = self.i
        self._advance()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return WhileStmt(cond=cond, body=body).with_extent(start, self.i)

    def _parse_do(self) -> DoWhileStmt:
        start = self.i
        self._advance()
        body = self.parse_statement()
        if not self._check_ident("while"):
            raise self._error("expected 'while' after do-body")
        self._advance()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhileStmt(body=body, cond=cond).with_extent(start, self.i)

    def _parse_for(self) -> Node:
        start = self.i
        self._advance()
        self._expect_punct("(")

        # C++ range-for: ``for (T &x : arr)``
        rf = self._cxx_attempt(self._try_parse_range_for_header, start)
        if rf is not None:
            return rf

        init: Node | None = None
        if self._check_punct(";"):
            self._advance()
        elif self._tok().kind is TokenKind.DOTS:
            s = self.i
            self._advance()
            init = DotsExpr().with_extent(s, self.i)
            self._expect_punct(";")
        elif self.looks_like_declaration():
            s = self.i
            specifiers: list[str] = []
            ty = self.parse_type()
            decl = self._parse_declaration_tail(specifiers=specifiers, ty=ty, start=s)
            init = DeclStmt(decl=decl).with_extent(s, self.i)
        else:
            s = self.i
            expr = self.parse_expression()
            self._expect_punct(";")
            init = ExprStmt(expr=expr).with_extent(s, self.i)

        cond: Expr | None = None
        if not self._check_punct(";"):
            if self._tok().kind is TokenKind.DOTS:
                s = self.i
                self._advance()
                cond = DotsExpr().with_extent(s, self.i)
            else:
                cond = self.parse_expression()
        self._expect_punct(";")

        step: Expr | None = None
        if not self._check_punct(")"):
            if self._tok().kind is TokenKind.DOTS:
                s = self.i
                self._advance()
                step = DotsExpr().with_extent(s, self.i)
            else:
                step = self._parse_comma_list()
        self._expect_punct(")")
        body = self.parse_statement()
        return ForStmt(init=init, cond=cond, step=step, body=body).with_extent(start, self.i)

    def _try_parse_range_for_header(self, start: int) -> Optional[RangeForStmt]:
        try:
            if not (self._tok().kind is TokenKind.IDENT and self._is_type_start(self._tok())):
                return None
            ty = self.parse_type()
            pointer = ""
            reference = False
            while self._check_punct("*", "&"):
                if self._advance().value == "*":
                    pointer += "*"
                else:
                    reference = True
            if self._tok().kind is not TokenKind.IDENT:
                return None
            var = self._advance().value
            if not self._check_punct(":"):
                return None
            self._advance()
            iterable = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            return RangeForStmt(type=ty, reference=reference, pointer=pointer, var=var,
                                iterable=iterable, body=body).with_extent(start, self.i)
        except CParseError:
            return None

    def _parse_comma_list(self) -> Expr:
        start = self.i
        first = self.parse_assignment()
        if not self._check_punct(","):
            return first
        items = [first]
        while self._match_punct(","):
            items.append(self.parse_assignment())
        return CommaExpr(items=items).with_extent(start, self.i)

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> Expr:
        start = self.i
        left = self._parse_ternary()
        tok = self._tok()
        if tok.kind is TokenKind.PUNCT and tok.value in ASSIGN_OPS:
            op = self._advance().value
            if self._check_punct("{"):
                value: Expr = self._parse_init_list()
            else:
                value = self.parse_assignment()
            return Assignment(op=op, target=left, value=value).with_extent(start, self.i)
        return left

    def _parse_ternary(self) -> Expr:
        start = self.i
        cond = self._parse_binary(0)
        if self._check_punct("?"):
            self._advance()
            then = self.parse_assignment()
            self._expect_punct(":")
            orelse = self.parse_assignment()
            return Ternary(cond=cond, then=then, orelse=orelse).with_extent(start, self.i)
        return cond

    def _parse_binary(self, level: int) -> Expr:
        """Precedence climbing over ``_BINARY_LEVELS``: the operators at
        ``level`` or tighter, left-associative, every node's extent starting
        at its leftmost operand."""
        start = self.i
        left = self._parse_unary()
        while True:
            tok = self._tok()
            if tok.kind is not TokenKind.PUNCT:
                return left
            # a kernel launch's closing '>>>' is no binary operator, and an
            # SmPL '\&' conjunction marker is not a PUNCT token
            prec = _BINARY_PREC.get(tok.value, -1)
            if prec < level:
                return left
            self.i += 1
            right = self._parse_binary(prec + 1)
            left = BinaryOp(op=tok.value, left=left, right=right).with_extent(start, self.i)

    def _parse_unary(self) -> Expr:
        start = self.i
        tok = self._tok()
        if tok.kind is TokenKind.PUNCT and tok.value in UNARY_OPS:
            op = self._advance().value
            operand = self._parse_unary()
            return UnaryOp(op=op, operand=operand, prefix=True).with_extent(start, self.i)
        if tok.is_ident("sizeof"):
            self._advance()
            if self._check_punct("(") and self._is_type_start(self._tok(1)):
                self._advance()
                ty = self.parse_type()
                while self._check_punct("*"):
                    ty.parts.append("*")
                    self._advance()
                self._expect_punct(")")
                return SizeofExpr(arg=ty).with_extent(start, self.i)
            operand = self._parse_unary()
            return SizeofExpr(arg=operand).with_extent(start, self.i)
        # cast expression
        if self._check_punct("(") and self._is_type_start(self._tok(1)):
            save = self.i
            try:
                self._advance()
                ty = self.parse_type()
                while self._check_punct("*"):
                    ty.parts.append("*")
                    self._advance()
                if self._check_punct(")"):
                    self._advance()
                    nxt = self._tok()
                    if (nxt.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING,
                                     TokenKind.CHAR)
                            or nxt.is_punct("(", "*", "&", "-", "+", "!", "~")):
                        expr = self._parse_unary()
                        return Cast(type=ty, expr=expr).with_extent(start, self.i)
                self.i = save
            except CParseError:
                self.i = save
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        start = self.i
        expr = self._parse_primary()
        while True:
            tok = self._tok()
            if tok.kind is not TokenKind.PUNCT or tok.value not in _POSTFIX_OPS:
                return expr
            if tok.is_punct("("):
                self._advance()
                args = self._parse_call_args()
                self._expect_punct(")")
                expr = Call(func=expr, args=args).with_extent(start, self.i)
            elif tok.is_punct("["):
                self._advance()
                indices: list[Expr] = []
                if not self._check_punct("]"):
                    while True:
                        indices.append(self._parse_arg_element())
                        if not self._match_punct(","):
                            break
                self._expect_punct("]")
                expr = Subscript(base=expr, indices=indices).with_extent(start, self.i)
            elif tok.is_punct(".", "->"):
                op = self._advance().value
                name = self._expect_ident().value
                expr = Member(base=expr, op=op, name=name).with_extent(start, self.i)
            elif tok.is_punct("++", "--"):
                op = self._advance().value
                expr = UnaryOp(op=op, operand=expr, prefix=False).with_extent(start, self.i)
            elif tok.is_punct("<<<"):
                self._advance()
                config: list[Expr] = []
                while not self._check_punct(">>>") and not self._at_end():
                    config.append(self._parse_arg_element())
                    if not self._match_punct(","):
                        break
                self._expect_punct(">>>")
                self._expect_punct("(")
                args = self._parse_call_args()
                self._expect_punct(")")
                expr = KernelLaunch(func=expr, config=config, args=args) \
                    .with_extent(start, self.i)

    def _parse_call_args(self) -> list[Expr]:
        args: list[Expr] = []
        if self._check_punct(")"):
            return args
        while True:
            args.append(self._parse_arg_element())
            if not self._match_punct(","):
                break
        return args

    def _parse_primary(self) -> Expr:
        tok = self._tok()
        start = self.i

        if tok.kind is TokenKind.DOTS:
            self._advance()
            return DotsExpr().with_extent(start, self.i)
        if tok.kind is TokenKind.DISJ_OPEN:
            return self._parse_group(self.parse_assignment)  # type: ignore[return-value]
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            category = "float" if any(c in tok.value for c in ".eE") and not tok.value.startswith("0x") else "int"
            return Literal(value=tok.value, category=category).with_extent(start, self.i)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return Literal(value=tok.value, category="string").with_extent(start, self.i)
        if tok.kind is TokenKind.CHAR:
            self._advance()
            return Literal(value=tok.value, category="char").with_extent(start, self.i)
        if tok.is_punct("("):
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return Paren(expr=inner).with_extent(start, self.i)
        if tok.is_punct("[") and (self.options.is_cxx or not self.pattern_mode):
            lam = self._cxx_attempt(self._try_parse_lambda, start)
            if lam is not None:
                return lam
        if tok.is_punct("{"):
            return self._parse_init_list()
        if tok.kind is TokenKind.IDENT:
            if tok.value in ("true", "false"):
                self._advance()
                return Literal(value=tok.value, category="bool").with_extent(start, self.i)
            if tok.value in ("NULL", "nullptr"):
                self._advance()
                return Literal(value=tok.value, category="null").with_extent(start, self.i)
            self._advance()
            name = tok.value
            while self._check_punct("::") and self._tok(1).kind is TokenKind.IDENT:
                self._advance()
                name += "::" + self._advance().value
            ident = Ident(name=name)
            ident.with_extent(start, self.i)
            positions = self._parse_position_suffix()
            if positions:
                ident.pos_metavars = positions
                ident.with_extent(start, self.i)
            return ident
        raise self._error(f"unexpected token {tok.value!r} in expression")

    def _try_parse_lambda(self, start: int) -> Optional[Lambda]:
        save = self.i
        try:
            self._expect_punct("[")
            cap_start = self._tok().offset
            depth = 1
            cap_end = cap_start
            while depth > 0 and not self._at_end():
                t = self._advance()
                if t.is_punct("["):
                    depth += 1
                elif t.is_punct("]"):
                    depth -= 1
                    if depth == 0:
                        cap_end = t.offset
                        break
                cap_end = t.end
            capture = self.source.text[cap_start:cap_end]
            params: ParamList | None = None
            if self._check_punct("("):
                params = self.parse_param_list()
            if not self._check_punct("{"):
                self.i = save
                return None
            body = self.parse_compound()
            return Lambda(capture=capture, params=params, body=body).with_extent(start, self.i)
        except CParseError:
            self.i = save
            return None


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------

def parse_source(text: str, name: str = "<string>",
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 metavars: dict[str, str] | None = None,
                 smpl_mode: bool = False,
                 tolerant: bool = True) -> ParseTree:
    """Tokenize and parse ``text`` into a :class:`ParseTree`."""
    source = SourceFile(name=name, text=text)
    tokens = Lexer(source, smpl_mode=smpl_mode).tokenize()
    parser = CParser(tokens, source, options=options, metavars=metavars, tolerant=tolerant)
    return parser.parse_translation_unit()


def parse_tokens(tokens: Sequence[Token], source: SourceFile,
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 metavars: dict[str, str] | None = None,
                 tolerant: bool = True) -> CParser:
    """Build a parser over an existing token stream (used by the SmPL side,
    which lexes pattern slices itself to attach annotations)."""
    return CParser(tokens, source, options=options, metavars=metavars, tolerant=tolerant)
