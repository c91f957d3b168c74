"""AST node classes for the C/C++ subset and for SmPL pattern code.

Design notes
------------
* Every node records the half-open token-index range ``[start, end)`` it
  covers in the token list it was parsed from.  The transformation stage maps
  pattern tokens onto code tokens through these extents, so edits are
  byte-accurate and untouched code survives verbatim.
* Pattern-only nodes (metavariable references, dots, disjunctions) live in the
  same hierarchy: the same recursive-descent parser parses both real code and
  the minus-slice of a semantic patch, it simply knows which identifiers are
  metavariables when parsing a pattern.
* :func:`iter_child_nodes` provides generic traversal used by the matcher,
  the interpreter and the analysis passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Iterator, Optional


# ---------------------------------------------------------------------------
# base node
# ---------------------------------------------------------------------------

@dataclass
class Node:
    """Base class of all AST nodes."""

    #: half-open token index range covered by this node
    start: int = field(default=-1, kw_only=True)
    end: int = field(default=-1, kw_only=True)
    #: names of SmPL position metavariables attached with ``@p`` (patterns only)
    pos_metavars: tuple[str, ...] = field(default=(), kw_only=True)

    @property
    def kind(self) -> str:
        """Node kind name (the class name); handy for reports and debugging."""
        return type(self).__name__

    def with_extent(self, start: int, end: int) -> "Node":
        self.start = start
        self.end = end
        return self


#: semantic field names per node class — ``dataclasses.fields`` re-derives
#: the tuple on every call, which made generic traversal the hottest part of
#: tree walking; the field list of a class never changes, so cache it
_CHILD_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _CHILD_FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dc_fields(cls)
                      if f.name not in ("start", "end", "pos_metavars"))
        _CHILD_FIELD_NAMES[cls] = names
    return names


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield the direct child nodes of ``node`` in field order."""
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of ``node`` and all its descendants."""
    stack = [node]
    pop = stack.pop
    while stack:
        n = pop()
        yield n
        children = []
        for name in _field_names(type(n)):
            value = getattr(n, name)
            if isinstance(value, Node):
                children.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        children.append(item)
        stack.extend(reversed(children))


def child_fields(node: Node) -> Iterator[tuple[str, object]]:
    """Yield ``(field_name, value)`` pairs for the node's semantic fields."""
    for name in _field_names(type(node)):
        yield name, getattr(node, name)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass
class TypeName(Node):
    """A (possibly qualified) type: ``const double``, ``struct particle``,
    ``std::size_t``, ``__half`` ...

    ``parts`` are the whitespace-separated words of the base type;
    pointer/reference markers live on the declarator/parameter instead, which
    matches how the paper's patterns mention types (a single metavariable
    ``T`` covering the base type).
    """

    parts: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.parts)

    @property
    def is_single_identifier(self) -> bool:
        return len(self.parts) == 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr(Node):
    """Base class of expressions."""


@dataclass
class Ident(Expr):
    """An identifier (possibly qualified, e.g. ``std::find``)."""

    name: str = ""


@dataclass
class Literal(Expr):
    """A literal constant.  ``category`` is one of int/float/string/char/bool."""

    value: str = ""
    category: str = "int"


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Expr | None = None
    prefix: bool = True


@dataclass
class Assignment(Expr):
    """Assignment, including compound assignment (``+=`` etc.)."""

    op: str = "="
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class Ternary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    orelse: Expr | None = None


@dataclass
class Call(Expr):
    func: Expr | None = None
    args: list[Expr] = field(default_factory=list)


@dataclass
class KernelLaunch(Expr):
    """CUDA triple-chevron kernel launch ``k<<<b, t, x, y>>>(args)``."""

    func: Expr | None = None
    config: list[Expr] = field(default_factory=list)
    args: list[Expr] = field(default_factory=list)


@dataclass
class Subscript(Expr):
    """Array subscript.  ``a[x]`` has one index; the C++23 multi-index
    subscript ``a[x, y, z]`` carries them all (the target of the paper's
    mdspan rule)."""

    base: Expr | None = None
    indices: list[Expr] = field(default_factory=list)


@dataclass
class Member(Expr):
    """Member access ``a.b`` / ``a->b``."""

    base: Expr | None = None
    op: str = "."
    name: str = ""


@dataclass
class Cast(Expr):
    type: TypeName | None = None
    expr: Expr | None = None


@dataclass
class Paren(Expr):
    expr: Expr | None = None


@dataclass
class InitList(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class CommaExpr(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class SizeofExpr(Expr):
    arg: Node | None = None  # TypeName or Expr


@dataclass
class Lambda(Expr):
    """A C++ lambda (simplified): capture text, parameters, body."""

    capture: str = ""
    params: "ParamList | None" = None
    body: "CompoundStmt | None" = None


@dataclass
class DotsExpr(Expr):
    """SmPL ``...`` in expression/argument position (matches anything)."""


@dataclass
class MetaExprList(Expr):
    """SmPL ``expression list`` metavariable used in argument position."""

    name: str = ""


@dataclass
class Disjunction(Node):
    """SmPL disjunction ``\\( A \\| B \\)`` (expression or statement branches)."""

    branches: list[Node] = field(default_factory=list)


@dataclass
class Conjunction(Node):
    """SmPL conjunction ``\\( A \\& B \\)``; all branches must match the same
    code node."""

    branches: list[Node] = field(default_factory=list)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

@dataclass
class AttributeSpec(Node):
    """``__attribute__((name(args...)))`` (one attribute inside the double
    parentheses).  ``args`` may contain :class:`DotsExpr` in patterns."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)
    has_args: bool = True


@dataclass
class Declarator(Node):
    """One declarator of a declaration: pointer stars, the name, array
    dimensions and an optional initializer."""

    pointer: str = ""
    reference: bool = False
    name: str = ""
    arrays: list[Optional[Expr]] = field(default_factory=list)
    init: Expr | None = None


@dataclass
class Declaration(Node):
    """A variable/typedef declaration (at file scope or as a statement)."""

    specifiers: list[str] = field(default_factory=list)
    type: TypeName | None = None
    declarators: list[Declarator] = field(default_factory=list)
    attributes: list[AttributeSpec] = field(default_factory=list)
    is_typedef: bool = False


@dataclass
class Param(Node):
    """A single function parameter."""

    type: TypeName | None = None
    pointer: str = ""
    reference: bool = False
    name: str = ""
    arrays: list[Optional[Expr]] = field(default_factory=list)
    default: Expr | None = None


@dataclass
class DotsParam(Node):
    """``...`` in a parameter list: C varargs or an SmPL wildcard."""


@dataclass
class MetaParamList(Node):
    """SmPL ``parameter list`` metavariable (e.g. ``PL``)."""

    name: str = ""


@dataclass
class ParamList(Node):
    params: list[Node] = field(default_factory=list)


@dataclass
class StructDef(Node):
    """struct/union/enum definition, possibly wrapped in a typedef."""

    keyword: str = "struct"
    name: str = ""
    members: list[Declaration] = field(default_factory=list)
    enumerators: list[str] = field(default_factory=list)
    is_typedef: bool = False
    typedef_name: str = ""


@dataclass
class FunctionDef(Node):
    """A function definition or prototype."""

    attributes: list[AttributeSpec] = field(default_factory=list)
    specifiers: list[str] = field(default_factory=list)
    return_type: TypeName | None = None
    pointer: str = ""
    name: str = ""
    params: ParamList | None = None
    body: "CompoundStmt | MetaStmtList | None" = None
    is_prototype: bool = False


@dataclass
class IncludeDirective(Node):
    """``#include <header>`` or ``#include "header"``."""

    target: str = ""
    system: bool = True
    raw: str = ""

    @property
    def header_text(self) -> str:
        return f"<{self.target}>" if self.system else f'"{self.target}"'


@dataclass
class DefineDirective(Node):
    raw: str = ""


@dataclass
class PragmaDirective(Node):
    """``#pragma ...`` — usable at file scope and in statement position.

    ``text`` is the directive body after the ``#pragma`` keyword with
    whitespace normalised (continuations merged by the lexer), which is what
    ``pragmainfo`` metavariables bind to.
    """

    text: str = ""
    raw: str = ""

    @property
    def words(self) -> list[str]:
        return self.text.split()


@dataclass
class OtherDirective(Node):
    """Any other preprocessor directive, preserved verbatim."""

    raw: str = ""


@dataclass
class RawDecl(Node):
    """An unparsable top-level construct, preserved verbatim (error tolerance)."""

    text: str = ""


@dataclass
class TranslationUnit(Node):
    decls: list[Node] = field(default_factory=list)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    """Base class of statements."""


@dataclass
class CompoundStmt(Stmt):
    stmts: list[Node] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None
    has_semicolon: bool = True


@dataclass
class DeclStmt(Stmt):
    decl: Declaration | None = None


@dataclass
class IfStmt(Stmt):
    cond: Expr | None = None
    then: Node | None = None
    orelse: Node | None = None


@dataclass
class ForStmt(Stmt):
    init: Node | None = None       # DeclStmt, ExprStmt, DotsExpr or None
    cond: Expr | None = None
    step: Expr | None = None
    body: Node | None = None


@dataclass
class RangeForStmt(Stmt):
    """C++ range-for: ``for (T &elem : arr) body``."""

    type: TypeName | None = None
    reference: bool = False
    pointer: str = ""
    var: str = ""
    iterable: Expr | None = None
    body: Node | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Node | None = None


@dataclass
class DoWhileStmt(Stmt):
    body: Node | None = None
    cond: Expr | None = None


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class RawStmt(Stmt):
    """An unparsable statement preserved verbatim (error tolerance)."""

    text: str = ""


@dataclass
class MetaStmt(Stmt):
    """SmPL ``statement`` metavariable in statement position."""

    name: str = ""


@dataclass
class MetaStmtList(Stmt):
    """SmPL ``statement list`` metavariable (e.g. a whole function body)."""

    name: str = ""


@dataclass
class DotsStmt(Stmt):
    """SmPL ``...`` in statement position."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

#: Binary operators whose operands may be swapped by the commutativity
#: isomorphism during matching.
COMMUTATIVE_OPS = {"==", "!=", "+", "*", "&", "|", "^", "&&", "||"}

#: Statement classes that control flow treats as branching/looping.
LOOP_STMTS = (ForStmt, WhileStmt, DoWhileStmt, RangeForStmt)


def expressions_of(node: Node) -> Iterator[Expr]:
    """Yield every expression node in the subtree rooted at ``node``."""
    for n in walk(node):
        if isinstance(n, Expr):
            yield n


def compound_blocks_of(node: Node) -> Iterator[CompoundStmt]:
    """Yield every compound statement in the subtree rooted at ``node``."""
    for n in walk(node):
        if isinstance(n, CompoundStmt):
            yield n
