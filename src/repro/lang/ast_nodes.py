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

from operator import attrgetter as _attrgetter
from typing import Iterator, Optional


# ---------------------------------------------------------------------------
# base node
# ---------------------------------------------------------------------------

class _Factory:
    """Default of a field that starts as a fresh empty list in every node
    (``dataclasses``' ``default_factory=list``, spelt like its ``repr``)."""

    def __repr__(self) -> str:
        return "<factory>"


#: field default: a new ``[]`` per node
LIST = _Factory()

#: the extent fields every node has, keyword-only and last in ``__init__``:
#: name -> (declared type, default)
_EXTENTS = {"start": ("int", -1), "end": ("int", -1),
            "pos_metavars": ("tuple[str, ...]", ())}
_EXTENT_FIELDS = tuple(_EXTENTS)


class Node:
    """Base class of all AST nodes.

    A node class declares its semantic fields as annotated class attributes
    with their defaults, like a dataclass.  Defining a subclass gives it a
    specialised ``__init__`` (those fields positionally, then the
    keyword-only extents ``start``/``end``/``pos_metavars``) and its
    ``_fields`` tuple, which drives equality, ``repr`` and traversal.
    ``start``/``end`` are the half-open token index range the node covers
    and ``pos_metavars`` names the SmPL position metavariables attached
    with ``@p`` (patterns only).
    Equality compares the extents and every field, so nodes are unhashable.
    This is what ``@dataclass`` would generate, built without its per-class
    cost, which was most of the C front end's import time.
    """

    #: semantic field names in declaration order (the extents excluded)
    _fields: tuple[str, ...] = ()
    #: semantic field name -> declared type text, for ``__init__``'s annotations
    _types: dict[str, str] = {}
    #: semantic field name -> default (``LIST`` for a fresh list)
    _defaults: dict[str, object] = {}
    #: ``_values(node)``: the tuple equality compares, extents first
    _values = _attrgetter(*_EXTENT_FIELDS)
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        types = {**cls._types, **own}
        defaults = dict(cls._defaults)
        for name in own:
            defaults[name] = cls.__dict__.get(name)
            if defaults[name] is LIST:
                delattr(cls, name)
        cls._fields = tuple(types)
        cls._types, cls._defaults = types, defaults
        cls._values = _attrgetter(*_EXTENT_FIELDS, *cls._fields)
        cls.__match_args__ = cls._fields
        cls.__init__ = _make_init(cls)

    @property
    def kind(self) -> str:
        """Node kind name (the class name); handy for reports and debugging."""
        return type(self).__name__

    def with_extent(self, start: int, end: int) -> "Node":
        self.start = start
        self.end = end
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in (*_EXTENT_FIELDS, *self._fields))
        return f"{type(self).__qualname__}({values})"


def _make_init(cls: type):
    """``cls.__init__`` as one small generated function, so building a node
    costs the same plain attribute stores a dataclass ``__init__`` makes."""
    params = []
    body = [f"    self.{name} = {name}" for name in _EXTENT_FIELDS]
    for name in cls._fields:
        default = cls._defaults[name]
        if default is LIST:
            params.append(f"{name}=LIST")
            body.append(f"    self.{name} = [] if {name} is LIST else {name}")
        else:
            params.append(f"{name}={default!r}")
            body.append(f"    self.{name} = {name}")
    params.append("*")
    params += [f"{name}={default!r}" for name, (_type, default)
               in _EXTENTS.items()]
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    namespace: dict = {}
    exec(source, {"LIST": LIST}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {
        **cls._types, **{name: type_ for name, (type_, _default)
                         in _EXTENTS.items()}, "return": None}
    return init


Node.__init__ = _make_init(Node)


def _field_names(cls: type) -> tuple[str, ...]:
    """The semantic field names of a node class, in declaration order."""
    return cls._fields


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield the direct child nodes of ``node`` in field order."""
    for name in node._fields:
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
        for name in n._fields:
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

class TypeName(Node):
    """A (possibly qualified) type: ``const double``, ``struct particle``,
    ``std::size_t``, ``__half`` ...

    ``parts`` are the whitespace-separated words of the base type;
    pointer/reference markers live on the declarator/parameter instead, which
    matches how the paper's patterns mention types (a single metavariable
    ``T`` covering the base type).
    """

    parts: list[str] = LIST

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

class Expr(Node):
    """Base class of expressions."""


class Ident(Expr):
    """An identifier (possibly qualified, e.g. ``std::find``)."""

    name: str = ""


class Literal(Expr):
    """A literal constant.  ``category`` is one of int/float/string/char/bool."""

    value: str = ""
    category: str = "int"


class BinaryOp(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


class UnaryOp(Expr):
    op: str = ""
    operand: Expr | None = None
    prefix: bool = True


class Assignment(Expr):
    """Assignment, including compound assignment (``+=`` etc.)."""

    op: str = "="
    target: Expr | None = None
    value: Expr | None = None


class Ternary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    orelse: Expr | None = None


class Call(Expr):
    func: Expr | None = None
    args: list[Expr] = LIST


class KernelLaunch(Expr):
    """CUDA triple-chevron kernel launch ``k<<<b, t, x, y>>>(args)``."""

    func: Expr | None = None
    config: list[Expr] = LIST
    args: list[Expr] = LIST


class Subscript(Expr):
    """Array subscript.  ``a[x]`` has one index; the C++23 multi-index
    subscript ``a[x, y, z]`` carries them all (the target of the paper's
    mdspan rule)."""

    base: Expr | None = None
    indices: list[Expr] = LIST


class Member(Expr):
    """Member access ``a.b`` / ``a->b``."""

    base: Expr | None = None
    op: str = "."
    name: str = ""


class Cast(Expr):
    type: TypeName | None = None
    expr: Expr | None = None


class Paren(Expr):
    expr: Expr | None = None


class InitList(Expr):
    items: list[Expr] = LIST


class CommaExpr(Expr):
    items: list[Expr] = LIST


class SizeofExpr(Expr):
    arg: Node | None = None  # TypeName or Expr


class Lambda(Expr):
    """A C++ lambda (simplified): capture text, parameters, body."""

    capture: str = ""
    params: "ParamList | None" = None
    body: "CompoundStmt | None" = None


class DotsExpr(Expr):
    """SmPL ``...`` in expression/argument position (matches anything)."""


class MetaExprList(Expr):
    """SmPL ``expression list`` metavariable used in argument position."""

    name: str = ""


class Disjunction(Node):
    """SmPL disjunction ``\\( A \\| B \\)`` (expression or statement branches)."""

    branches: list[Node] = LIST


class Conjunction(Node):
    """SmPL conjunction ``\\( A \\& B \\)``; all branches must match the same
    code node."""

    branches: list[Node] = LIST


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

class AttributeSpec(Node):
    """``__attribute__((name(args...)))`` (one attribute inside the double
    parentheses).  ``args`` may contain :class:`DotsExpr` in patterns."""

    name: str = ""
    args: list[Expr] = LIST
    has_args: bool = True


class Declarator(Node):
    """One declarator of a declaration: pointer stars, the name, array
    dimensions and an optional initializer."""

    pointer: str = ""
    reference: bool = False
    name: str = ""
    arrays: list[Optional[Expr]] = LIST
    init: Expr | None = None


class Declaration(Node):
    """A variable/typedef declaration (at file scope or as a statement)."""

    specifiers: list[str] = LIST
    type: TypeName | None = None
    declarators: list[Declarator] = LIST
    attributes: list[AttributeSpec] = LIST
    is_typedef: bool = False


class Param(Node):
    """A single function parameter."""

    type: TypeName | None = None
    pointer: str = ""
    reference: bool = False
    name: str = ""
    arrays: list[Optional[Expr]] = LIST
    default: Expr | None = None


class DotsParam(Node):
    """``...`` in a parameter list: C varargs or an SmPL wildcard."""


class MetaParamList(Node):
    """SmPL ``parameter list`` metavariable (e.g. ``PL``)."""

    name: str = ""


class ParamList(Node):
    params: list[Node] = LIST


class StructDef(Node):
    """struct/union/enum definition, possibly wrapped in a typedef."""

    keyword: str = "struct"
    name: str = ""
    members: list[Declaration] = LIST
    enumerators: list[str] = LIST
    is_typedef: bool = False
    typedef_name: str = ""


class FunctionDef(Node):
    """A function definition or prototype."""

    attributes: list[AttributeSpec] = LIST
    specifiers: list[str] = LIST
    return_type: TypeName | None = None
    pointer: str = ""
    name: str = ""
    params: ParamList | None = None
    body: "CompoundStmt | MetaStmtList | None" = None
    is_prototype: bool = False


class IncludeDirective(Node):
    """``#include <header>`` or ``#include "header"``."""

    target: str = ""
    system: bool = True
    raw: str = ""

    @property
    def header_text(self) -> str:
        return f"<{self.target}>" if self.system else f'"{self.target}"'


class DefineDirective(Node):
    raw: str = ""


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


class OtherDirective(Node):
    """Any other preprocessor directive, preserved verbatim."""

    raw: str = ""


class RawDecl(Node):
    """An unparsable top-level construct, preserved verbatim (error tolerance)."""

    text: str = ""


class TranslationUnit(Node):
    decls: list[Node] = LIST


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    """Base class of statements."""


class CompoundStmt(Stmt):
    stmts: list[Node] = LIST


class ExprStmt(Stmt):
    expr: Expr | None = None
    has_semicolon: bool = True


class DeclStmt(Stmt):
    decl: Declaration | None = None


class IfStmt(Stmt):
    cond: Expr | None = None
    then: Node | None = None
    orelse: Node | None = None


class ForStmt(Stmt):
    init: Node | None = None       # DeclStmt, ExprStmt, DotsExpr or None
    cond: Expr | None = None
    step: Expr | None = None
    body: Node | None = None


class RangeForStmt(Stmt):
    """C++ range-for: ``for (T &elem : arr) body``."""

    type: TypeName | None = None
    reference: bool = False
    pointer: str = ""
    var: str = ""
    iterable: Expr | None = None
    body: Node | None = None


class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Node | None = None


class DoWhileStmt(Stmt):
    body: Node | None = None
    cond: Expr | None = None


class ReturnStmt(Stmt):
    value: Expr | None = None


class BreakStmt(Stmt):
    pass


class ContinueStmt(Stmt):
    pass


class EmptyStmt(Stmt):
    pass


class RawStmt(Stmt):
    """An unparsable statement preserved verbatim (error tolerance)."""

    text: str = ""


class MetaStmt(Stmt):
    """SmPL ``statement`` metavariable in statement position."""

    name: str = ""


class MetaStmtList(Stmt):
    """SmPL ``statement list`` metavariable (e.g. a whole function body)."""

    name: str = ""


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
