"""The AST node classes behave like the dataclasses they replace.

``repro.lang.ast_nodes`` builds its node classes with one small generator
instead of ``@dataclass``.  Each class is checked here against a
``dataclasses.make_dataclass`` twin declared the way the original
``@dataclass`` declared it: keyword-only extents ``start``/``end``/
``pos_metavars`` first, then the class's own annotated fields with their
defaults (``field(default_factory=list)`` where the node class says
``LIST``).  The twin must agree on the ``__init__`` signature, equality
(extents included), unhashability, ``repr``, field order and the
``copy.copy`` and pickle round trips.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.lang import ast_nodes as A
from repro.lang.ast_nodes import LIST, Node, _field_names


def _node_classes() -> list[type]:
    found, stack = [], [Node]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


NODE_CLASSES = _node_classes()

_EXTENTS = [
    ("start", "int", dataclasses.field(default=-1, kw_only=True)),
    ("end", "int", dataclasses.field(default=-1, kw_only=True)),
    ("pos_metavars", "tuple[str, ...]",
     dataclasses.field(default=(), kw_only=True)),
]


def _own_fields(cls: type) -> list[tuple[str, str, object]]:
    """The fields ``cls`` and its node bases declare, in declaration order,
    read from their class bodies' annotations and defaults."""
    fields = []
    for klass in reversed(cls.__mro__):
        if not (isinstance(klass, type) and issubclass(klass, Node)) \
                or klass is Node:
            continue
        for name, annotation in klass.__dict__.get("__annotations__",
                                                   {}).items():
            default = klass._defaults[name]
            spec = dataclasses.field(default_factory=list) \
                if default is LIST else dataclasses.field(default=default)
            fields.append((name, annotation, spec))
    return fields


def twin(cls: type) -> type:
    """The stdlib dataclass ``cls`` was declared as."""
    return dataclasses.make_dataclass(cls.__name__,
                                      _EXTENTS + _own_fields(cls))


def _sample(name: str, annotation: str, variant: int):
    """A value of the declared type, different per ``variant``."""
    if annotation == "bool":
        return bool(variant)
    if annotation == "int":
        return variant + 7
    if annotation.startswith(("list", "tuple")):
        return [A.Ident(f"item{variant}")]
    if annotation == "str":
        return f"{name}{variant}"
    return A.Ident(f"{name}{variant}", start=variant, end=variant + 1)


def _arguments(cls: type, variant: int) -> dict:
    return {name: _sample(name, annotation, variant)
            for name, annotation, _spec in _own_fields(cls)}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
class TestAgainstDataclassTwin:
    def test_init_signature(self, cls):
        assert str(inspect.signature(cls)) == str(inspect.signature(twin(cls)))

    def test_field_order(self, cls):
        names = [f.name for f in dataclasses.fields(twin(cls))]
        assert names[:3] == ["start", "end", "pos_metavars"]
        assert _field_names(cls) == tuple(names[3:]) == cls.__match_args__

    def test_defaults_and_fresh_lists(self, cls):
        node, other = cls(), cls()
        reference = twin(cls)()
        for name in ("start", "end", "pos_metavars", *_field_names(cls)):
            assert getattr(node, name) == getattr(reference, name)
            if isinstance(getattr(node, name), list):
                assert getattr(node, name) is not getattr(other, name)

    def test_positional_and_keyword_construction(self, cls):
        arguments = _arguments(cls, 1)
        positional = cls(*arguments.values(), start=3, end=9,
                         pos_metavars=("p",))
        keyword = cls(**arguments, start=3, end=9, pos_metavars=("p",))
        assert positional == keyword
        assert (positional.start, positional.end, positional.pos_metavars) \
            == (3, 9, ("p",))
        with pytest.raises(TypeError):
            cls(*arguments.values(), 3)  # the extents are keyword-only

    def test_equality_includes_extents(self, cls):
        Twin = twin(cls)
        arguments = _arguments(cls, 1)
        cases = [({}, {}), ({"start": 1}, {"start": 2}),
                 ({"end": 4}, {}), ({"pos_metavars": ("p",)}, {})]
        for name in _field_names(cls):
            cases.append(({name: arguments[name]}, {}))
        for left, right in cases:
            expected = Twin(**left) == Twin(**right)
            assert (cls(**left) == cls(**right)) is expected, (left, right)
        assert cls() != object()
        assert (cls() == object()) is (Twin() == object())

    def test_other_node_class_is_unequal(self, cls):
        other = A.RawStmt if cls is not A.RawStmt else A.RawDecl
        assert cls() != other()
        assert cls.__eq__(cls(), other()) is NotImplemented

    def test_unhashable(self, cls):
        assert cls.__hash__ is None is twin(cls).__hash__
        with pytest.raises(TypeError):
            hash(cls())

    def test_repr(self, cls):
        arguments = _arguments(cls, 2)
        node = cls(**arguments, start=5, end=6)
        assert repr(node) == repr(twin(cls)(**arguments, start=5, end=6))
        assert repr(cls()) == repr(twin(cls)())

    def test_copy_and_pickle_round_trips(self, cls):
        node = cls(**_arguments(cls, 3), start=1, end=2, pos_metavars=("p",))
        shallow = copy.copy(node)
        assert shallow == node and shallow is not node
        for name in _field_names(cls):
            assert getattr(shallow, name) is getattr(node, name)
        restored = pickle.loads(pickle.dumps(node))
        assert restored == node and type(restored) is cls
        assert repr(restored) == repr(node)


def test_every_class_is_checked():
    assert len(NODE_CLASSES) == 55
    assert {A.TypeName, A.BinaryOp, A.FunctionDef, A.DotsStmt} \
        <= set(NODE_CLASSES)


def test_known_field_orders():
    assert _field_names(A.BinaryOp) == ("op", "left", "right")
    assert _field_names(A.FunctionDef) == (
        "attributes", "specifiers", "return_type", "pointer", "name",
        "params", "body", "is_prototype")
    assert _field_names(A.Expr) == _field_names(A.DotsStmt) == ()


def test_with_extent_and_kind():
    node = A.Ident("x").with_extent(2, 3)
    assert (node.start, node.end, node.kind) == (2, 3, "Ident")
