"""Metavariable environments and bound values.

An :class:`Env` is an immutable mapping from metavariable names to
:class:`BoundValue`.  Matching functions thread environments through and
return extended copies, which keeps backtracking in the sequence matcher
trivially correct.

Values bound in one rule are exported to later rules under ``"rule.name"``
keys; within the rule that binds them they are visible under their local
name.  Equality between a previously bound value and a new candidate is
decided on the normalised token spelling (whitespace and formatting are
irrelevant, exactly as for Coccinelle).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional


@dataclass(frozen=True)
class Position:
    """The value of a ``position`` metavariable."""

    filename: str
    line: int
    col: int
    offset: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.line}:{self.col}"


@dataclass(frozen=True)
class BoundValue:
    """A value bound to a metavariable.

    ``kind`` mirrors the metavariable kind; ``text`` is the normalised token
    spelling used both for equality and for splicing the value into ``+``
    code; ``source_text`` is the verbatim source extent (used when splicing
    multi-line values such as statement lists so the original formatting is
    preserved); ``position`` is set for position metavariables.
    """

    kind: str
    text: str
    source_text: str = ""
    position: Optional[Position] = None

    def render(self) -> str:
        """Text to splice into generated (+) code."""
        return self.source_text if self.source_text else self.text

    def equivalent(self, other: "BoundValue") -> bool:
        if self.kind == "position" or other.kind == "position":
            return self.position == other.position
        return self.text == other.text

    @classmethod
    def for_name(cls, kind: str, name: str) -> "BoundValue":
        return cls(kind=kind, text=name, source_text=name)

    @classmethod
    def for_position(cls, position: Position) -> "BoundValue":
        return cls(kind="position", text=str(position), position=position)


class Env:
    """Immutable metavariable environment."""

    __slots__ = ("_values",)

    def __init__(self, values: dict[str, BoundValue] | None = None):
        self._values: dict[str, BoundValue] = dict(values or {})

    # -- queries ------------------------------------------------------------

    def get(self, name: str) -> Optional[BoundValue]:
        return self._values.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[tuple[str, BoundValue]]:
        return iter(self._values.items())

    def as_dict(self) -> dict[str, BoundValue]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v.text!r}" for k, v in self._values.items())
        return f"Env({inner})"

    # -- construction --------------------------------------------------------

    def bind(self, name: str, value: BoundValue) -> Optional["Env"]:
        """Bind ``name`` to ``value``; returns ``None`` on conflict with an
        existing binding (the match must fail)."""
        existing = self._values.get(name)
        if existing is not None:
            return self if existing.equivalent(value) else None
        new = dict(self._values)
        new[name] = value
        env = Env.__new__(Env)
        env._values = new
        return env

    def bind_all(self, pairs: dict[str, BoundValue]) -> Optional["Env"]:
        env: Optional[Env] = self
        for name, value in pairs.items():
            if env is None:
                return None
            env = env.bind(name, value)
        return env

    def merged(self, other: "Env") -> "Env":
        new = dict(self._values)
        new.update(other._values)
        return Env(new)

    def exported(self, rule_name: str, local_names: list[str]) -> "Env":
        """Environment to hand to later rules: everything already present plus
        this rule's local bindings re-keyed as ``rule.name``."""
        new = dict(self._values)
        for name in local_names:
            if name in self._values:
                new[f"{rule_name}.{name}"] = self._values[name]
        return Env(new)

    def locals_from_inherited(self, inherited: dict[str, tuple[str, str]]) -> Optional["Env"]:
        """Seed local names from inherited metavariables.

        ``inherited`` maps local name -> (source_rule, source_name); the
        environment must already contain ``source_rule.source_name``.
        Returns None when an inherited value is missing (the rule cannot
        apply for this environment).
        """
        new = dict(self._values)
        for local, (rule, name) in inherited.items():
            key = f"{rule}.{name}"
            if key not in self._values:
                return None
            new[local] = self._values[key]
        return Env(new)


EMPTY_ENV = Env()
