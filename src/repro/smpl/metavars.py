"""Metavariable declarations for SmPL rules.

A rule's metavariable section declares, for example::

    type T;
    identifier f =~ "kernel";
    parameter list PL;
    constant k={4};
    fresh identifier f512 = "avx512_" ## f;
    statement p1.A;          // inherited from rule p1
    position cfe.p;          // inherited position

This module models those declarations and parses them from the text between
the ``@rule@`` header and the closing ``@@``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from ..errors import MetavarError


#: Metavariable kinds supported by the engine, in longest-first order so the
#: declaration parser can greedily match multi-word kinds.
KINDS = (
    "fresh identifier",
    "parameter list",
    "statement list",
    "expression list",
    "attribute name",
    "local idexpression",
    "idexpression",
    "identifier",
    "expression",
    "statement",
    "constant",
    "position",
    "pragmainfo",
    "function",
    "symbol",
    "type",
    "declarer",
    "iterator",
)


@dataclass
class FreshPart:
    """One component of a fresh-identifier seed: a literal string or the name
    of another metavariable whose bound text is spliced in (``##``)."""

    kind: str  # "str" | "mv"
    value: str


@dataclass
class MetavarDecl:
    """One declared metavariable."""

    kind: str
    name: str
    #: constraint: the bound name must match this regular expression (=~)
    regex: Optional[str] = None
    #: constraint: the bound value must be one of these literal spellings
    values: tuple[str, ...] = ()
    #: inherited metavariables: the rule and name they come from
    source_rule: Optional[str] = None
    source_name: Optional[str] = None
    #: seed of a ``fresh identifier``
    fresh_parts: tuple[FreshPart, ...] = ()

    @property
    def is_inherited(self) -> bool:
        return self.source_rule is not None

    @property
    def is_fresh(self) -> bool:
        return self.kind == "fresh identifier"

    def check_name_constraint(self, name: str) -> bool:
        """Check the regex / value-set constraints against a candidate name."""
        if self.regex is not None and not re.search(self.regex, name):
            return False
        if self.values and name not in self.values:
            return False
        return True

    def check_constant_constraint(self, text: str) -> bool:
        if self.values and text not in self.values:
            return False
        if self.regex is not None and not re.search(self.regex, text):
            return False
        return True

    def describe(self) -> str:  # pragma: no cover - cosmetic
        extra = ""
        if self.regex:
            extra += f' =~ "{self.regex}"'
        if self.values:
            extra += " = {" + ",".join(self.values) + "}"
        if self.is_inherited:
            return f"{self.kind} {self.source_rule}.{self.source_name}{extra}"
        return f"{self.kind} {self.name}{extra}"


@dataclass
class MetavarTable:
    """All metavariables of one rule, by local name."""

    decls: dict[str, MetavarDecl] = field(default_factory=dict)

    def add(self, decl: MetavarDecl) -> None:
        if decl.name in self.decls:
            raise MetavarError(f"metavariable {decl.name!r} declared twice")
        self.decls[decl.name] = decl

    def __contains__(self, name: str) -> bool:
        return name in self.decls

    def __getitem__(self, name: str) -> MetavarDecl:
        return self.decls[name]

    def get(self, name: str) -> Optional[MetavarDecl]:
        return self.decls.get(name)

    def kind_of(self, name: str) -> Optional[str]:
        decl = self.decls.get(name)
        return decl.kind if decl else None

    def names(self) -> list[str]:
        return list(self.decls)

    def inherited(self) -> list[MetavarDecl]:
        return [d for d in self.decls.values() if d.is_inherited]

    def fresh(self) -> list[MetavarDecl]:
        return [d for d in self.decls.values() if d.is_fresh]

    def kinds_for_parser(self) -> dict[str, str]:
        """The ``{name: kind}`` mapping handed to the pattern-mode C parser."""
        return {name: decl.kind for name, decl in self.decls.items()}


# ---------------------------------------------------------------------------
# declaration parsing
# ---------------------------------------------------------------------------

_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _strip_comment(text: str) -> str:
    out_lines = []
    for line in text.splitlines():
        if "//" in line:
            line = line.split("//", 1)[0]
        out_lines.append(line)
    return "\n".join(out_lines)


def parse_metavar_declarations(text: str) -> MetavarTable:
    """Parse the metavariable section of a rule (text between the header and
    the terminating ``@@``)."""
    table = MetavarTable()
    text = _strip_comment(text)
    for raw_decl in text.split(";"):
        decl_text = raw_decl.strip()
        if not decl_text:
            continue
        _parse_one_declaration(decl_text, table)
    return table


def _parse_one_declaration(decl_text: str, table: MetavarTable) -> None:
    # identify the kind (longest match first)
    kind = None
    rest = ""
    lowered = decl_text
    for candidate in KINDS:
        if lowered.startswith(candidate + " ") or lowered == candidate:
            kind = candidate
            rest = decl_text[len(candidate):].strip()
            break
    if kind is None:
        raise MetavarError(f"cannot parse metavariable declaration: {decl_text!r}")

    if kind == "fresh identifier":
        _parse_fresh(rest, table)
        return

    # split the declarator list on top-level commas (commas inside {...} or
    # quotes belong to value sets / regexes)
    for declarator in _split_top_level_commas(rest):
        declarator = declarator.strip()
        if not declarator:
            continue
        _parse_declarator(kind, declarator, table)


def _split_top_level_commas(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    in_str = False
    current = ""
    for ch in text:
        if ch == '"' :
            in_str = not in_str
            current += ch
        elif in_str:
            current += ch
        elif ch in "{(":
            depth += 1
            current += ch
        elif ch in "})":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return parts


def _parse_declarator(kind: str, declarator: str, table: MetavarTable) -> None:
    regex = None
    values: tuple[str, ...] = ()

    # regular-expression constraint:  f =~ "kernel"
    if "=~" in declarator:
        name_part, regex_part = declarator.split("=~", 1)
        m = _STRING_RE.search(regex_part)
        if not m:
            raise MetavarError(f"malformed regex constraint in {declarator!r}")
        regex = m.group(1)
        declarator = name_part.strip()
    # value-set constraint:  k = {4}   /   c = {i,j}
    elif "=" in declarator and "{" in declarator:
        name_part, values_part = declarator.split("=", 1)
        inner = values_part.strip()
        if not (inner.startswith("{") and inner.endswith("}")):
            raise MetavarError(f"malformed value set in {declarator!r}")
        values = tuple(v.strip() for v in inner[1:-1].split(",") if v.strip())
        declarator = name_part.strip()

    declarator = declarator.strip()
    if not declarator:
        raise MetavarError(f"missing metavariable name for kind {kind!r}")

    source_rule = source_name = None
    name = declarator
    if "." in declarator and not declarator.startswith('"'):
        source_rule, source_name = declarator.split(".", 1)
        name = source_name

    table.add(MetavarDecl(kind=kind, name=name, regex=regex, values=values,
                          source_rule=source_rule, source_name=source_name))


def _parse_fresh(rest: str, table: MetavarTable) -> None:
    """``fresh identifier f512 = "avx512_" ## f`` (several may share a decl)."""
    for declarator in _split_top_level_commas(rest):
        declarator = declarator.strip()
        if not declarator:
            continue
        if "=" not in declarator:
            raise MetavarError(f"fresh identifier needs a seed: {declarator!r}")
        name_part, seed_part = declarator.split("=", 1)
        name = name_part.strip()
        parts: list[FreshPart] = []
        for chunk in seed_part.split("##"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = _STRING_RE.fullmatch(chunk)
            if m:
                parts.append(FreshPart(kind="str", value=m.group(1)))
            else:
                parts.append(FreshPart(kind="mv", value=chunk))
        table.add(MetavarDecl(kind="fresh identifier", name=name,
                              fresh_parts=tuple(parts)))


def parse_script_header(text: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """Parse the header section of a ``script:python`` rule.

    Returns ``(imports, outputs)`` where imports are
    ``(local_name, source_rule, source_name)`` triples (``x << rule.mv;``)
    and outputs are names of new metavariables the script will define
    (``nf;``).
    """
    imports: list[tuple[str, str, str]] = []
    outputs: list[str] = []
    text = _strip_comment(text)
    for raw in text.split(";"):
        decl = raw.strip()
        if not decl:
            continue
        if "<<" in decl:
            local, source = decl.split("<<", 1)
            local = local.strip()
            source = source.strip()
            if "." not in source:
                raise MetavarError(f"script import must be rule.name: {decl!r}")
            rule, mv = source.split(".", 1)
            imports.append((local, rule.strip(), mv.strip()))
        else:
            # possibly "identifier nf" style with an explicit kind prefix
            words = decl.split()
            outputs.append(words[-1])
    return imports, outputs
