"""Structured representation of a parsed semantic patch.

A semantic patch is a sequence of rules.  Transformation/matching rules
(:class:`PatchRule`) carry their metavariable table, the annotated pattern
(minus slice parsed into AST pattern nodes, with per-token CONTEXT/MINUS
annotations) and the plus blocks with their anchors.  Scripting rules
(:class:`ScriptRule`) carry Python code together with the metavariables they
import and export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..lang.lexer import Token
from ..lang.source import SourceFile
from ..lang.ast_nodes import Node
from ..options import SpatchOptions, DEFAULT_OPTIONS
from .metavars import MetavarTable


#: pattern-kind classification of a rule body
KIND_TOPLEVEL = "toplevel"       # function definitions / includes / attributes
KIND_STATEMENTS = "statements"   # statement sequence, matched in every block
KIND_EXPRESSION = "expression"   # a single expression, matched at every node
KIND_EMPTY = "empty"             # no context/minus material (unsupported)


@dataclass
class PatternLine:
    """One line of a rule body with its annotation column removed."""

    annot: str       # " " (context), "-" or "+"
    text: str        # the line content without the annotation character
    lineno: int      # 1-based line number within the semantic patch file

    @property
    def is_plus(self) -> bool:
        return self.annot == "+"

    @property
    def is_dots_only(self) -> bool:
        return self.text.strip() == "..."

    @property
    def is_marker_only(self) -> bool:
        """Column-0 disjunction marker lines: ``(``, ``|``, ``&``, ``)``."""
        return self.text.strip() in ("(", "|", "&", ")") and self.text == self.text.strip()


@dataclass
class PlusBlock:
    """A group of consecutive ``+`` lines with their attachment point.

    ``anchor`` is ``"after"`` or ``"before"``; ``anchor_slice_line`` is the
    1-based line number *within the minus slice* of the pattern line the block
    attaches to (Coccinelle attaches plus code to the closest context/minus
    line).
    """

    lines: list[str]
    anchor: str
    anchor_slice_line: int
    patch_lineno: int = 0


@dataclass
class DependencyExpr:
    """A (simplified) ``depends on`` clause: a conjunction of rule names,
    each possibly negated with ``!``/``never``."""

    required: tuple[str, ...] = ()
    forbidden: tuple[str, ...] = ()

    def is_satisfied(self, applied_rules: set[str]) -> bool:
        if any(r not in applied_rules for r in self.required):
            return False
        if any(r in applied_rules for r in self.forbidden):
            return False
        return True

    @property
    def is_empty(self) -> bool:
        return not self.required and not self.forbidden


@dataclass
class PatchRule:
    """A transformation / matching rule."""

    name: str
    metavars: MetavarTable
    dependencies: DependencyExpr = field(default_factory=DependencyExpr)
    pattern_lines: list[PatternLine] = field(default_factory=list)
    plus_blocks: list[PlusBlock] = field(default_factory=list)
    #: minus-slice artifacts (filled by the SmPL parser)
    slice_source: Optional[SourceFile] = None
    slice_tokens: list[Token] = field(default_factory=list)
    pattern_nodes: list[Node] = field(default_factory=list)
    pattern_kind: str = KIND_EMPTY
    #: True when the rule has no '-' tokens and no '+' blocks (pure match)
    is_pure_match: bool = False
    lineno: int = 0
    is_anonymous: bool = False

    @property
    def is_script(self) -> bool:
        return False

    @property
    def exported_metavars(self) -> list[str]:
        """Names this rule can export to later rules (everything it binds)."""
        return [name for name, d in self.metavars.decls.items() if not d.is_fresh] + \
               [d.name for d in self.metavars.fresh()]

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return (f"rule {self.name} [{self.pattern_kind}] "
                f"({len(self.pattern_lines)} pattern lines, "
                f"{len(self.plus_blocks)} plus blocks)")


@dataclass
class ScriptRule:
    """An ``initialize:python`` / ``script:python`` / ``finalize:python`` rule."""

    name: str
    language: str = "python"
    when: str = "script"                      # "initialize" | "script" | "finalize"
    imports: list[tuple[str, str, str]] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    code: str = ""
    dependencies: DependencyExpr = field(default_factory=DependencyExpr)
    lineno: int = 0

    @property
    def is_script(self) -> bool:
        return True

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.when}:{self.language} rule {self.name}"


Rule = Union[PatchRule, ScriptRule]


@dataclass
class SemanticPatchAST:
    """A fully parsed semantic patch: ordered rules plus global options."""

    rules: list[Rule] = field(default_factory=list)
    options: SpatchOptions = field(default_factory=lambda: DEFAULT_OPTIONS)
    source_text: str = ""

    def rule_named(self, name: str) -> Optional[Rule]:
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None

    def patch_rules(self) -> list[PatchRule]:
        return [r for r in self.rules if isinstance(r, PatchRule)]

    def guard_rule_names(self) -> frozenset[str]:
        """Pure-match rules that exist to *suppress* other rules via
        ``depends on !guard`` (the idempotence-guard idiom of the cookbook):
        their matching means "nothing to do here", so callers deciding
        whether the patch 'matched' (the CLI's exit status, notably) should
        not count them."""
        forbidden: set[str] = set()
        for rule in self.rules:
            forbidden.update(rule.dependencies.forbidden)
        return frozenset(rule.name for rule in self.patch_rules()
                         if rule.is_pure_match and rule.name in forbidden)

    @property
    def rule_names(self) -> list[str]:
        return [r.name for r in self.rules]

    def loc(self) -> int:
        """Semantic-patch lines of code (non-blank, non-comment)."""
        count = 0
        for line in self.source_text.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
        return count
