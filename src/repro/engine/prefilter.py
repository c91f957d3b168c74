"""Prefilter: decide *where a rule could possibly match* without parsing.

Real Coccinelle only scales to whole-code-base application because it is
backed by a glimpse/grep-style pre-index: a file whose token stream cannot
contain a rule's fixed tokens is never parsed.  This module reproduces that
layer.

For every :class:`~repro.smpl.ast.PatchRule` we extract its **required
tokens**: literal identifiers (and directive words) that appear in the
rule's minus slice — i.e. in context or ``-`` material — outside any
disjunction, and that are not metavariable names.  A file whose raw text
does not contain one of those words cannot match the rule, whatever the
bindings, so the rule can be skipped for that file without parsing.  The
extraction is deliberately *under*-approximate (fewer required tokens than
strictly possible) so that gating is always sound:

* tokens inside ``\\(...\\|...\\)`` disjunctions/conjunctions are ignored — a
  disjunction only requires one branch, so none of its tokens is individually
  required;
* metavariable names (including inherited and ``symbol`` declarations) are
  never required — they bind to arbitrary program elements;
* punctuation and numeric literals are never required, because the built-in
  isomorphisms can match them against different spellings (``a < b`` vs
  ``b > a``, ``E`` vs ``E + 0``, ``E += 1`` vs ``E++``) — with the single
  exception of the CUDA kernel-launch chevrons ``<<<``/``>>>``, which no
  isomorphism rewrites and which are extremely selective;
* directive (``#include``/``#pragma``) patterns contribute the literal words
  before their first ``...`` or metavariable, since pragma matching is
  prefix-based;
* rules run in sequence over evolving text, so a rule's requirement is
  reduced by the tokens earlier rules' ``+`` material could have inserted —
  and once an earlier rule can insert *unbounded* text (a metavariable in a
  ``+`` line, whose binding may come from a script rule or a fresh
  identifier), all later rules become unfilterable.

The file side is a *token over-approximation*: a fast regex scan for
identifier-like words over the raw text (strings and comments included).
Required ⊆ real pattern tokens and scanned ⊇ real file tokens, so
``required ⊆ scanned`` is a necessary condition for a match and gating on
its failure is behaviour-preserving — not just "same output text" but the
same reports, exports and diagnostics, which is what lets the pipeline
enable it by default.

A whole file can additionally be skipped *without creating a session* when
no rule of the patch could run in it: no surviving patch rule, and no
``script:python`` rule whose imports/dependencies could be satisfied without
one (a script rule with neither imports nor required dependencies runs
unconditionally in every file, so its presence keeps sessions alive).
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from ..lang.lexer import ANNOT_PLUS, TokenKind, after_number, scan_word_tokens
from ..smpl.ast import PatchRule, ScriptRule, SemanticPatchAST
from .derived import derived

#: punctuators that are selective enough to gate on and that no isomorphism
#: can rewrite into another spelling
_SAFE_PUNCT = ("<<<", ">>>")

_IDENT_SHAPE_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*\Z")


def scan_token_set(text: str) -> frozenset[str]:
    """Over-approximate the token set of a source file: every identifier-like
    word (comments and strings included) plus the chevron punctuators."""
    tokens = scan_word_tokens(text)
    for punct in _SAFE_PUNCT:
        if punct in text:
            tokens.add(punct)
    return frozenset(tokens)


#: texts whose token sets :func:`token_set` keeps, process-wide (the
#: default parse cache's bound: a tree that stays parsed stays scanned)
MAX_CACHED_SCANS = 512


@functools.lru_cache(maxsize=MAX_CACHED_SCANS)
def token_set(text: str) -> frozenset[str]:
    """``scan_token_set(text)``, keyed on the text itself, so a hit is never
    stale.  The pipeline plans every file through it: when the patch list
    changes over an unchanged tree (an edited sp-file under ``--watch``, a
    new SMPL revision per service request) every file re-plans, and the
    unchanged ones answer without a fresh scan."""
    return scan_token_set(text)


class TokenQuery:
    """Membership scan for a *fixed* token universe, vectorized into one
    compiled regex alternation.

    ``scan_token_set`` materializes every identifier-like word of a file —
    fine when the full set is cached and reused, wasteful when a caller only
    needs to know which of a patch's few dozen required tokens are present
    (the per-patch re-scan at pipeline patch boundaries).  A ``TokenQuery``
    answers exactly that question with at most two ``finditer`` passes.
    Each exits early once every queried word has been seen, and is skipped
    when no word still missing occurs in the text even as a substring.

    Membership is equivalent to ``word in scan_token_set(text)``: the word
    lexer (``[A-Za-z_$][A-Za-z0-9_$]*``) starts a token at the first letter
    after any non-token character *or digit run* (``12foo`` scans as ``foo``,
    ``a1foo`` scans as ``a1foo``), which the alternation mirrors with a
    one-character lookbehind plus an optional leading digit run; a second
    pass finds the words glued to a numeric literal (``100us`` scans as
    ``us`` and ``s``) with the same :func:`after_number` regex.  Chevron
    punctuators are plain substring tests, exactly as in
    ``scan_token_set``.  Queried words that are neither identifier-shaped
    nor safe punctuators cannot be compiled into the alternation; they are
    conservatively reported *present* (over-approximation keeps prefilter
    gating sound — the requirement extractor never produces such words, so
    this is a defensive corner only).

    The two regexes compile on the first :meth:`scan`, under a lock because
    one prefilter serves every service thread: a patch the planning scan
    rules out everywhere, or a run over no file, never pays for them.
    """

    def __init__(self, words: Iterable[str]):
        universe = frozenset(words)
        self.words: tuple[str, ...] = tuple(sorted(
            w for w in universe if _IDENT_SHAPE_RE.match(w)))
        self.puncts: tuple[str, ...] = tuple(
            p for p in _SAFE_PUNCT if p in universe)
        #: queried words the alternation cannot express → always "present"
        self.unfilterable: frozenset[str] = universe.difference(
            self.words, self.puncts)
        #: (word regex, glued-to-a-number regex), compiled by :meth:`_regexes`
        self._compiled: Optional[tuple[re.Pattern[str], re.Pattern[str]]] = None
        self._lock = threading.Lock()

    def _regexes(self) -> tuple[re.Pattern[str], re.Pattern[str]]:
        compiled = self._compiled
        if compiled is None:
            with self._lock:
                if self._compiled is None:
                    alt = "|".join(re.escape(w) for w in self.words)
                    self._compiled = (
                        re.compile(r"(?:^|(?<=[^A-Za-z0-9_$]))[0-9]*(?P<word>"
                                   + alt + r")(?![A-Za-z0-9_$])"),
                        re.compile(after_number(
                            f"(?:{alt})(?![A-Za-z0-9_$])")))
                compiled = self._compiled
        return compiled

    def scan(self, text: str) -> frozenset[str]:
        """The subset of the queried universe present in ``text``."""
        found: set[str] = set(self.unfilterable)
        if self.words:
            missing = set(self.words)
            for regex in self._regexes():
                if not any(word in text for word in missing):
                    break
                for match in regex.finditer(text):
                    missing.discard(match["word"])
                    if not missing:
                        break
            found.update(word for word in self.words if word not in missing)
        for punct in self.puncts:
            if punct in text:
                found.add(punct)
        return frozenset(found)


def required_tokens(rule: PatchRule) -> frozenset[str]:
    """Tokens that must appear in a file for ``rule`` to possibly match.

    An empty set means the rule cannot be prefiltered (it could match
    anywhere, e.g. ``fn(el)`` with every name a metavariable).

    Frontend rules (:mod:`repro.frontends.core`) carry no SmPL slice; they
    compute their own requirement from their snippet and the hook delegates
    to them.
    """
    own = getattr(rule, "required_tokens", None)
    if callable(own):
        return own()
    metavars = set(rule.metavars.decls)
    required: set[str] = set()
    disj_depth = 0
    for tok in rule.slice_tokens:
        if tok.kind is TokenKind.DISJ_OPEN:
            disj_depth += 1
            continue
        if tok.kind is TokenKind.DISJ_CLOSE:
            disj_depth = max(0, disj_depth - 1)
            continue
        if tok.kind in (TokenKind.DISJ_OR, TokenKind.CONJ_AND):
            continue
        if disj_depth or tok.annot == ANNOT_PLUS:
            continue
        if tok.kind is TokenKind.IDENT:
            if tok.value not in metavars:
                required.add(tok.value)
        elif tok.kind is TokenKind.DIRECTIVE:
            required.update(_directive_required_words(tok.value, metavars))
        elif tok.kind is TokenKind.PUNCT and tok.value in _SAFE_PUNCT:
            required.add(tok.value)
    return frozenset(required)


_DIRECTIVE_PART_RE = re.compile(r"\.\.\.|[A-Za-z_$][A-Za-z0-9_$]*")


def _directive_required_words(value: str, metavars: set[str]) -> set[str]:
    """Literal words of a ``#pragma``/``#include`` pattern that a matching
    code directive must contain.  Directive matching is prefix-based, so only
    the words *before* the first ``...`` or metavariable count: a pragmainfo
    metavariable absorbs the rest of the line, making later literal words
    optional."""
    words: set[str] = set()
    for part in _DIRECTIVE_PART_RE.findall(value):
        if part == "..." or part in metavars:
            break
        words.add(part)
    return words


@dataclass(frozen=True)
class FilePlan:
    """What the prefilter decided for one file."""

    #: names of patch rules that could match the file
    allowed_rules: frozenset[str]
    #: False when the file can be skipped without creating a session at all
    needs_session: bool


def addable_tokens(rule: PatchRule) -> "tuple[frozenset[str], bool]":
    """Over-approximate the tokens ``rule`` can *introduce* into a file: the
    words of its ``+`` blocks.  A later rule in the chain may legitimately
    require a token that only exists because an earlier rule inserted it, so
    such tokens must not gate the later rule.

    Returns ``(tokens, wildcard)``.  ``wildcard`` is True when the inserted
    text is not statically bounded: a ``+`` line mentioning any metavariable
    splices in bound text, which can come from a script rule (arbitrary
    strings) or a ``fresh identifier`` (newly concatenated words) — after
    such a rule, no later requirement is trustworthy."""
    own = getattr(rule, "addable_tokens", None)
    if callable(own):
        return own()
    added: set[str] = set()
    metavars = set(rule.metavars.decls)
    wildcard = False
    for block in rule.plus_blocks:
        for line in block.lines:
            words = scan_word_tokens(line)
            if words & metavars:
                wildcard = True
            added |= words
            for punct in _SAFE_PUNCT:
                if punct in line:
                    added.add(punct)
    return frozenset(added), wildcard


class PatchPrefilter:
    """Required-token table for one semantic patch, queried per file.

    Each rule's requirement is reduced by the tokens earlier rules could
    have inserted (their ``+`` material), so chains like
    ``- foo() + bar()`` followed by ``- bar() + baz()`` stay sound on files
    that only contain ``foo``; once an earlier rule can insert unbounded
    text (metavariables in ``+`` lines), later rules are not filtered at
    all.
    """

    def __init__(self, patch: SemanticPatchAST):
        #: the patch's rules, not the patch: :func:`patch_prefilter` keeps
        #: one prefilter per live patch, which must not keep it alive
        self.rules = tuple(patch.rules)
        self.requirements: dict[str, frozenset[str]] = {}
        addable_so_far: frozenset[str] = frozenset()
        unbounded = False
        for rule in patch.rules:
            if isinstance(rule, ScriptRule):
                continue
            self.requirements[rule.name] = frozenset() if unbounded \
                else required_tokens(rule) - addable_so_far
            added, wildcard = addable_tokens(rule)
            addable_so_far |= added
            unbounded = unbounded or wildcard
        #: one alternation over the union of all rule requirements — every
        #: rule's requirement is a subset of this universe, so a plan built
        #: from ``scan_query`` tokens equals one built from the full token set
        self.query = TokenQuery(
            frozenset().union(*self.requirements.values())
            if self.requirements else frozenset())

    def allowed_rules(self, file_tokens: Iterable[str]) -> frozenset[str]:
        tokens = file_tokens if isinstance(file_tokens, (set, frozenset)) \
            else frozenset(file_tokens)
        return frozenset(name for name, req in self.requirements.items()
                         if req <= tokens)

    def plan_for(self, file_tokens: frozenset[str]) -> FilePlan:
        allowed = self.allowed_rules(file_tokens)
        return FilePlan(allowed_rules=allowed,
                        needs_session=self._needs_session(allowed))

    def scan_query(self, text: str) -> frozenset[str]:
        """Which of this patch's required tokens appear in ``text`` — a
        single-pass vectorized scan that, fed to :meth:`plan_for`, yields
        the same plan as the full ``scan_token_set`` would (each rule's
        requirement is a subset of the query universe, so tokens outside it
        can never change a ``req <= tokens`` test)."""
        return self.query.scan(text)

    def plan_for_text(self, text: str) -> FilePlan:
        return self.plan_for(self.scan_query(text))

    # -- whole-file skipping --------------------------------------------------

    def _needs_session(self, allowed: frozenset[str]) -> bool:
        """Over-approximate whether *any* rule could run in a file whose
        surviving patch rules are ``allowed``.  Walks the rules in order,
        accumulating the set of rules that might apply; forbidden
        dependencies are ignored (assuming a rule may run is the conservative
        direction)."""
        may_apply: set[str] = set()
        for rule in self.rules:
            if any(dep not in may_apply for dep in rule.dependencies.required):
                continue
            if isinstance(rule, ScriptRule):
                if rule.when != "script":
                    continue
                sources = {src for _local, src, _name in rule.imports}
                if sources and not sources <= may_apply:
                    continue
                may_apply.add(rule.name)
            elif rule.name in allowed:
                may_apply.add(rule.name)
        return bool(may_apply)


def patch_prefilter(patch: SemanticPatchAST) -> PatchPrefilter:
    """The one :class:`PatchPrefilter` of ``patch``, built on first use (a
    pure function of the patch, so every later request reuses it)."""
    return derived(patch, "prefilter", lambda: PatchPrefilter(patch))
