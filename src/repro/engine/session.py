"""Per-file rule application: the :class:`FileSession` layer.

A session owns everything that is *per file* while a semantic patch runs:
the current text, the parse tree (re-parsed after every rule that edited the
file, so later rules see the already-transformed program), the set of rules
that applied, the exported environment chains and the accumulated reports
and diagnostics.  The :class:`~repro.engine.engine.Engine` and the
:class:`~repro.engine.pipeline.PatchPipeline` both create one session per
file; the pipeline additionally passes ``allowed_rules`` computed by the
prefilter so that rules which cannot possibly match this file are skipped
without even parsing it.

Metavariable bindings are threaded between rules as *environment chains*:
every match (or script execution) extends the environment it inherited, and
a later rule that inherits ``other.mv`` is attempted once per exported
environment of the latest rule in its inheritance chain.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..errors import Diagnostic
from ..lang.parser import ParseTree
from ..obs import registry as _obs
from ..options import SpatchOptions
from ..smpl.ast import PatchRule, ScriptRule, SemanticPatchAST
from .bindings import Env, EMPTY_ENV
from .cache import TreeCache
from .edits import EditSet
from .matcher import MatchInstance
from .report import FileResult, RuleReport
from .scripting import ScriptRunner
from .transform import FreshNameRegistry, Transformer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .compile import CompiledPatch


class FileSession:
    """Applies the rule sequence of one semantic patch to one file."""

    def __init__(self, patch: SemanticPatchAST, options: SpatchOptions,
                 runner: ScriptRunner, filename: str, text: str,
                 compiled: "CompiledPatch", tree_cache: TreeCache,
                 allowed_rules: Optional[frozenset[str]] = None):
        self.patch = patch
        self.options = options
        self.runner = runner
        self.filename = filename
        self.original_text = text
        self.text = text
        self.tree: Optional[ParseTree] = None
        self.applied_rules: set[str] = set()
        self.exported: dict[str, list[Env]] = {}
        self.reports: list[RuleReport] = []
        self.diagnostics: list[Diagnostic] = []
        #: patch rules the prefilter proved *could* match this file; ``None``
        #: disables gating.  Gating a rule is observably identical to the rule
        #: matching nothing (no report, no export, no applied-rule entry).
        self.allowed_rules = allowed_rules
        self.tree_cache = tree_cache
        #: the compiled matchers of this patch
        self.compiled = compiled
        #: a textual (frontend) rule hit an unsafe condition — stale hash,
        #: ambiguous snippet, scoped snippet missing.  The whole file rolls
        #: back: machine patches are all-or-nothing per file, so --in-place
        #: can never leave a half-applied file behind.
        self._textual_failed = False

    # -- public API -----------------------------------------------------------

    def run(self) -> FileResult:
        """Apply every rule of the patch, in order, to this file."""
        for rule in self.patch.rules:
            if isinstance(rule, ScriptRule):
                self._apply_script_rule(rule)
            elif getattr(rule, "is_textual", False):
                self._apply_textual_rule(rule)
            else:
                self._apply_patch_rule(rule)
        if self._textual_failed:
            textual = {rule.name for rule in self.patch.rules
                       if getattr(rule, "is_textual", False)}
            self.text = self.original_text
            self.reports = [r for r in self.reports if r.rule not in textual]
            self.applied_rules -= textual
        return FileResult(filename=self.filename, original_text=self.original_text,
                          text=self.text, rule_reports=self.reports,
                          diagnostics=self.diagnostics)

    # -- environment chains ---------------------------------------------------

    @staticmethod
    def _source_rules_of(rule) -> list[str]:
        if isinstance(rule, ScriptRule):
            return [src for _local, src, _name in rule.imports]
        return [d.source_rule for d in rule.metavars.inherited() if d.source_rule]

    def _base_environments(self, rule) -> list[Env]:
        """Environments a rule is attempted under: the exports of the latest
        rule in its inheritance chain, or a single empty environment when it
        inherits nothing.

        Rules this one ``depends on`` also count as chain candidates when they
        exported environments: a script rule that filtered the environments of
        an earlier matching rule (``cocci.include_match(False)``) then
        correctly restricts the rules downstream of it.
        """
        sources = self._source_rules_of(rule)
        dep_candidates = [d for d in rule.dependencies.required if d in self.exported]
        if not sources and not dep_candidates:
            return [EMPTY_ENV]
        order = {name: idx for idx, name in enumerate(self.patch.rule_names)}
        available = [s for s in sources if s in self.exported]
        if set(sources) - set(available):
            return []
        candidates = set(available) | set(dep_candidates)
        if not candidates:
            return [EMPTY_ENV]
        latest = max(candidates, key=lambda s: order.get(s, -1))
        return self.exported[latest]

    # -- script rules ---------------------------------------------------------

    def _apply_script_rule(self, rule: ScriptRule) -> None:
        if rule.when in ("initialize", "finalize"):
            return
        if not rule.dependencies.is_satisfied(self.applied_rules):
            return
        base_envs = self._base_environments(rule)
        if not base_envs:
            return
        outcome = self.runner.run_script(rule, base_envs)
        self.diagnostics.extend(outcome.diagnostics)
        if outcome.environments:
            self.applied_rules.add(rule.name)
            self.exported[rule.name] = outcome.environments

    # -- textual (frontend) rules ---------------------------------------------

    def _apply_textual_rule(self, rule) -> None:
        """One machine-patch operation (see :mod:`repro.frontends.core`):
        applied straight to the file text, no parse tree involved.  A failed
        operation (never a mere no-match) poisons the session — remaining
        textual rules are skipped and :meth:`run` reverts the file."""
        if self._textual_failed:
            return
        if self.allowed_rules is not None and rule.name not in self.allowed_rules:
            return
        if not rule.dependencies.is_satisfied(self.applied_rules):
            return
        outcome = rule.apply_to_text(self.text, self.filename)
        self.diagnostics.extend(outcome.diagnostics)
        if outcome.failed:
            self._textual_failed = True
            return
        if not outcome.matches:
            return
        self.applied_rules.add(rule.name)
        self.reports.append(RuleReport(rule=rule.name, matches=outcome.matches,
                                       deletions=outcome.deletions,
                                       insertions=outcome.insertions))
        if outcome.new_text != self.text:
            self.text = outcome.new_text
            self.tree = None  # force a re-parse for any later SmPL rule

    # -- patch rules ----------------------------------------------------------

    def _current_tree(self) -> ParseTree:
        if self.tree is None:
            self.tree = self.tree_cache.get_or_parse(
                self.text, self.filename, self.options)
        return self.tree

    def _apply_patch_rule(self, rule: PatchRule) -> None:
        if self.allowed_rules is not None and rule.name not in self.allowed_rules:
            return
        if not rule.dependencies.is_satisfied(self.applied_rules):
            return
        base_envs = self._base_environments(rule)
        if not base_envs:
            return

        tree = self._current_tree()
        inherited = {d.name: (d.source_rule, d.source_name)
                     for d in rule.metavars.inherited()}

        crule = self.compiled.rule_for(rule)

        instances: list[MatchInstance] = []
        seen_signatures: set = set()
        with _obs.phase("match"):
            for base_env in base_envs:
                seeded = base_env.locals_from_inherited(inherited)
                if seeded is None:
                    continue
                for inst in crule.match_all(tree, seeded):
                    sig = inst.signature()
                    if sig in seen_signatures:
                        continue
                    seen_signatures.add(sig)
                    instances.append(inst)

        if not instances:
            return

        self.applied_rules.add(rule.name)

        edit_set = EditSet(source=tree.source)
        transformer = Transformer(rule, tree, options=self.options,
                                  fresh_registry=FreshNameRegistry.for_tree(tree))
        exported_envs: list[Env] = []
        local_names = rule.exported_metavars
        with _obs.phase("transform"):
            for inst in instances:
                fresh = transformer.apply_instance(inst, edit_set)
                env = inst.env
                for name, value in fresh.items():
                    bound = env.bind(name, value)
                    if bound is not None:
                        env = bound
                exported_envs.append(env.exported(rule.name, local_names))
        self.diagnostics.extend(transformer.diagnostics)
        self.exported[rule.name] = exported_envs

        summary = edit_set.summary()
        self.reports.append(RuleReport(rule=rule.name, matches=len(instances),
                                       deletions=summary["deletions"],
                                       insertions=summary["insertions"]))

        if not edit_set.is_empty:
            self.text = edit_set.apply()
            self.tree = None  # force a re-parse for the next rule
        if self.options.verbose:
            self.diagnostics.append(Diagnostic(
                severity="info",
                message=(f"rule {rule.name}: {len(instances)} match(es), "
                         f"{summary['deletions']} deletion(s), "
                         f"{summary['insertions']} insertion(s)"),
                filename=self.filename))
