"""Per-patch engine state: one semantic patch, its script namespace and
its compiled matchers.

The heavy lifting lives in three cooperating layers:

* :class:`~repro.engine.session.FileSession` — per-file rule sequencing,
  environment chains and re-parse-after-edit;
* :class:`~repro.engine.prefilter.PatchPrefilter` — required-token analysis
  that skips files a rule cannot possibly match, without parsing them;
* :class:`~repro.engine.pipeline.PatchPipeline` — code-base-level
  orchestration with a content-hash parse cache and optional parallel
  workers, holding one :class:`Engine` per patch.

``apply_to_file`` runs one session over one file's contents.  Initialize
rules run once per engine before the first file; finalize rules run once
after a whole-code-base application.
"""

from __future__ import annotations

from typing import Optional

from ..options import SpatchOptions
from ..smpl.ast import ScriptRule, SemanticPatchAST
from .cache import TreeCache
from .compile import CompiledPatch, backend_enabled, compiled_patch_for
from .report import FileResult, PatchResult
from .scripting import ScriptRunner
from .session import FileSession


class Engine:
    """Applies one parsed semantic patch to source files."""

    def __init__(self, patch: SemanticPatchAST,
                 options: Optional[SpatchOptions] = None,
                 tree_cache: Optional[TreeCache] = None,
                 compile: Optional[bool] = None):
        self.patch = patch
        self.options = options or patch.options
        self.runner = ScriptRunner(enabled=self.options.python_scripting)
        self.tree_cache = tree_cache
        self.compile_enabled = backend_enabled(compile)
        self._initialize_done = False
        #: per-file ``script:python`` rules that will run: the sessions the
        #: pipeline must check for purity (see :mod:`~repro.engine.scripting`)
        self.scripted = self.options.python_scripting and any(
            isinstance(rule, ScriptRule) and rule.when == "script"
            for rule in patch.rules)

    # -- public API -----------------------------------------------------------

    def compiled(self) -> Optional[CompiledPatch]:
        """The patch's compiled matchers (globally cached by fingerprint), or
        ``None`` when the interpreted reference backend is selected."""
        if not self.compile_enabled:
            return None
        return compiled_patch_for(self.patch, self.options)

    def session_for(self, filename: str, text: str,
                    allowed_rules: Optional[frozenset[str]] = None) -> FileSession:
        """A session applying this engine's patch to one file (sharing the
        engine's script namespace and parse cache)."""
        return FileSession(self.patch, self.options, self.runner,
                           filename, text, allowed_rules=allowed_rules,
                           tree_cache=self.tree_cache,
                           compiled=self.compiled())

    def apply_to_file(self, filename: str, text: str) -> FileResult:
        """Apply the whole patch to one file's contents."""
        self._run_initialize_rules()
        return self.session_for(filename, text).run()

    # -- initialize / finalize ------------------------------------------------

    def _run_initialize_rules(self) -> None:
        if self._initialize_done:
            return
        self._initialize_done = True
        for rule in self.patch.rules:
            if isinstance(rule, ScriptRule) and rule.when == "initialize":
                self.runner.run_initialize(rule)

    def _run_finalize_rules(self, result: PatchResult) -> None:
        for rule in self.patch.rules:
            if isinstance(rule, ScriptRule) and rule.when == "finalize":
                result.diagnostics.extend(self.runner.run_finalize(rule))
