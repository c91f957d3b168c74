"""Incremental re-application: re-run only what changed since the last run.

A cold :class:`~repro.engine.pipeline.PatchPipeline` pass pays for soundness
once per invocation — every file is token-scanned and every surviving file's
sessions re-run, even when one file changed since the last run.  In an
edit-apply loop (``--watch``, repeated CLI invocations over a mostly-stable
tree) almost all of that work reproduces results that are already known.

:class:`IncrementalPipeline` exploits the one fact that makes reuse sound:
per file, the pipeline is a *pure function of that file's input text* (given
a fixed patch list and options) as long as every script session is pure —
leaves its patch's script namespace as it found it, which the pipeline
checks for every session (see :mod:`~repro.engine.pipeline`).  Sessions
never read other files, per-patch engines are rebuilt identically each run,
and prefilter decisions are deterministic functions of the file's token
set.  So given a prior :class:`~repro.engine.pipeline.PipelineResult` and
the current files:

* files whose content hash equals the hash recorded in the prior result's
  :class:`~repro.engine.pipeline.FileRecord` **splice**: their cached
  :class:`~repro.engine.report.FileResult`\\ s (combined and per patch) are
  shared with the fresh result — they are immutable, so the prior
  result's own objects serve, with their cached diffs and counts, and
  nothing is copied — and their records count toward the skip/gate
  counters exactly as a cold run would count them;
* changed and added files **re-run** through the pipeline's own
  plan/apply machinery (token scan, union prefilter, serial or fork-pool
  application) — exactly the path a cold run would take for them;
* files present in the prior result but gone from the input are **dropped**.

The output is byte-identical to a cold ``PatchPipeline.run`` over the
current files: same texts, same per-rule reports, same per-patch stats
modulo timing.  Splicing needs a prior result with reuse records, the same
patch-set fingerprint, the same prefilter setting and no
``impure_patches``; anything else is a cold run, and a run whose re-run
files turn out to hold an impure session is discarded and re-run serially
from fresh engines — reuse degrades, never lies.

``initialize``/``finalize`` script rules still run exactly once per patch
per invocation, mirroring the cold pipeline (their diagnostics are fresh,
not spliced).

Patch-set deltas
----------------
A changed patch list — a patch appended, dropped, reordered or edited — is
a cold :meth:`~repro.engine.pipeline.PatchPipeline.run` with the caller's
:class:`~repro.engine.memo.TransformMemo`: the memo answers every unchanged
patch's sessions by content, wherever the patch now sits in the list, so
appending one patch to a warm cookbook costs about one patch.

A prior result lives in memory only: in the process that computed it
(``--watch`` rounds, a server workspace), or, for a daemon's apply fleet,
shipped over the daemon's own worker pipe to the parent, which splices
from it.  It is never written to disk.  Across process lifetimes the one
persistent store is the memo's directory (``--memo-dir``, or its
``--incremental`` spelling), which answers every unchanged session of a
fresh process by content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..obs import registry as _obs
from ..options import SpatchOptions
from ..smpl.ast import SemanticPatchAST
from .cache import TreeCache, content_sha1
from .pipeline import FileRecord, PatchPipeline, PipelineResult


@dataclass
class IncrementalStats:
    """How much of the prior result an incremental run could reuse."""

    files_total: int = 0
    #: hash-unchanged files whose cached results were spliced in
    files_reused: int = 0
    #: files re-run through the whole chain because their content hash changed
    files_changed: int = 0
    #: files re-run because the prior result had never seen them
    files_added: int = 0
    #: prior-result files absent from the current input
    files_dropped: int = 0
    #: patches in the current list
    patches_total: int = 0
    #: why the run degraded to a cold pipeline pass (``None`` = incremental)
    fallback: Optional[str] = None

    @property
    def files_rerun(self) -> int:
        return self.files_changed + self.files_added

    @property
    def reuse_rate(self) -> float:
        return self.files_reused / self.files_total if self.files_total else 0.0

    def as_dict(self) -> dict:
        """JSON-able view (the ``--json``/server ``profile`` section)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["files_rerun"] = self.files_rerun
        payload["reuse_rate"] = self.reuse_rate
        return payload


class IncrementalPipeline:
    """Applies an ordered patch list to a code base, reusing a prior
    :class:`~repro.engine.pipeline.PipelineResult` for every file whose
    content hash is unchanged (see the module docstring for the semantics).

    Constructed like a :class:`~repro.engine.pipeline.PatchPipeline`; the
    one new entry point is ``run(files, since=prior_result)``.
    """

    def __init__(self, patches: Sequence[SemanticPatchAST],
                 options: Optional[Sequence[Optional[SpatchOptions]]] = None, *,
                 names: Optional[Sequence[str]] = None,
                 jobs: "int | str" = 1, prefilter: bool = True,
                 tree_cache: Optional[TreeCache] = None,
                 memo=None):
        self.pipeline = PatchPipeline(patches, options, names=names,
                                      jobs=jobs, prefilter=prefilter,
                                      tree_cache=tree_cache, memo=memo)

    # -- public API -----------------------------------------------------------

    def run(self, files: dict[str, str],
            since: Optional[PipelineResult] = None) -> PipelineResult:
        """Apply every patch to ``{filename: text}``, splicing ``since``'s
        cached per-file results wherever the content hash is unchanged (a
        changed patch list runs cold, answered by the memo where it can)."""
        with _obs.Capture() as counts:
            result = self._run(files, since)
        result.stats.take_counts(counts, self.pipeline.memo is not None)
        return result

    def _run(self, files: dict[str, str],
             since: Optional[PipelineResult]) -> PipelineResult:
        pipeline = self.pipeline
        incremental = IncrementalStats(files_total=len(files),
                                       patches_total=len(pipeline.patches))
        reason = self._refusal(since)
        if reason is not None:
            result = pipeline._run(files)
        else:
            result = pipeline._run(files, since=since,
                                   reused=self._reusable(files, since,
                                                         incremental))
            if result is None:  # discarded: the engines are fresh again
                reason = ("a script rule mutated its namespace in a re-run "
                          "file, so spliced results would skew it")
                result = pipeline._run(files, serial=True)
        if reason is not None:
            incremental = IncrementalStats(
                files_total=len(files), files_changed=len(files),
                patches_total=len(pipeline.patches), fallback=reason)
        result.incremental = incremental
        return result

    # -- internals ------------------------------------------------------------

    def _refusal(self, since: Optional[PipelineResult]) -> Optional[str]:
        """Why ``since`` may not seed this run by splicing (``None``: it may)."""
        pipeline = self.pipeline
        if since is None:
            return "no prior result"
        if not isinstance(since, PipelineResult):
            return "prior result is not a pipeline result"
        if not since.records:
            return "prior result carries no reuse records"
        # texts and reports are prefilter-independent, but the coverage
        # counters (files_skipped / rules_gated) a spliced record would
        # reconstruct are not; a toggled prefilter must re-run cold so the
        # stats match what this mode's cold run reports
        if getattr(since.stats, "prefilter", None) != pipeline.prefilter_enabled:
            return "prefilter setting changed since the prior result"
        if since.fingerprint != pipeline.fingerprint \
                or len(since.per_patch) != len(pipeline.patches):
            return "patch set or options changed since the prior result"
        if since.impure_patches:
            return ("prior result has impure script patches ("
                    + ", ".join(since.impure_patches) + ")")
        return None

    def _reusable(self, files: dict[str, str], since: PipelineResult,
                  incremental: IncrementalStats) -> dict[str, FileRecord]:
        """The files whose prior results still answer (hash-unchanged, with
        a well-formed record), counting the reuse breakdown."""
        n_patches = len(self.pipeline.patches)
        reused: dict[str, FileRecord] = {}
        for name, text in files.items():
            record = since.records.get(name)
            if (record is not None and record.sha1 == content_sha1(text)
                    # a malformed record/result (wrong arity, missing file
                    # views) re-runs the file instead of crashing the splice
                    and len(record.ran) == n_patches
                    and len(record.rules_gated) == n_patches
                    and name in since.files
                    and all(name in prior.files
                            for prior in since.per_patch)):
                reused[name] = record
                incremental.files_reused += 1
            elif record is None:
                incremental.files_added += 1
            else:
                incremental.files_changed += 1
        incremental.files_dropped = sum(1 for name in since.records
                                        if name not in files)
        return reused

