"""Incremental re-application: re-run only what changed since the last run.

A cold :class:`~repro.engine.pipeline.PatchPipeline` pass pays for soundness
once per invocation — every file is token-scanned and every surviving file's
sessions re-run, even when one file changed since the last run.  In an
edit-apply loop (``--watch``, repeated CLI invocations over a mostly-stable
tree) almost all of that work reproduces results that are already known.

:class:`IncrementalPipeline` exploits the one fact that makes reuse sound:
per file, the pipeline is a *pure function of that file's input text* (given
a fixed patch list and options).  Sessions never read other files, per-patch
engines are rebuilt identically each run, and prefilter decisions are
deterministic functions of the file's token set.  So given a prior
:class:`~repro.engine.pipeline.PipelineResult` and the current files:

* files whose content hash equals the hash recorded in the prior result's
  :class:`~repro.engine.pipeline.FileRecord` **splice**: their cached
  :class:`~repro.engine.report.FileResult`\\ s (combined and per patch) are
  copied into the fresh result, and their recorded coverage contributions
  reconstruct the skip/gate counters a cold run would report;
* changed and added files **re-run** through the pipeline's own
  plan/apply machinery (token scan, union prefilter, serial or fork-pool
  application) — exactly the path a cold run would take for them;
* files present in the prior result but gone from the input are **dropped**.

The output is byte-identical to a cold ``PatchPipeline.run`` over the
current files: same texts, same per-rule reports, same per-patch stats
modulo timing.  Two caveats gate the fast path (both fall back to a cold
run rather than silently changing meaning):

* the prior result must carry reuse records and at least a shared
  patch-list *prefix* (see below) — otherwise everything re-runs;
* a patch combining per-file ``script:python`` rules with a ``finalize``
  rule may aggregate state across *all* files; replaying only the changed
  ones would feed its finalize a partial view.

``initialize``/``finalize`` script rules still run exactly once per patch
per invocation, mirroring the cold pipeline (their diagnostics are fresh,
not spliced).

Patch-set deltas
----------------
The patch list is diffed as well as the tree.  Every patch carries its own
fingerprint (SMPL source + name + options, see
:func:`~repro.engine.pipeline.patch_fingerprint`); when the prior result's
per-patch fingerprints share a position-wise **prefix** with the current
list, each hash-unchanged file splices its cached per-patch results up to
the divergence point and replays only the *suffix* patches, starting from
the cached per-patch-boundary text.  This is sound because the pipeline is
file-major over an ordered patch chain: the text entering patch ``k``
depends only on the file's input text and patches ``0..k-1`` — all
fingerprint-identical to the prior run — so the cached boundary state *is*
the state a cold run would reach.  Before splicing, the boundary text is
re-verified against the content hash recorded at the divergence boundary
(:attr:`~repro.engine.pipeline.FileRecord.boundaries`); any mismatch —
stale or corrupt state — demotes that file to a full re-run.  Appending a
patch to an N-patch cookbook therefore costs one patch, not N+1; a
reordered prefix shortens the shared prefix to the divergence point (to a
cold run when the *first* patch moved), and an option change alters every
fingerprint, so reuse degrades, never lies.  Whole-file skip decisions are
re-planned against the union prefilter of the *new* patch list, keeping the
coverage counters identical to a cold run's.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..obs import registry as _obs
from ..options import SpatchOptions
from ..smpl.ast import SemanticPatchAST
from .cache import TreeCache, content_sha1
from .pipeline import (FileRecord, PatchPipeline, PipelineResult,
                       PipelineStats, _FileOutcome, boundary_hashes,
                       parallel_preserves_semantics)
from .prefilter import TokenIndex, scan_token_set
from .report import FileResult

#: format tag for persisted pipeline states; bump on incompatible changes
#: (v2: per-patch fingerprints + per-boundary hashes; v1 states degrade to
#: cold runs, never to wrong output)
_STATE_VERSION = 2

#: default bound on the parse-cache entries a persisted state embeds; the
#: LRU-coldest overflow is dropped so long-lived watch/state files stay flat
DEFAULT_STATE_CACHE_ENTRIES = 256

#: what an empty suffix replay "produced": read-only stand-in so spliced
#: files with nothing left to run skip the apply fan-out entirely
_EMPTY_OUTCOME = _FileOutcome(filename="", results=[], ran=[], rules_gated=[])


@dataclass
class IncrementalStats:
    """How much of the prior result an incremental run could reuse."""

    files_total: int = 0
    #: hash-unchanged files whose cached results were spliced in (up to the
    #: shared patch-list prefix when the patch set changed)
    files_reused: int = 0
    #: files re-run through the whole chain because their content hash changed
    files_changed: int = 0
    #: files re-run because the prior result had never seen them
    files_added: int = 0
    #: prior-result files absent from the current input
    files_dropped: int = 0
    #: patches in the current list
    patches_total: int = 0
    #: leading patches whose cached per-file results could be spliced
    #: (== ``patches_total`` when the whole patch set matched the prior run)
    patches_reused: int = 0
    #: why the run degraded to a cold pipeline pass (``None`` = incremental)
    fallback: Optional[str] = None
    hash_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def files_rerun(self) -> int:
        return self.files_changed + self.files_added

    @property
    def patches_rerun(self) -> int:
        return self.patches_total - self.patches_reused

    @property
    def reuse_rate(self) -> float:
        return self.files_reused / self.files_total if self.files_total else 0.0

    def as_dict(self) -> dict:
        """JSON-able view (the ``--json``/server ``profile`` section)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["files_rerun"] = self.files_rerun
        payload["patches_rerun"] = self.patches_rerun
        payload["reuse_rate"] = self.reuse_rate
        return payload

    def describe(self) -> str:
        if self.fallback is not None:
            return (f"incremental: fell back to a cold run ({self.fallback}); "
                    f"{self.files_total} file(s) processed")
        prefix = ""
        if self.patches_reused < self.patches_total:
            prefix = (f"patch prefix: {self.patches_reused}/"
                      f"{self.patches_total} spliced, {self.patches_rerun} "
                      f"suffix patch(es) re-run  ")
        return (f"incremental: {self.files_reused} reused ({self.reuse_rate:.0%}), "
                f"{self.files_changed} changed + {self.files_added} added "
                f"re-run, {self.files_dropped} dropped  {prefix}"
                f"hash: {self.hash_seconds:.3f}s  total: {self.total_seconds:.3f}s")


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
                 compile: Optional[bool] = None,
                 memo=None):
        self.pipeline = PatchPipeline(patches, options, names=names,
                                      jobs=jobs, prefilter=prefilter,
                                      tree_cache=tree_cache,
                                      compile=compile, memo=memo)

    @property
    def fingerprint(self) -> str:
        return self.pipeline.fingerprint

    # -- public API -----------------------------------------------------------

    def run(self, files: dict[str, str],
            since: Optional[PipelineResult] = None,
            token_index: Optional[TokenIndex] = None) -> PipelineResult:
        """Apply every patch to ``{filename: text}``, splicing ``since``'s
        cached per-file results wherever the content hash is unchanged —
        whole-chain results when the patch set is identical, prefix results
        (with a suffix replay) when it shares a leading subsequence."""
        with _obs.Capture() as counts:
            result = self._run(files, since, token_index)
        result.stats.take_counts(counts)
        return result

    def _run(self, files: dict[str, str], since: Optional[PipelineResult],
             token_index: Optional[TokenIndex]) -> PipelineResult:
        started = time.perf_counter()
        pipeline = self.pipeline
        incremental = IncrementalStats(files_total=len(files),
                                       patches_total=len(pipeline.patches))

        reason, prefix_len, whole = self._reuse_plan(since)
        if reason is not None:
            incremental.fallback = reason
            incremental.files_changed = len(files)
            result = pipeline.run(files, token_index=token_index)
            incremental.total_seconds = time.perf_counter() - started
            result.incremental = incremental
            return result
        incremental.patches_reused = prefix_len
        if whole:
            return self._run_full(files, since, token_index, incremental,
                                  started)
        return self._run_prefix(files, since, prefix_len, token_index,
                                incremental, started)

    # -- internals ------------------------------------------------------------

    def _reuse_plan(self, since: Optional[PipelineResult],
                    ) -> tuple[Optional[str], int, bool]:
        """``(fallback_reason, shared_prefix_length, whole)``: how much of
        ``since`` may seed this run.  ``whole`` selects the wholesale path
        (identical patch set, intact per-patch results); a shorter prefix
        means splice-then-replay; any ``reason`` means a cold run."""
        pipeline = self.pipeline
        if since is None:
            return "no prior result", 0, False
        if not isinstance(since, PipelineResult):
            return "prior result is not a pipeline result", 0, False
        if not since.records:
            return "prior result carries no reuse records", 0, False
        # texts and reports are prefilter-independent, but the coverage
        # counters (files_skipped / rules_gated) a spliced record would
        # reconstruct are not; a toggled prefilter must re-run cold so the
        # stats match what this mode's cold run reports
        prior_prefilter = getattr(since.stats, "prefilter", None)
        if prior_prefilter != pipeline.prefilter_enabled:
            return "prefilter setting changed since the prior result", 0, False
        for patch, options in zip(pipeline.patches, pipeline.options):
            if not parallel_preserves_semantics(patch, options):
                return ("a patch aggregates per-file script state into a "
                        "finalize rule; partial replay would skew it"), 0, \
                    False
        if since.fingerprint == pipeline.fingerprint \
                and len(since.per_patch) == len(pipeline.patches):
            return None, len(pipeline.patches), True
        # diverged (or truncated/tampered) patch set: find the longest
        # position-wise fingerprint prefix, never indexing past the
        # per-patch results that are actually there to splice from
        prior_fingerprints = getattr(since, "patch_fingerprints", None) or []
        usable = min(len(prior_fingerprints), len(since.per_patch))
        prefix_len = 0
        for ours, theirs in zip(pipeline.patch_fingerprints,
                                prior_fingerprints[:usable]):
            if ours != theirs:
                break
            prefix_len += 1
        if prefix_len == 0:
            return ("patch set or options changed since the prior result "
                    "with no shared patch prefix"), 0, False
        return None, prefix_len, False

    def _run_full(self, files: dict[str, str], since: PipelineResult,
                  token_index: Optional[TokenIndex],
                  incremental: IncrementalStats,
                  started: float) -> PipelineResult:
        """The identical-patch-set path: splice whole cached per-file
        results, re-run only content-changed/added files."""
        pipeline = self.pipeline

        # ---- diff: which files does the prior result still answer
        n_patches = len(pipeline.patches)
        hash_started = time.perf_counter()
        reused: dict[str, FileRecord] = {}
        rerun: dict[str, str] = {}
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
            else:
                rerun[name] = text
                if record is None:
                    incremental.files_added += 1
                else:
                    incremental.files_changed += 1
        incremental.files_dropped = sum(1 for name in since.records
                                        if name not in files)
        incremental.hash_seconds = time.perf_counter() - hash_started

        # ---- re-run the delta through the pipeline's own machinery
        stats = pipeline.stats = PipelineStats(
            patches=len(pipeline.patches), files_total=len(files),
            prefilter=pipeline.prefilter_enabled,
            jobs_requested=pipeline.jobs_requested)
        outcomes, skipped = pipeline._plan_and_apply(rerun, token_index, stats)
        if files and not rerun:
            # a cold run over a non-empty code base runs initialize rules
            # even when the prefilter skips everything; keep the state the
            # finalize rules observe identical
            for engine in pipeline.engines:
                engine._run_initialize_rules()

        # ---- assemble in input order: splice or take the fresh outcome
        result, per_patch_stats = pipeline._fresh_result(len(files),
                                                         stats.jobs_used)
        with _obs.phase("splice"):
            for name, text in files.items():
                if name in reused:
                    self._assemble_reused(result, per_patch_stats, stats,
                                          name, reused[name], since)
                elif name in skipped:
                    pipeline._assemble_skipped(result, per_patch_stats, stats,
                                               name, text)
                else:
                    pipeline._assemble_outcome(result, per_patch_stats, stats,
                                               name, text, outcomes[name])

        pipeline._run_finalize(result, per_patch_stats)
        return self._seal(result, stats, incremental, started)

    def _run_prefix(self, files: dict[str, str], since: PipelineResult,
                    prefix_len: int, token_index: Optional[TokenIndex],
                    incremental: IncrementalStats,
                    started: float) -> PipelineResult:
        """The shared-prefix path: for each hash-unchanged file splice the
        cached results of patches ``0..prefix_len-1`` and replay only the
        suffix patches from the cached boundary text; changed/added files
        (and files whose boundary verification fails) re-run the whole
        chain.  Whole-file skips are re-planned against the *new* patch
        list's union prefilter, so the coverage counters match a cold run."""
        pipeline = self.pipeline
        stats = pipeline.stats = PipelineStats(
            patches=len(pipeline.patches), files_total=len(files),
            prefilter=pipeline.prefilter_enabled,
            jobs_requested=pipeline.jobs_requested)
        prior_boundary = since.per_patch[prefix_len - 1].files

        # ---- plan: hash-diff the tree and union-scan against the new list
        plan_started = time.perf_counter()
        spliced: dict[str, FileRecord] = {}
        work: list[tuple[str, str, Optional[frozenset[str]], int]] = []
        skipped: set[str] = set()
        for name, text in files.items():
            record = since.records.get(name)
            if record is None:
                incremental.files_added += 1
            elif (record.sha1 == content_sha1(text)
                    and len(record.boundaries) >= prefix_len
                    and len(record.ran) >= prefix_len
                    and len(record.rules_gated) >= prefix_len
                    and name in prior_boundary
                    and content_sha1(prior_boundary[name].text)
                    == record.boundaries[prefix_len - 1]
                    and all(name in prior.files
                            for prior in since.per_patch[:prefix_len])):
                # splice-verified: the cached boundary text really is the
                # state the shared prefix produced for this input
                incremental.files_reused += 1
            else:
                record = None  # changed, or stale/corrupt: full re-run
                incremental.files_changed += 1
            tokens: Optional[frozenset[str]] = None
            if pipeline.prefilter is not None:
                tokens = token_index.tokens_of(name, text) \
                    if token_index is not None else scan_token_set(text)
                if not pipeline.prefilter.needs_any_session(tokens):
                    skipped.add(name)
                    stats.files_skipped += 1
                    continue
            if record is not None:
                spliced[name] = record
                if prefix_len == len(pipeline.patches):
                    continue  # empty suffix (truncated list): nothing to run
                # when the prefix never edited the file, the boundary text
                # *is* the input text and the tokens just scanned still
                # apply; otherwise the suffix re-scans the evolved text
                # lazily, exactly as a cold run would after an edit
                boundary_tokens = tokens \
                    if record.boundaries[prefix_len - 1] == record.sha1 \
                    else None
                work.append((name, prior_boundary[name].text,
                             boundary_tokens, prefix_len))
            else:
                work.append((name, text, tokens, 0))
        incremental.files_dropped = sum(1 for name in since.records
                                        if name not in files)
        incremental.hash_seconds = time.perf_counter() - plan_started
        stats.scan_seconds = incremental.hash_seconds

        # ---- apply: suffix replays and full re-runs share one fan-out
        jobs_used = pipeline._effective_jobs(len(work))
        stats.jobs_used = jobs_used
        pipeline._run_initialize(bool(files), jobs_used)
        apply_started = time.perf_counter()
        outcomes = pipeline._apply_work(work, jobs_used)
        stats.apply_seconds = time.perf_counter() - apply_started

        # ---- assemble in input order
        result, per_patch_stats = pipeline._fresh_result(len(files), jobs_used)
        with _obs.phase("splice"):
            for name, text in files.items():
                if name in skipped:
                    pipeline._assemble_skipped(result, per_patch_stats, stats,
                                               name, text)
                elif name in spliced:
                    self._assemble_prefix(result, per_patch_stats, stats,
                                          name, text, spliced[name], since,
                                          prefix_len, outcomes.get(name))
                else:
                    pipeline._assemble_outcome(result, per_patch_stats, stats,
                                               name, text, outcomes[name])

        pipeline._run_finalize(result, per_patch_stats)
        return self._seal(result, stats, incremental, started)

    @staticmethod
    def _seal(result: PipelineResult, stats: PipelineStats,
              incremental: IncrementalStats,
              started: float) -> PipelineResult:
        """Shared run epilogue: timings and stat attachment."""
        stats.total_seconds = time.perf_counter() - started
        incremental.total_seconds = time.perf_counter() - started
        result.stats = stats
        result.incremental = incremental
        return result

    def _assemble_reused(self, result: PipelineResult,
                         per_patch_stats, stats: PipelineStats,
                         name: str, record: FileRecord,
                         since: PipelineResult) -> None:
        """Splice one hash-unchanged file's cached results into ``result``,
        reconstructing its exact contribution to the coverage counters."""
        for index, patch_result in enumerate(result.per_patch):
            patch_result.files[name] = since.per_patch[index].files[name].copy()
            if not record.ran[index]:
                per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += record.rules_gated[index]
        result.files[name] = since.files[name].copy()
        result.records[name] = record
        if record.skipped:
            stats.files_skipped += 1
        stats.sessions_run += sum(record.ran)
        stats.sessions_gated += len(record.ran) - sum(record.ran)
        stats.rules_gated += sum(record.rules_gated)

    def _assemble_prefix(self, result: PipelineResult,
                         per_patch_stats, stats: PipelineStats,
                         name: str, text: str, record: FileRecord,
                         since: PipelineResult, prefix_len: int,
                         outcome) -> None:
        """Splice one hash-unchanged file's cached results for the shared
        patch-list prefix and take the freshly replayed suffix outcomes,
        rebuilding the combined view — reports concatenated in application
        order, final text from the last suffix patch — exactly as a cold
        run's assembler would.  ``outcome`` is ``None`` when the suffix is
        empty (the new list is a strict prefix of the prior one): the
        spliced file then never entered the apply fan-out at all."""
        if outcome is None:
            outcome = _EMPTY_OUTCOME
        prefix_results = []
        for index in range(prefix_len):
            cached = since.per_patch[index].files[name]
            prefix_results.append(cached)
            result.per_patch[index].files[name] = cached.copy()
            if not record.ran[index]:
                per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += record.rules_gated[index]
        for offset, file_result in enumerate(outcome.results):
            index = prefix_len + offset
            result.per_patch[index].files[name] = file_result
            if not outcome.ran[offset]:
                per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += outcome.rules_gated[offset]

        ran = tuple(record.ran[:prefix_len]) + tuple(outcome.ran)
        rules_gated = (tuple(record.rules_gated[:prefix_len])
                       + tuple(outcome.rules_gated))
        all_results = prefix_results + outcome.results
        final_text = all_results[-1].text if all_results else text
        result.files[name] = FileResult(
            filename=name, original_text=text, text=final_text,
            rule_reports=[replace(report) for cached in prefix_results
                          for report in cached.rule_reports]
                         + [report for fresh in outcome.results
                            for report in fresh.rule_reports],
            diagnostics=[d for fr in all_results for d in fr.diagnostics])
        boundary_text = prefix_results[-1].text
        result.records[name] = FileRecord(
            sha1=record.sha1, skipped=False, ran=ran, rules_gated=rules_gated,
            boundaries=tuple(record.boundaries[:prefix_len])
            + boundary_hashes(outcome.results, boundary_text,
                              record.boundaries[prefix_len - 1]))
        stats.sessions_run += sum(ran)
        stats.sessions_gated += len(ran) - sum(ran)
        stats.rules_gated += sum(rules_gated)


# ---------------------------------------------------------------------------
# persistence: the CLI's --incremental STATE_FILE
# ---------------------------------------------------------------------------

@dataclass
class PipelineState:
    """What ``--incremental STATE_FILE`` persists between CLI invocations:
    the prior result (with its reuse records and patch-set fingerprint) and,
    optionally, the parse-tree cache entries, so a repeated invocation skips
    both re-application *and* re-parsing."""

    result: PipelineResult
    #: ``TreeCache.snapshot()`` entries; content-hash keys stay valid across
    #: processes
    cache_entries: list = field(default_factory=list)
    #: bound on the cache entries :meth:`save` embeds; the LRU-coldest
    #: overflow is dropped (``None`` = unbounded) so a long-lived watch
    #: session's state file cannot grow with every file it ever saw
    max_cache_entries: Optional[int] = DEFAULT_STATE_CACHE_ENTRIES
    #: optional ``{filename: text}`` snapshot of the code base itself —
    #: what the daemon's ``--state-root`` workspace snapshots carry so a
    #: restarted process can restore the files alongside the result (the
    #: CLI's ``--incremental`` flow leaves this ``None``: the files live on
    #: the user's disk).  Absent from pre-existing payloads, which load as
    #: ``None`` — no version bump needed.
    files: Optional[dict] = None

    @property
    def fingerprint(self) -> Optional[str]:
        return self.result.fingerprint

    def save(self, path) -> None:
        entries = self.cache_entries
        if self.max_cache_entries is not None \
                and len(entries) > self.max_cache_entries:
            # snapshot() order is LRU oldest-first: keep the hottest tail
            entries = entries[-self.max_cache_entries:]
        payload = {"version": _STATE_VERSION, "result": self.result,
                   "cache_entries": entries}
        if self.files is not None:
            payload["files"] = self.files
        # atomic publish: a process killed mid-save (the daemon's kill -9
        # restart path) must never leave a torn file over a good snapshot
        directory = os.path.dirname(os.path.abspath(os.fspath(path)))
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path) -> "Optional[PipelineState]":
        """The persisted state, or ``None`` when the file is missing,
        unreadable or from an incompatible version — a stale state file must
        degrade to a cold run, never break the invocation."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if payload.get("version") != _STATE_VERSION:
                return None
            result = payload["result"]
            if not isinstance(result, PipelineResult):
                return None
            files = payload.get("files")
            if files is not None and not isinstance(files, dict):
                files = None
            return cls(result=result,
                       cache_entries=list(payload.get("cache_entries", [])),
                       files=files)
        except Exception:
            # pickle failures surface as UnpicklingError, ValueError,
            # EOFError, AttributeError/ImportError (renamed classes), ... —
            # the contract is "degrade, never break", so catch them all
            return None
