"""PatchPipeline: the one orchestrator that applies semantic patches to a
code base.

A single patch (``SemanticPatch.apply``) and a whole cookbook
(``PatchSet.apply``) both run here; a one-patch run is just a pipeline of
length one.  The work is laid out *file-major*:

* **one planning scan** — each file's token set is computed once and checked
  against the union of all patches' prefilters; a file no patch could ever
  touch (accounting for tokens *earlier patches may insert*, see
  :class:`PipelinePrefilter`) is answered without a session, a parse, or a
  trip to a worker;
* **one parse per file state** — each patch's
  :class:`~repro.engine.session.FileSession` runs over the evolving text
  with a single :class:`~repro.engine.cache.TreeCache` shared across patch
  boundaries, so a patch that does not edit a file hands the *same* parse
  tree to the next patch instead of re-parsing;
* **one distribution** — files are fanned out over ``jobs`` forked worker
  processes (Coccinelle's ``--jobs``, see :func:`run_fork_pool`), each file
  crossing the process boundary once for all patches; the workers inherit
  the parent's patch objects, with their prefilters and compiled rules,
  through the fork, so no worker re-parses or recompiles a patch the
  parent already holds; results are re-assembled in the input file
  order, so the outcome is deterministic regardless of scheduling;
* **shared results** — each :class:`~repro.engine.report.FileResult` is
  an immutable value, so results share rather than copy: the patches
  gated between two edits of a file share one untouched result, a file
  no patch could touch has one for all of its views, and an incremental
  run (``since=``) assembles the prior result's own objects.

Equivalence to sequential composition
-------------------------------------
Per file, the pipeline runs exactly the session sequence that
``p2.apply(p1.transform(cb))`` would run: after each patch the file's token
set is re-scanned *from the actual evolved text* (not approximated), so each
patch's prefilter decisions — and therefore its reports, exports and
diagnostics — are identical to a sequential per-patch application.  Each
patch keeps its own :class:`~repro.engine.engine.Engine` (and so its own
script-rule namespace), mirroring the fresh engine a sequential
``SemanticPatch.apply`` call creates.  The one observable difference is the
*interleaving* of external side effects: patch ``k``'s per-file scripts run
before patch ``k-1`` has finished the whole code base (its ``finalize``
rules still run last, in patch order).  Cookbook-style scripts that only
read their translation tables cannot tell the difference.

Script-rule semantics
---------------------
``initialize:python`` rules run once per patch before any file and
``finalize:python`` rules once after all files.  With ``jobs > 1`` each
worker process also runs the initialize rules of script-bearing patches,
so that ``script:python`` rules see the dictionaries they set up.  That
equals serial application exactly when every per-file session is *pure*:
it leaves the patch's script namespace as it found it (true of every
cookbook patch — their scripts only read the translation tables).  The
pipeline checks this for every session of a script-bearing patch by
digesting the namespace before and after it (see
:mod:`~repro.engine.scripting`).  A patch with an impure session is named
in ``PipelineResult.impure_patches`` and gets one warning diagnostic, and
a forked run that found one is discarded and re-run serially from fresh
engines, so a counting or aggregating script (and the finalize rule that
reads its state) sees the files in input order, as a serial run does.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import Diagnostic
from ..obs import registry as _obs
from ..options import SpatchOptions
from ..smpl.ast import SemanticPatchAST
from .cache import (DEFAULT_TREE_CACHE, TreeCache, content_sha1,
                    parse_cache_counts)
from .derived import derived
from .prefilter import patch_prefilter, token_set
from .report import FileResult, PatchResult
from .scripting import namespace_digest

if TYPE_CHECKING:
    from .memo import TransformMemo


def resolve_jobs(jobs) -> int:
    """Normalise a ``jobs`` argument: ``"auto"``/``0``/``None`` mean one
    worker per CPU."""
    if jobs in (None, 0, "auto"):
        return os.cpu_count() or 1
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


def _telemetry_worker(worker, batch):
    """Run one batch in a forked worker under a capture (and the span tree,
    when the parent had tracing active at fork time — the contextvar forks
    with the process) so the parent can aggregate worker telemetry instead
    of losing it with the child."""
    from ..obs import trace as _trace

    spans = None
    with _obs.Capture() as counts:
        if _trace.tracing_active():
            tracer = _trace.start_trace(f"fork-worker[{os.getpid()}]")
            try:
                results = list(worker(batch))
            finally:
                spans = tracer.finish().to_payload()
        else:
            results = list(worker(batch))
    return results, counts.payload(), spans


def run_fork_pool(items: list, jobs: int, initializer, initargs, worker) -> list:
    """Fan ``items`` out over ``jobs`` (> 1) forked worker processes in
    batches and return the concatenated per-item results.  A few batches
    per worker so an expensive item does not serialise the tail, while
    keeping per-task pickling overhead low.

    ``initargs`` reach the workers through the fork, never pickled, so the
    initializer can hand them the caller's own objects (patch ASTs with
    their derived facts).  An empty ``items`` answers without forking;
    :class:`PatchPipeline` sends every other input that would not spread
    over two workers through its serial path instead.
    """
    if not items:
        return []

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from ..obs import trace as _trace

    ctx = multiprocessing.get_context("fork")
    batch_size = max(1, math.ceil(len(items) / (jobs * 4)))
    batches = [items[i:i + batch_size]
               for i in range(0, len(items), batch_size)]
    results: list = []
    wrapped = functools.partial(_telemetry_worker, worker)
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                             initializer=initializer,
                             initargs=initargs) as pool:
        for batch_results, counts, spans in pool.map(wrapped, batches):
            results.extend(batch_results)
            _obs.merge_telemetry(counts, origin="workers")
            if spans:
                _trace.graft_payloads([spans])
    return results


@dataclass
class PipelineStats:
    """Timing/coverage breakdown of one pipeline run (``--profile``)."""

    patches: int = 0
    files_total: int = 0
    #: files answered without any session (no patch could ever touch them)
    files_skipped: int = 0
    #: (file, patch) sessions actually run
    sessions_run: int = 0
    #: (file, patch) pairs answered without a session
    sessions_gated: int = 0
    #: (file, rule) applications the prefilter answered without running
    #: (inside surviving sessions and for whole-skipped files alike, matching
    #: what sequential one-patch runs would report)
    rules_gated: int = 0
    prefilter: bool = True
    jobs_requested: "int | str" = 1
    jobs_used: int = 1
    scan_seconds: float = 0.0
    apply_seconds: float = 0.0
    total_seconds: float = 0.0
    #: parse-cache traffic of the run, in this process and its workers
    cache_hits: int = 0
    cache_misses: int = 0
    #: (file, patch) sessions answered from the transform memo instead of
    #: running (counted inside ``sessions_run`` — a memo hit is a logical
    #: session, so coverage counters match a cold run exactly)
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def skip_rate(self) -> float:
        return self.files_skipped / self.files_total if self.files_total else 0.0

    @property
    def session_rate(self) -> float:
        total = self.files_total * self.patches
        return self.sessions_run / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-able view (the ``--json``/server ``profile`` section)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["jobs_requested"] = str(self.jobs_requested)
        payload["skip_rate"] = self.skip_rate
        payload["session_rate"] = self.session_rate
        return payload

    def take_counts(self, counts, memoized: bool) -> None:
        """Fill the cache fields from the run's capture, and the memo fields
        too when the run had a memo (one without has nothing to count)."""
        parse = parse_cache_counts(counts)
        self.cache_hits, self.cache_misses = parse["hits"], parse["misses"]
        if memoized:
            from .memo import memo_counts

            memo = memo_counts(counts)
            self.memo_hits, self.memo_misses = memo["hits"], memo["misses"]

    def describe(self) -> str:
        lines = [
            f"patches: {self.patches}  files: {self.files_total}  "
            f"skipped for the whole pipeline: {self.files_skipped} "
            f"({self.skip_rate:.0%})",
            f"sessions: {self.sessions_run} run, {self.sessions_gated} gated "
            f"({self.session_rate:.0%} of file x patch pairs ran)",
            f"rule applications gated by prefilter: {self.rules_gated}",
            f"jobs: {self.jobs_used} (requested {self.jobs_requested})  "
            f"prefilter: {'on' if self.prefilter else 'off'}",
            f"token scan: {self.scan_seconds:.3f}s  apply: "
            f"{self.apply_seconds:.3f}s  total: {self.total_seconds:.3f}s",
            f"parse cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)",
        ]
        if self.memo_hits or self.memo_misses:
            lines.append(f"transform memo: {self.memo_hits} hit(s), "
                         f"{self.memo_misses} miss(es)")
        return "\n".join(lines)


@dataclass(frozen=True)
class FileRecord:
    """Per-file reuse metadata a pipeline run leaves behind.

    Enough to splice this file's cached results into a later incremental
    run *and* reconstruct its exact contribution to the coverage counters
    (``files_skipped`` / ``sessions_run`` / ``rules_gated``), so an
    incremental result's stats match a cold run's modulo timing.
    """

    #: content hash of the *input* text this file's results were computed
    #: from; reuse is sound only while the current text hashes the same
    sha1: str
    #: True when no patch needed a session (whole-pipeline prefilter skip)
    skipped: bool
    #: per patch: whether a session actually ran
    ran: tuple[bool, ...]
    #: per patch: rule applications the prefilter gated for this file
    rules_gated: tuple[int, ...]


def patch_fingerprint(patch: SemanticPatchAST, options: SpatchOptions,
                      name: str) -> str:
    """Identity of *one* patch: its SMPL source text (its AST repr when it
    was built programmatically), its name and its options — anything that can
    change what the patch does to a file.  The transform memo keys each
    session on it, so an unchanged patch is answered by content wherever it
    sits in a changed patch list.  Computed once per (patch object,
    options, name)."""
    def build() -> str:
        digest = hashlib.sha1()
        source = patch.source_text or repr(patch)
        for part in (name, source, repr(options)):
            digest.update(part.encode("utf-8", "surrogatepass"))
            digest.update(b"\x00")
        return digest.hexdigest()

    return derived(patch, ("fingerprint", options, name), build)


def patchset_fingerprint(patches: Sequence[SemanticPatchAST],
                         options: Sequence[SpatchOptions],
                         names: Sequence[str]) -> str:
    """Identity of an (ordered) patch list + options, for deciding whether a
    prior result may seed an incremental run wholesale.  Derived from the
    per-patch fingerprints so the two notions can never disagree."""
    digest = hashlib.sha1()
    for fingerprint in map(patch_fingerprint, patches, options, names):
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class PipelineResult(PatchResult):
    """The outcome of applying a :class:`PatchPipeline` to a code base.

    Behaves like a :class:`~repro.engine.report.PatchResult` for the
    *combined* transformation — ``files`` maps each filename to a
    :class:`~repro.engine.report.FileResult` whose ``original_text`` is the
    input and whose ``text`` is the output of the *last* patch, with the
    per-rule reports of every patch concatenated in application order, so
    ``diff()`` / ``summary()`` / ``total_matches`` cover the whole batch —
    and additionally carries the per-patch breakdown in ``per_patch``.
    """

    #: names of the applied patches, in application order
    patch_names: list[str] = field(default_factory=list)
    #: one :class:`PatchResult` per patch; its files' ``original_text`` is
    #: the text *that patch* saw (i.e. the previous patch's output)
    per_patch: list[PatchResult] = field(default_factory=list)
    #: per-file reuse metadata (see :class:`FileRecord`); bookkeeping, not
    #: part of the semantic outcome, so excluded from equality
    records: dict[str, FileRecord] = field(default_factory=dict,
                                           compare=False, repr=False)
    #: fingerprint of the patch list + options that produced this result
    #: (see :func:`patchset_fingerprint`); ``None`` on legacy results
    fingerprint: Optional[str] = field(default=None, compare=False, repr=False)
    #: names of the patches whose script rules mutated their namespace in
    #: some session (see the module docstring); a result naming any is
    #: never spliced into a later run
    impure_patches: list[str] = field(default_factory=list, compare=False)
    #: how an incremental run reused this result's predecessor (an
    #: ``IncrementalStats``); ``None`` on cold runs
    incremental: object = field(default=None, compare=False, repr=False)

    def result_for(self, patch: "int | str") -> PatchResult:
        """The per-patch result, by position or (first matching) name."""
        if isinstance(patch, str):
            try:
                patch = self.patch_names.index(patch)
            except ValueError:
                raise KeyError(
                    f"no patch named {patch!r} in this result; available: "
                    f"{', '.join(map(repr, self.patch_names)) or '(none)'}") \
                    from None
        return self.per_patch[patch]

    def per_patch_summary(self) -> list[dict]:
        """One summary row per patch (name, matches, changed files, ...),
        each summed from that patch's cached per-file counts."""
        return [{"patch": name, **result.summary()}
                for name, result in zip(self.patch_names, self.per_patch)]


@dataclass
class _FileOutcome:
    """What applying every patch to one file produced (pickles to workers)."""

    filename: str
    #: one FileResult per patch (untouched placeholder when gated)
    results: list[FileResult]
    #: per patch: whether a session actually ran
    ran: list[bool]
    #: per patch: rules the prefilter gated for this file
    rules_gated: list[int] = field(default_factory=list)
    #: indices of the patches whose session here mutated their namespace
    impure: list[int] = field(default_factory=list)
    #: per patch: the memo key its session outcome may be stored under
    #: (``None`` when gated, unmemoized or impure)
    keys: list = field(default_factory=list)


def _impure_patches(outcomes) -> set[int]:
    return {index for outcome in outcomes for index in outcome.impure}


class PipelinePrefilter:
    """Whole-pipeline skip decisions over the union of per-patch prefilters.

    Per-patch gating simply re-queries each patch's own
    :class:`~repro.engine.prefilter.PatchPrefilter` against the tokens of
    the *current* (evolved) text, so it inherits that layer's soundness
    argument unchanged.  The only new question is the coarse one answered
    here before any session is created: *could any patch ever touch this
    file?*  Querying every patch against the file's **original** tokens is
    sound despite cross-patch insertion chains (patch 1 rewriting ``foo()``
    to ``bar()``, patch 2 rewriting ``bar()``): the file is kept whenever
    *any* patch needs a session, so patch ``k``'s answer only decides the
    outcome when patches ``1..k-1`` all answered "cannot run" — and a patch
    that cannot run cannot have inserted anything, so by induction the text
    patch ``k`` would see *is* the original and its token set is exact.
    """

    def __init__(self, patches: Sequence[SemanticPatchAST]):
        self.prefilters = [patch_prefilter(patch) for patch in patches]
        self.n_patches = len(self.prefilters)

    def needs_any_session(self, file_tokens: frozenset[str]) -> bool:
        return any(prefilter.plan_for(file_tokens).needs_session
                   for prefilter in self.prefilters)


def _apply_patches_to_file(engines, prefilters, filename: str, text: str,
                           tokens: Optional[frozenset[str]],
                           memo: Optional[TransformMemo] = None,
                           memo_keys=None,
                           resolve_only: bool = False,
                           ) -> Optional[_FileOutcome]:
    """Run every patch's session over one file's evolving text.

    This is byte-for-byte the work a sequential per-patch application would
    do for this file: each patch plans from the tokens of the *current* text
    (re-scanned only after an edit) and either runs a session with the
    prefilter's ``allowed_rules`` or is answered with an untouched result.
    Shared between the serial path and the worker processes.

    Every session of a script-bearing patch is checked for purity: the
    patch's script namespace is digested before and after it, and a session
    that changed it (or whose namespace cannot be digested) is recorded in
    ``impure`` and never memoized.

    With a ``memo``, each surviving session is first looked up by content
    hash; ``memo_keys`` carries one ``(fingerprint, flags)`` per patch, and
    a script-bearing patch's fingerprint is extended with the namespace
    digest the session starts from, so a hit only replays a pure session
    run from the same state; a patch whose script rules read a position
    also keys on the filename.  Note what is and is not memoized: the
    *skip/gating* decision is always re-planned above from the current
    text — only the session outcome itself is served from the memo, so a
    hit changes no counter a cold run would report.  With ``resolve_only``
    the chain must resolve entirely without running a session (memo hits
    and gated patches only); the first would-be session returns ``None``
    instead, letting a parent process answer warm files before fanning the
    rest out to workers.
    """
    outcome = _FileOutcome(filename=filename, results=[], ran=[])
    results, ran, rules_gated = outcome.results, outcome.ran, \
        outcome.rules_gated
    text_sha: Optional[str] = None  # hash of ``text``, computed lazily
    # the one untouched result of the current text: every patch gated
    # between two edits shares it
    untouched: Optional[FileResult] = None
    for index, (engine, prefilter) in enumerate(zip(engines, prefilters)):
        allowed = None
        n_rules = engine.facts.n_rules
        if prefilter is not None:
            if tokens is None:
                # patch-boundary re-scan: an earlier patch edited the text,
                # so the shared token set is stale.  Each patch only ever
                # asks whether its own required tokens are present, so one
                # vectorized pass over the patch's query alternation answers
                # its plan without re-scanning every word of the file; the
                # shared set stays unset and the next edited boundary scans
                # its own (typically different) query.
                plan = prefilter.plan_for(prefilter.scan_query(text))
            else:
                plan = prefilter.plan_for(tokens)
            if not plan.needs_session:
                if untouched is None or untouched.text is not text:
                    untouched = FileResult(filename=filename,
                                           original_text=text, text=text)
                results.append(untouched)
                ran.append(False)
                rules_gated.append(n_rules)
                outcome.keys.append(None)
                continue
            allowed = plan.allowed_rules
            rules_gated.append(n_rules - len(plan.allowed_rules))
        else:
            rules_gated.append(0)
        key = memo_keys[index] if memo is not None and memo_keys is not None \
            else None
        # a script-bearing patch's session reads, and may change, its
        # namespace: the memo key carries its digest, checked again below
        before = namespace_digest(engine.runner.globals) \
            if engine.scripted else None
        if key is not None and engine.scripted:
            key = (f"{key[0]}+{before}", key[1]) if before is not None \
                else None
        if key is not None and engine.reads_positions:
            # a script reading a position sees the filename: the session
            # only answers this file
            key = (f"{key[0]}@{content_sha1(filename)}", key[1])
        if key is not None:
            if text_sha is None:
                text_sha = content_sha1(text)
            with _obs.phase("memo"):
                entry = memo.lookup(text_sha, key[0], key[1], filename)
            if entry is not None:
                file_result = entry.to_file_result(filename, text)
                results.append(file_result)
                ran.append(True)  # a hit is a logical session (see PipelineStats)
                outcome.keys.append(key)
                if entry.changed:
                    text = file_result.text
                    tokens = None
                    text_sha = entry.output_sha
                continue
        if resolve_only:
            return None
        file_result = engine.session_for(filename, text,
                                         allowed_rules=allowed).run()
        if engine.scripted and (
                before is None
                or namespace_digest(engine.runner.globals) != before):
            outcome.impure.append(index)
            key = None
        output_sha = memo.store_result(text_sha, key[0], key[1], file_result) \
            if key is not None else None
        results.append(file_result)
        ran.append(True)
        outcome.keys.append(key)
        if file_result.text != text:
            text = file_result.text
            tokens = None  # force a re-scan for the next patch
            text_sha = output_sha  # None when unmemoized: rehash lazily
    return outcome


# ---------------------------------------------------------------------------
# worker-process plumbing (module level so it pickles)
# ---------------------------------------------------------------------------

_PIPELINE_WORKER: dict = {}


def _pipeline_worker_init(patches, options_list, prefilter_enabled: bool,
                          cache_max_entries: int,
                          memo_spec=None, memo_keys=None) -> None:
    from .engine import Engine

    # one parse cache per worker, shared across every patch of the pipeline
    cache = TreeCache(max_entries=cache_max_entries)
    engines = []
    prefilters = []
    # the parent's own patch objects, inherited through the fork together
    # with their derived prefilters and compiled rules
    for patch, options in zip(patches, options_list):
        engine = Engine(patch, options=options, tree_cache=cache)
        if engine.scripted:
            # per-file scripts read the globals initialize rules set up
            engine._run_initialize_rules()
        engines.append(engine)
        prefilters.append(patch_prefilter(patch) if prefilter_enabled
                          else None)
    _PIPELINE_WORKER["engines"] = engines
    _PIPELINE_WORKER["prefilters"] = prefilters
    # the parent's TransformMemo holds a lock and must not cross the fork
    # boundary as shared state; each worker builds its own memory tier and —
    # when a disk tier is configured — shares the content-addressed
    # directory, where atomic entry files make concurrent writers safe
    if memo_spec is not None:
        from .memo import TransformMemo

        _PIPELINE_WORKER["memo"] = TransformMemo(max_entries=memo_spec[0],
                                                 path=memo_spec[1])
    else:
        _PIPELINE_WORKER["memo"] = None
    _PIPELINE_WORKER["memo_keys"] = memo_keys


def _pipeline_worker_apply(batch) -> list[_FileOutcome]:
    engines = _PIPELINE_WORKER["engines"]
    prefilters = _PIPELINE_WORKER["prefilters"]
    memo = _PIPELINE_WORKER.get("memo")
    memo_keys = _PIPELINE_WORKER.get("memo_keys")
    return [_apply_patches_to_file(engines, prefilters, filename, text, tokens,
                                   memo=memo, memo_keys=memo_keys)
            for filename, text, tokens in batch]


class PatchPipeline:
    """Applies an ordered list of semantic patches to a whole code base in a
    single pass (see the module docstring for the semantics)."""

    def __init__(self, patches: Sequence[SemanticPatchAST],
                 options: Optional[Sequence[Optional[SpatchOptions]]] = None, *,
                 names: Optional[Sequence[str]] = None,
                 jobs: "int | str" = 1, prefilter: bool = True,
                 tree_cache: Optional[TreeCache] = None,
                 memo: Optional[TransformMemo] = None):
        self.patches = list(patches)
        if options is None:
            options = [None] * len(self.patches)
        if len(options) != len(self.patches):
            raise ValueError(f"got {len(self.patches)} patches but "
                             f"{len(options)} options")
        self.names = list(names) if names is not None \
            else [f"patch_{idx}" for idx in range(len(self.patches))]
        self.options: list[SpatchOptions] = [
            opts or patch.options for patch, opts in zip(self.patches, options)]
        self.jobs = resolve_jobs(jobs)
        self.jobs_requested = jobs
        self.prefilter_enabled = prefilter
        self.tree_cache = tree_cache if tree_cache is not None else DEFAULT_TREE_CACHE
        self.engines = self._new_engines()
        # the engines' derived rule counts; the assemble path reads them
        # per file
        self._n_rules_per_patch = [engine.facts.n_rules
                                   for engine in self.engines]
        #: a finished run left impure script namespaces behind: the next
        #: run starts from fresh engines, as a cold run would
        self._stale = False
        self.prefilter = PipelinePrefilter(self.patches) if prefilter else None
        self._prefilters = self.prefilter.prefilters if prefilter \
            else [None] * len(self.patches)
        self.fingerprint = patchset_fingerprint(self.patches, self.options,
                                                self.names)
        self.memo = memo
        self._memo_keys: Optional[list] = None
        if memo is not None:
            from .memo import memo_flags

            # one (fingerprint, flags) per patch; script-bearing patches
            # extend it per session with their namespace digest
            flags = memo_flags(prefilter)
            self._memo_keys = [
                (patch_fingerprint(patch, opts, name), flags)
                for patch, opts, name in zip(self.patches, self.options,
                                             self.names)]
        self.stats = PipelineStats()

    def _new_engines(self) -> list:
        """One engine per patch, with fresh script namespaces."""
        from .engine import Engine

        return [Engine(patch, options=opts, tree_cache=self.tree_cache)
                for patch, opts in zip(self.patches, self.options)]

    # -- public API -----------------------------------------------------------

    def run(self, files: dict[str, str]) -> PipelineResult:
        """Apply every patch, in order, to ``{filename: text}``."""
        with _obs.Capture() as counts:
            result = self._run(files)
        result.stats.take_counts(counts, self.memo is not None)
        return result

    def _run(self, files: dict[str, str], serial: bool = False,
             since: Optional[PipelineResult] = None,
             reused: Optional[dict] = None) -> Optional[PipelineResult]:
        """One pass over ``files``.  ``reused`` maps the names whose results
        splice from ``since`` to their records (see
        :class:`~repro.engine.incremental.IncrementalPipeline`); the rest run.
        A session that turns out impure after files were forked, spliced or
        answered from the memo ahead of it discards the pass: it re-runs
        serially from fresh engines, or with files spliced returns ``None``
        so the caller re-runs without them."""
        started = time.perf_counter()
        if self._stale:
            self.engines, self._stale = self._new_engines(), False
        stats = self.stats = PipelineStats(
            patches=len(self.patches), files_total=len(files),
            prefilter=self.prefilter_enabled,
            jobs_requested=self.jobs_requested)
        self._run_initialize(files)
        rerun = {name: text for name, text in files.items()
                 if name not in reused} if reused else files
        outcomes, skipped, in_order = self._plan_and_apply(rerun, stats,
                                                           serial)
        impure = _impure_patches(outcomes.values())
        if impure and (reused or not in_order):
            # each worker (or the prior run, or a memo answer given before
            # the impure session ran) saw a namespace a serial run would
            # not have: only a serial run from fresh engines gives the
            # scripts their meaning
            self.engines = self._new_engines()
            return None if reused else self._run(files, serial=True)

        # ---- assemble in input order: splice or take the fresh outcome
        result, per_patch_stats = self._fresh_result(len(files), stats.jobs_used)
        with _obs.phase("splice") if reused is not None else nullcontext():
            for name, text in files.items():
                if reused and name in reused:
                    self._assemble_reused(result, per_patch_stats, stats,
                                          name, reused[name], since)
                elif name in skipped:
                    self._assemble_skipped(result, per_patch_stats, stats,
                                           name, text)
                else:
                    self._assemble_outcome(result, per_patch_stats, stats,
                                           name, text, outcomes[name])

        self._run_finalize(result, per_patch_stats, impure)
        self._stale = bool(impure)
        stats.total_seconds = time.perf_counter() - started
        result.stats = stats
        return result

    # -- run() building blocks ------------------------------------------------

    def _plan_and_apply(self, files: dict[str, str], stats: PipelineStats,
                        serial: bool,
                        ) -> tuple[dict[str, _FileOutcome], set[str], bool]:
        """Token-scan ``files``, run the surviving sessions (serial or over
        worker processes) and return ``(outcomes, whole-skipped names,
        in_order)`` (see :meth:`_apply_work`).  Updates the scan/apply
        timing, skip and jobs fields of ``stats``."""
        # ---- plan: which files could any patch possibly touch
        work: list[tuple[str, str, Optional[frozenset[str]]]] = []
        skipped: set[str] = set()
        scan_started = time.perf_counter()
        for name, text in files.items():
            if self.prefilter is None:
                work.append((name, text, None))
                continue
            with _obs.phase("prefilter"):
                tokens = token_set(text)
            if self.prefilter.needs_any_session(tokens):
                work.append((name, text, tokens))
            else:
                skipped.add(name)
                stats.files_skipped += 1
        stats.scan_seconds = time.perf_counter() - scan_started

        jobs = 1 if serial else self._effective_jobs(len(work))

        # ---- apply
        apply_started = time.perf_counter()
        outcomes, stats.jobs_used, in_order = self._apply_work(work, jobs)
        stats.apply_seconds = time.perf_counter() - apply_started
        return outcomes, skipped, in_order

    def _run_initialize(self, files: dict[str, str]) -> None:
        """Initialize rules: once per patch, as soon as any file is processed
        (forked workers also run them for script-bearing patches, so their
        per-file scripts see the initialized globals)."""
        if files:
            for engine in self.engines:
                engine._run_initialize_rules()

    def _apply_serial(self, work) -> dict[str, _FileOutcome]:
        """Run the planned ``(name, text, tokens)`` items in this process,
        on the pipeline's engines, parse cache and memo."""
        return {name: _apply_patches_to_file(
                    self.engines, self._prefilters, name, text, tokens,
                    memo=self.memo, memo_keys=self._memo_keys)
                for name, text, tokens in work}

    def _apply_work(self, work, jobs: int,
                    ) -> tuple[dict[str, _FileOutcome], int, bool]:
        """Run the planned ``(name, text, tokens)`` items, serial or over up
        to ``jobs`` worker processes.  Returns the outcomes, the number of
        processes that ran sessions (1 when the memo answered all but one
        file, whatever ``jobs`` allowed) and whether this process met the
        files in input order, as a serial run does."""
        if jobs == 1:
            return self._apply_serial(work), 1, True
        if self.memo is None:
            return self._run_parallel(work, jobs), jobs, False
        # answer fully-warm files in this process (no fork round-trip), fan
        # out the rest, then publish what the workers computed: the workers
        # are forked children, so their memory-tier stores die with them
        # and only the shared disk tier (if any) persists
        resolved: dict[str, _FileOutcome] = {}
        remaining = []
        answered_ahead = False  # a warm file answered before a cold one
        for name, text, tokens in work:
            outcome = _apply_patches_to_file(
                self.engines, self._prefilters, name, text, tokens,
                memo=self.memo, memo_keys=self._memo_keys, resolve_only=True)
            if outcome is None:
                remaining.append((name, text, tokens))
            else:
                resolved[name] = outcome
                answered_ahead = answered_ahead or bool(remaining)
        jobs = self._effective_jobs(len(remaining))
        if jobs == 1:
            # too few cold files to spread: the serial path uses (and
            # stores into) this process's cache and memo directly.  Its
            # order holds unless a file answered above follows a cold one
            outcomes = self._apply_serial(remaining)
            in_order = not answered_ahead
        else:
            outcomes = self._run_parallel(remaining, jobs)
            for name, text, _tokens in remaining:
                self._memo_store_outcome(text, outcomes[name])
            in_order = False
        outcomes.update(resolved)
        return outcomes, jobs, in_order

    def _memo_store_outcome(self, text: str, outcome: _FileOutcome) -> None:
        """Memoize the sessions of one worker-computed outcome under the keys
        the worker looked them up with, threading boundary hashes exactly as
        the in-loop store does."""
        text_sha: Optional[str] = None
        for file_result, key in zip(outcome.results, outcome.keys):
            output_sha = None
            if key is not None:
                if text_sha is None:
                    text_sha = content_sha1(text)
                output_sha = self.memo.store_result(text_sha, key[0], key[1],
                                                    file_result)
            if file_result.text != text:
                text = file_result.text
                text_sha = output_sha  # None when unmemoized: rehash lazily

    def _fresh_result(self, n_files: int, jobs_used: int,
                      ) -> tuple[PipelineResult, list[PipelineStats]]:
        """An empty result plus per-patch coverage counters, shaped like a
        sequential one-patch run's stats (timing is not broken out per patch
        — the pass is shared)."""
        result = PipelineResult(
            patch_names=list(self.names),
            per_patch=[PatchResult() for _ in self.patches],
            fingerprint=self.fingerprint)
        per_patch_stats = [
            PipelineStats(patches=1, files_total=n_files,
                          prefilter=self.prefilter_enabled,
                          jobs_requested=self.jobs_requested,
                          jobs_used=jobs_used)
            for _ in self.patches]
        return result, per_patch_stats

    def _assemble_skipped(self, result: PipelineResult,
                          per_patch_stats: list[PipelineStats],
                          stats: PipelineStats, name: str, text: str) -> None:
        """Splice one whole-pipeline-skipped file into ``result``: every
        view of it is the same untouched, immutable result."""
        n_rules_per_patch = self._n_rules_per_patch
        untouched = FileResult(filename=name, original_text=text, text=text)
        for index, patch_result in enumerate(result.per_patch):
            patch_result.files[name] = untouched
            per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += n_rules_per_patch[index]
        result.files[name] = untouched
        result.records[name] = FileRecord(
            sha1=content_sha1(text), skipped=True,
            ran=(False,) * len(self.patches),
            rules_gated=tuple(n_rules_per_patch))
        stats.sessions_gated += len(self.patches)
        stats.rules_gated += sum(n_rules_per_patch)

    @staticmethod
    def _assemble_reused(result: PipelineResult,
                         per_patch_stats: list[PipelineStats],
                         stats: PipelineStats, name: str, record: FileRecord,
                         since: PipelineResult) -> None:
        """Splice one hash-unchanged file's cached results into ``result``
        (``since``'s own immutable objects, shared, not copied),
        reconstructing its exact contribution to the coverage counters."""
        for index, patch_result in enumerate(result.per_patch):
            patch_result.files[name] = since.per_patch[index].files[name]
            if not record.ran[index]:
                per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += record.rules_gated[index]
        result.files[name] = since.files[name]
        result.records[name] = record
        if record.skipped:
            stats.files_skipped += 1
        stats.sessions_run += sum(record.ran)
        stats.sessions_gated += len(record.ran) - sum(record.ran)
        stats.rules_gated += sum(record.rules_gated)

    def _assemble_outcome(self, result: PipelineResult,
                          per_patch_stats: list[PipelineStats],
                          stats: PipelineStats, name: str, text: str,
                          outcome: _FileOutcome) -> None:
        """Splice one file's freshly computed session outcomes into ``result``."""
        result.records[name] = FileRecord(
            sha1=content_sha1(text), skipped=False,
            ran=tuple(outcome.ran),
            rules_gated=tuple(outcome.rules_gated))
        for index, file_result in enumerate(outcome.results):
            result.per_patch[index].files[name] = file_result
            if not outcome.ran[index]:
                per_patch_stats[index].files_skipped += 1
            per_patch_stats[index].rules_gated += outcome.rules_gated[index]
        stats.sessions_run += sum(outcome.ran)
        stats.sessions_gated += len(self.patches) - sum(outcome.ran)
        stats.rules_gated += sum(outcome.rules_gated)
        final_text = outcome.results[-1].text if outcome.results else text
        result.files[name] = FileResult(
            filename=name, original_text=text, text=final_text,
            rule_reports=tuple(r for fr in outcome.results
                               for r in fr.rule_reports),
            diagnostics=tuple(d for fr in outcome.results
                              for d in fr.diagnostics))

    def _run_finalize(self, result: PipelineResult,
                      per_patch_stats: list[PipelineStats],
                      impure: set[int]) -> None:
        """Finalize rules run once per patch, in patch order, at the end,
        after one warning for each patch whose scripts were impure."""
        for index, (engine, patch_result) in enumerate(
                zip(self.engines, result.per_patch)):
            if index in impure:
                patch_result.diagnostics.append(Diagnostic(
                    severity="warning",
                    message=f"patch {self.names[index]!r}: a script:python "
                            f"rule changed the patch's script namespace (or "
                            f"it holds a value the purity check cannot "
                            f"describe), so its output may depend on file "
                            f"order; it ran serially and is not reused"))
            engine._run_finalize_rules(patch_result)
            result.diagnostics.extend(patch_result.diagnostics)
            patch_result.stats = per_patch_stats[index]
        result.impure_patches = [self.names[index] for index in sorted(impure)]

    # -- parallel execution ---------------------------------------------------

    def _effective_jobs(self, n_files: int) -> int:
        if self.jobs <= 1 or n_files <= 1:
            return 1
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1  # spawn would not inherit sys.path in source checkouts
        return min(self.jobs, n_files)

    def _run_parallel(self, work, jobs: int) -> dict[str, _FileOutcome]:
        memo_spec = (self.memo.max_entries, self.memo.path) \
            if self.memo is not None else None
        outcomes = run_fork_pool(
            work, jobs, _pipeline_worker_init,
            (self.patches, self.options, self.prefilter_enabled,
             self.tree_cache.max_entries, memo_spec, self._memo_keys),
            _pipeline_worker_apply)
        return {outcome.filename: outcome for outcome in outcomes}
