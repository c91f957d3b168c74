"""High-level public API.

The two classes most users interact with:

:class:`SemanticPatch`
    a parsed semantic patch (``.cocci`` text), with ``apply_to_source`` /
    ``apply`` methods that run the matching + transformation engine and
    return :class:`~repro.engine.report.FileResult` /
    :class:`~repro.engine.report.PatchResult` objects carrying the patched
    text, the unified diff and per-rule match statistics.

:class:`CodeBase`
    an in-memory collection of source files (the unit the benchmarks and the
    workload generators operate on), loadable from / writable to a directory.

Quick start::

    from repro import SemanticPatch, CodeBase

    patch = SemanticPatch.from_string(open("instrument.cocci").read())
    result = patch.apply(CodeBase.from_dir("src/"))
    print(result.diff())
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .engine.engine import Engine
from .engine.prefilter import TokenIndex
from .engine.report import FileResult, PatchResult
from .lang.parser import ParseTree, parse_source
from .lang.source import SourceFile
from .options import SpatchOptions, DEFAULT_OPTIONS
from .smpl.ast import SemanticPatchAST
from .smpl.parser import parse_semantic_patch


#: file suffixes considered C/C++ sources when loading a directory
C_SUFFIXES = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".cu", ".hip")


@dataclass
class CodeBase:
    """An in-memory collection of source files."""

    files: dict[str, str] = field(default_factory=dict)
    #: lazily built prefilter token index (see :meth:`token_index`)
    _token_index: Optional[TokenIndex] = field(default=None, init=False,
                                               repr=False, compare=False)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_files(cls, files: dict[str, str]) -> "CodeBase":
        return cls(files=dict(files))

    @classmethod
    def from_dir(cls, path, suffixes: tuple[str, ...] = C_SUFFIXES) -> "CodeBase":
        root = pathlib.Path(path)
        files: dict[str, str] = {}
        for entry in sorted(root.rglob("*")):
            if entry.is_file() and entry.suffix in suffixes:
                # real HPC trees mix encodings (Latin-1 comments in decades-old
                # sources); never let one stray byte abort a whole-tree load.
                # surrogateescape (rather than replace) keeps the raw bytes
                # recoverable, so write_to round-trips them unchanged
                files[str(entry.relative_to(root))] = entry.read_text(
                    encoding="utf-8", errors="surrogateescape")
        return cls(files=files)

    def write_to(self, path) -> None:
        root = pathlib.Path(path)
        for name, text in self.files.items():
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8", errors="surrogateescape")

    def refresh_from_dir(self, path,
                         suffixes: tuple[str, ...] = C_SUFFIXES,
                         ) -> dict[str, list[str]]:
        """Re-read a directory this code base was loaded from, applying only
        the on-disk delta: new files are added, files whose contents differ
        are updated, files gone from disk are removed (all through the
        index-maintaining accessors, so the lazily built token index stays
        exact and unchanged files keep their cached scans).  Returns the
        delta as ``{"added": [...], "changed": [...], "removed": [...]}`` —
        the edit-apply loop feeds it straight into an incremental run."""
        root = pathlib.Path(path)
        seen: set[str] = set()
        added: list[str] = []
        changed: list[str] = []
        for entry in sorted(root.rglob("*")):
            if entry.is_file() and entry.suffix in suffixes:
                name = str(entry.relative_to(root))
                seen.add(name)
                text = entry.read_text(encoding="utf-8",
                                       errors="surrogateescape")
                if name not in self.files:
                    self[name] = text
                    added.append(name)
                elif self.files[name] != text:
                    self[name] = text
                    changed.append(name)
        removed = [name for name in self.files if name not in seen]
        for name in removed:
            del self[name]
        return {"added": added, "changed": changed, "removed": removed}

    # -- dict-like access -----------------------------------------------------------

    def __getitem__(self, name: str) -> str:
        return self.files[name]

    def __setitem__(self, name: str, text: str) -> None:
        self.files[name] = text
        if self._token_index is not None:
            self._token_index.add(name, text)  # per-file update, keep the rest

    def __delitem__(self, name: str) -> None:
        """Remove a file, keeping the token index exact: a deletion through
        ``files`` directly would leave the lazily built index answering
        prefilter queries for a file that no longer exists (incremental mode
        deletes through here when the tree shrinks)."""
        del self.files[name]
        if self._token_index is not None:
            self._token_index.remove(name)

    def __contains__(self, name: str) -> bool:
        return name in self.files

    def __iter__(self) -> Iterator[str]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self.files.items())

    def names(self) -> list[str]:
        return list(self.files)

    # -- metrics -----------------------------------------------------------------------

    def loc(self) -> int:
        """Total non-blank, non-comment lines across all files."""
        return sum(SourceFile(name=n, text=t).count_loc() for n, t in self.files.items())

    def content_hashes(self) -> dict[str, str]:
        """``{name: sha1(text)}`` over every file — the manifest the server
        protocol's ``sync_files`` delta upload compares against, using the
        same :func:`~repro.engine.cache.content_sha1` the incremental layer
        keys on, so client and server can never disagree on "changed"."""
        from .engine.cache import content_sha1

        return {name: content_sha1(text) for name, text in self.files.items()}

    def total_lines(self) -> int:
        return sum(t.count("\n") + (0 if t.endswith("\n") or not t else 1)
                   for t in self.files.values())

    def parse(self, options: SpatchOptions = DEFAULT_OPTIONS) -> dict[str, ParseTree]:
        """Parse every file (error tolerant); useful for analyses and tests."""
        return {name: parse_source(text, name=name, options=options)
                for name, text in self.files.items()}

    def token_index(self) -> TokenIndex:
        """The per-file token index the prefilter consults, built lazily and
        cached until the code base is mutated.  Repeated ``apply`` calls over
        the same code base then share one scan."""
        if self._token_index is None:
            self._token_index = TokenIndex(self.files)
        return self._token_index

    def with_file(self, name: str, text: str) -> "CodeBase":
        files = dict(self.files)
        files[name] = text
        return CodeBase(files=files)


class SemanticPatch:
    """A parsed semantic patch, ready to be applied."""

    def __init__(self, ast: SemanticPatchAST, options: Optional[SpatchOptions] = None,
                 name: str = "<patch>"):
        self.ast = ast
        self.options = options or ast.options
        self.name = name

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_string(cls, text: str, options: Optional[SpatchOptions] = None,
                    name: str = "<patch>") -> "SemanticPatch":
        ast = parse_semantic_patch(text, options=options)
        # ast.options is the parser's *merged* view: the explicit options
        # (when given) with `# spatch --c++` pseudo-option lines folded in.
        # Using the raw ``options`` here instead would silently drop the
        # language level a patch declares for itself — the CLI always passes
        # explicit options, so every --sp-file with an embedded option line
        # used to lose it unless --c++ was also on the command line.
        return cls(ast=ast, options=ast.options, name=name)

    @classmethod
    def from_path(cls, path, options: Optional[SpatchOptions] = None) -> "SemanticPatch":
        p = pathlib.Path(path)
        # surrogateescape, matching CodeBase: a stray byte in a patch file's
        # comment must round-trip exactly like one in a source file would
        return cls.from_string(p.read_text(encoding="utf-8",
                                           errors="surrogateescape"),
                               options=options, name=p.name)

    @classmethod
    def from_text(cls, text: str, options: Optional[SpatchOptions] = None,
                  name: str = "<patch>",
                  format: Optional[str] = None) -> "SemanticPatch":
        """Parse a patch in *any* supported format — SmPL or one of the
        machine-patch frontends (JSON operation arrays, 'ap' locator
        documents, SEARCH/REPLACE blocks; see :mod:`repro.frontends`).
        ``format=None`` auto-detects from ``name``'s suffix and the text."""
        from .frontends import detect_format, parse_patch_text

        fmt = format or detect_format(text, name)
        if fmt == "smpl":
            return cls.from_string(text, options=options, name=name)
        ast = parse_patch_text(text, format=fmt, options=options, name=name)
        return cls(ast=ast, options=ast.options, name=name)

    @classmethod
    def from_patch_file(cls, path,
                        options: Optional[SpatchOptions] = None) -> "SemanticPatch":
        """Load a patch file of any supported format (the ``--patch-file``
        loader: auto-detected, frontend formats included)."""
        p = pathlib.Path(path)
        return cls.from_text(p.read_text(encoding="utf-8",
                                         errors="surrogateescape"),
                             options=options, name=p.name)

    # -- introspection -----------------------------------------------------------------

    @property
    def rule_names(self) -> list[str]:
        return self.ast.rule_names

    def loc(self) -> int:
        """Semantic patch lines of code (the 'terseness' numerator of Q1)."""
        return self.ast.loc()

    def describe(self) -> str:
        lines = [f"semantic patch {self.name}: {len(self.ast.rules)} rule(s)"]
        for rule in self.ast.rules:
            lines.append("  " + rule.describe())
        return "\n".join(lines)

    # -- application -------------------------------------------------------------------

    def engine(self) -> Engine:
        """A fresh engine instance (one per application run)."""
        return Engine(self.ast, options=self.options)

    def apply_to_source(self, text: str, filename: str = "<input.c>") -> FileResult:
        """Apply the patch to a single file's contents."""
        return self.engine().apply_to_file(filename, text)

    def apply(self, codebase: "CodeBase | dict[str, str]", *,
              jobs: "int | str" = 1, prefilter: bool = True,
              compile: Optional[bool] = None) -> PatchResult:
        """Apply the patch to a whole code base; returns per-file results.

        ``jobs`` applies files in that many worker processes (``"auto"`` =
        one per CPU); ``prefilter`` skips files the required-token analysis
        proves cannot match (behaviour-preserving, on by default);
        ``compile`` selects the compiled matcher backend (``None`` defers to
        ``REPRO_MATCHER``, which defaults to compiled).  The run is a
        one-patch :class:`~repro.engine.pipeline.PatchPipeline`, so the
        result is a :class:`~repro.engine.pipeline.PipelineResult` carrying
        the timing breakdown in ``.stats``.
        """
        return PatchSet([self]).apply(codebase, jobs=jobs,
                                      prefilter=prefilter, compile=compile)

    def transform(self, codebase: "CodeBase", *,
                  jobs: "int | str" = 1, prefilter: bool = True,
                  compile: Optional[bool] = None) -> "CodeBase":
        """Apply the patch and return the transformed code base (the
        'replayable refactoring' workflow of the paper: the original tree is
        the maintained source of truth, the refactored copy is regenerated)."""
        result = self.apply(codebase, jobs=jobs, prefilter=prefilter,
                            compile=compile)
        return CodeBase(files={name: fr.text for name, fr in result.files.items()})


class PatchSet:
    """An ordered list of semantic patches applied as one batch.

    ``PatchSet([p1, p2]).apply(codebase)`` is observably equivalent to
    ``p2.apply(p1.transform(codebase))`` — byte-identical texts and per-rule
    reports, per patch — but runs as a *single* pass: each file is
    token-scanned once, parsed once per text state (the parse cache is
    shared across patch boundaries), gated against the union of the patches'
    prefilters and shipped to a worker process once for all patches.  See
    :class:`~repro.engine.pipeline.PatchPipeline` for the semantics and
    :meth:`~repro.engine.pipeline.PipelineResult.result_for` for the
    per-patch breakdown of the result.
    """

    def __init__(self, patches: Iterable[SemanticPatch], name: str = "<patchset>"):
        self.patches: list[SemanticPatch] = list(patches)
        self.name = name

    @classmethod
    def from_any(cls, sources, options: Optional[SpatchOptions] = None,
                 name: str = "<patchset>") -> "PatchSet":
        """Build a patch set from heterogeneous sources, in order.

        Accepts a single source or an iterable of them; each source may be a
        :class:`SemanticPatch`, a :class:`PatchSet` (flattened), a parsed
        :class:`~repro.smpl.ast.SemanticPatchAST`, a path to a patch file
        (``str`` without a newline, or any ``os.PathLike``), or inline patch
        text (a ``str`` containing a newline).  File and inline formats are
        auto-detected across SmPL and the machine-patch frontends::

            PatchSet.from_any(["rename.cocci", "ops.json", blocks_text])
        """
        if isinstance(sources, (str, SemanticPatch, PatchSet,
                                SemanticPatchAST)) or hasattr(sources, "__fspath__"):
            sources = [sources]
        patches: list[SemanticPatch] = []
        for source in sources:
            if isinstance(source, SemanticPatch):
                patches.append(source)
            elif isinstance(source, PatchSet):
                patches.extend(source.patches)
            elif isinstance(source, SemanticPatchAST):
                patches.append(SemanticPatch(ast=source, options=options
                                             or source.options))
            elif isinstance(source, str) and "\n" in source:
                patches.append(SemanticPatch.from_text(source, options=options))
            elif isinstance(source, str) or hasattr(source, "__fspath__"):
                patches.append(SemanticPatch.from_patch_file(source,
                                                             options=options))
            else:
                raise TypeError(
                    f"PatchSet.from_any: unsupported source {type(source).__name__}")
        return cls(patches, name=name)

    # -- container protocol ------------------------------------------------------

    def __iter__(self) -> Iterator[SemanticPatch]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)

    def __getitem__(self, index: int) -> SemanticPatch:
        return self.patches[index]

    @property
    def patch_names(self) -> list[str]:
        return [patch.name for patch in self.patches]

    def loc(self) -> int:
        """Total semantic-patch lines of code across the set."""
        return sum(patch.loc() for patch in self.patches)

    def describe(self) -> str:
        lines = [f"patch set {self.name}: {len(self.patches)} patch(es)"]
        for patch in self.patches:
            lines.extend("  " + line for line in patch.describe().splitlines())
        return "\n".join(lines)

    # -- application -------------------------------------------------------------

    def pipeline(self, *, jobs: "int | str" = 1, prefilter: bool = True,
                 compile: Optional[bool] = None, memo=None):
        """A fresh :class:`~repro.engine.pipeline.PatchPipeline` (one per run)."""
        from .engine.pipeline import PatchPipeline

        return PatchPipeline([patch.ast for patch in self.patches],
                             options=[patch.options for patch in self.patches],
                             names=self.patch_names,
                             jobs=jobs, prefilter=prefilter, compile=compile,
                             memo=memo)

    def incremental(self, *, jobs: "int | str" = 1, prefilter: bool = True,
                    compile: Optional[bool] = None, memo=None):
        """A fresh :class:`~repro.engine.incremental.IncrementalPipeline`
        (one per run), for callers that drive ``run(files, since=...)``
        themselves."""
        from .engine.incremental import IncrementalPipeline

        return IncrementalPipeline([patch.ast for patch in self.patches],
                                   options=[patch.options
                                            for patch in self.patches],
                                   names=self.patch_names,
                                   jobs=jobs, prefilter=prefilter,
                                   compile=compile, memo=memo)

    def apply(self, codebase: "CodeBase | dict[str, str]", *,
              jobs: "int | str" = 1, prefilter: bool = True, since=None,
              compile: Optional[bool] = None, memo=None):
        """Apply every patch, in order, to a whole code base in one pass.

        Returns a :class:`~repro.engine.pipeline.PipelineResult`: a
        :class:`~repro.engine.report.PatchResult` for the combined
        transformation, with the per-patch results in ``per_patch``.

        ``since`` — a prior ``PipelineResult`` (or a persisted
        ``PipelineState``, unwrapped transparently) — switches to
        incremental re-application: only files whose content hash changed
        since that result are re-run, the rest splice their cached results
        (byte-identical to a cold run; see
        :class:`~repro.engine.incremental.IncrementalPipeline`).  A changed
        patch list or options, a toggled prefilter, a prior result whose
        script rules mutated their namespace, or stale/corrupt state all
        degrade to a cold run, never to wrong output.  The returned result
        carries the reuse breakdown in ``.incremental`` and can seed the
        next ``since=`` in an edit-apply loop.

        ``memo`` — a :class:`~repro.engine.memo.TransformMemo` — adds
        content-addressed reuse on top: every (file state, patch) session is
        keyed on content hash + patch fingerprint, so repeated applies,
        duplicated files, the unchanged patches of an edited patch list
        (appending a patch to an N-patch cookbook costs about one patch)
        and (with a disk-backed memo) fresh processes skip transforms whose
        outcome is already known, byte-identically.
        """
        from .engine.incremental import PipelineState

        if isinstance(since, PipelineState):
            since = since.result
        if isinstance(codebase, CodeBase):
            files = codebase.files
            index = codebase.token_index() if prefilter else None
        else:
            files = dict(codebase)
            index = None
        if since is None:
            return self.pipeline(jobs=jobs, prefilter=prefilter,
                                 compile=compile, memo=memo) \
                .run(files, token_index=index)
        return self.incremental(jobs=jobs, prefilter=prefilter,
                                compile=compile, memo=memo) \
            .run(files, since=since, token_index=index)

    def transform(self, codebase: "CodeBase", *,
                  jobs: "int | str" = 1, prefilter: bool = True,
                  since=None, compile: Optional[bool] = None) -> "CodeBase":
        """Apply the whole set and return the transformed code base."""
        result = self.apply(codebase, jobs=jobs, prefilter=prefilter,
                            since=since, compile=compile)
        return CodeBase(files={name: fr.text for name, fr in result.files.items()})


def apply_patch(patch_text: str, code: str, filename: str = "<input.c>",
                options: Optional[SpatchOptions] = None) -> FileResult:
    """One-shot helper: parse ``patch_text`` and apply it to ``code``."""
    return SemanticPatch.from_string(patch_text, options=options) \
        .apply_to_source(code, filename=filename)
