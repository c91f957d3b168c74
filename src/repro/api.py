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
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .engine.cache import content_sha1
from .engine.engine import Engine
from .engine.report import FileResult, PatchResult
from .errors import PatchFileError, patch_error_line
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
        are updated, files gone from disk are removed.  Returns the
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

    def __delitem__(self, name: str) -> None:
        del self.files[name]

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
              jobs: "int | str" = 1, prefilter: bool = True) -> PatchResult:
        """Apply the patch to a whole code base; returns per-file results.

        ``jobs`` applies files in that many worker processes (``"auto"`` =
        one per CPU); ``prefilter`` skips files the required-token analysis
        proves cannot match (behaviour-preserving, on by default).  The run
        is a one-patch :class:`~repro.engine.pipeline.PatchPipeline`, so the
        result is a :class:`~repro.engine.pipeline.PipelineResult` carrying
        the timing breakdown in ``.stats``.
        """
        return PatchSet([self]).apply(codebase, jobs=jobs, prefilter=prefilter)

    def transform(self, codebase: "CodeBase", *,
                  jobs: "int | str" = 1, prefilter: bool = True) -> "CodeBase":
        """Apply the patch and return the transformed code base (the
        'replayable refactoring' workflow of the paper: the original tree is
        the maintained source of truth, the refactored copy is regenerated)."""
        result = self.apply(codebase, jobs=jobs, prefilter=prefilter)
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
                 memo=None):
        """A fresh :class:`~repro.engine.pipeline.PatchPipeline` (one per run)."""
        from .engine.pipeline import PatchPipeline

        return PatchPipeline([patch.ast for patch in self.patches],
                             options=[patch.options for patch in self.patches],
                             names=self.patch_names,
                             jobs=jobs, prefilter=prefilter, memo=memo)

    def incremental(self, *, jobs: "int | str" = 1, prefilter: bool = True,
                    memo=None):
        """A fresh :class:`~repro.engine.incremental.IncrementalPipeline`
        (one per run), for callers that drive ``run(files, since=...)``
        themselves."""
        from .engine.incremental import IncrementalPipeline

        return IncrementalPipeline([patch.ast for patch in self.patches],
                                   options=[patch.options
                                            for patch in self.patches],
                                   names=self.patch_names,
                                   jobs=jobs, prefilter=prefilter,
                                   memo=memo)

    def apply(self, codebase: "CodeBase | dict[str, str]", *,
              jobs: "int | str" = 1, prefilter: bool = True, since=None,
              memo=None):
        """Apply every patch, in order, to a whole code base in one pass.

        Returns a :class:`~repro.engine.pipeline.PipelineResult`: a
        :class:`~repro.engine.report.PatchResult` for the combined
        transformation, with the per-patch results in ``per_patch``.

        ``since`` — a prior ``PipelineResult`` — switches to
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
        files = codebase.files if isinstance(codebase, CodeBase) \
            else dict(codebase)
        if since is None:
            return self.pipeline(jobs=jobs, prefilter=prefilter,
                                 memo=memo).run(files)
        return self.incremental(jobs=jobs, prefilter=prefilter,
                                memo=memo).run(files, since=since)

    def transform(self, codebase: "CodeBase", *,
                  jobs: "int | str" = 1, prefilter: bool = True,
                  since=None) -> "CodeBase":
        """Apply the whole set and return the transformed code base."""
        result = self.apply(codebase, jobs=jobs, prefilter=prefilter,
                            since=since)
        return CodeBase(files={name: fr.text for name, fr in result.files.items()})


#: LRU bound on a :class:`PatchBuilder`: an authoring loop ships a fresh
#: SMPL revision per request (new content hash, new key), so without a
#: bound the cache would grow with every edit ever made
MAX_CACHED_PATCH_SPECS = 64


class PatchBuilder:
    """Patch specs to :class:`SemanticPatch` objects, cached by spec
    identity: the one way a named patch becomes a patch object, for the
    CLI, its ``--watch`` rebuilds and the daemon alike.

    A spec is the plain dict the daemon protocol carries:
    ``{"kind": "cookbook", "name": NAME}`` (``full_modernization`` names
    the whole cookbook), or ``{"kind": KIND, "name": NAME, "text": TEXT}``
    with ``KIND`` ``"smpl"`` or one of the machine-patch frontend kinds
    (:data:`repro.frontends.WIRE_KINDS`).  :meth:`build` keys each spec on
    its kind, name, content hash and the options, in an LRU of
    :data:`MAX_CACHED_PATCH_SPECS` specs, so an unchanged spec answers
    with the same patch objects, which carry their compiled rules and
    prefilters.  A bad spec,
    an unknown cookbook name or an unparsable text raises
    :class:`~repro.errors.PatchFileError` with a one-line
    ``name:line: message`` diagnostic.  Thread-safe: a miss parses outside
    the lock, and of two racing builds of one spec the first stored wins."""

    def __init__(self):
        self._entries: "OrderedDict[tuple, tuple[SemanticPatch, ...]]" = \
            OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:  # a store overshoots the bound by one inside it
            return len(self._entries)

    def __iter__(self) -> Iterator[tuple]:
        """The cached spec keys, least recently used first."""
        with self._lock:
            return iter(list(self._entries))

    def build(self, specs: Sequence[dict],
              options: Optional[SpatchOptions]) -> list[SemanticPatch]:
        """The ordered patch list ``specs`` name."""
        built: list[SemanticPatch] = []
        options_key = repr(options)
        for spec in specs:
            key = _spec_key(spec, options_key)
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
            if cached is None:
                cached = tuple(_parse_spec(spec, options))
                with self._lock:
                    cached = self._entries.setdefault(key, cached)
                    while len(self._entries) > MAX_CACHED_PATCH_SPECS:
                        self._entries.popitem(last=False)
            built.extend(cached)
        return built


def _spec_key(spec: dict, options_key: str) -> tuple:
    """The cache identity of one validated patch spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PatchFileError("patch specs must be objects with a 'kind' "
                             "field")
    kind, name = spec["kind"], spec.get("name")
    if name is not None and not isinstance(name, str):
        raise PatchFileError("a patch spec's 'name' must be a string")
    if kind == "cookbook":
        return ("cookbook", name, options_key)
    if kind == "smpl" or kind in _frontend_kinds():
        text = spec.get("text")
        if not isinstance(text, str):
            raise PatchFileError(f"{kind} specs need a 'text' string")
        return (kind, name, content_sha1(text), options_key)
    raise PatchFileError(f"unknown patch spec kind {kind!r}")


def _frontend_kinds() -> tuple[str, ...]:
    # imported on first use: SmPL and cookbook runs never load the frontends
    from .frontends import WIRE_KINDS

    return WIRE_KINDS


def _parse_spec(spec: dict, options: Optional[SpatchOptions],
                ) -> list[SemanticPatch]:
    """The patches one validated spec names."""
    kind = spec["kind"]
    if kind != "cookbook":
        name = spec.get("name", f"<{kind}>")
        try:
            return [SemanticPatch.from_text(spec["text"], options=options,
                                            name=name, format=kind)]
        except Exception as exc:
            raise PatchFileError(patch_error_line(name, exc)) from None
    from .cookbook import FULL_PIPELINE, builders, full_modernization_pipeline

    name = spec.get("name")
    if name == FULL_PIPELINE:
        return list(full_modernization_pipeline())
    table = builders()
    if name not in table:
        raise PatchFileError(f"unknown cookbook patch {name!r}")
    return [table[name]()]


def apply_patch(patch_text: str, code: str, filename: str = "<input.c>",
                options: Optional[SpatchOptions] = None) -> FileResult:
    """One-shot helper: parse ``patch_text`` and apply it to ``code``."""
    return SemanticPatch.from_string(patch_text, options=options) \
        .apply_to_source(code, filename=filename)
