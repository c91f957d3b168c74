"""Outside-in tracer: timed wrappers around each layer's public methods.

The benchmark measures the program from outside: it replaces a fixed set
of class attributes with wrappers that time each call, and puts the
originals back afterwards (:meth:`Tracer.uninstall` restores every
attribute to the identical object).  Nothing under ``src/`` knows about
it.

Each thread keeps its own span stack, so the daemon's handler threads,
the writer and the reader never nest into each other's spans.  A layer's
*self* time is a call's duration minus the time its traced callees took.
Totals stay per thread while running and are merged by :meth:`summary`.

The wrappers live on class attributes rather than module functions on
purpose: ``repro.engine.session`` binds ``parse_source`` by name at import
time, so wrapping the module function would miss those calls.  The one
module-level binding wrapped is ``result_payload`` in
``repro.server.service``, the namespace the service calls it through.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: layers whose calls count as SMPL parsing when made under
#: ``SemanticPatch.from_string`` (patch text is lexed and parsed too)
_SMPL_NESTED = ("lexer", "parser")

#: layers that run a whole patch list over a tree
_PIPELINES = ("pipeline", "incremental")


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is timed as ``layer``."""

    owner: Any
    attr: str
    layer: str
    #: ``outcome(state, frame, args, result)`` records counts after a call
    outcome: Optional[Callable] = None


class _ThreadState:
    __slots__ = ("stack", "roots", "rows", "extra", "parses", "smpl_depth")

    def __init__(self) -> None:
        #: open spans, innermost last: ``[child_seconds, layer, parses]``
        self.stack: list[list] = []
        #: ``root -> layer -> [calls, self seconds, total seconds]``, where
        #: the root names the outermost traced call (``service.query``)
        self.roots: dict[str, dict[str, list]] = {}
        #: the current root's rows
        self.rows: dict[str, list] = {}
        #: outcome counters (``cache.hits``, ``memo.lookups``, ...)
        self.extra: dict[str, float] = {}
        #: parser calls so far on this thread (cache hit detection)
        self.parses = 0
        self.smpl_depth = 0


class Tracer:
    """Installs timing wrappers on ``targets`` and aggregates their spans."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        #: bumped on every install/uninstall, so an operation can tell
        #: whether tracing stayed in one state for its whole duration
        self.epoch = 0

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for target in self.targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._saved.append((target.owner, target.attr, raw))
            setattr(target.owner, target.attr, wrapped)
        self.epoch += 1

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self.epoch += 1

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        layer = target.layer
        root = f"{layer}.{target.attr}"
        outcome = target.outcome
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if not stack:
                state.rows = state.roots.setdefault(root, {})
            rows = state.rows
            name = layer
            if layer in _SMPL_NESTED and state.smpl_depth:
                name = "smpl"
            elif layer == "smpl":
                state.smpl_depth += 1
            frame = [0.0, name, state.parses]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if layer == "smpl":
                    state.smpl_depth -= 1
                elif name == "parser":
                    state.parses += 1
                row = rows.get(name)
                if row is None:
                    row = rows[name] = [0, 0.0, 0.0]
                row[0] += name == layer  # SMPL's own lexing is not a call
                row[1] += elapsed - frame[0]
                row[2] += elapsed
            if outcome is not None and name == layer:
                outcome(state, frame, args, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Span totals over every thread seen so far (see :func:`merge`)."""
        with self._lock:
            states = list(self._states)
        return merge([{"roots": {root: dict(rows)
                                 for root, rows in list(state.roots.items())},
                       "extra": dict(state.extra)} for state in states])

    def thread_total(self, layer: str) -> float:
        """Total seconds the calling thread has spent in ``layer``."""
        return sum(rows[layer][2] for rows in self._state().roots.values()
                   if layer in rows)


def merge(summaries: list[dict]) -> dict:
    """Add up summaries: ``{"totals": {layer: [calls, self, total]},
    "roots": {root: {layer: [...]}}, "extra": {counter: value}}``, where a
    root names the outermost traced call (``service.query``)."""
    def add(into: dict, rows: dict) -> None:
        for name, row in rows.items():
            merged = into.setdefault(name, [0, 0.0, 0.0])
            for slot in range(3):
                merged[slot] += row[slot]

    roots: dict[str, dict[str, list]] = {}
    extra: dict[str, float] = {}
    for summary in summaries:
        for root, rows in summary["roots"].items():
            add(roots.setdefault(root, {}), rows)
        for key, value in summary["extra"].items():
            extra[key] = extra.get(key, 0) + value
    totals: dict[str, list] = {}
    for rows in roots.values():
        add(totals, rows)
    return {"totals": totals, "roots": roots, "extra": extra}


# ---------------------------------------------------------------------------
# what each layer counts
# ---------------------------------------------------------------------------

def _bump(state: _ThreadState, key: str, amount: float = 1) -> None:
    state.extra[key] = state.extra.get(key, 0) + amount


def _lexed(state, frame, args, result) -> None:
    _bump(state, "lexer.tokens", len(result))


def _cached(state, frame, args, result) -> None:
    if state.parses == frame[2]:
        _bump(state, "cache.hits")


def _matched(state, frame, args, result) -> None:
    if result:
        _bump(state, "match.hits")


def _planned(state, frame, args, result) -> None:
    _bump(state, "prefilter.plans")
    if not result.needs_session:
        _bump(state, "prefilter.skips")


def _looked_up(state, frame, args, result) -> None:
    _bump(state, "memo.lookups")
    if result is not None:
        _bump(state, "memo.hits")


def _diffed(state, frame, args, result) -> None:
    if result:
        _bump(state, "report.diff_work")


def _top_level(state: _ThreadState) -> bool:
    return not any(frame[1] in _PIPELINES for frame in state.stack)


def _changed_files(result) -> int:
    return sum(1 for file_result in result.files.values()
               if file_result.changed)


def _piped(state, frame, args, result) -> None:
    if _top_level(state):
        _bump(state, "run.files", len(result.files))
        _bump(state, "run.changed_files", _changed_files(result))


def _spliced(state, frame, args, result) -> None:
    stats = result.incremental
    _bump(state, "incremental.files", stats.files_total)
    _bump(state, "incremental.reused", stats.files_reused)
    if _top_level(state):
        _bump(state, "run.files", stats.files_rerun)
        _bump(state, "run.changed_files", _changed_files(result))


def _applied(state, frame, args, result) -> None:
    _bump(state, "service.applies")


def repro_targets() -> list[Target]:
    """Every wrapped attribute, outermost layers last."""
    from repro.api import SemanticPatch
    from repro.engine.cache import TreeCache
    from repro.engine.compile import CompiledRule
    from repro.engine.edits import EditSet
    from repro.engine.incremental import IncrementalPipeline
    from repro.engine.memo import TransformMemo
    from repro.engine.pipeline import PatchPipeline
    from repro.engine.prefilter import PatchPrefilter, TokenQuery
    from repro.engine.report import FileResult
    from repro.engine.scripting import ScriptRunner
    from repro.engine.session import FileSession
    from repro.engine.transform import Transformer
    from repro.lang.lexer import Lexer
    from repro.lang.parser import CParser
    from repro.server import service
    from repro.server.client import RemoteClient
    from repro.server.fleet import ApplyFleet

    return [
        Target(Lexer, "tokenize", "lexer", _lexed),
        Target(CParser, "parse_translation_unit", "parser"),
        Target(TreeCache, "get_or_parse", "cache", _cached),
        Target(TokenQuery, "scan", "prefilter"),
        Target(PatchPrefilter, "plan_for", "prefilter", _planned),
        Target(CompiledRule, "__init__", "compile"),
        Target(CompiledRule, "match_all", "match", _matched),
        Target(Transformer, "apply_instance", "transform"),
        Target(EditSet, "apply", "edits"),
        Target(ScriptRunner, "run_script", "scripting"),
        Target(FileSession, "run", "session"),
        Target(PatchPipeline, "run", "pipeline", _piped),
        Target(IncrementalPipeline, "run", "incremental", _spliced),
        Target(TransformMemo, "lookup", "memo", _looked_up),
        Target(TransformMemo, "store", "memo"),
        Target(FileResult, "diff", "report", _diffed),
        Target(service, "result_payload", "protocol"),
        Target(service.PatchService, "apply", "service", _applied),
        Target(service.PatchService, "query", "service"),
        Target(service.PatchService, "sync_files", "service"),
        Target(ApplyFleet, "call", "fleet"),
        Target(RemoteClient, "request", "client"),
        Target(SemanticPatch, "from_string", "smpl"),
    ]


def smpl_targets() -> list[Target]:
    """Only SMPL parsing: what the loop workloads trace during set-up."""
    return [target for target in repro_targets() if target.layer == "smpl"]
