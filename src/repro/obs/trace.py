"""A lightweight span tracer carried on a :mod:`contextvars` variable.

A **trace** is one tree of timed spans identified by a ``trace_id``
(16 hex chars, client-generated for wire requests).  Starting a trace
(:func:`start_trace`) plants the root span in the current context;
:func:`span` then opens nested child spans wherever the engine crosses a
phase boundary.  When *no* trace is active, ``span()`` returns one
shared no-op context manager — the off-path cost is a single contextvar
read and no allocation, which is what makes instrumenting the engine
unconditionally safe.

Timings use :func:`time.perf_counter_ns` (``CLOCK_MONOTONIC`` on
Linux — system-wide, so spans recorded in forked workers interleave
correctly with the parent's).  Span trees serialize to plain dicts
(:meth:`Span.to_payload`) for the fork/result channel and render as
Chrome trace-event JSON (:func:`chrome_trace_events`) for
``repro-spatch --trace FILE`` — load the file at ``chrome://tracing``
or https://ui.perfetto.dev.
"""

from __future__ import annotations

import contextvars
import os
import uuid
from time import perf_counter_ns
from typing import Iterator, Optional

#: the innermost open Span of the active trace, or None when tracing is off
_CURRENT: contextvars.ContextVar[Optional["Span"]] = \
    contextvars.ContextVar("repro_obs_span", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "start_ns", "end_ns",
                 "children", "meta")

    def __init__(self, name: str, trace_id: str) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = uuid.uuid4().hex[:8]
        self.start_ns = perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.children: list[Span] = []
        self.meta: dict = {}

    def finish(self) -> None:
        if self.end_ns is None:
            self.end_ns = perf_counter_ns()

    def to_payload(self) -> dict:
        """JSON-serializable form for the wire / fork result channel."""
        payload = {"name": self.name, "span_id": self.span_id,
                   "start_ns": self.start_ns,
                   "end_ns": self.end_ns
                   if self.end_ns is not None else perf_counter_ns()}
        if self.meta:
            payload["meta"] = dict(self.meta)
        if self.children:
            payload["children"] = [c.to_payload() for c in self.children]
        return payload

    def graft_payload(self, payload: dict) -> None:
        """Attach a serialized span tree (from a worker) as a child."""
        child = Span(payload.get("name", "worker"), self.trace_id)
        child.span_id = payload.get("span_id", child.span_id)
        child.start_ns = payload.get("start_ns", child.start_ns)
        child.end_ns = payload.get("end_ns", child.start_ns)
        child.meta = dict(payload.get("meta") or {})
        self.children.append(child)
        for sub in payload.get("children") or ():
            child.graft_payload(sub)


class Tracer:
    """Owns one trace: the root span plus the contextvar token that
    deactivates it on :meth:`finish`."""

    def __init__(self, name: str = "run",
                 trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.root = Span(name, self.trace_id)
        self._token = _CURRENT.set(self.root)

    def finish(self) -> Span:
        self.root.finish()
        try:
            _CURRENT.reset(self._token)
        except ValueError:  # finished from a different context; just clear
            _CURRENT.set(None)
        return self.root


def start_trace(name: str = "run",
                trace_id: Optional[str] = None) -> Tracer:
    """Begin a trace in the current context and return its
    :class:`Tracer` (callers own calling ``finish()``)."""
    return Tracer(name, trace_id)


def tracing_active() -> bool:
    return _CURRENT.get() is not None


def current_trace_id() -> Optional[str]:
    current = _CURRENT.get()
    return current.trace_id if current is not None else None


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _SpanContext:
    __slots__ = ("_name", "_span", "_token")

    def __init__(self, name: str) -> None:
        self._name = name
        self._span: Optional[Span] = None
        self._token = None

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        span = Span(self._name, parent.trace_id if parent else "")
        if parent is not None:
            parent.children.append(span)
        self._span = span
        self._token = _CURRENT.set(span)
        return span

    def __exit__(self, *exc) -> bool:
        self._span.finish()
        try:
            _CURRENT.reset(self._token)
        except ValueError:  # crossed a context boundary; restore parent-less
            _CURRENT.set(None)
        return False


def span(name: str):
    """A context manager recording one child span under the active trace,
    or the shared no-op when no trace is active."""
    if _CURRENT.get() is None:
        return _NOOP
    return _SpanContext(name)


def graft_payloads(payloads) -> None:
    """Attach serialized worker span trees under the current span (no-op
    when tracing is off)."""
    current = _CURRENT.get()
    if current is None or not payloads:
        return
    for payload in payloads:
        if payload:
            current.graft_payload(payload)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

def _walk(payload: dict, depth: int = 0) -> Iterator[tuple[dict, int]]:
    yield payload, depth
    for child in payload.get("children") or ():
        yield from _walk(child, depth + 1)


def chrome_trace_events(payload: dict) -> list[dict]:
    """Flatten a serialized span tree into Chrome trace-event ``"X"``
    (complete) events; ``ts``/``dur`` are microseconds from the trace
    root, as the trace viewer expects."""
    origin = payload.get("start_ns", 0)
    events = []
    pid = os.getpid()
    for node, depth in _walk(payload):
        start = node.get("start_ns", origin)
        end = node.get("end_ns", start)
        event = {"name": node.get("name", "span"), "ph": "X",
                 "ts": (start - origin) / 1000.0,
                 "dur": max(0.0, (end - start) / 1000.0),
                 "pid": pid, "tid": 1,
                 "args": dict(node.get("meta") or {})}
        events.append(event)
    return events
