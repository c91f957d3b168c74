"""A thread-safe metrics registry: counters, gauges, and fixed-bucket
monotonic-clock histograms, plus scoped captures of what they recorded.

Design notes
------------
*Children are the only counters.*  A *family* is one metric name with one
type and help string; a *child* is one labelled time series inside it.
Engine modules fetch their children once at import time
(``_HITS = REGISTRY.counter(...)``) and every event increments exactly one
child: one ``threading.Lock`` acquire and an integer add.  Objects such as
caches and memos keep only their sizes; every count lives here.

*Views are scoped captures.*  A :class:`Capture` is a context manager that
records every counter increment and histogram observation made in its own
context (a contextvar, so requests running on other threads stay out).  On
exit it folds into any enclosing capture.  A pipeline run, a server
request, a fork-pool batch and a fleet job each open one, and everything
they report — ``PipelineStats`` counts, the ``--profile`` sections, the
``stats`` verb's totals — is read from a capture, so the numbers of one
request agree wherever they are shown.

*Captures cross fork boundaries.*  A worker batch ships its capture's
:meth:`~Capture.payload` home; the parent folds it in with
:func:`merge_telemetry` under an ``origin`` label, inside the parent
request's own capture.  :meth:`Capture.total` and
:meth:`MetricsRegistry.total` sum a child over every ``origin``.

Instrumentation never touches output bytes: it only counts and times.
"""

from __future__ import annotations

import os
import sys
import threading
from bisect import bisect_left
from contextvars import ContextVar
from time import perf_counter
from typing import Dict, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: histogram bucket upper bounds, in seconds (the +Inf bucket is implicit)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: the span/histogram phase vocabulary shared by tracer and registry
PHASES = ("parse", "prefilter", "match", "transform", "memo",
          "splice", "sync")

#: the innermost open :class:`Capture` of the current context
_ACTIVE: ContextVar[Optional["Capture"]] = ContextVar("repro_capture",
                                                      default=None)


# ---------------------------------------------------------------------------
# metric children
# ---------------------------------------------------------------------------

class _Child:
    """One labelled series of the family ``name``."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount
        capture = _ACTIVE.get()
        if capture is not None:
            counters = capture.counters
            counters[self] = counters.get(self, 0) + amount


class Gauge(_Child):
    """A value that can go up and down (the workspace count)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


def summarize(state: dict) -> dict:
    """count / sum / mean plus bucket-interpolated p50/p90/p99 of one
    histogram :meth:`~Histogram.state` — what the bench JSON records per
    phase."""
    count = state["count"]
    result = {"count": count, "sum": round(state["sum"], 6)}
    if not count:
        return result
    result["mean"] = round(state["sum"] / count, 6)
    bounds = list(state["buckets"]) + [float("inf")]
    for quantile in (0.5, 0.9, 0.99):
        target = quantile * count
        running = 0
        for bound, bucket_count in zip(bounds, state["counts"]):
            running += bucket_count
            if running >= target:
                value = bound if bound != float("inf") \
                    else state["buckets"][-1]
                result[f"p{int(quantile * 100)}"] = value
                break
    return result


class Histogram:
    """Fixed-bucket histogram over seconds, fed from the monotonic clock
    (callers time with :func:`time.perf_counter`, never wall clock)."""

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                 name: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
        capture = _ACTIVE.get()
        if capture is not None:
            row = capture.row(self)
            row[0][index] += 1
            row[1] += value
            row[2] += 1

    def state(self) -> dict:
        """A JSON-serializable snapshot (used for payloads and summaries)."""
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's state in (a worker's captured
        observations); bucket layouts must match — one family, one
        layout."""
        counts, total, number = state["counts"], state["sum"], state["count"]
        with self._lock:
            for index, extra in enumerate(counts):
                self._counts[index] += extra
            self._sum += total
            self._count += number
        capture = _ACTIVE.get()
        if capture is not None:
            capture.merged(self, counts, total, number)

    def summary(self) -> dict:
        return summarize(self.state())


# ---------------------------------------------------------------------------
# scoped captures
# ---------------------------------------------------------------------------

def _covers(child, name: str, labels: LabelItems) -> bool:
    return child.name == name and all(item in child.labels
                                      for item in labels)


class Capture:
    """Every counter increment and histogram observation made in this
    capture's context while it is open (see the module docstring).

    Usage::

        with Capture() as counts:
            ...                      # run something
        counts.total(_HITS)          # what it counted, over every origin
        counts.payload()             # the JSON form a worker ships home

    A capture is recorded into by one context only; :meth:`add` folds
    finished captures into a long-lived one (a workspace's or a service's
    running totals) and is safe from any thread."""

    __slots__ = ("counters", "histograms", "_token", "_lock")

    def __init__(self) -> None:
        #: child -> amount counted
        self.counters: Dict[Counter, int] = {}
        #: child -> ``[bucket counts, sum, count]`` observed
        self.histograms: Dict[Histogram, list] = {}
        self._token = None
        self._lock = threading.Lock()

    def __enter__(self) -> "Capture":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.reset(self._token)
        outer = _ACTIVE.get()
        if outer is not None:
            outer._fold(self)
        return False

    # -- recording (the open context only) ----------------------------------

    def row(self, histogram: Histogram) -> list:
        """``histogram``'s ``[bucket counts, sum, count]`` in this capture."""
        row = self.histograms.get(histogram)
        if row is None:
            row = self.histograms[histogram] = [
                [0] * (len(histogram.buckets) + 1), 0.0, 0]
        return row

    def merged(self, histogram: Histogram, counts: list, total: float,
               number: int) -> None:
        row = self.row(histogram)
        for index, extra in enumerate(counts):
            row[0][index] += extra
        row[1] += total
        row[2] += number

    def _fold(self, other: "Capture") -> None:
        counters = self.counters
        for child, amount in other.counters.items():
            counters[child] = counters.get(child, 0) + amount
        for histogram, (counts, total, number) in other.histograms.items():
            self.merged(histogram, counts, total, number)

    def add(self, other: "Capture") -> None:
        """Fold a finished capture into this one (thread-safe)."""
        with self._lock:
            self._fold(other)

    # -- reading -------------------------------------------------------------

    def total(self, child) -> int:
        """What ``child`` counted here, summed over every ``origin`` (the
        same series merged from workers carries an extra label)."""
        name, labels = child.name, child.labels
        with self._lock:
            return sum(amount for counted, amount in self.counters.items()
                       if _covers(counted, name, labels))

    def phases(self) -> dict:
        """Per-phase summaries of the ``repro_phase_seconds`` observations
        made here, over every origin; only phases that observed something
        appear."""
        merged = Capture()
        with self._lock:
            for histogram, row in self.histograms.items():
                if histogram.name == _PHASE_FAMILY:
                    phase_name = dict(histogram.labels)["phase"]
                    merged.merged(_PHASE_HISTOGRAMS[phase_name], *row)
        return {name: summarize(_state(histogram, row))
                for name, histogram in _PHASE_HISTOGRAMS.items()
                if (row := merged.histograms.get(histogram)) and row[2]}

    def payload(self) -> dict:
        """The JSON-serializable form a worker ships home:
        ``{"counters": {key: amount}, "histograms": {key: state}}`` keyed
        ``name{labels}``."""
        with self._lock:
            return {
                "counters": {child.name + _label_suffix(child.labels): amount
                             for child, amount in self.counters.items()
                             if amount},
                "histograms": {
                    histogram.name + _label_suffix(histogram.labels):
                        _state(histogram, row)
                    for histogram, row in self.histograms.items() if row[2]}}


def _state(histogram: Histogram, row: list) -> dict:
    """A capture row of ``histogram`` in :meth:`Histogram.state` form."""
    counts, total, number = row
    return {"buckets": list(histogram.buckets), "counts": list(counts),
            "sum": total, "count": number}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

class _Family:
    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelItems, object] = {}


def _label_items(labels: Optional[dict]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in items)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class MetricsRegistry:
    """Thread-safe registry of metric families; see the module docstring
    for the design."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- child access --------------------------------------------------------

    def _child(self, name: str, kind: str, help_text: str,
               labels: Optional[dict], factory) -> object:
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            child = family.children.get(items)
            if child is None:
                child = factory(name, items)
                family.children[items] = child
            return child

    def counter(self, name: str, help_text: str = "",
                **labels: str) -> Counter:
        return self._child(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._child(name, "histogram", help_text, labels,
                           lambda name, items: Histogram(buckets, name,
                                                         items))

    def total(self, child) -> int:
        """The process-wide count of ``child``, summed over every
        ``origin`` (the same reading :meth:`Capture.total` gives for one
        scope)."""
        with self._lock:
            family = self._families.get(child.name)
            siblings = list(family.children.values()) if family else []
        return sum(sibling.value for sibling in siblings
                   if _covers(sibling, child.name, child.labels))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every family as plain JSON-ready data:
        ``{name: {"type", "help", "samples": {label-suffix: value}}}``
        with histogram samples as their :meth:`~Histogram.state`."""
        out: dict = {}
        with self._lock:
            families = [(f.name, f.kind, f.help, dict(f.children))
                        for f in self._families.values()]
        for name, kind, help_text, children in families:
            samples = {}
            for items, child in children.items():
                key = _label_suffix(items)
                if isinstance(child, Histogram):
                    samples[key] = child.state()
                else:
                    samples[key] = child.value
            out[name] = {"type": kind, "help": help_text, "samples": samples}
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            family = snapshot[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['type']}")
            for suffix in sorted(family["samples"]):
                value = family["samples"][suffix]
                if isinstance(value, dict):  # histogram state
                    base = suffix[1:-1] if suffix else ""
                    running = 0
                    bounds = list(value["buckets"]) + [float("inf")]
                    for bound, count in zip(bounds, value["counts"]):
                        running += count
                        label = "+Inf" if bound == float("inf") else repr(bound)
                        joined = f'le="{label}"' if not base \
                            else f'{base},le="{label}"'
                        lines.append(f"{name}_bucket{{{joined}}} {running}")
                    lines.append(f"{name}_sum{suffix} {value['sum']}")
                    lines.append(f"{name}_count{suffix} {value['count']}")
                else:
                    lines.append(f"{name}{suffix} {_format_number(value)}")
        return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: the process-global registry every module instruments against
REGISTRY = MetricsRegistry()


def _free_locks_after_fork() -> None:
    """A fork copies the locks other threads held at that instant, so a
    forked worker's first increment of such a child would deadlock: give
    the child process fresh, free locks."""
    REGISTRY._lock = threading.Lock()
    for family in REGISTRY._families.values():
        for child in family.children.values():
            child._lock = threading.Lock()


os.register_at_fork(after_in_child=_free_locks_after_fork)


# ---------------------------------------------------------------------------
# phase timing (histograms + spans in one call)
# ---------------------------------------------------------------------------

_PHASE_FAMILY = "repro_phase_seconds"

_PHASE_HISTOGRAMS: Dict[str, Histogram] = {
    name: REGISTRY.histogram(
        _PHASE_FAMILY,
        "Wall seconds per engine phase (monotonic clock)", phase=name)
    for name in PHASES}


class _Phase:
    __slots__ = ("_histogram", "_span", "_start")

    def __init__(self, histogram: Histogram, span_cm) -> None:
        self._histogram = histogram
        self._span = span_cm
        self._start = 0.0

    def __enter__(self):
        if self._span is not None:
            self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._histogram.observe(perf_counter() - self._start)
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


_TRACE_MODULE = f"{__package__}.trace"


def phase(name: str):
    """Time one engine phase (one of :data:`PHASES`): observe the
    ``repro_phase_seconds`` family and, when a trace is active, record a
    span of the same name."""
    # a trace is started through repro.obs.trace: before that module is
    # loaded no trace can be active, and a plain run never loads it
    trace = sys.modules.get(_TRACE_MODULE)
    span_cm = trace.span(name) \
        if trace is not None and trace.tracing_active() else None
    return _Phase(_PHASE_HISTOGRAMS[name], span_cm)


def phase_summaries() -> dict:
    """Process-wide per-phase histogram summaries (count/sum/mean/p50/p90/
    p99) — what the bench JSON and the ``metrics`` verb expose."""
    return {name: _PHASE_HISTOGRAMS[name].summary()
            for name in PHASES if _PHASE_HISTOGRAMS[name].state()["count"]}


# ---------------------------------------------------------------------------
# fork-boundary merges
# ---------------------------------------------------------------------------

def _split_key(key: str) -> tuple[str, dict]:
    """``name{a="b"}`` back into ``(name, {"a": "b"})``."""
    if "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: dict = {}
    for part in raw.rstrip("}").split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value.strip('"')
    return name, labels


def merge_telemetry(payload: Optional[dict], *,
                    origin: str = "workers") -> None:
    """Fold a worker's :meth:`Capture.payload` into this process: each
    counter and histogram lands on its family tagged ``origin=<origin>``,
    and — like any other increment — in the caller's open capture."""
    if not payload:
        return
    for key, moved in (payload.get("counters") or {}).items():
        name, labels = _split_key(key)
        labels["origin"] = origin
        REGISTRY.counter(name, **labels).inc(int(moved))
    for key, state in (payload.get("histograms") or {}).items():
        name, labels = _split_key(key)
        labels["origin"] = origin
        histogram = REGISTRY.histogram(
            name, buckets=tuple(state.get("buckets") or DEFAULT_BUCKETS),
            **labels)
        histogram.merge_state(state)
