"""Unified observability: metrics registry, span tracer, and sinks.

This package is the single aggregation point for everything the engine
and the daemon know about their own behaviour:

* :mod:`~repro.obs.registry` — a thread-safe **metrics registry**
  (counters, gauges, fixed-bucket monotonic-clock histograms), the only
  place the engine keeps a count.  Engine modules create their metric
  children at import time so the hot path pays one locked integer add;
  a :class:`~repro.obs.registry.Capture` records what one run, request
  or worker batch counted, and every per-run view (``PipelineStats``,
  ``--profile``, the ``stats`` verb) is read from one.  Worker captures
  cross fork boundaries as payloads and merge into the parent's.
* :mod:`~repro.obs.trace` — a **span tracer** carried on a contextvar.
  ``span(name)`` is a shared no-op when no trace is active (one
  contextvar read, no allocation), a real timed span otherwise; span
  trees serialize across the wire and across forks, and export as
  Chrome trace-event JSON (``repro-spatch --trace FILE``).
* :mod:`~repro.obs.journal` — a size-rotated **JSONL event journal**
  (``repro-spatchd --journal``, watch-loop iteration events).
* :mod:`~repro.obs.metrics_http` — a stdlib-only HTTP ``/metrics``
  endpoint in Prometheus text format (``repro-spatchd --metrics``).

Soundness: instrumentation only ever *times and counts* — it never
touches the text, diff, report, or exit-code computation, so a run under
an active trace and capture is byte-identical to a run under neither
(proved by the differential suites in ``tests/test_obs.py``).
"""

from __future__ import annotations

from .registry import (REGISTRY, Capture, Counter, Gauge, Histogram,
                       MetricsRegistry, merge_telemetry, phase,
                       phase_summaries)

#: the tracer's exports, loaded on first use: a run that starts no trace
#: never imports :mod:`~repro.obs.trace`
_TRACE_EXPORTS = ("current_trace_id", "new_trace_id", "span", "start_trace",
                  "tracing_active")

__all__ = [
    "REGISTRY", "Capture", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "merge_telemetry", "phase", "phase_summaries",
    *_TRACE_EXPORTS,
]


def __getattr__(name: str):
    if name not in _TRACE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trace

    return getattr(trace, name)
