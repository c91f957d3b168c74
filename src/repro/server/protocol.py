"""Wire protocol and result serialization for the patch service.

The daemon speaks **newline-delimited JSON**: every request and every
response is one JSON object on one ``\\n``-terminated line (JSON string
escaping guarantees no literal newline can appear inside a message, and
``ensure_ascii`` keeps lone surrogates from ``surrogateescape`` file
loading transportable as ``\\udXXX`` escapes, so non-UTF-8 sources
round-trip byte-identically).

Requests are ``{"verb": ..., ...params}`` with an optional ``"id"`` echoed
back; responses are ``{"ok": true, "result": {...}}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.  The verbs —
``open_workspace``, ``sync_files``, ``apply``, ``query``, ``stats``,
``ping``, ``shutdown`` — are documented on
:class:`~repro.server.service.PatchService`, which implements them.

Protocol versions
-----------------
**v1** (the default a bare connection starts in) is strictly serial per
connection: one request, one response, in order — ``id`` is optional and
merely echoed.  **v2** is negotiated by a ``hello`` verb
(``{"verb": "hello", "protocol": 2, "token": ...}``) and unlocks
*pipelining*: the client may send any number of id-tagged requests without
waiting, and responses come back **out of order**, correlated by ``id``.
Ordering guarantee under v2: requests that *mutate* a workspace
(``open_workspace``/``sync_files``/``apply``) execute FIFO per
``(connection, workspace)`` — a pipelined sync-then-apply is always seen
in that order — while read-only verbs (``query``/``stats``/``ping``)
dispatch immediately and never queue behind a slow apply.  A v1 client
(no ``hello``) gets the exact v1 contract from a v2 daemon; a v2 client
probing an old daemon gets a ``bad-verb`` error for the ``hello`` and
falls back to v1.

``hello`` also carries auth: daemons started with a shared-secret token
require it from **TCP** clients before any other verb (unix-domain
sockets stay auth-free — filesystem permissions already gate them).
Failures use the stable error types ``auth-required`` (verb before a
successful hello) and ``auth-failed`` (wrong/missing token in a hello).

Result payloads
---------------
:func:`result_payload` renders an application result (a
:class:`~repro.engine.report.PatchResult` or
:class:`~repro.engine.pipeline.PipelineResult`) into the one JSON schema
shared by ``repro-spatch --json`` and the server's ``apply``/``query``
responses, so local and remote runs are comparable byte-for-byte.  The
payload is split into a **deterministic core** — texts, diffs, per-rule
reports, summaries, exit status, everything two byte-identical runs agree
on — and a volatile ``"profile"`` section (timings, cache counters,
reuse breakdowns) that is only attached on request and never part of
parity comparisons.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Iterable, Optional, Sequence

from ..api import SemanticPatch
from ..options import SpatchOptions

#: bump on incompatible wire changes; ``open_workspace`` echoes it so a
#: version-skewed client fails loudly instead of misparsing.  v2 adds the
#: negotiated ``hello`` verb, request-id pipelining and TCP token auth;
#: every v1 message remains valid v2, so un-negotiated connections are
#: served exactly as before
PROTOCOL_VERSION = 2

#: schema tag of the result payload (shared by ``--json`` and the server)
RESULT_SCHEMA = "repro-spatch-result/1"

#: hard cap on one message line (64 MiB): a runaway or malicious client
#: must not balloon the daemon's memory with an unbounded line
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed message, address or patch spec."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def dumps(payload: dict) -> str:
    """One canonical JSON line (sorted keys, compact separators, ASCII-only
    so surrogates survive the socket): byte-for-byte comparable output."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def write_message(stream: BinaryIO, payload: dict) -> None:
    stream.write(dumps(payload).encode("ascii") + b"\n")
    stream.flush()


def read_message(stream: BinaryIO) -> Optional[dict]:
    """The next message on ``stream``, or ``None`` on a clean EOF.  Raises
    :class:`ProtocolError` on oversized, truncated or non-JSON lines."""
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated message (connection died mid-line?)")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message is not a JSON object")
    return payload


def parse_address(spec: str) -> tuple[str, object]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address
    string: ``unix:/run/spatchd.sock`` (or any spec containing a ``/``) is
    a unix-domain socket, ``host:port`` / ``:port`` is TCP."""
    if spec.startswith("unix:"):
        return "unix", spec[len("unix:"):]
    if spec.startswith("tcp:"):
        spec = spec[len("tcp:"):]
    elif "/" in spec:
        return "unix", spec
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ProtocolError(
            f"bad address {spec!r}; expected unix:PATH or HOST:PORT")
    return "tcp", (host or "127.0.0.1", int(port))


# ---------------------------------------------------------------------------
# patch specs and options on the wire
# ---------------------------------------------------------------------------

def patch_specs(patches: Iterable[SemanticPatch]) -> list[dict]:
    """Wire specs for already-parsed patches: each ships as inline source
    text — SMPL, or the patch's frontend format (JSON ops / 'ap' / blocks)
    when it was parsed by one — and the server re-parses, so client and
    server never need a shared filesystem.  Programmatically built patches
    without source text cannot cross the wire."""
    specs = []
    for patch in patches:
        if not patch.ast.source_text:
            raise ProtocolError(
                f"patch {patch.name!r} has no source text; "
                f"programmatic patches cannot be sent to a server")
        kind = getattr(patch.ast, "format", None) or "smpl"
        specs.append({"kind": kind, "name": patch.name,
                      "text": patch.ast.source_text})
    return specs


def options_payload(options: SpatchOptions) -> dict:
    """The wire form of :class:`~repro.options.SpatchOptions` (only fields
    the CLI can set travel; patch-embedded option lines are re-derived
    server-side from the SMPL text)."""
    return {"cxx": options.cxx,
            "apply_isomorphisms": options.apply_isomorphisms,
            "verbose": options.verbose}


def options_from_payload(payload: Optional[dict]) -> Optional[SpatchOptions]:
    if not payload:
        return None
    known = {"cxx", "extra_types", "attribute_names", "apply_isomorphisms",
             "max_dots_statements", "python_scripting",
             "diff_context_lines", "verbose"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(f"unknown option field(s): {sorted(unknown)}")
    kwargs = dict(payload)
    for key in ("extra_types", "attribute_names"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    try:
        return SpatchOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad options: {exc}") from None


# ---------------------------------------------------------------------------
# result payloads
# ---------------------------------------------------------------------------

def nonguard_matches(patch: SemanticPatch, patch_result) -> int:
    """Match count excluding the patch's idempotence-guard rules (guard
    matches mean "already modernized, stood down", not "applied")."""
    guards = patch.ast.guard_rule_names()
    return sum(report.matches
               for file_result in patch_result
               for report in file_result.rule_reports
               if report.rule not in guards)


def per_patch_pairs(result, patches: Sequence[SemanticPatch]):
    """``(patch, its PatchResult)`` pairs of a pipeline result, which carries
    one per-patch view per applied patch."""
    return list(zip(patches, result.per_patch))


def exit_status(result, patches: Sequence[SemanticPatch]) -> int:
    """The spatch-convention exit code for an application result: 0 when any
    patch matched at a non-guard rule, 1 otherwise (usage errors never get
    this far).  Identical to the local CLI's computation by construction."""
    matched = any(nonguard_matches(patch, patch_result) > 0
                  for patch, patch_result in per_patch_pairs(result, patches))
    return 0 if matched else 1


def _file_payload(file_result, include_diff: bool,
                  include_texts: bool) -> dict:
    payload: dict = {
        "changed": file_result.changed,
        "matches": file_result.total_matches,
        "rules": [{"rule": r.rule, "matches": r.matches,
                   "deletions": r.deletions, "insertions": r.insertions}
                  for r in file_result.rule_reports],
    }
    if include_diff and file_result.changed:
        payload["diff"] = file_result.diff()
    if include_texts and file_result.changed:
        payload["text"] = file_result.text
    return payload


def result_payload(result, patches: Sequence[SemanticPatch], *,
                   include_diff: bool = True,
                   include_texts: bool = False) -> dict:
    """The shared ``--json``/server serialization of one application result.

    Deterministic by construction: no timings, no cache traffic, no reuse
    breakdown — a warm incremental server run and a cold local run over the
    same inputs produce byte-identical payloads (attach the volatile bits
    via :func:`profile_payload` under the separate ``"profile"`` key)."""
    code = exit_status(result, patches)
    payload = {
        "schema": RESULT_SCHEMA,
        "exit_status": code,
        "matched": code == 0,
        "patches": [patch.name for patch in patches],
        "summary": result.summary(),
        "files": {name: _file_payload(file_result, include_diff,
                                      include_texts)
                  for name, file_result in result.files.items()},
        "per_patch": [dict(patch=patch.name, **patch_result.summary())
                      for patch, patch_result
                      in per_patch_pairs(result, patches)],
    }
    return payload


def profile_payload(result, counts, *, cache=None, token_index=None,
                    memo=None) -> dict:
    """The volatile companion of :func:`result_payload`: timings and
    coverage from the run's stats, the incremental reuse breakdown, and —
    from ``counts``, the run's :class:`~repro.obs.registry.Capture` — the
    cache/prefilter/memo/matcher traffic and per-phase wall times of that
    run alone (pass the :class:`~repro.engine.cache.TreeCache` / token
    index / :class:`~repro.engine.memo.TransformMemo` actually used; their
    sizes ride along)."""
    from ..engine.compile import matcher_counters

    payload: dict = {}
    stats = getattr(result, "stats", None)
    if stats is not None:
        payload["stats"] = stats.as_dict()
    incremental = getattr(result, "incremental", None)
    if incremental is not None:
        payload["incremental"] = incremental.as_dict()
    if cache is not None:
        payload["parse_cache"] = cache.counters(counts)
    if token_index is not None:
        payload["token_index"] = token_index.counters(counts)
    if memo is not None:
        payload["memo"] = memo.counters(counts)
    payload["matcher"] = matcher_counters(counts)
    # per-phase wall-time histograms (parse, prefilter, match, transform,
    # memo, splice, sync) — only phases that observed something appear
    phases = counts.phases()
    if phases:
        payload["phases"] = phases
    return payload
