"""Wire protocol and result serialization for the patch service.

The daemon speaks **newline-delimited JSON**: every request and every
response is one JSON object on one ``\\n``-terminated line (JSON string
escaping guarantees no literal newline can appear inside a message, and
``ensure_ascii`` keeps lone surrogates from ``surrogateescape`` file
loading transportable as ``\\udXXX`` escapes, so non-UTF-8 sources
round-trip byte-identically).

Requests are ``{"verb": ..., ...params}`` with an optional ``"id"`` and
``"trace"`` echoed back; responses are ``{"ok": true, "result": {...}}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.  The verbs —
``open_workspace``, ``sync_files``, ``apply``, ``query``, ``stats``,
``metrics``, ``ping``, ``shutdown`` — are documented on
:class:`~repro.server.service.PatchService`, which implements them.

One wire mode
-------------
A connection is strictly serial: one request, one response, in order.
The daemon reads the next request only after it has written the previous
response, so a client never needs an ``id`` to match them up.  Clients
wanting concurrency open more connections.

``hello`` carries auth and nothing else: daemons started with a
shared-secret token require ``{"verb": "hello", "token": ...}`` from
**TCP** clients before any other verb (unix-domain sockets stay auth-free
— filesystem permissions already gate them).  Failures use the stable
error types ``auth-required`` (verb before a successful hello) and
``auth-failed`` (wrong/missing token in a hello).  Its result is
``{"protocol": PROTOCOL_VERSION, "auth": "ok" | "open"}``; a hello that
asks for a protocol level is answered the same way, and its connection
stays serial.

Result payloads
---------------
``apply``/``query`` responses carry the one result schema of
:mod:`repro.engine.report` (:func:`~repro.engine.report.result_payload`),
the same payload ``repro-spatch`` renders locally; this module re-exports
it next to the canonical :func:`~repro.engine.report.dumps` the framing
writes.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Iterable, Optional

from ..api import SemanticPatch
from ..engine.report import dumps, result_payload  # noqa: F401
from ..options import SpatchOptions

#: bump on incompatible wire changes; ``open_workspace`` echoes it so a
#: version-skewed client fails loudly instead of misparsing.  v2 added the
#: ``hello`` verb and TCP token auth; every v1 message remains valid, and
#: every connection is served serially whatever its hello asked for
PROTOCOL_VERSION = 2

#: hard cap on one message line (64 MiB): a runaway or malicious client
#: must not balloon the daemon's memory with an unbounded line
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed message, address or patch spec."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

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
             "max_dots_statements", "python_scripting", "verbose"}
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
