"""``spatchd``: the socket layer over :class:`~repro.server.service.PatchService`.

One daemon process serves any number of clients over a unix-domain or TCP
socket (``socketserver.ThreadingMixIn``: one thread per connection —
per-workspace consistency is the service's job, not the socket layer's).
Framing is newline-delimited JSON (see :mod:`repro.server.protocol`).

Every connection is served the same way: read one request, run it, write
its one response, repeat.  A client that wants two requests in flight
opens two connections; each gets its own handler thread, so a ``stats``
or ``query`` on one is answered while an ``apply`` on another runs.

``hello`` is the shared-secret **auth** handshake and nothing else: a
daemon started with a token refuses every other verb on TCP connections
until a hello presents the right token (``auth-required``/``auth-failed``
error types).  Unix-domain sockets stay auth-free — filesystem
permissions already gate them — so local clients never need a hello.

Failure isolation: a request that cannot be parsed, names an unknown verb,
or raises inside the service is answered with an ``ok: false`` envelope
(or, for undecodable framing, dropped with the connection) — the daemon
itself and every other client's workspace state stay up.  A client that
dies mid-line just ends its own connection; nothing it half-sent is ever
executed, because execution starts only after a full line parses.
"""

from __future__ import annotations

import hmac
import os
import socket
import socketserver
import sys
import threading
import time
import traceback
from typing import Optional

from ..obs.journal import Journal, open_journal
from .protocol import (PROTOCOL_VERSION, ProtocolError, read_message,
                       write_message, parse_address)
from .service import PatchService, ServiceError

#: request fields every verb accepts besides its own parameters; ``trace``
#: is the client-generated request trace id, echoed verbatim in the
#: response (success *and* error envelopes) and stamped on journal events
_ENVELOPE_FIELDS = {"verb", "id", "trace"}

#: verb -> (service method, parameter names allowed on the wire)
_VERBS = {
    "open_workspace": ("open_workspace",
                       {"workspace", "root", "watch", "watch_interval"}),
    "sync_files": ("sync_files", {"workspace", "files", "remove", "hashes"}),
    "apply": ("apply", {"workspace", "patches", "options", "jobs",
                        "prefilter", "diff", "texts", "profile"}),
    "query": ("query", {"workspace", "patches", "options", "jobs",
                        "prefilter", "profile"}),
    "stats": ("stats", {"workspace"}),
    "metrics": ("metrics", set()),
    "ping": ("ping", set()),
    "shutdown": (None, set()),
}


def _envelope(request: dict) -> dict:
    """The ``id``/``trace`` fields a response echoes back verbatim —
    including error envelopes, so a client can always correlate a failure
    with the request (and trace) that caused it."""
    return {key: request[key] for key in ("id", "trace") if key in request}


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: one request, one response, in order."""

    def setup(self) -> None:
        super().setup()
        #: whether this connection may use non-hello verbs (TCP + token
        #: daemons start locked; unix and token-less daemons start open)
        self.authed = not self.server.requires_auth

    def handle(self) -> None:
        while True:
            try:
                request = read_message(self.rfile)
            except ProtocolError as exc:
                # framing is unrecoverable mid-stream: answer once and hang up
                self._respond({"ok": False, "error": {
                    "type": "protocol", "message": str(exc)}})
                return
            if request is None:
                return  # clean EOF
            shutdown = False
            if request.get("verb") == "hello":
                response = self._hello(request)
            elif not self.authed:
                response = {**_envelope(request), "ok": False, "error": {
                    "type": "auth-required",
                    "message": "this daemon requires a hello with "
                               "the shared-secret token first"}}
            else:
                response, shutdown = self.server.dispatch(request)
            if not self._respond(response) or shutdown:
                return

    def _hello(self, request: dict) -> dict:
        """Check the shared-secret token (TCP daemons started with one);
        on any other connection a hello is a no-op that always succeeds."""
        envelope = _envelope(request)
        if self.server.requires_auth:
            token = request.get("token")
            if not (isinstance(token, str)
                    and hmac.compare_digest(token, self.server.auth_token)):
                return {**envelope, "ok": False, "error": {
                    "type": "auth-failed",
                    "message": "bad or missing auth token"}}
            self.authed = True
        return {**envelope, "ok": True, "result": {
            "protocol": PROTOCOL_VERSION,
            "auth": "ok" if self.server.requires_auth else "open"}}

    def _respond(self, response: dict) -> bool:
        try:
            write_message(self.wfile, response)
            return True
        except (BrokenPipeError, ConnectionResetError, ValueError, OSError):
            return False  # client died mid-request; its problem only


class _DaemonMixin:
    """Verb dispatch shared by the TCP and unix server classes."""

    daemon_threads = True  # a stuck handler must not block process exit
    block_on_close = False  # an idle connection must not block server_close
    allow_reuse_address = True

    service: PatchService
    verbose: bool = False
    #: shared-secret for TCP clients (``None`` = open); unix is always open
    auth_token: Optional[str] = None
    requires_auth: bool = False
    #: structured JSONL request journal (``--journal``); ``None`` = off
    journal: Optional[Journal] = None
    #: slow-request threshold in milliseconds (``--slow-ms``); ``None`` = off
    slow_ms: Optional[float] = None

    def dispatch(self, request: dict) -> tuple[dict, bool]:
        """``(response, shutdown?)`` for one request envelope."""
        started = time.monotonic()
        response, shutdown = self._execute(request)
        self._log_request(request, response, time.monotonic() - started)
        return response, shutdown

    def _log_request(self, request: dict, response: dict,
                     elapsed: float) -> None:
        """One journal event per request (plus a stderr line past the
        ``--slow-ms`` threshold); entirely absent without either flag."""
        duration_ms = elapsed * 1000.0
        slow = self.slow_ms is not None and duration_ms >= self.slow_ms
        if self.journal is None and not slow:
            return
        error = response.get("error") or None
        if self.journal is not None:
            self.journal.emit(
                "slow_request" if slow else "request",
                verb=request.get("verb"), workspace=request.get("workspace"),
                id=request.get("id"), trace=request.get("trace"),
                ok=bool(response.get("ok")),
                duration_ms=round(duration_ms, 3),
                error_type=error.get("type") if error else None)
        if slow:
            trace = request.get("trace")
            print(f"spatchd: slow request: {request.get('verb')} took "
                  f"{duration_ms:.1f}ms"
                  + (f" trace={trace}" if trace else ""),
                  file=sys.stderr, flush=True)

    def _execute(self, request: dict) -> tuple[dict, bool]:
        envelope = _envelope(request)
        verb = request.get("verb")
        if verb not in _VERBS:
            return {**envelope, "ok": False, "error": {
                "type": "bad-verb",
                "message": f"unknown verb {verb!r}; expected one of "
                           f"{', '.join(sorted(_VERBS))}"}}, False
        method_name, allowed = _VERBS[verb]
        unknown = set(request) - allowed - _ENVELOPE_FIELDS
        if unknown:
            return {**envelope, "ok": False, "error": {
                "type": "bad-request",
                "message": f"unknown field(s) for {verb}: "
                           f"{sorted(unknown)}"}}, False
        if verb == "shutdown":
            self.initiate_shutdown()
            return {**envelope, "ok": True, "result": {"stopping": True}}, True
        params = {key: value for key, value in request.items()
                  if key not in _ENVELOPE_FIELDS}
        workspace = params.pop("workspace", None)
        args = [workspace] if workspace is not None \
            else ([] if verb in ("stats", "metrics", "ping") else [None])
        try:
            result = getattr(self.service, method_name)(*args, **params)
            return {**envelope, "ok": True, "result": result}, False
        except ServiceError as exc:
            return {**envelope, "ok": False, "error": {
                "type": exc.kind, "message": str(exc)}}, False
        except (ProtocolError, TypeError, ValueError) as exc:
            return {**envelope, "ok": False, "error": {
                "type": "bad-request", "message": str(exc)}}, False
        except Exception as exc:  # a service bug must not kill the daemon
            if self.verbose:
                traceback.print_exc()
            return {**envelope, "ok": False, "error": {
                "type": "internal",
                "message": f"{type(exc).__name__}: {exc}"}}, False

    def initiate_shutdown(self) -> None:
        """Stop ``serve_forever`` from a handler thread (``shutdown()``
        blocks until the serve loop notices, so it must not run on the
        handler's own stack frame during the response write)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


class _TcpDaemon(_DaemonMixin, socketserver.ThreadingTCPServer):
    pass


if hasattr(socketserver, "UnixStreamServer"):
    class _UnixDaemon(_DaemonMixin, socketserver.ThreadingMixIn,
                      socketserver.UnixStreamServer):
        pass
else:  # pragma: no cover - platforms without AF_UNIX
    _UnixDaemon = None


class PatchDaemon:
    """A listening daemon bound to ``address`` (``unix:PATH`` or
    ``HOST:PORT``), serving ``service`` until :meth:`shutdown` or the
    ``shutdown`` verb.  ``auth_token`` arms the TCP handshake (ignored —
    with a warning to ``verbose`` users' stderr — on unix sockets, which
    filesystem permissions already protect)."""

    def __init__(self, address: str,
                 service: Optional[PatchService] = None, *,
                 verbose: bool = False, auth_token: Optional[str] = None,
                 metrics: Optional[str] = None,
                 journal: Optional[str] = None,
                 slow_ms: Optional[float] = None):
        self.service = service if service is not None else PatchService()
        #: stdlib-only Prometheus endpoint (``--metrics HOST:PORT``)
        self.metrics_server = None
        if metrics is not None:
            from ..obs.metrics_http import MetricsServer

            self.metrics_server = MetricsServer(metrics)
            self.metrics_server.start()
        self.family, self.bind_address = parse_address(address)
        self._unix_path: Optional[str] = None
        if self.family == "unix":
            if _UnixDaemon is None:  # pragma: no cover
                raise OSError("unix-domain sockets are unavailable here")
            self._unix_path = str(self.bind_address)
            if os.path.exists(self._unix_path):
                # a previous daemon's stale socket file; refuse to steal a
                # *live* one
                probe = socket.socket(socket.AF_UNIX)
                try:
                    probe.connect(self._unix_path)
                except OSError:
                    os.unlink(self._unix_path)
                else:
                    probe.close()
                    raise OSError(f"{self._unix_path} is already served")
            self.server = _UnixDaemon(self._unix_path, _Handler)
        else:
            self.server = _TcpDaemon(self.bind_address, _Handler)
        self.server.service = self.service
        self.server.verbose = verbose
        self.server.journal = open_journal(journal)
        self.server.slow_ms = slow_ms
        self.server.auth_token = auth_token
        self.server.requires_auth = (auth_token is not None
                                     and self.family == "tcp")

    @property
    def address(self) -> str:
        """The connectable address (TCP reports the actually bound port, so
        ``127.0.0.1:0`` requests resolve to something a client can use)."""
        if self.family == "unix":
            return f"unix:{self._unix_path}"
        host, port = self.server.server_address[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def serve_in_thread(self) -> threading.Thread:
        """Run the serve loop on a background thread (tests, benchmarks)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"spatchd:{self.address}", daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self.server.shutdown()

    def close(self) -> None:
        self.server.server_close()
        if self.metrics_server is not None:
            self.metrics_server.close()
        if self.server.journal is not None:
            self.server.journal.close()
        self.service.close()
        if self._unix_path and os.path.exists(self._unix_path):
            try:
                os.unlink(self._unix_path)
            except OSError:  # pragma: no cover - racing cleanup
                pass


def serve(address: str, service: Optional[PatchService] = None, *,
          verbose: bool = False, auth_token: Optional[str] = None,
          metrics: Optional[str] = None, journal: Optional[str] = None,
          slow_ms: Optional[float] = None, stderr=None) -> int:
    """Blocking entry point used by ``repro-spatchd``."""
    stderr = stderr or sys.stderr
    daemon = PatchDaemon(address, service, verbose=verbose,
                         auth_token=auth_token, metrics=metrics,
                         journal=journal, slow_ms=slow_ms)
    if auth_token is not None and daemon.family != "tcp":
        print("spatchd: note: auth token ignored on unix sockets "
              "(filesystem permissions gate them)", file=stderr, flush=True)
    print(f"spatchd: listening on {daemon.address}", file=stderr, flush=True)
    if daemon.metrics_server is not None:
        print(f"spatchd: metrics on http://{daemon.metrics_server.address}"
              f"/metrics", file=stderr, flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        daemon.close()
    print("spatchd: stopped", file=stderr, flush=True)
    return 0
