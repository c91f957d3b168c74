"""``RemoteClient``: the in-process mirror of the daemon's verbs.

The client speaks the newline-delimited JSON protocol over one socket
(unix-domain or TCP), one request at a time: every verb is one
:meth:`~RemoteClient.request` — a write, then the read of its response —
under a lock, so threads sharing one client take turns.  Open one client
per thread for concurrency; the daemon serves each connection on its own
thread.  A ``token`` makes the constructor send the ``hello`` a TCP
daemon started with a shared secret requires before any other verb.

Its surface mirrors :class:`~repro.api.PatchSet` where that makes sense —
``apply(workspace, patches)`` accepts parsed :class:`~repro.api.SemanticPatch`
objects (shipped as inline SMPL) as well as raw wire specs — which is what
lets ``repro-spatch --server ADDR`` reuse a warm daemon transparently:
sync the local tree by content-hash delta, apply, print the same diffs and
exit the same code a local run would.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Sequence

from ..api import CodeBase, SemanticPatch
from ..errors import ReproError
from ..obs import trace as _trace
from ..options import SpatchOptions
from .protocol import (ProtocolError, options_payload, parse_address,
                       patch_specs, read_message, write_message)


class RemoteError(ReproError):
    """A server-reported failure (``ok: false``), carrying the server's
    stable error ``kind``."""

    def __init__(self, kind: str, message: str,
                 trace: Optional[str] = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        #: the server's bare message, without the kind prefix — what the
        #: CLI re-prints for byte-identical local/remote diagnostics
        self.message = message
        #: the request's trace id, echoed back in the error envelope
        #: (``None`` when telemetry was off or the server predates traces)
        self.trace = trace


class ConnectionLost(ReproError):
    """The transport died (daemon gone, socket reset, framing violated)."""


class RemoteClient:
    """One connection to a patch daemon."""

    def __init__(self, address: str, *, timeout: Optional[float] = 60.0,
                 token: Optional[str] = None):
        self.address = address
        family, target = parse_address(address)
        if family == "unix":
            self._sock = socket.socket(socket.AF_UNIX)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(target)
            except BaseException:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection(target, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        if token is not None:
            try:
                self.request("hello", token=token)
            except BaseException:
                self.close()
                raise

    def request(self, verb: str, **params) -> dict:
        """One request/response exchange.  The message carries the active
        trace id (one CLI invocation = one trace spanning all its
        requests) or a fresh one."""
        message = {"verb": verb}
        message.update({key: value for key, value in params.items()
                        if value is not None})
        message["trace"] = _trace.current_trace_id() or _trace.new_trace_id()
        with self._lock:
            try:
                write_message(self._file, message)
                response = read_message(self._file)
            except ProtocolError as exc:
                raise ConnectionLost(f"bad response from server: {exc}") \
                    from None
            except OSError as exc:
                raise ConnectionLost(f"server connection failed: {exc}") \
                    from None
        if response is None:
            raise ConnectionLost("server closed the connection")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(error.get("type", "unknown"),
                              error.get("message", "unspecified error"),
                              trace=response.get("trace"))
        return response.get("result", {})

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._sock.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def open_workspace(self, workspace: str, *, root: Optional[str] = None,
                       watch: bool = False) -> dict:
        return self.request("open_workspace", workspace=workspace, root=root,
                            watch=watch or None)

    def sync_files(self, workspace: str, *, files: Optional[dict] = None,
                   remove: Optional[Sequence[str]] = None,
                   hashes: Optional[dict] = None) -> dict:
        return self.request("sync_files", workspace=workspace, files=files,
                            remove=list(remove) if remove else None,
                            hashes=hashes)

    def sync_codebase(self, workspace: str, codebase: CodeBase) -> dict:
        """Two-phase content-hash delta: ship the manifest, then only the
        contents the server says it lacks.  An unchanged tree costs one
        hash round; the steady-state edit costs its changed files only —
        and files the server can *recall* from the fleet-wide blob memo
        (any client uploaded them before, to any workspace) cost nothing
        at all (the ``recalled`` count in the return value).

        The manifest travels *again* with every upload round: the server
        applies upserts before evaluating a manifest, so a round that
        covers everything the server reported missing re-establishes this
        client's whole tree in one atomic request.  Another client racing
        its own sync can invalidate a round (its writes show up as fresh
        ``need`` entries), so rounds repeat until the server reports
        nothing missing — the workspace then holds one client's whole
        tree, never a torn mixture of two."""
        manifest = codebase.content_hashes()
        delta = self.sync_files(workspace, hashes=manifest)
        uploaded = 0
        recalled = len(delta.get("recalled") or ())
        removed = set(delta["removed"])
        need = delta.get("need") or []
        for _ in range(8):  # bounded: pathological contention must not hang
            if not need:
                break
            uploads = {name: codebase[name] for name in need
                       if name in codebase}
            response = self.sync_files(workspace, files=uploads,
                                       hashes=manifest)
            uploaded += len(uploads)
            recalled += len(response.get("recalled") or ())
            removed |= set(response["removed"])
            delta = response
            need = response.get("need") or []
        return {**delta, "removed": sorted(removed), "need": need,
                "uploaded": uploaded, "recalled": recalled}

    @staticmethod
    def _specs(patches) -> list[dict]:
        """Wire specs from SemanticPatch objects, raw spec dicts, or a mix."""
        specs: list[dict] = []
        for patch in patches:
            if isinstance(patch, SemanticPatch):
                specs.extend(patch_specs([patch]))
            elif isinstance(patch, dict):
                specs.append(patch)
            else:
                raise TypeError(f"cannot send {type(patch).__name__} as a "
                                f"patch; expected SemanticPatch or spec dict")
        return specs

    def apply(self, workspace: str, patches, *,
              options: Optional[SpatchOptions] = None,
              jobs: "int | str | None" = None, prefilter: bool = True,
              diff: bool = True, texts: bool = False,
              profile: bool = False) -> dict:
        """Mirror of ``PatchSet.apply`` against the server's warm workspace;
        returns the shared result payload (see
        :func:`~repro.engine.report.result_payload`)."""
        return self.request(
            "apply", workspace=workspace, patches=self._specs(patches),
            options=options_payload(options) if options else None,
            jobs=jobs, prefilter=prefilter, diff=diff,
            texts=texts or None, profile=profile or None)

    def query(self, workspace: str, patches, *,
              options: Optional[SpatchOptions] = None,
              jobs: "int | str | None" = None, prefilter: bool = True,
              profile: bool = False) -> dict:
        return self.request(
            "query", workspace=workspace, patches=self._specs(patches),
            options=options_payload(options) if options else None,
            jobs=jobs, prefilter=prefilter, profile=profile or None)

    def stats(self, workspace: Optional[str] = None) -> dict:
        return self.request("stats", workspace=workspace)

    def shutdown(self) -> dict:
        return self.request("shutdown")
