"""``spatchd``: a persistent patch-application service.

A cold ``repro-spatch`` invocation pays full start-up on every run —
re-parsing SMPL, rebuilding token indexes, re-parsing every source file —
and the warm state the incremental layers build
(:class:`~repro.engine.cache.TreeCache`,
:class:`~repro.engine.incremental.IncrementalPipeline` splicing,
:class:`~repro.engine.incremental.PipelineState`) dies with the process.
This package keeps it alive instead, the way editor tooling keeps a
language server warm rather than re-running a batch compiler:

* :mod:`~repro.server.service` — the framework-free, thread-safe core:
  named **workspaces** (code base + parse cache + token index + last
  result) with per-workspace locking and LRU eviction;
* :mod:`~repro.server.protocol` — newline-delimited JSON framing and the
  result serialization shared with ``repro-spatch --json``;
* :mod:`~repro.server.daemon` — the ``socketserver``-based listener
  (``repro-spatchd``; unix-domain or TCP);
* :mod:`~repro.server.client` — :class:`RemoteClient`, backing
  ``repro-spatch --server ADDR``;
* :mod:`~repro.server.watch` — filesystem-watching backends (Linux inotify
  via ``ctypes``/``selectors``, portable polling fallback) used by
  ``--watch`` and workspace auto-refresh.

Everything imports only the Python standard library.
"""

from .client import ConnectionLost, RemoteClient, RemoteError
from .daemon import PatchDaemon, serve
from .protocol import (PROTOCOL_VERSION, RESULT_SCHEMA, ProtocolError,
                       exit_status, parse_address, patch_specs,
                       profile_payload, result_payload)
from .service import PatchService, ServiceError, Workspace
from .watch import BACKENDS, create_watcher

__all__ = [
    "ConnectionLost", "RemoteClient", "RemoteError",
    "PatchDaemon", "serve",
    "PROTOCOL_VERSION", "RESULT_SCHEMA", "ProtocolError", "exit_status",
    "parse_address", "patch_specs", "profile_payload", "result_payload",
    "PatchService", "ServiceError", "Workspace",
    "BACKENDS", "create_watcher",
]
