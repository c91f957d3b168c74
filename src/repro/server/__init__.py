"""``spatchd``: a persistent patch-application service.

A cold ``repro-spatch`` invocation pays full start-up on every run —
re-parsing SMPL and every source file —
and the warm state the incremental layers build
(:class:`~repro.engine.cache.TreeCache`,
:class:`~repro.engine.incremental.IncrementalPipeline` splicing) dies
with the process.
This package keeps it alive instead, the way editor tooling keeps a
language server warm rather than re-running a batch compiler:

* :mod:`~repro.server.service` — the framework-free, thread-safe core:
  named **workspaces** (code base + last result, over one shared parse
  cache, one patch-spec cache and one transform memo) with per-workspace
  locking, LRU eviction and, with a state root, restart survival through
  JSON file manifests over the memo directory;
* :mod:`~repro.server.protocol` — newline-delimited JSON framing (the
  result schema it carries lives in :mod:`repro.engine.report`, shared
  with ``repro-spatch``);
* :mod:`~repro.server.daemon` — the ``socketserver``-based listener
  (``repro-spatchd``; unix-domain or TCP);
* :mod:`~repro.server.client` — :class:`RemoteClient`, backing
  ``repro-spatch --server ADDR``.

Workspace auto-refresh rides on the filesystem-watching backends of
:mod:`repro.watch`, which ``repro-spatch --watch`` uses too.

Everything imports only the Python standard library.
"""

from .client import ConnectionLost, RemoteClient, RemoteError
from .daemon import PatchDaemon, serve
from .protocol import (PROTOCOL_VERSION, ProtocolError, parse_address,
                       patch_specs)
from .service import PatchService, ServiceError, Workspace

__all__ = [
    "ConnectionLost", "RemoteClient", "RemoteError",
    "PatchDaemon", "serve",
    "PROTOCOL_VERSION", "ProtocolError", "parse_address", "patch_specs",
    "PatchService", "ServiceError", "Workspace",
]
