"""``repro-spatchd`` — serve the patch-application service.

Usage examples::

    repro-spatchd --listen unix:/tmp/spatchd.sock
    repro-spatchd --listen 127.0.0.1:7878 --max-workspaces 16
    repro-spatchd --listen unix:/tmp/spatchd.sock --workspace-root proj=src/

Clients connect with ``repro-spatch --server ADDR ...`` (same flags, same
diffs, same exit codes as a local run, but against the daemon's warm
caches) or programmatically via
:class:`~repro.server.client.RemoteClient`.  The protocol and workspace
lifecycle are documented in :mod:`repro.server` and the README's "Server
mode" section.
"""

from __future__ import annotations

import argparse
import sys

from .. import __version__
from ..engine.memo import DEFAULT_MEMO_ENTRIES
from ..server.daemon import serve
from ..server.service import DEFAULT_SERVICE_CACHE_ENTRIES, PatchService


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spatchd",
        description="Persistent patch-application daemon (warm caches, "
                    "workspace sessions, JSON wire protocol).")
    parser.add_argument("--listen", required=True, metavar="ADDR",
                        help="address to serve: unix:PATH or HOST:PORT "
                             "(HOST defaults to 127.0.0.1; PORT 0 picks a "
                             "free port)")
    parser.add_argument("--max-workspaces", type=int, default=8, metavar="N",
                        help="LRU bound on concurrently warm workspaces "
                             "(default 8)")
    parser.add_argument("--cache-entries", type=int,
                        default=DEFAULT_SERVICE_CACHE_ENTRIES, metavar="N",
                        help="entries in the daemon's one parse-tree cache, "
                             "shared by every workspace (default "
                             f"{DEFAULT_SERVICE_CACHE_ENTRIES})")
    parser.add_argument("--memo-dir", default=None, metavar="DIR",
                        help="persistent tier for the fleet-wide transform "
                             "memo: content-addressed entry files that let a "
                             "restarted daemon warm-start from a previous "
                             "run's sessions (default: memory tier only)")
    parser.add_argument("--memo-entries", type=int,
                        default=DEFAULT_MEMO_ENTRIES, metavar="N",
                        help="in-memory transform-memo entries shared across "
                             "all workspaces (default "
                             f"{DEFAULT_MEMO_ENTRIES})")
    parser.add_argument("--jobs", default=1, metavar="N",
                        help="default worker processes per apply request "
                             "(requests may override; default 1 — parallel "
                             "clients are the expected scaling axis)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="apply-fleet worker processes: each workspace "
                             "is pinned to one worker, so N workers serve N "
                             "concurrent applies across workspaces (default "
                             "1: in-process execution)")
    parser.add_argument("--state-root", default=None, metavar="DIR",
                        help="write each workspace's file manifest (JSON "
                             "name -> content hash) to DIR after every "
                             "apply and restore it lazily after a restart; "
                             "the texts and transform results live in the "
                             "memo directory, DIR/memo unless --memo-dir "
                             "names another (default: state dies with the "
                             "process)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="shared-secret token TCP clients must present "
                             "in their hello before any other verb "
                             "(unix sockets stay auth-free)")
    parser.add_argument("--memo-max-mb", type=float, default=None,
                        metavar="MB",
                        help="size bound for the --memo-dir disk tier: GC "
                             "prunes oldest entries past this every 64 "
                             "applies (default: unbounded)")
    parser.add_argument("--memo-max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="age bound for --memo-dir entries, enforced by "
                             "the same GC (default: unbounded)")
    parser.add_argument("--workspace-root", action="append", default=[],
                        metavar="NAME=DIR",
                        help="pre-open a workspace mirroring a server-side "
                             "directory (repeatable)")
    parser.add_argument("--watch-roots", action="store_true",
                        help="auto-refresh pre-opened workspace roots via a "
                             "filesystem watcher")
    parser.add_argument("--metrics", default=None, metavar="ADDR",
                        help="serve a stdlib-only Prometheus endpoint at "
                             "ADDR (HOST:PORT; PORT 0 picks a free port): "
                             "GET /metrics scrapes the engine's metrics "
                             "registry, GET /healthz is a liveness probe")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="append one structured JSONL event per request "
                             "to FILE (size-rotated once to FILE.1 at 16 "
                             "MiB)")
    parser.add_argument("--slow-ms", type=float, default=None, metavar="N",
                        help="log requests slower than N milliseconds to "
                             "stderr (and as slow_request journal events)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--verbose", action="store_true",
                        help="log request tracebacks to stderr")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    try:
        jobs = args.jobs if args.jobs == "auto" else int(args.jobs)
    except ValueError:
        parser.error(f"--jobs expects an integer or 'auto', got {args.jobs!r}")
        return 2

    log = (lambda message: print(f"spatchd: {message}", file=sys.stderr,
                                 flush=True)) if args.verbose else None
    if (args.memo_max_mb is not None or args.memo_max_age is not None) \
            and args.memo_dir is None:
        parser.error("--memo-max-mb/--memo-max-age need --memo-dir")
        return 2
    try:
        service = PatchService(
            max_workspaces=args.max_workspaces,
            cache_entries=args.cache_entries, default_jobs=jobs, log=log,
            memo_entries=args.memo_entries, memo_dir=args.memo_dir,
            workers=args.workers, state_root=args.state_root,
            memo_max_bytes=int(args.memo_max_mb * 1024 * 1024)
            if args.memo_max_mb is not None else None,
            memo_max_age=args.memo_max_age)
    except (ValueError, OverflowError) as exc:
        # the service owns the sizing minimums; a size it refuses (or an
        # --memo-max-mb that is no byte count) is a usage error
        parser.error(str(exc))
        return 2
    for entry in args.workspace_root:
        name, sep, root = entry.partition("=")
        if not sep or not name or not root:
            parser.error(f"--workspace-root expects NAME=DIR, got {entry!r}")
            return 2
        service.open_workspace(name, root=root, watch=args.watch_roots)
        print(f"spatchd: opened workspace {name!r} from {root}",
              file=sys.stderr, flush=True)

    try:
        return serve(args.listen, service, verbose=args.verbose,
                     auth_token=args.auth_token, metrics=args.metrics,
                     journal=args.journal, slow_ms=args.slow_ms)
    except (OSError, ValueError) as exc:
        # bad --listen address (ProtocolError is a ValueError), socket in
        # use, permissions: usage-style failures, spatch-convention exit 2
        print(f"repro-spatchd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
