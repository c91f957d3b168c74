"""``repro-spatch`` — an ``spatch``-like command line driver.

Usage examples::

    repro-spatch --sp-file instrument.cocci src/              # print a diff
    repro-spatch --sp-file translate.cocci --in-place src/    # rewrite files
    repro-spatch --sp-file rules.cocci --c++=17 file.cpp
    repro-spatch --cookbook cuda_to_hip --jobs 4 src/cuda/    # built-in patch
    repro-spatch --sp-file a.cocci --sp-file b.cocci src/     # batch pipeline
    repro-spatch --cookbook full_modernization src/           # whole cookbook
    repro-spatch --cookbook cuda_to_hip --memo-dir .memo src/    # reuse
    repro-spatch --sp-file a.cocci --watch --in-place src/    # edit-apply loop
    repro-spatch --patch-file ops.json src/                   # machine patch
    repro-spatch --patch-file edit.ap --patch-file fix.diff src/
    repro-spatch --list-cookbook

``--memo-dir DIR`` (or its other spelling, ``--incremental DIR``) keeps a
content-addressed transform memo in DIR: every (file state, patch) session
outcome is stored as plain JSON data keyed on content hash and patch
fingerprint, so the next invocation answers every unchanged session from
disk — without parsing — and re-runs only what changed, byte-identical to
a cold run, even across an edited patch list (say, one appended patch).
Nothing else is persisted, and a path that cannot hold the directory (an
existing regular file, say) costs one warning line and the warm start,
never the run.  ``--watch`` keeps the process alive,
polling the targets *and* the ``--sp-file`` patches (mtime+size, then
content) and re-applying incrementally on every change; it keeps an
in-memory transform memo for the session (unless ``--memo-dir`` names a
disk one), so editing one patch file re-runs only that patch's sessions.

Mirrors the spatch options the paper's listings mention (``--c++[=N]``,
``--jobs``) plus a few conveniences (``--report``, ``--in-place``,
``--profile``, built-in cookbook patches).  ``--sp-file`` and ``--cookbook``
are repeatable: given more than one patch, they run as a single
:class:`~repro.api.PatchSet` pipeline pass, in command-line order —
equivalent to, but faster than, chaining one invocation per patch.

``--patch-file FILE`` accepts the machine-patch frontends — a structural
JSON operation array, an 'ap' snippet/anchor locator document, or
SEARCH/REPLACE blocks (SmPL works too); the format is auto-detected and
the flag is repeatable and order-interleaved with ``--sp-file`` /
``--cookbook``.  See :mod:`repro.frontends`.

Exit status follows spatch conventions, and the contract is strict so
machine callers can branch on it:

* **0** — the patch matched at least one site;
* **1** — everything ran and nothing matched;
* **2** — the run itself failed: usage errors, a missing target, a
  missing or unparsable ``--sp-file``/``--patch-file`` or an unknown
  ``--cookbook`` name (one-line ``file:line: message`` diagnostic on
  stderr, never a traceback: local and ``--server`` runs build patches
  through the same :class:`~repro.api.PatchBuilder`, so the line is
  byte-identical), or a source file the front end cannot read (same
  one-line form, local, ``--jobs N`` and ``--server`` alike).

Matches of pure idempotence-guard rules (``depends on !guard``
suppressors, which fire exactly when a file is already modernized) do not
count as "matched", so re-running an in-place modernization exits 1 once
there is nothing left to do.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import sys
import time

from .. import __version__
from ..api import C_SUFFIXES, CodeBase, PatchBuilder, PatchSet, SemanticPatch
from ..engine.report import (dumps, profile_lines, profile_payload,
                              result_payload)
from ..errors import PatchFileError, ReproError, patch_error_line
from ..obs import registry as _obs
from ..options import SpatchOptions


def _prune_bound(text: str) -> float:
    """argparse type of the ``--memo-prune`` bounds: a negative (or NaN)
    bound would delete every entry, so it is a usage error."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


# argparse names the type in its "invalid float value: 'x'" message
_prune_bound.__name__ = "float"


class _PatchArg(argparse.Action):
    """Append ``(kind, value)`` to one shared list so interleaved
    ``--sp-file``/``--cookbook``/``--patch-file`` flags keep their
    command-line order — pipelines are order-sensitive, so the order the
    user wrote is the order that runs."""

    KINDS = {"--cookbook": "cookbook", "--patch-file": "patch_file"}

    def __call__(self, parser, namespace, values, option_string=None):
        items = list(getattr(namespace, self.dest, None) or [])
        kind = self.KINDS.get(option_string, "sp_file")
        items.append((kind, values))
        setattr(namespace, self.dest, items)


def _parse_jobs(value: str):
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects a positive integer or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return jobs


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spatch",
        description="Apply semantic patches to C/C++ sources (Coccinelle-style).")
    parser.add_argument("targets", nargs="*",
                        help="source files or directories to transform")
    parser.add_argument("--sp-file", "--cocci-file", dest="patch_args",
                        action=_PatchArg, default=[], metavar="SP_FILE",
                        help="semantic patch file to apply (repeatable: "
                             "several patches, --cookbook included, run as "
                             "one pipeline pass in command-line order)")
    parser.add_argument("--cookbook", dest="patch_args",
                        action=_PatchArg, default=[], metavar="NAME",
                        help="apply a built-in cookbook patch by name "
                             "(repeatable, same ordered pipeline as "
                             "--sp-file; 'full_modernization' expands to "
                             "the whole cookbook)")
    parser.add_argument("--patch-file", dest="patch_args",
                        action=_PatchArg, default=[], metavar="FILE",
                        help="machine-patch file to apply: a JSON operation "
                             "array, an 'ap' snippet/anchor document or "
                             "SEARCH/REPLACE blocks — format auto-detected "
                             "(SmPL included); repeatable and "
                             "order-interleaved with --sp-file/--cookbook")
    parser.add_argument("--list-cookbook", action="store_true",
                        help="list built-in cookbook patches and exit")
    parser.add_argument("--c++", dest="cxx", nargs="?", const="17", default=None,
                        metavar="N", help="enable the C++ front end (optionally a level)")
    parser.add_argument("--in-place", action="store_true",
                        help="rewrite the target files instead of printing a diff")
    parser.add_argument("--report", action="store_true",
                        help="print per-rule match statistics")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result payload "
                             "(the same schema the server protocol uses) "
                             "instead of a diff")
    parser.add_argument("--server", metavar="ADDR", default=None,
                        help="apply through a running repro-spatchd at ADDR "
                             "(unix:PATH or HOST:PORT) instead of "
                             "in-process: same diffs, same exit codes, warm "
                             "server caches")
    parser.add_argument("--workspace", metavar="NAME", default=None,
                        help="server workspace to use with --server "
                             "(default: a stable name derived from the "
                             "target paths, so repeated invocations share "
                             "warm state)")
    parser.add_argument("--no-isos", action="store_true",
                        help="disable the built-in isomorphisms")
    parser.add_argument("--jobs", "-j", type=_parse_jobs, default=1, metavar="N",
                        help="apply files in N parallel worker processes "
                             "('auto' = one per CPU)")
    parser.add_argument("--no-prefilter", action="store_true",
                        help="disable the required-token prefilter and parse "
                             "every file")
    parser.add_argument("--incremental", metavar="STATE_DIR", default=None,
                        help="another spelling of --memo-dir STATE_DIR: a "
                             "repeated invocation re-runs only the sessions "
                             "whose file content or patch changed")
    parser.add_argument("--memo-dir", metavar="DIR", default=None,
                        help="content-addressed transform memo directory: "
                             "every (file state, patch) session outcome is "
                             "stored by content hash + patch fingerprint, so "
                             "repeated invocations (and duplicated files "
                             "within one run) skip transforms whose result "
                             "is already known, byte-identically")
    parser.add_argument("--memo-prune", action="store_true",
                        help="one-shot GC of --memo-dir: delete entries past "
                             "--memo-max-mb/--memo-max-age (oldest first), "
                             "print a summary, and exit")
    parser.add_argument("--memo-max-mb", type=_prune_bound,
                        default=None, metavar="MB",
                        help="with --memo-prune: keep the memo directory "
                             "under MB megabytes (oldest entries go first)")
    parser.add_argument("--memo-max-age", type=_prune_bound,
                        default=None, metavar="SECONDS",
                        help="with --memo-prune: delete memo entries older "
                             "than SECONDS")
    parser.add_argument("--auth-token", metavar="TOKEN", default=None,
                        help="with --server over TCP: shared-secret token "
                             "presented in the protocol hello (daemons "
                             "started with --auth-token refuse TCP clients "
                             "without it)")
    parser.add_argument("--watch", action="store_true",
                        help="stay alive after the first application: poll "
                             "the targets for changes (mtime+size, then "
                             "content) and re-apply incrementally")
    parser.add_argument("--watch-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="poll period for --watch (default 0.5s)")
    parser.add_argument("--watch-polls", type=int, default=None, metavar="N",
                        help="with --watch: exit once the targets have been "
                             "quiet for N consecutive polls (default: run "
                             "until interrupted)")
    parser.add_argument("--profile", action="store_true",
                        help="print the run's profile (coverage, cache, "
                             "memo and matcher traffic, phase timings) to "
                             "stderr as '# section.key: value' lines")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the run's "
                             "phase spans (parse, prefilter, match, "
                             "transform, memo, splice) to FILE — open it in "
                             "chrome://tracing or Perfetto")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="append structured JSONL telemetry events "
                             "(one per --watch iteration) to FILE")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--verbose", action="store_true")
    return parser


def _patch_specs(patch_args: list[tuple[str, str]]) -> list[dict]:
    """The patch arguments as the specs a
    :class:`~repro.api.PatchBuilder` builds, for local and ``--server``
    runs alike: sp-files as inline SMPL, ``--patch-file`` inputs as their
    detected frontend kind (read here, so a daemon needs no shared
    filesystem), cookbook patches by name.  An unreadable file or an
    undetectable format raises :class:`~repro.errors.PatchFileError` with
    a one-line diagnostic naming the file as given on a read error and by
    its basename, the name the spec carries, otherwise."""
    specs: list[dict] = []
    for kind, value in patch_args:
        if kind == "cookbook":
            specs.append({"kind": "cookbook", "name": value})
            continue
        path = pathlib.Path(value)
        try:
            text = path.read_text(encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise PatchFileError(patch_error_line(value, exc)) from None
        wire_kind = "smpl"
        if kind == "patch_file":
            from ..frontends import detect_format

            try:
                wire_kind = detect_format(text, path.name)
            except ReproError as exc:
                raise PatchFileError(
                    patch_error_line(path.name, exc)) from None
        specs.append({"kind": wire_kind, "name": path.name, "text": text})
    return specs


def _payload_flags(args) -> dict:
    """The payload sections this run prints or writes — diffs for plain and
    ``--json`` runs, changed texts for ``--in-place`` — asked alike of the
    local engine and of a ``--server`` daemon."""
    return {"include_diff": args.json or not args.in_place,
            "include_texts": args.in_place}


def _render(payload: dict, names, paths: dict[str, pathlib.Path], args,
            report: bool = True) -> int:
    """Print one result payload, local and ``--server`` runs alike: the
    ``--report``/``--verbose`` lines, the ``--profile`` lines of its
    ``"profile"`` section (:func:`~repro.engine.report.profile_lines`), the
    ``--json`` line, then the ``--in-place`` rewrites or the diff.  Every
    per-file walk follows the local load order ``names`` (a JSON round trip
    sorts the payload's files; a watch round passes only the files it
    touched).
    Returns the payload's exit status."""
    files = payload["files"]
    names = [name for name in names if name in files]
    if report and (args.report or args.verbose):
        summary = payload["summary"]
        print(f"# files: {summary['files']}  changed: {summary['changed_files']}  "
              f"matches: {summary['matches']}  +{summary['lines_added']} "
              f"-{summary['lines_removed']}", file=sys.stderr)
        for name in names:
            for rule in files[name]["rules"]:
                print(f"#   {name}: rule {rule['rule']} -> "
                      f"{rule['matches']} match(es)", file=sys.stderr)
    for line in profile_lines(payload.get("profile", {})):
        print(line, file=sys.stderr)
    if args.json:
        sys.stdout.write(dumps(payload) + "\n")
    if args.in_place:
        for name in names:
            if "text" in files[name] and name in paths:
                paths[name].write_text(files[name]["text"], encoding="utf-8",
                                       errors="surrogateescape")
                print(f"rewrote {name}", file=sys.stderr)
    elif not args.json:
        diff = "".join(files[name].get("diff", "") for name in names)
        if diff:
            # escaped bytes from surrogateescape reads are not printable;
            # show them as replacement characters without touching the files
            sys.stdout.write(diff.encode("utf-8", "replace").decode("utf-8"))
    return payload["exit_status"]


def _load_codebase(targets: list[str], missing_ok: bool = False,
                   ) -> tuple[CodeBase, dict[str, pathlib.Path]]:
    files: dict[str, str] = {}
    paths: dict[str, pathlib.Path] = {}
    for target in targets:
        path = pathlib.Path(target)
        if path.is_dir():
            sub = CodeBase.from_dir(path)
            for name, text in sub.items():
                key = str(path / name)
                files[key] = text
                paths[key] = path / name
        elif path.is_file():
            # tolerate Latin-1 comments and other stray bytes in HPC trees;
            # surrogateescape lets --in-place write the original bytes back
            files[str(path)] = path.read_text(encoding="utf-8",
                                              errors="surrogateescape")
            paths[str(path)] = path
        elif not missing_ok:  # a watch-loop rescan tolerates deleted targets
            print(f"repro-spatch: no such file or directory: {target}",
                  file=sys.stderr)
            raise SystemExit(2)
    return CodeBase.from_files(files), paths


def _stat_targets(targets: list[str]) -> dict[str, tuple[int, int]]:
    """``path -> (mtime_ns, size)`` for every watched source file: the cheap
    first stage of change detection (content hashes decide what re-runs)."""
    entries: dict[str, tuple[int, int]] = {}
    for target in targets:
        path = pathlib.Path(target)
        candidates = (entry for entry in sorted(path.rglob("*"))
                      if entry.is_file() and entry.suffix in C_SUFFIXES) \
            if path.is_dir() else (path,)
        for entry in candidates:
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries[str(entry)] = (stat.st_mtime_ns, stat.st_size)
    return entries


def _stat_patch_files(patch_args: list[tuple[str, str]],
                      ) -> dict[str, tuple[int, int]]:
    """``path -> (mtime_ns, size)`` for every ``--sp-file``/``--patch-file``
    patch: --watch polls the patch list as well as the sources, so editing a
    patch file mid-session re-applies it (cookbook patches are in-process
    constants and cannot change under us)."""
    entries: dict[str, tuple[int, int]] = {}
    for kind, value in patch_args:
        if kind not in ("sp_file", "patch_file"):
            continue
        try:
            stat = pathlib.Path(value).stat()
        except OSError:
            continue
        entries[value] = (stat.st_mtime_ns, stat.st_size)
    return entries


def _refresh_codebase(codebase: CodeBase, paths: dict[str, pathlib.Path],
                      targets: list[str]) -> list[str]:
    """Fold the targets' on-disk state into ``codebase`` and return the
    names that actually changed content — added, updated or removed."""
    fresh, fresh_paths = _load_codebase(targets, missing_ok=True)
    delta: list[str] = []
    for name, text in fresh.items():
        if name not in codebase or codebase[name] != text:
            codebase[name] = text
            delta.append(name)
    for name in [name for name in codebase.names() if name not in fresh]:
        del codebase[name]
        delta.append(name)
    paths.clear()
    paths.update(fresh_paths)
    return delta


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.incremental is not None:
        if args.memo_dir is not None and os.path.abspath(args.memo_dir) \
                != os.path.abspath(args.incremental):
            parser.error("--incremental and --memo-dir name different "
                         "directories (they are one option)")
            return 2
        args.memo_dir = args.incremental

    if args.list_cookbook:
        from ..cookbook import FULL_PIPELINE, builders

        for name in sorted([*builders(), FULL_PIPELINE]):
            print(name)
        return 0

    if args.memo_prune:
        if not args.memo_dir:
            parser.error("--memo-prune needs --memo-dir")
            return 2
        if args.memo_max_mb is None and args.memo_max_age is None:
            parser.error("--memo-prune needs --memo-max-mb and/or "
                         "--memo-max-age")
            return 2
        max_bytes = int(args.memo_max_mb * 1024 * 1024) \
            if args.memo_max_mb is not None else None
        summary = _open_memo(args.memo_dir).prune(
            max_bytes=max_bytes, max_age=args.memo_max_age)
        print(f"memo-prune: scanned {summary['scanned']} entries "
              f"({summary['scanned_bytes']} bytes), removed "
              f"{summary['removed']} ({summary['removed_bytes']} bytes)",
              file=sys.stderr)
        return 0

    options = SpatchOptions(
        cxx=int(args.cxx) if args.cxx is not None else None,
        apply_isomorphisms=not args.no_isos,
        verbose=args.verbose,
    )

    tracer = None
    if args.trace:
        from ..obs import trace as _trace

        tracer = _trace.start_trace("repro-spatch")
    journal = None
    if args.journal:
        from ..obs.journal import Journal

        journal = Journal(args.journal)
    try:
        return _run(parser, args, options, journal)
    finally:
        if tracer is not None:
            _write_trace(args.trace, tracer)
        if journal is not None:
            journal.close()


def _write_trace(path: str, tracer) -> None:
    """Finish the CLI's root span and write the Chrome trace-event JSON
    (``chrome://tracing`` / Perfetto load it directly)."""
    import json

    from ..obs import trace as _trace

    root = tracer.finish()
    events = _trace.chrome_trace_events(root.to_payload())
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
    except OSError as exc:
        print(f"# trace: could not write {path}: {exc}", file=sys.stderr)
        return
    print(f"# trace: wrote {len(events)} event(s) to {path}",
          file=sys.stderr)


def _run(parser, args, options: SpatchOptions, journal=None) -> int:
    """The post-parsing CLI flow (telemetry sinks already set up)."""
    if args.json and args.watch:
        parser.error("--json cannot be combined with --watch")
        return 2
    if args.server and (args.watch or args.incremental is not None):
        parser.error("--server cannot be combined with --watch or "
                     "--incremental (the daemon owns the warm state)")
    if not args.patch_args:
        parser.error("one of --sp-file, --patch-file or --cookbook is "
                     "required")
    if not args.targets:
        parser.error("no target files or directories given")
    # the daemon builds a --server run's patches from the same specs with
    # the same builder, so both fail with the same line
    builder = PatchBuilder()
    try:
        specs = _patch_specs(args.patch_args)
        patches = None if args.server else builder.build(specs, options)
    except PatchFileError as exc:
        # a missing or unparsable patch file or an unknown cookbook name is
        # a *usage*-class failure: exit 2 with a one-line diagnostic, never
        # 1 (which means "matched nothing") and never a traceback
        print(f"repro-spatch: error: {exc}", file=sys.stderr)
        return 2
    if args.server:
        return _remote_main(args, options, specs)

    codebase, paths = _load_codebase(args.targets)

    # --memo-dir: a disk-backed transform memo; its persistent tier is what
    # lets a fresh process warm-start from a previous invocation's sessions.
    # --watch keeps an in-memory one otherwise, so a patch-file edit re-runs
    # only the edited patch's sessions
    memo = None
    if args.memo_dir or args.watch:
        memo = _open_memo(args.memo_dir)

    try:
        with _obs.Capture() as counts:
            result = _apply(patches, codebase, args, memo=memo)
    except ReproError as exc:
        # a source file the front end cannot read (an unterminated comment,
        # say) fails the run: exit 2 with one line, as --server does, never
        # a traceback and exit 1 (which means "matched nothing")
        print(f"repro-spatch: error: {exc}", file=sys.stderr)
        return 2

    payload = result_payload(result, patches, **_payload_flags(args))
    if args.profile:
        from ..engine.cache import DEFAULT_TREE_CACHE

        payload["profile"] = profile_payload(
            result, counts, cache=DEFAULT_TREE_CACHE, memo=memo)
    names = codebase.names()
    code = _render(payload, names, paths, args)
    if not args.watch:
        return code
    _fold_rewrites(codebase, payload, names, paths)
    return _watch_loop(args, options, builder, patches, codebase, paths,
                       result, code == 0, memo, journal=journal)


def _apply(patches: list[SemanticPatch], codebase: CodeBase, args,
           since=None, memo=None):
    """One application pass through the PatchSet pipeline, whatever the
    number of patches: the result carries the reuse records --watch seeds
    the next round with, and the memo lives at the pipeline's patch
    boundaries."""
    return PatchSet(patches).apply(codebase, jobs=args.jobs,
                                   prefilter=not args.no_prefilter,
                                   since=since, memo=memo)


def _open_memo(path):
    """The transform memo, disk-backed at ``path`` when one is given.  A
    path that cannot hold the memo directory (an existing regular file, an
    unwritable parent) costs the warm start, never this run its output:
    one warning line on stderr, and the memory tier alone serves the run."""
    from ..engine.memo import TransformMemo

    try:
        return TransformMemo(path=path)
    except OSError as exc:
        print(f"repro-spatch: warning: cannot use memo directory {path}: "
              f"{exc.strerror or exc}; continuing without it",
              file=sys.stderr)
        return TransformMemo()


def _default_workspace_name(targets: list[str]) -> str:
    """A stable workspace name per target set, so repeated invocations over
    the same tree land on the same warm server state."""
    digest = hashlib.sha1("\0".join(
        str(pathlib.Path(target).resolve()) for target in targets
    ).encode("utf-8", "surrogatepass")).hexdigest()[:16]
    return f"cli-{digest}"


def _remote_main(args, options: SpatchOptions, specs: list[dict]) -> int:
    """The --server flow: sync the local tree by content-hash delta, apply
    ``specs`` on the daemon's warm workspace, and emit the same diffs /
    reports / exit codes a local run would."""
    from ..obs import trace as _trace

    codebase, paths = _load_codebase(args.targets)
    workspace = args.workspace or _default_workspace_name(args.targets)
    # one CLI invocation = one trace: every request of every attempt
    # carries this id (the daemon echoes it back, its journal records it),
    # so a retried or failed run is greppable end to end
    tracer = None
    if not _trace.tracing_active():
        tracer = _trace.start_trace("spatch-remote")
    try:
        return _remote_run(args, options, codebase, paths, workspace, specs)
    finally:
        # an in-process caller (tests, library embedding) must not inherit
        # this invocation's trace as its ambient context
        if tracer is not None:
            tracer.finish()


def _remote_run(args, options: SpatchOptions, codebase, paths,
                workspace: str, specs) -> int:
    from ..obs import trace as _trace
    from ..server.client import ConnectionLost, RemoteClient, RemoteError
    from ..server.protocol import options_payload

    flags = _payload_flags(args)
    trace_tag = (f" [trace {_trace.current_trace_id()}]"
                 if _trace.current_trace_id() else "")

    def one_attempt() -> dict:
        # the whole flow is idempotent (content-hash sync, stateless apply
        # verb), so a retry redoes connect+open+sync+apply from scratch
        with RemoteClient(args.server, token=args.auth_token) as client:
            client.open_workspace(workspace)
            client.sync_codebase(workspace, codebase)
            return client.request(
                "apply", workspace=workspace, patches=specs,
                options=options_payload(options), jobs=args.jobs,
                prefilter=not args.no_prefilter, diff=flags["include_diff"],
                texts=flags["include_texts"] or None,
                profile=args.profile or None)

    payload = None
    for attempt in range(2):
        try:
            payload = one_attempt()
            break
        except (ConnectionLost, ConnectionRefusedError, OSError) as exc:
            # transient transport failures (daemon restarting, socket
            # reset mid-request) get one retry after a short backoff;
            # server-reported errors (RemoteError) never do
            if attempt == 0:
                delay = 0.25 * (2 ** attempt)
                print(f"repro-spatch: server: {exc}; retrying in "
                      f"{delay:.2f}s{trace_tag}", file=sys.stderr)
                time.sleep(delay)
                continue
            print(f"repro-spatch: server: {exc}{trace_tag}",
                  file=sys.stderr)
            return 2
        except RemoteError as exc:
            if exc.kind in ("bad-patch", "bad-source"):
                # a patch-build or unreadable-source failure: the envelope's
                # message is the same one-line diagnostic the in-process
                # path prints, so local and remote runs fail byte-identically
                print(f"repro-spatch: error: {exc.message}", file=sys.stderr)
            else:
                tag = f" [trace {exc.trace}]" if exc.trace else trace_tag
                print(f"repro-spatch: server: {exc}{tag}", file=sys.stderr)
            return 2

    return _render(payload, codebase.names(), paths, args)


def _fold_rewrites(codebase: CodeBase, payload: dict, names,
                   paths: dict[str, pathlib.Path]) -> None:
    """Fold our own in-place rewrites into the watch baseline *from memory*
    (we know exactly what we wrote): the next poll then sees our output as
    unchanged, while an external edit racing in — even to the same file —
    still differs from the baseline and re-runs.  Re-reading the whole tree
    here instead would swallow any edit that landed since the stat sweep.

    The prior result's records still hash the rewrites' *inputs*, so the
    next triggered round re-runs the folded files once over their rewritten
    text — exactly what a cold in-place re-invocation would do: a no-op for
    idempotent patches (all of the cookbook), a re-application for
    non-idempotent ones, though only files in that round's delta are ever
    written back.  From then on the records hold the rewritten hashes and
    the files splice.  The rewrites are the ``names`` whose payload entry
    carries a text (only ``--in-place`` asks for texts) and that
    :func:`_render` therefore wrote."""
    files = payload["files"]
    for name in names:
        if name in files and "text" in files[name] and name in paths:
            codebase[name] = files[name]["text"]


def _watch_loop(args, options: SpatchOptions, builder: PatchBuilder,
                patches: list[SemanticPatch], codebase: CodeBase,
                paths: dict[str, pathlib.Path], result, matched: bool,
                memo=None, journal=None) -> int:
    """Poll the targets *and* the sp-files, re-applying incrementally on
    every content change.

    Change detection is two-staged: a cheap stat sweep (mtime_ns + size)
    gates the re-read, and the engine's content hashes decide which files
    actually re-run — a ``touch`` without a content change re-runs nothing.
    An edited sp-file rebuilds the patch list through the run's
    ``builder``, which parses only the changed text and hands back the same
    patch objects (compiled rules and prefilters included) for every
    unchanged one, and re-applies with the prior result as ``since=``: the
    changed list runs cold, and the session's transform memo answers every
    unchanged patch, so only the edited patch's sessions re-run; only files whose *output* changed are emitted
    (or rewritten), so a patch edit never rewrites files it did not
    affect.  An sp-file that fails to parse mid-edit is
    reported and the round skipped (the old patches stay active until the
    next successful save).  With ``--watch-polls N`` the loop exits after N
    consecutive quiet polls (the testing/scripting hook); by default it
    runs until interrupted.

    The wait between sweeps goes through a watcher: inotify where it
    starts blocks on real filesystem events, so a change is noticed in
    milliseconds instead of at the next poll tick, while the portable
    fallback just sleeps the interval.  The sweep still runs either way —
    the watcher can only improve latency, never correctness.
    """
    from ..watch import create_watcher

    watched = args.targets + [value for kind, value in args.patch_args
                              if kind in ("sp_file", "patch_file")]
    watcher = create_watcher(watched)
    try:
        return _watch_rounds(args, options, builder, patches, codebase,
                             paths, result, matched, watcher, memo, journal)
    finally:
        watcher.close()


def _journal_watch_round(journal, result, round_seconds: float) -> None:
    """One structured event per --watch iteration: what changed, what
    spliced, what the memo answered, and the round's wall time — the
    journal twin of the human-readable ``# watch:`` stderr line."""
    if journal is None:
        return
    from ..obs import trace as _trace

    inc = result.incremental
    stats = getattr(result, "stats", None)
    journal.emit(
        "watch_round", trace=_trace.current_trace_id(),
        files_changed=inc.files_changed, files_added=inc.files_added,
        files_reused=inc.files_reused, files_dropped=inc.files_dropped,
        patches_total=inc.patches_total,
        fallback=inc.fallback, matches=result.total_matches,
        memo_hits=getattr(stats, "memo_hits", None),
        wall_seconds=round(round_seconds, 6))


def _watch_rounds(args, options: SpatchOptions, builder: PatchBuilder,
                  patches: list[SemanticPatch], codebase: CodeBase,
                  paths: dict[str, pathlib.Path], result, matched: bool,
                  watcher, memo=None, journal=None) -> int:
    src_before = _stat_targets(args.targets)
    patch_before = _stat_patch_files(args.patch_args)
    quiet_polls = 0
    while args.watch_polls is None or quiet_polls < args.watch_polls:
        watcher.wait(max(args.watch_interval, 0.01))
        src_now = _stat_targets(args.targets)
        patch_now = _stat_patch_files(args.patch_args)
        if src_now == src_before and patch_now == patch_before:
            quiet_polls += 1
            continue
        patches_stale = patch_now != patch_before
        sources_stale = src_now != src_before
        src_before, patch_before = src_now, patch_now
        quiet_polls = 0
        # the stat sweep gates the re-read: an sp-file-only edit must not
        # re-read a large source tree that provably did not change
        delta = _refresh_codebase(codebase, paths, args.targets) \
            if sources_stale else []
        if patches_stale:
            try:
                patches = builder.build(_patch_specs(args.patch_args),
                                        options)
            except PatchFileError as exc:
                # one-line file:line diagnostic, same format as the cold
                # path's exit-2 message; the old patches stay active until
                # the next successful save
                print(f"# watch: patch file unreadable, keeping the previous "
                      f"patches ({exc})", file=sys.stderr)
                patches_stale = False
        if not delta and not patches_stale:
            continue  # e.g. a touch that left the contents identical
        previous = result
        round_started = time.monotonic()
        result = _apply(patches, codebase, args, since=result, memo=memo)
        _journal_watch_round(journal, result,
                             time.monotonic() - round_started)
        inc = result.incremental
        line = (f"# watch: {inc.files_changed} changed + {inc.files_added} "
                f"added re-run, {inc.files_reused} reused, "
                f"{inc.files_dropped} dropped")
        if inc.fallback is not None:
            line += " (cold: " + inc.fallback + ")"
        print(f"{line} -> {result.total_matches} match(es)", file=sys.stderr)
        emit = list(delta)
        if patches_stale:
            # a patch edit can change any file's outcome: emit exactly the
            # files whose *output* differs from the previous round's
            emit += [name for name in result.files if name not in delta
                     and (previous.files.get(name) is None
                          or previous.files[name].text
                          != result.files[name].text)]
        payload = result_payload(result, patches, **_payload_flags(args))
        code = _render(payload, emit, paths, args, report=False)
        matched = matched or code == 0
        _fold_rewrites(codebase, payload, emit, paths)
    return 0 if matched else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
