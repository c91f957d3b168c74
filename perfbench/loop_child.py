"""One process of the ``edit_loop`` / ``fleet_edit`` workloads.

It starts an in-process daemon (``PatchDaemon`` + ``PatchService``) on a
unix socket in the current directory and drives it closed-loop over two
connections: a writer that edits one file per round, then syncs and
applies the cookbook, and a reader that queries an unchanged copy of the
tree in a second workspace.  ``run.py`` launches it; the results go to
the JSON file named by ``--out``::

    python3 perfbench/loop_child.py --workload edit_loop --seed 1 \\
        --seconds 20 --trace 0 --mode loop --out result.json

``--mode setup`` stops after the first cold apply, so set-up time can be
measured several times in fresh processes.  With ``--trace 1`` the layer
wrappers are switched on and off in alternating one-second blocks of the
loop; the untraced blocks give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: seconds a single request may take before it counts as failed
REQUEST_TIMEOUT = 60.0

#: length of one traced or untraced block in a traced loop
BLOCK_SECONDS = 1.0


def payload_digest(payload: dict) -> str:
    """sha256 of a result payload's deterministic core."""
    from repro.server.protocol import dumps

    core = {key: value for key, value in payload.items()
            if key not in ("profile", "workspace")}
    return hashlib.sha256(dumps(core).encode("ascii")).hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("edit_loop", "fleet_edit"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "loop"), required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


class _Loop:
    """The timed closed loop over the writer and reader connections."""

    def __init__(self, address, writer, codebase, stream, spec, seconds,
                 tracer):
        self.address = address
        self.writer = writer
        self.reader = None
        self.codebase = codebase
        self.stream = stream
        self.spec = spec
        self.seconds = seconds
        self.tracer = tracer
        #: ``[kind, round, seconds | None, digest | None, traced, covered,
        #: finished]`` where ``traced`` is 1/0, or -1 when tracing flipped
        #: mid-operation, and ``finished`` is seconds since the loop began
        self.ops: list[list] = []

    def _mode(self):
        if self.tracer is None:
            return (0, False)
        return (self.tracer.epoch, self.tracer.installed)

    def _covered(self) -> float:
        return self.tracer.thread_total("client") if self.tracer else 0.0

    def _record(self, kind, index, before, started, covered0, payload):
        finished = time.perf_counter()
        after = self._mode()
        traced = -1 if after != before else int(before[1])
        self.ops.append([kind, index, finished - started,
                         payload_digest(payload), traced,
                         self._covered() - covered0,
                         finished - self.started])

    def _failed(self, kind, index) -> None:
        self.ops.append([kind, index, None, None, -1, 0.0,
                         time.perf_counter() - self.started])

    def _reconnect(self, client, workspace):
        from repro.server.client import RemoteClient

        try:
            client.close()
        except OSError:
            pass
        fresh = RemoteClient(self.address, timeout=REQUEST_TIMEOUT)
        fresh.open_workspace(workspace)
        return fresh

    def _toggle(self, now: float) -> None:
        want = int((now - self.started) / BLOCK_SECONDS) % 2 == 1
        if want and not self.tracer.installed:
            self.tracer.install()
        elif not want and self.tracer.installed:
            self.tracer.uninstall()

    def _write(self) -> None:
        from repro.server.client import ConnectionLost, RemoteError

        for index, (name, text) in enumerate(self.stream):
            now = time.perf_counter()
            if now >= self.deadline:
                break
            if self.tracer is not None:
                self._toggle(now)
            self.codebase[name] = text
            before, covered0 = self._mode(), self._covered()
            started = time.perf_counter()
            try:
                self.writer.sync_codebase("edit", self.codebase)
                payload = self.writer.apply("edit", self.spec)
            except (RemoteError, ConnectionLost, OSError):
                self._failed("edit", index)
                self.writer = self._reconnect(self.writer, "edit")
                continue
            self._record("edit", index, before, started, covered0, payload)

    def _read(self) -> None:
        from repro.server.client import ConnectionLost, RemoteError

        while time.perf_counter() < self.deadline:
            before, covered0 = self._mode(), self._covered()
            started = time.perf_counter()
            try:
                payload = self.reader.query("ref", self.spec)
            except (RemoteError, ConnectionLost, OSError):
                self._failed("query", -1)
                self.reader = self._reconnect(self.reader, "ref")
                continue
            self._record("query", -1, before, started, covered0, payload)

    def prepare_reader(self, tree) -> None:
        """Open and warm the reader's workspace (not timed)."""
        from repro.api import CodeBase
        from repro.server.client import RemoteClient

        self.reader = RemoteClient(self.address, timeout=REQUEST_TIMEOUT)
        self.reader.open_workspace("ref")
        self.reader.sync_codebase("ref", CodeBase.from_files(dict(tree)))
        self.reader.apply("ref", self.spec)
        self.reader.query("ref", self.spec)

    def run(self) -> float:
        self.started = time.perf_counter()
        self.deadline = self.started + self.seconds
        threads = [threading.Thread(target=self._write, name="writer"),
                   threading.Thread(target=self._read, name="reader")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - self.started
        if self.tracer is not None:
            self.tracer.uninstall()
        return elapsed

    def close(self) -> None:
        for client in (self.writer, self.reader):
            if client is not None:
                client.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    from repro.api import CodeBase
    from repro.server.client import RemoteClient
    from repro.server.daemon import PatchDaemon
    from repro.server.service import PatchService

    import inputs
    from tracer import Tracer, repro_targets, smpl_targets

    ready = time.monotonic()
    tree = inputs.make_tree(args.seed)
    stream = inputs.edit_stream(args.seed, tree)
    spec = [{"kind": "cookbook", "name": inputs.COOKBOOK}]

    began = time.monotonic()
    # the fleet forks its workers here, before any thread or wrapper exists
    service = PatchService(workers=2 if args.workload == "fleet_edit" else 1)
    setup_tracer = Tracer(smpl_targets()) if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install()
    daemon = PatchDaemon("unix:bench.sock", service)
    serving = daemon.serve_in_thread()
    loop = None
    try:
        writer = RemoteClient(daemon.address, timeout=REQUEST_TIMEOUT)
        writer.open_workspace("edit")
        codebase = CodeBase.from_files(dict(tree))
        writer.sync_codebase("edit", codebase)
        first = writer.apply("edit", spec)
        done = time.monotonic()
        out = {"ready": ready, "began": began, "done": done,
               "setup_digest": payload_digest(first)}
        loop = _Loop(daemon.address, writer, codebase, stream, spec,
                     args.seconds,
                     Tracer(repro_targets()) if args.trace else None)
        if args.mode == "loop":
            loop.prepare_reader(tree)
            if setup_tracer is not None:
                setup_tracer.uninstall()
                out["setup_trace"] = setup_tracer.summary()
            out["loop_seconds"] = loop.run()
            out["ops"] = loop.ops
            if loop.tracer is not None:
                out["trace"] = loop.tracer.summary()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
        if loop is not None:
            loop.close()
        daemon.shutdown()  # the serve loop closes the daemon and service
        serving.join(timeout=10.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
