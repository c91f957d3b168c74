"""Protocol v2, the apply fleet and restart-surviving workspaces.

The v2 acceptance criteria under test:

* **Pipelining** — a v2 client tags requests with ids, any number may be
  in flight, and the daemon may answer out of order; mutating verbs still
  execute FIFO per (connection, workspace).
* **Compat** — an unmodified v1 client (id-less, strictly serial) works
  against a v2 daemon; a v2 client degrades to v1 against a server that
  rejects ``hello``.
* **Auth** — TCP daemons armed with a shared secret refuse verbs until a
  tokened hello; unix sockets stay auth-free.
* **Fleet** — ``workers=N`` moves applies into worker processes with
  byte-identical results, self-healing resync, and respawn-on-death.
* **Restart** — with a ``state_root``, ``kill -9`` plus restart
  reproduces byte-identical diffs and exit codes *warm* (reuse counters
  over zero), at the service level and through a real daemon subprocess.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.engine.cache import SharedTreeStore, TreeCache, content_sha1
from repro.obs import Capture
from repro.server.client import ConnectionLost, RemoteClient, RemoteError
from repro.server.daemon import PatchDaemon
from repro.server.fleet import ApplyFleet, shard_of, state_path
from repro.server.protocol import (PROTOCOL_VERSION, read_message,
                                   result_payload, write_message)
from repro.server.service import PatchService, ServiceError

RENAME_SMPL = "@r@ @@\n- old();\n+ new_call();\n"

FILES = {
    "a.c": "void f(void) { old(); }\n",
    "b.c": "int idle;\n",
}


def canonical(payload: dict) -> str:
    trimmed = {key: value for key, value in payload.items()
               if key not in ("profile", "workspace")}
    return json.dumps(trimmed, sort_keys=True)


def smpl_spec(text=RENAME_SMPL, name="inline"):
    return {"kind": "smpl", "name": name, "text": text}


@pytest.fixture
def daemon(tmp_path):
    daemon = PatchDaemon(f"unix:{tmp_path}/v2.sock", PatchService())
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


# ---------------------------------------------------------------------------
# negotiation, pipelining, ordering
# ---------------------------------------------------------------------------

class TestNegotiation:
    def test_v2_client_negotiates_protocol_2(self, daemon):
        with RemoteClient(daemon.address) as client:
            assert client.protocol == 2
            assert client.ping()["protocol"] == PROTOCOL_VERSION

    def test_protocol_1_client_stays_serial(self, daemon):
        with RemoteClient(daemon.address, protocol=1) as client:
            assert client.protocol == 1
            assert client.open_workspace("w")["created"]
            client.sync_files("w", files=dict(FILES))
            assert client.apply("w", [smpl_spec()])["exit_status"] == 0
            with pytest.raises(ConnectionLost):
                client.submit("ping")

    def test_raw_v1_wire_requests_still_work(self, daemon):
        """The compat contract at the byte level: id-less requests with no
        hello — exactly what an old client sends — are answered id-less
        and in order."""
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(daemon.address[len("unix:"):])
        stream = sock.makefile("rwb")
        try:
            write_message(stream, {"verb": "open_workspace",
                                   "workspace": "w"})
            response = read_message(stream)
            assert response["ok"] and "id" not in response
            write_message(stream, {"verb": "sync_files", "workspace": "w",
                                   "files": dict(FILES)})
            assert read_message(stream)["ok"]
            write_message(stream, {"verb": "apply", "workspace": "w",
                                   "patches": [smpl_spec()]})
            response = read_message(stream)
            assert response["ok"] and "id" not in response
            assert response["result"]["exit_status"] == 0
        finally:
            sock.close()

    def test_hello_result_shape(self, daemon):
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(daemon.address[len("unix:"):])
        stream = sock.makefile("rwb")
        try:
            write_message(stream, {"verb": "hello",
                                   "protocol": PROTOCOL_VERSION})
            result = read_message(stream)["result"]
            assert result["protocol"] == PROTOCOL_VERSION
            assert result["pipelined"] is True
            assert result["auth"] == "open"
        finally:
            sock.close()


class TestPipelining:
    def test_out_of_order_completion(self, daemon):
        """Reads never queue behind applies: a stats submitted *after* an
        apply is answered while the apply is still running."""
        big = {f"f{i}.c": f"void f{i}(void) {{ old(); }}\n"
               for i in range(80)}
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=big)
            pending = client.submit_apply("w", [smpl_spec()], profile=True)
            stats = client.submit("stats").wait()  # waited before the apply
            assert stats["workspaces"] == 1
            payload = pending.wait()
            assert payload["exit_status"] == 0
            assert payload["summary"]["changed_files"] == len(big)

    def test_waiting_in_any_order_parks_responses(self, daemon):
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            first = client.submit("ping")
            second = client.submit("stats")
            third = client.submit("ping")
            assert third.wait()["protocol"] == PROTOCOL_VERSION
            assert second.wait()["workspaces"] == 1
            assert first.wait()["protocol"] == PROTOCOL_VERSION

    def test_mutating_verbs_keep_fifo_order_per_workspace(self, daemon):
        """sync(A); apply; sync(B); apply — all pipelined at once — must
        see state A then state B: the per-(connection, workspace) chain
        is what makes a pipelined client's script mean what it says."""
        state_a = dict(FILES)
        state_b = {"a.c": "void f(void) { old(); old(); }\n",
                   "b.c": "int idle;\n"}
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        expect_a = canonical(result_payload(
            PatchSet([patch]).apply(CodeBase.from_files(state_a)), [patch]))
        expect_b = canonical(result_payload(
            PatchSet([patch]).apply(CodeBase.from_files(state_b)), [patch]))

        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            replies = []
            for state in (state_a, state_b):
                client.submit("sync_files", workspace="w", files=state)
                replies.append(client.submit_apply("w", [smpl_spec()]))
            got_a, got_b = [reply.wait() for reply in replies]
        assert canonical(got_a) == expect_a
        assert canonical(got_b) == expect_b

    def test_errors_are_per_request_not_per_connection(self, daemon):
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            bad = client.submit_apply(
                "w", [{"kind": "cookbook", "name": "no_such"}])
            good = client.submit_apply("w", [smpl_spec()])
            with pytest.raises(RemoteError):
                bad.wait()
            assert good.wait()["exit_status"] == 0


# ---------------------------------------------------------------------------
# auth
# ---------------------------------------------------------------------------

class TestAuth:
    @pytest.fixture
    def tcp_daemon(self):
        daemon = PatchDaemon("127.0.0.1:0", PatchService(),
                             auth_token="sesame")
        daemon.serve_in_thread()
        yield daemon
        daemon.shutdown()

    def test_tokened_client_works(self, tcp_daemon):
        with RemoteClient(tcp_daemon.address, token="sesame") as client:
            assert client.protocol == 2
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            assert client.apply("w", [smpl_spec()])["exit_status"] == 0

    def test_wrong_token_fails_loudly(self, tcp_daemon):
        with pytest.raises(RemoteError) as err:
            RemoteClient(tcp_daemon.address, token="wrong")
        assert err.value.kind == "auth-failed"

    def test_verb_before_hello_is_refused(self, tcp_daemon):
        with pytest.raises(RemoteError) as err:
            RemoteClient(tcp_daemon.address, protocol=1).ping()
        assert err.value.kind == "auth-required"

    def test_unix_socket_ignores_the_token(self, tmp_path):
        daemon = PatchDaemon(f"unix:{tmp_path}/open.sock", PatchService(),
                             auth_token="sesame")
        daemon.serve_in_thread()
        try:
            with RemoteClient(daemon.address) as client:  # no token
                assert client.ping()["protocol"] == PROTOCOL_VERSION
        finally:
            daemon.shutdown()

    def test_cli_auth_token_flag(self, tcp_daemon, tmp_path, capsys):
        (tmp_path / "code.c").write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        rc = spatch_main(["--server", tcp_daemon.address,
                          "--auth-token", "sesame",
                          "--sp-file", str(cocci), str(tmp_path / "code.c")])
        assert rc == 0
        assert "new_call" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# shared parse-tree store
# ---------------------------------------------------------------------------

class TestSharedTreeStore:
    def test_identical_content_parses_once_across_caches(self):
        from repro.options import SpatchOptions

        options = SpatchOptions()
        store = SharedTreeStore()
        first = TreeCache(shared=store)
        second = TreeCache(shared=store)
        text = "void f(void) { old(); }\n"
        with Capture() as first_counts:
            tree_a = first.get_or_parse(text, "vendor/a.c", options)
        with Capture() as second_counts:
            tree_b = second.get_or_parse(text, "other/b.c", options)
        # the one real parse
        assert first.counters(first_counts)["misses"] == 1
        assert second.counters(second_counts)["misses"] == 0
        assert second.counters(second_counts)["shared_hits"] == 1
        # the rebind is real: each tree names its own file
        assert tree_a.source.name == "vendor/a.c"
        assert tree_b.source.name == "other/b.c"
        assert store.counters(second_counts)["rebinds"] == 1

    def test_service_shares_trees_across_workspaces(self):
        """w2 applies a *different* patch to the same contents: the
        transform memo misses (new patch fingerprint), so the files must
        parse — and the shared store answers with w1's trees."""
        other = "@r@ @@\n- old();\n+ other_call();\n"
        service = PatchService()
        try:
            for name, smpl in (("w1", RENAME_SMPL), ("w2", other)):
                service.open_workspace(name)
                service.sync_files(name, files=dict(FILES))
                payload = service.apply(name, [smpl_spec(smpl)])
                assert payload["exit_status"] == 0
            stats = service.stats()
            assert stats["tree_store"]["stores"] >= 1
            assert stats["tree_store"]["hits"] >= 1
        finally:
            service.close()


# ---------------------------------------------------------------------------
# memo-aware delta sync
# ---------------------------------------------------------------------------

class TestMemoAwareSync:
    def test_known_content_never_reuploads(self, daemon):
        codebase = CodeBase.from_files(FILES)
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w1")
            first = client.sync_codebase("w1", codebase)
            assert first["uploaded"] == len(FILES)
            # a second workspace wants the same contents: the blob memo
            # answers the manifest round, nothing travels again
            client.open_workspace("w2")
            second = client.sync_codebase("w2", codebase)
            assert second["uploaded"] == 0
            assert second["recalled"] == len(FILES)
            payload = client.apply("w2", [smpl_spec()])
            assert payload["exit_status"] == 0
            assert payload["files"]["a.c"]["changed"]

    def test_recalled_files_are_byte_identical(self, daemon):
        tricky = {"t.c": "void f(void) { old(); } /* é */\n"}
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w1")
            client.sync_codebase("w1", CodeBase.from_files(tricky))
            client.open_workspace("w2")
            client.sync_codebase("w2", CodeBase.from_files(tricky))
            payload = client.apply("w2", [smpl_spec()], texts=True)
            assert payload["files"]["t.c"]["text"] \
                == "void f(void) { new_call(); } /* é */\n"


# ---------------------------------------------------------------------------
# the apply fleet
# ---------------------------------------------------------------------------

class TestFleetSharding:
    def test_shard_is_stable_and_bounded(self):
        for name in ("w", "proj-1", "ünicode", ""):
            shard = shard_of(name, 8)
            assert 0 <= shard < 8
            assert shard == shard_of(name, 8)  # deterministic across calls

    def test_state_path_distinguishes_colliding_names(self, tmp_path):
        first = state_path(str(tmp_path), "a/b")
        second = state_path(str(tmp_path), "a:b")
        assert first != second
        assert first.endswith(".state")

    def test_fleet_needs_two_workers(self):
        with pytest.raises(ValueError):
            ApplyFleet(1)


@pytest.fixture
def fleet_service(tmp_path):
    service = PatchService(workers=2, state_root=str(tmp_path / "state"))
    yield service
    service.close()


class TestFleetApply:
    def test_byte_identity_with_in_process_apply(self, fleet_service):
        reference_service = PatchService()
        try:
            for service in (reference_service, fleet_service):
                service.open_workspace("w")
                service.sync_files("w", files=dict(FILES))
            reference = reference_service.apply("w", [smpl_spec()])
            fleet = fleet_service.apply("w", [smpl_spec()])
        finally:
            reference_service.close()
        assert canonical(fleet) == canonical(reference)

    def test_warm_reapply_reuses_everything(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        fleet_service.apply("w", [smpl_spec()])
        warm = fleet_service.apply("w", [smpl_spec()], profile=True)
        assert warm["profile"]["incremental"]["files_reused"] == len(FILES)

    def test_query_does_not_go_through_the_fleet(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        payload = fleet_service.query("w", [smpl_spec()])
        assert payload["summary"]["changed_files"] == 1

    def test_stats_reports_the_fleet(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        fleet_service.apply("w", [smpl_spec()])
        stats = fleet_service.stats()
        assert stats["workers"] == 2
        fleet = stats["fleet"]
        assert fleet["workers"] == 2 and fleet["respawns"] == 0
        pinned = fleet["per_worker"][shard_of("w", 2)]
        assert "w" in pinned["workspaces"]

    def test_killed_worker_respawns_and_self_heals(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        reference = canonical(fleet_service.apply("w", [smpl_spec()]))

        handle = fleet_service._fleet._handles[shard_of("w", 2)]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=5.0)

        after = fleet_service.apply("w", [smpl_spec()])
        assert canonical(after) == reference
        assert fleet_service.stats()["fleet"]["respawns"] >= 1

    def test_service_error_from_worker_propagates_kind(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        with pytest.raises(ServiceError) as err:
            fleet_service.apply("w", [{"kind": "cookbook",
                                       "name": "no_such"}])
        assert err.value.kind == "bad-patch"  # same kind the in-process path raises

    def test_two_workspaces_land_on_their_pinned_workers(self, fleet_service):
        # find two names that shard apart so the test exercises both pipes
        names = []
        index = 0
        while len(names) < 2:
            name = f"ws-{index}"
            if not names or shard_of(name, 2) != shard_of(names[0], 2):
                names.append(name)
            index += 1
        for name in names:
            fleet_service.open_workspace(name)
            fleet_service.sync_files(name, files=dict(FILES))
            payload = fleet_service.apply(name, [smpl_spec()])
            assert payload["exit_status"] == 0
        per_worker = fleet_service.stats()["fleet"]["per_worker"]
        assert "ws-0" in per_worker[shard_of("ws-0", 2)]["workspaces"]
        assert names[1] in per_worker[shard_of(names[1], 2)]["workspaces"]


# ---------------------------------------------------------------------------
# restart survival
# ---------------------------------------------------------------------------

class TestRestartSurvival:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_service_restart_is_byte_identical_and_warm(self, tmp_path,
                                                        workers):
        state_root = str(tmp_path / "state")
        service = PatchService(workers=workers, state_root=state_root)
        try:
            service.open_workspace("w")
            service.sync_files("w", files=dict(FILES))
            reference = canonical(service.apply("w", [smpl_spec()]))
        finally:
            service.close()

        # "restart": a brand-new service over the same state root
        reborn = PatchService(workers=workers, state_root=state_root)
        try:
            opened = reborn.open_workspace("w")
            assert opened["restored"] and opened["files"] == len(FILES)
            # the tree is already there: sync is a no-op hash round
            delta = reborn.sync_files("w", hashes={
                name: content_sha1(text) for name, text in FILES.items()})
            assert not delta["need"]
            after = reborn.apply("w", [smpl_spec()], profile=True)
            assert canonical(after) == reference
            assert after["profile"]["restored"]
            assert after["profile"]["incremental"]["files_reused"] \
                == len(FILES)
        finally:
            reborn.close()

    def test_restored_workspace_accepts_edits(self, tmp_path):
        state_root = str(tmp_path / "state")
        service = PatchService(workers=2, state_root=state_root)
        try:
            service.open_workspace("w")
            service.sync_files("w", files=dict(FILES))
            service.apply("w", [smpl_spec()])
        finally:
            service.close()

        reborn = PatchService(workers=2, state_root=state_root)
        try:
            reborn.open_workspace("w")
            reborn.sync_files("w", files={
                "a.c": "void f(void) { old(); old(); }\n"})
            payload = reborn.apply("w", [smpl_spec()])
            assert payload["summary"]["matches"] == 2
        finally:
            reborn.close()


def _spawn_daemon(tmp_path, sock, *extra):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), env.get("PYTHONPATH", "")]).rstrip(
            os.pathsep)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.spatchd",
         "--listen", f"unix:{sock}", *extra],
        env=env, stderr=subprocess.PIPE, text=True)
    deadline = time.time() + 30.0
    while not os.path.exists(sock):
        assert process.poll() is None, process.stderr.read()
        assert time.time() < deadline, "daemon never bound its socket"
        time.sleep(0.05)
    return process


class TestKillDashNine:
    """The headline criterion: ``kill -9`` a real daemon, restart it over
    the same ``--state-root``, and get byte-identical results — warm."""

    def test_sigkill_restart_reproduces_results_warm(self, tmp_path):
        sock = str(tmp_path / "kill.sock")
        state_root = str(tmp_path / "state")
        args = ("--workers", "2", "--state-root", state_root)

        process = _spawn_daemon(tmp_path, sock, *args)
        try:
            with RemoteClient(f"unix:{sock}") as client:
                client.open_workspace("w")
                client.sync_files("w", files=dict(FILES))
                reference = client.apply("w", [smpl_spec()])
                assert reference["exit_status"] == 0
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=15.0)
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait()
        os.unlink(sock)

        process = _spawn_daemon(tmp_path, sock, *args)
        try:
            with RemoteClient(f"unix:{sock}") as client:
                opened = client.open_workspace("w")
                assert opened["restored"]
                after = client.apply("w", [smpl_spec()], profile=True)
                assert canonical(after) == canonical(reference)
                assert after["exit_status"] == reference["exit_status"]
                assert after["profile"]["restored"]
                assert after["profile"]["incremental"]["files_reused"] > 0
                client.shutdown()
            assert process.wait(timeout=15.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie waiting for its reaper
    has exited, so it counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestFleetOrphans:
    """Fleet workers must not outlive a SIGKILLed owner: each one exits
    when its pipe to the parent reports EOF."""

    HOLDER = ("import time\n"
              "from repro.server.fleet import ApplyFleet\n"
              "fleet = ApplyFleet(2)\n"
              "print(*(h.process.pid for h in fleet._handles), flush=True)\n"
              "time.sleep(60)\n")

    def test_workers_exit_when_the_owner_is_killed(self):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), env.get("PYTHONPATH", "")]).rstrip(
                os.pathsep)
        holder = subprocess.Popen([sys.executable, "-c", self.HOLDER],
                                  env=env, stdout=subprocess.PIPE, text=True)
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in holder.stdout.readline().split()]
            assert len(pids) == 2
            os.kill(holder.pid, signal.SIGKILL)
            holder.wait(timeout=15.0)
            deadline = time.time() + 5.0
            while any(map(_running, pids)) and time.time() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            if holder.poll() is None:  # pragma: no cover - failure path
                holder.kill()
                holder.wait()
            for pid in filter(_running, pids):  # pragma: no cover
                os.kill(pid, signal.SIGKILL)
            holder.stdout.close()


# ---------------------------------------------------------------------------
# CLI resilience and flags
# ---------------------------------------------------------------------------

class TestCliRetry:
    def test_retries_once_then_succeeds(self, tmp_path, capsys):
        """The daemon comes up *after* the first connect fails: the retry
        (one exponential-backoff sleep later) lands on the live socket."""
        sock = tmp_path / "late.sock"
        (tmp_path / "code.c").write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)

        holder = {}

        def come_up_late():
            time.sleep(0.15)
            daemon = PatchDaemon(f"unix:{sock}", PatchService())
            daemon.serve_in_thread()
            holder["daemon"] = daemon

        thread = threading.Thread(target=come_up_late, daemon=True)
        thread.start()
        try:
            rc = spatch_main(["--server", f"unix:{sock}",
                              "--sp-file", str(cocci),
                              str(tmp_path / "code.c")])
            captured = capsys.readouterr()
            assert rc == 0
            assert "retrying" in captured.err
            assert "new_call" in captured.out
        finally:
            thread.join(timeout=5.0)
            if "daemon" in holder:
                holder["daemon"].shutdown()

    def test_gives_up_after_one_retry(self, tmp_path, capsys):
        (tmp_path / "code.c").write_text("int x;\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        rc = spatch_main(["--server", f"unix:{tmp_path}/never.sock",
                          "--sp-file", str(cocci), str(tmp_path / "code.c")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("retrying") == 1


class TestDaemonCliFlags:
    def test_workers_must_be_positive(self, tmp_path):
        from repro.cli.spatchd import main as spatchd_main

        with pytest.raises(SystemExit):
            spatchd_main(["--listen", f"unix:{tmp_path}/x.sock",
                          "--workers", "0"])

    def test_memo_bounds_require_memo_dir(self, tmp_path):
        from repro.cli.spatchd import main as spatchd_main

        with pytest.raises(SystemExit):
            spatchd_main(["--listen", f"unix:{tmp_path}/x.sock",
                          "--memo-max-mb", "64"])

    def test_spatch_memo_prune_requires_memo_dir(self):
        with pytest.raises(SystemExit):
            spatch_main(["--memo-prune"])
        with pytest.raises(SystemExit):
            spatch_main(["--memo-prune", "--memo-dir", "/tmp/x"])


class TestFleetDaemonEndToEnd:
    def test_daemon_with_workers_serves_clients(self, tmp_path):
        daemon = PatchDaemon(
            f"unix:{tmp_path}/fleet.sock",
            PatchService(workers=2, state_root=str(tmp_path / "state")))
        daemon.serve_in_thread()
        try:
            with RemoteClient(daemon.address) as client:
                client.open_workspace("w")
                client.sync_codebase("w", CodeBase.from_files(FILES))
                payload = client.apply("w", [smpl_spec()])
                assert payload["exit_status"] == 0
                assert payload["files"]["a.c"]["changed"]
                warm = client.apply("w", [smpl_spec()], profile=True)
                assert warm["profile"]["incremental"]["files_reused"] \
                    == len(FILES)
                assert client.stats()["fleet"]["workers"] == 2
        finally:
            daemon.shutdown()
