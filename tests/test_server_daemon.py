"""End-to-end tests for the daemon, the wire protocol and the remote CLI.

Everything here goes through real sockets (unix-domain by default, TCP
where noted): a daemon thread serves a :class:`PatchService`, clients
drive the JSON protocol, and parity is asserted against in-process runs —
the acceptance criterion being *byte-identical* texts, reports and exit
codes between server and local application, across prefilter on/off.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.engine.report import result_payload
from repro.server.client import ConnectionLost, RemoteClient, RemoteError
from repro.server.daemon import PatchDaemon
from repro.server.protocol import PROTOCOL_VERSION
from repro.server.service import PatchService

from daemon_wait import wait_until_serving

RENAME_SMPL = "@r@ @@\n- old();\n+ new_call();\n"

FILES = {
    "a.c": "void f(void) { old(); }\n",
    "b.c": "int idle;\n",
}


def canonical(payload: dict) -> str:
    """The deterministic section of a result payload, as comparable bytes
    (the volatile profile section and the workspace echo stripped)."""
    trimmed = {key: value for key, value in payload.items()
               if key not in ("profile", "workspace")}
    return json.dumps(trimmed, sort_keys=True)


@pytest.fixture
def daemon(tmp_path):
    daemon = PatchDaemon(f"unix:{tmp_path}/spatchd.sock",
                         PatchService(max_workspaces=8))
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


def smpl_spec(text=RENAME_SMPL, name="inline"):
    return {"kind": "smpl", "name": name, "text": text}


class TestWireBasics:
    def test_ping_open_sync_apply_stats(self, daemon):
        with RemoteClient(daemon.address) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            assert client.open_workspace("w")["created"]
            delta = client.sync_codebase("w", CodeBase.from_files(FILES))
            assert delta["files"] == 2 and delta["uploaded"] == 2
            payload = client.apply("w", [smpl_spec()])
            assert payload["exit_status"] == 0
            assert payload["files"]["a.c"]["changed"]
            stats = client.stats("w")
            assert stats["workspace"]["applies"] == 1

    def test_delta_sync_uploads_only_changes(self, daemon):
        codebase = CodeBase.from_files(FILES)
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", codebase)
            # steady state: nothing re-uploads
            assert client.sync_codebase("w", codebase)["uploaded"] == 0
            codebase["a.c"] = FILES["a.c"] + "/* edit */\n"
            delta = client.sync_codebase("w", codebase)
            assert delta["uploaded"] == 1 and delta["changed"] == ["a.c"]

    def test_semantic_patch_objects_travel_as_smpl(self, daemon):
        patch = SemanticPatch.from_string(RENAME_SMPL, name="rename")
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", CodeBase.from_files(FILES))
            payload = client.apply("w", [patch])
            assert payload["patches"] == ["rename"]
            assert payload["matched"]

    def test_unknown_verb_and_fields_are_reported(self, daemon):
        with RemoteClient(daemon.address) as client:
            with pytest.raises(RemoteError) as err:
                client.request("frobnicate")
            assert err.value.kind == "bad-verb"
            with pytest.raises(RemoteError) as err:
                client.request("ping", surprise=1)
            assert err.value.kind == "bad-request"
            with pytest.raises(RemoteError) as err:
                client.request("apply", workspace="w", patches=[smpl_spec()])
            assert err.value.kind == "unknown-workspace"

    def test_tcp_transport(self):
        daemon = PatchDaemon("127.0.0.1:0", PatchService())
        daemon.serve_in_thread()
        try:
            with RemoteClient(daemon.address) as client:
                client.open_workspace("w")
                client.sync_files("w", files=dict(FILES))
                payload = client.apply("w", [smpl_spec()])
                assert payload["exit_status"] == 0
        finally:
            daemon.shutdown()

    def test_shutdown_verb_stops_the_daemon(self, tmp_path):
        daemon = PatchDaemon(f"unix:{tmp_path}/down.sock", PatchService())
        thread = daemon.serve_in_thread()
        with RemoteClient(daemon.address) as client:
            assert client.shutdown()["stopping"]
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not os.path.exists(f"{tmp_path}/down.sock")


class TestParityWithLocal:
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_apply_payload_matches_local_run(self, daemon, prefilter):
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        local = PatchSet([patch]).apply(CodeBase.from_files(FILES),
                                        prefilter=prefilter)
        local_payload = result_payload(local, [patch])
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", CodeBase.from_files(FILES))
            remote = client.apply("w", [smpl_spec()], prefilter=prefilter)
            # a second, warm apply must serialize identically as well
            warm = client.apply("w", [smpl_spec()], prefilter=prefilter)
        assert canonical(remote) == canonical(local_payload)
        assert canonical(warm) == canonical(local_payload)

    def test_cli_diff_and_exit_code_parity(self, daemon, tmp_path, capsys):
        target = tmp_path / "proj"
        target.mkdir()
        (target / "code.c").write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)

        rc_local = spatch_main(["--sp-file", str(cocci), str(target)])
        local_out = capsys.readouterr().out
        rc_remote = spatch_main(["--server", daemon.address,
                                 "--sp-file", str(cocci), str(target)])
        remote_out = capsys.readouterr().out
        assert rc_remote == rc_local == 0
        assert remote_out == local_out
        # warm second run: byte-identical again, and still exit 0
        rc_warm = spatch_main(["--server", daemon.address,
                               "--sp-file", str(cocci), str(target)])
        assert rc_warm == 0
        assert capsys.readouterr().out == local_out

    def test_cli_json_parity(self, daemon, tmp_path, capsys):
        (tmp_path / "code.c").write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        args = ["--json", "--sp-file", str(cocci), str(tmp_path / "code.c")]

        assert spatch_main(args) == 0
        local_payload = json.loads(capsys.readouterr().out)
        assert spatch_main(["--server", daemon.address, *args]) == 0
        remote_payload = json.loads(capsys.readouterr().out)
        assert canonical(remote_payload) == canonical(local_payload)

    def test_cli_no_match_exit_parity(self, daemon, tmp_path, capsys):
        (tmp_path / "code.c").write_text("int nothing_here;\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        rc_local = spatch_main(["--sp-file", str(cocci),
                                str(tmp_path / "code.c")])
        rc_remote = spatch_main(["--server", daemon.address, "--sp-file",
                                 str(cocci), str(tmp_path / "code.c")])
        capsys.readouterr()
        assert rc_local == rc_remote == 1

    def test_cli_in_place_parity(self, daemon, tmp_path, capsys):
        local_dir = tmp_path / "local"
        remote_dir = tmp_path / "remote"
        for directory in (local_dir, remote_dir):
            directory.mkdir()
            (directory / "code.c").write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        assert spatch_main(["--sp-file", str(cocci), "--in-place",
                            str(local_dir)]) == 0
        assert spatch_main(["--server", daemon.address, "--sp-file",
                            str(cocci), "--in-place", str(remote_dir)]) == 0
        capsys.readouterr()
        assert (remote_dir / "code.c").read_text() \
            == (local_dir / "code.c").read_text()

    def test_cli_server_flag_conflicts(self, daemon, tmp_path):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        for extra in (["--watch"], ["--incremental", str(tmp_path / "s")]):
            with pytest.raises(SystemExit):
                spatch_main(["--server", daemon.address, "--sp-file",
                             str(cocci), str(tmp_path), *extra])

    def test_cli_server_unreachable_exits_2(self, tmp_path, capsys):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        (tmp_path / "code.c").write_text("int x;\n")
        rc = spatch_main(["--server", f"unix:{tmp_path}/no.sock",
                          "--sp-file", str(cocci), str(tmp_path / "code.c")])
        assert rc == 2
        assert "server" in capsys.readouterr().err


class TestFailureIsolation:
    def test_garbage_line_gets_error_then_connection_closes(self, daemon):
        family, target = ("unix", daemon.address[len("unix:"):]) \
            if daemon.address.startswith("unix:") else (None, None)
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(target)
        sock.sendall(b"this is not json\n")
        response = sock.makefile("rb").readline()
        assert json.loads(response)["ok"] is False
        sock.close()

    def test_crash_mid_request_does_not_poison_the_workspace(self, daemon):
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", CodeBase.from_files(FILES))
            reference = client.apply("w", [smpl_spec()])

        # a client dies mid-line: half a request, no newline, then gone
        target = daemon.address[len("unix:"):]
        for partial in (b'{"verb": "apply", "workspace": "w"',
                        b'{"verb": "sync_files", "workspace": "w", '
                        b'"files": {"a.c": "int'):
            sock = socket.socket(socket.AF_UNIX)
            sock.connect(target)
            sock.sendall(partial)
            sock.close()
        time.sleep(0.1)

        # other clients still get byte-identical, warm answers
        with RemoteClient(daemon.address) as client:
            after = client.apply("w", [smpl_spec()], profile=True)
            assert canonical(after) == canonical(reference)
            assert after["profile"]["incremental"]["files_reused"] \
                == len(FILES)

    def test_failing_request_leaves_others_running(self, daemon):
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            with pytest.raises(RemoteError):
                client.apply("w", [{"kind": "cookbook", "name": "no_such"}])
            # same connection keeps working after a failed request
            payload = client.apply("w", [smpl_spec()])
            assert payload["exit_status"] == 0


    @pytest.mark.parametrize("payload", [{"remove": "abc"},
                                         {"hashes": ["a.c"]}],
                             ids=["remove-str", "hashes-list"])
    def test_malformed_sync_is_a_bad_request_and_changes_nothing(
            self, daemon, payload):
        files = dict(FILES, a="int a;\n")
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=dict(files))
            with pytest.raises(RemoteError) as err:
                # raw request: the client helper would list() the string
                client.request("sync_files", workspace="w",
                               files={"d.c": "int d;\n"}, **payload)
            assert err.value.kind == "bad-request"
        assert daemon.service.workspace("w").codebase.files == files


class TestConcurrentClients:
    def test_hammering_one_workspace_matches_serialized_results(self, daemon):
        """N threaded clients interleaving sync_files/apply against one
        workspace: every response must be byte-identical to the serialized
        reference — a torn read or lost update would change texts or
        reports."""
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", CodeBase.from_files(FILES))
            reference = canonical(client.apply("w", [smpl_spec()]))

        payloads, errors = [], []

        def hammer():
            try:
                with RemoteClient(daemon.address) as client:
                    for _ in range(4):
                        client.sync_files("w", files=dict(FILES))
                        payloads.append(client.apply("w", [smpl_spec()]))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(payloads) == 16
        assert all(canonical(payload) == reference for payload in payloads)

    def test_two_state_hammering_never_shows_a_torn_mixture(self, daemon):
        """Clients alternate the workspace between two whole-tree states
        while others apply: every apply must equal the reference payload of
        state A or state B — anything else means a sync interleaved inside
        an apply."""
        state_a = dict(FILES)
        state_b = {"a.c": "void f(void) { old(); old(); }\n",
                   "b.c": "int idle;\n"}
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        references = set()
        for state in (state_a, state_b):
            local = PatchSet([patch]).apply(CodeBase.from_files(state))
            references.add(canonical(result_payload(local, [patch])))

        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=state_a)

        payloads, errors = [], []

        def hammer(which):
            try:
                with RemoteClient(daemon.address) as client:
                    for _ in range(4):
                        client.sync_files("w", files=dict(which))
                        payloads.append(client.apply("w", [smpl_spec()]))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer,
                                    args=(state_a if index % 2 else state_b,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(payloads) == 16
        for payload in payloads:
            assert canonical(payload) in references


class TestDaemonSubprocess:
    """The CI server-smoke path: a real ``repro-spatchd`` process."""

    def test_spawned_daemon_serves_and_shuts_down(self, tmp_path):
        sock = tmp_path / "smoke.sock"
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), env.get("PYTHONPATH", "")]).rstrip(
                os.pathsep)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.spatchd",
             "--listen", f"unix:{sock}"],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            wait_until_serving(f"unix:{sock}", process)
            (tmp_path / "code.c").write_text("void f(void) { old(); }\n")
            cocci = tmp_path / "r.cocci"
            cocci.write_text(RENAME_SMPL)
            with RemoteClient(f"unix:{sock}") as client:
                client.open_workspace("smoke")
                client.sync_files("smoke",
                                  files={"code.c": "void f(void) { old(); }\n"})
                payload = client.apply("smoke", [smpl_spec()])
                assert payload["exit_status"] == 0
                assert client.stats()["workspaces"] == 1
                client.shutdown()
            assert process.wait(timeout=15.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait()


class TestSpatchdCli:
    def test_main_serves_until_shutdown_verb(self, tmp_path, capsys):
        from repro.cli.spatchd import main as spatchd_main

        (tmp_path / "root" ).mkdir()
        (tmp_path / "root" / "x.c").write_text("void f(void) { old(); }\n")
        sock = tmp_path / "cli.sock"
        rc_holder = []

        def run():
            rc_holder.append(spatchd_main(
                ["--listen", f"unix:{sock}", "--max-workspaces", "4",
                 "--workspace-root", f"pre={tmp_path / 'root'}",
                 "--verbose"]))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        wait_until_serving(f"unix:{sock}", thread, timeout=15.0)
        with RemoteClient(f"unix:{sock}") as client:
            # the pre-opened workspace is queryable straight away
            payload = client.apply("pre", [smpl_spec()])
            assert payload["exit_status"] == 0
            client.shutdown()
        thread.join(timeout=10.0)
        assert rc_holder == [0]

    def test_bad_arguments_exit_2(self, tmp_path):
        from repro.cli.spatchd import main as spatchd_main

        with pytest.raises(SystemExit):
            spatchd_main(["--listen", f"unix:{tmp_path}/x.sock",
                          "--jobs", "lots"])
        with pytest.raises(SystemExit):
            spatchd_main(["--listen", f"unix:{tmp_path}/x.sock",
                          "--workspace-root", "missing-separator"])
        with pytest.raises(SystemExit):
            spatchd_main([])  # --listen is required

    def test_bad_listen_address_exits_2(self, tmp_path, capsys):
        from repro.cli.spatchd import main as spatchd_main

        assert spatchd_main(["--listen", "not-an-address"]) == 2
        assert "repro-spatchd" in capsys.readouterr().err
