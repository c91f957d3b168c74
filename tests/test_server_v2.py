"""The wire contract, the apply fleet and restart-surviving workspaces.

The acceptance criteria under test:

* **One wire mode** — every connection is served one request at a time,
  in order; a second connection is answered while an apply runs on the
  first.
* **Compat** — an id-less raw client, and one that opens with a
  ``hello`` asking for protocol 2, are both served in order.
* **Auth** — TCP daemons armed with a shared secret refuse verbs until a
  tokened hello; unix sockets stay auth-free.
* **Fleet** — ``workers=N`` moves applies into worker processes with
  byte-identical results, self-healing resync, and respawn-on-death.
* **Restart** — with a ``state_root``, ``kill -9`` plus restart
  reproduces byte-identical diffs and exit codes *warm* (reuse counters
  over zero), at the service level and through a real daemon subprocess.
"""

import gc
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro import CodeBase
from repro.cli.spatch import main as spatch_main
from repro.engine.cache import content_sha1
from repro.server.client import RemoteClient, RemoteError
from repro.server.daemon import PatchDaemon
from repro.server.fleet import ApplyFleet, shard_of
from repro.server.protocol import (PROTOCOL_VERSION, read_message,
                                   write_message)
from repro.server.service import PatchService, ServiceError, state_path

from daemon_wait import wait_until_serving

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
# one request at a time per connection
# ---------------------------------------------------------------------------

def _raw_connection(daemon):
    sock = socket.socket(socket.AF_UNIX)
    sock.connect(daemon.address[len("unix:"):])
    return sock, sock.makefile("rwb")


class TestWireContract:
    def test_raw_v1_wire_requests_still_work(self, daemon):
        """The compat contract at the byte level: id-less requests with no
        hello — exactly what an old client sends — are answered id-less
        and in order."""
        sock, stream = _raw_connection(daemon)
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
        sock, stream = _raw_connection(daemon)
        try:
            write_message(stream, {"verb": "hello",
                                   "protocol": PROTOCOL_VERSION})
            result = read_message(stream)["result"]
            assert result["protocol"] == PROTOCOL_VERSION
            assert result["auth"] == "open"
            assert "pipelined" not in result
        finally:
            sock.close()

    def test_hello_asking_for_protocol_2_is_served_in_order(self, daemon):
        """What a client built for the old pipelined contract sends: a
        hello asking for protocol 2, then id-tagged requests.  Each one
        is answered, in order, before the next is read."""
        sock, stream = _raw_connection(daemon)
        try:
            write_message(stream, {"verb": "hello", "id": 1, "protocol": 2})
            assert read_message(stream) == {
                "id": 1, "ok": True,
                "result": {"protocol": PROTOCOL_VERSION, "auth": "open"}}
            requests = [
                {"verb": "open_workspace", "workspace": "w"},
                {"verb": "sync_files", "workspace": "w",
                 "files": dict(FILES)},
                {"verb": "apply", "workspace": "w",
                 "patches": [smpl_spec()]},
            ]
            for request_id, request in enumerate(requests, start=2):
                write_message(stream, {**request, "id": request_id})
            responses = [read_message(stream) for _ in requests]
            assert [r["id"] for r in responses] == [2, 3, 4]
            assert all(r["ok"] for r in responses)
            assert responses[0]["result"]["created"]
            assert responses[2]["result"]["exit_status"] == 0
            assert responses[2]["result"]["files"]["a.c"]["changed"]
        finally:
            sock.close()

    def test_second_connection_answers_while_an_apply_runs(self, daemon,
                                                           tmp_path):
        """The reader/writer split the service loop relies on: ``stats``
        and ``query`` on a second connection are answered while an apply
        on the first is still running (a script rule waiting on a
        file)."""
        started, release = tmp_path / "started", tmp_path / "release"
        blocking = ("@r@\nidentifier f;\n@@\nf(...);\n\n"
                    "@script:python s@\nf << r.f;\n@@\n"
                    "import os, time\n"
                    f"open({str(started)!r}, 'w').close()\n"
                    "for _ in range(3000):\n"
                    f"    if os.path.exists({str(release)!r}):\n"
                    "        break\n"
                    "    time.sleep(0.01)\n")
        with RemoteClient(daemon.address) as writer, \
                RemoteClient(daemon.address) as reader:
            writer.open_workspace("w")
            writer.sync_files("w", files=dict(FILES))
            applied = []
            apply_thread = threading.Thread(target=lambda: applied.append(
                writer.apply("w", [smpl_spec(blocking, name="block")])))
            apply_thread.start()
            try:
                deadline = time.monotonic() + 30.0
                while not started.exists():
                    assert time.monotonic() < deadline, "the script never ran"
                    time.sleep(0.01)
                assert reader.stats()["workspaces"] == 1
                queried = reader.query("w", [smpl_spec()])
                assert queried["summary"]["changed_files"] == 1
                assert not release.exists()  # the apply is still blocked
                assert apply_thread.is_alive()
            finally:
                release.touch()
                apply_thread.join(timeout=30.0)
        assert applied and applied[0]["exit_status"] == 0

    def test_threads_sharing_a_client_take_turns(self, daemon):
        """One client, four threads: every response reaches the thread
        whose request it answers."""
        names = [f"ws-{index}" for index in range(4)]
        errors = []
        with RemoteClient(daemon.address) as client:
            for name in names:
                client.open_workspace(name)

            def poll(name):
                try:
                    for _ in range(25):
                        assert client.stats(name)["workspace"]["name"] \
                            == name
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=poll, args=(name,))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not errors

    def test_errors_are_per_request_not_per_connection(self, daemon):
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            with pytest.raises(RemoteError) as err:
                client.apply("w", [{"kind": "cookbook", "name": "no_such"}])
            assert err.value.kind == "bad-patch"
            assert client.apply("w", [smpl_spec()])["exit_status"] == 0


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
            client.open_workspace("w")
            client.sync_files("w", files=dict(FILES))
            assert client.apply("w", [smpl_spec()])["exit_status"] == 0

    def test_wrong_token_fails_loudly(self, tcp_daemon):
        with pytest.raises(RemoteError) as err:
            RemoteClient(tcp_daemon.address, token="wrong")
        assert err.value.kind == "auth-failed"

    def test_verb_before_hello_is_refused(self, tcp_daemon):
        with RemoteClient(tcp_daemon.address) as client:  # no token
            with pytest.raises(RemoteError) as err:
                client.ping()
        assert err.value.kind == "auth-required"

    def test_failed_hello_closes_the_socket(self, tcp_daemon):
        """A constructor whose hello fails leaves no socket behind: none
        is reported unclosed when the garbage collector runs."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RemoteError):
                RemoteClient(tcp_daemon.address, token="wrong")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_failed_unix_connect_closes_the_socket(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                RemoteClient(f"unix:{tmp_path}/nothing.sock")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

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
# one parse cache per service
# ---------------------------------------------------------------------------

class TestOneParseCache:
    def test_workspaces_with_the_same_contents_parse_each_text_once(self):
        """w2 applies a *different* patch to the same contents: the
        transform memo misses (new patch fingerprint), so the files must
        parse — and the service's one cache answers with w1's trees."""
        other = "@r@ @@\n- old();\n+ other_call();\n"
        service = PatchService()
        try:
            for name, smpl in (("w1", RENAME_SMPL), ("w2", other)):
                service.open_workspace(name)
                service.sync_files(name, files=dict(FILES))
                payload = service.apply(name, [smpl_spec(smpl)])
                assert payload["exit_status"] == 0
            stats = service.stats()
            caches = {row["name"]: row["parse_cache"]
                      for row in stats["per_workspace"]}
            assert caches["w1"]["misses"] >= 1
            assert caches["w2"]["misses"] == 0  # every tree came from w1
            assert caches["w2"]["hits"] >= 1
            # one cache: both rows report its size
            assert caches["w1"]["entries"] == caches["w2"]["entries"] \
                == len(service.cache)
            assert "tree_store" not in stats
        finally:
            service.close()

    def test_script_positions_name_each_workspaces_file(self, capsys):
        """The same text under two names in two workspaces parses once,
        and a script printing each match position's file sees its own
        workspace's name.  The patches differ by name, so the memo cannot
        answer w2 and its session really runs over the shared tree."""
        from test_cache import POSITION_SMPL, TWIN_TEXT, printed_files

        service = PatchService()
        try:
            for name, filename in (("w1", "a.c"), ("w2", "vendor/b.c")):
                service.open_workspace(name)
                service.sync_files(name, files={filename: TWIN_TEXT})
                service.apply(name, [smpl_spec(POSITION_SMPL, name=name)])
            assert printed_files(capsys.readouterr().out) \
                == ["a.c", "vendor/b.c"]
            caches = {row["name"]: row["parse_cache"]
                      for row in service.stats()["per_workspace"]}
            assert caches["w2"]["misses"] == 0
            assert caches["w2"]["rebinds"] >= 1
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
        assert first.endswith(".json")

    def test_fleet_needs_two_workers(self):
        with pytest.raises(ValueError):
            ApplyFleet(1)


@pytest.fixture
def fleet_service(tmp_path):
    service = PatchService(workers=2, state_root=str(tmp_path / "state"))
    yield service
    service.close()


@pytest.fixture
def in_process_service():
    service = PatchService()
    yield service
    service.close()


def open_both(*services) -> None:
    for service in services:
        service.open_workspace("w")
        service.sync_files("w", files=dict(FILES))


def assert_spliced(payload: dict) -> None:
    """The run reused every file of the workspace's last result."""
    incremental = payload["profile"]["incremental"]
    assert incremental["fallback"] is None
    assert incremental["files_reused"] == len(FILES)


class TestFleetApply:
    def test_byte_identity_with_in_process_apply(self, fleet_service,
                                                 in_process_service):
        open_both(in_process_service, fleet_service)
        reference = in_process_service.apply("w", [smpl_spec()])
        fleet = fleet_service.apply("w", [smpl_spec()])
        assert canonical(fleet) == canonical(reference)

    def test_warm_reapply_reuses_everything(self, fleet_service):
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        fleet_service.apply("w", [smpl_spec()])
        warm = fleet_service.apply("w", [smpl_spec()], profile=True)
        assert warm["profile"]["incremental"]["files_reused"] == len(FILES)

    def test_query_after_a_fleet_apply_splices(self, fleet_service,
                                               in_process_service):
        """The fleet apply ships its result home: the parent's query splices
        from it exactly as an in-process query splices from its own."""
        open_both(in_process_service, fleet_service)
        payload = fleet_service.query("w", [smpl_spec()])
        assert payload["summary"]["changed_files"] == 1
        for service in (in_process_service, fleet_service):
            service.apply("w", [smpl_spec()])
        warm = fleet_service.query("w", [smpl_spec()], profile=True)
        assert_spliced(warm)
        assert canonical(warm) == canonical(
            in_process_service.query("w", [smpl_spec()]))

        edit = {"a.c": "void f(void) { old(); old(); }\n"}
        for service in (in_process_service, fleet_service):
            service.sync_files("w", files=edit)
        edited = fleet_service.query("w", [smpl_spec()], profile=True)
        incremental = edited["profile"]["incremental"]
        assert incremental["fallback"] is None
        assert incremental["files_changed"] == 1
        assert incremental["files_reused"] == len(FILES) - 1
        assert canonical(edited) == canonical(
            in_process_service.query("w", [smpl_spec()]))
        (row,) = fleet_service.stats()["per_workspace"]
        assert row["has_result"] is True

    def test_failed_fleet_apply_keeps_the_seed(self, fleet_service):
        open_both(fleet_service)
        fleet_service.apply("w", [smpl_spec()])
        seed = fleet_service.workspace("w").last
        assert seed is not None
        with pytest.raises(ServiceError):
            fleet_service.apply("w", [{"kind": "cookbook",
                                       "name": "no_such"}])
        assert fleet_service.workspace("w").last is seed
        assert_spliced(fleet_service.query("w", [smpl_spec()], profile=True))

    def test_healed_apply_replaces_the_seed(self, fleet_service,
                                            in_process_service):
        open_both(in_process_service, fleet_service)
        fleet_service.apply("w", [smpl_spec()])
        seed = fleet_service.workspace("w").last

        handle = fleet_service._fleet._handles[shard_of("w", 2)]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=5.0)

        edit = {"c.c": "void g(void) { old(); }\n"}
        for service in (in_process_service, fleet_service):
            service.sync_files("w", files=edit)
            service.apply("w", [smpl_spec()])
        assert fleet_service.stats()["fleet"]["respawns"] >= 1
        assert fleet_service.workspace("w").last is not seed
        warm = fleet_service.query("w", [smpl_spec()], profile=True)
        assert warm["profile"]["incremental"]["fallback"] is None
        assert warm["profile"]["incremental"]["files_reused"] \
            == len(FILES) + 1
        assert canonical(warm) == canonical(
            in_process_service.query("w", [smpl_spec()]))

    def test_unstored_apply_splices_from_the_shipped_seed(
            self, fleet_service, in_process_service):
        open_both(in_process_service, fleet_service)
        for service in (in_process_service, fleet_service):
            service.apply("w", [smpl_spec()])
        seed = fleet_service.workspace("w").last
        unstored = fleet_service.apply("w", [smpl_spec()], store=False,
                                       texts=True, profile=True)
        assert_spliced(unstored)
        assert fleet_service.workspace("w").last is seed
        assert canonical(unstored) == canonical(in_process_service.apply(
            "w", [smpl_spec()], store=False, texts=True))

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

    def test_stats_answers_while_the_worker_is_busy(self, fleet_service,
                                                    tmp_path):
        """Read-only verbs never cross a worker pipe: ``stats`` and a warm
        ``query`` of the same workspace answer while an apply is blocked in
        the pinned worker (a script rule waiting on a file), and the query
        splices from the result the previous fleet apply shipped home."""
        started, release = tmp_path / "started", tmp_path / "release"
        blocking = ("@r@\nidentifier f;\n@@\nf(...);\n\n"
                    "@script:python s@\nf << r.f;\n@@\n"
                    "import os, time\n"
                    f"open({str(started)!r}, 'w').close()\n"
                    "for _ in range(3000):\n"
                    f"    if os.path.exists({str(release)!r}):\n"
                    "        break\n"
                    "    time.sleep(0.01)\n")
        fleet_service.open_workspace("w")
        fleet_service.sync_files("w", files=dict(FILES))
        fleet_service.apply("w", [smpl_spec()])
        applied, answered, queried = [], [], []
        apply_thread = threading.Thread(target=lambda: applied.append(
            fleet_service.apply("w", [smpl_spec(blocking, name="block")])))
        apply_thread.start()
        queued = True
        try:
            deadline = time.monotonic() + 30.0
            while not started.exists():
                assert time.monotonic() < deadline, "the script never ran"
                time.sleep(0.01)
            polls = [
                threading.Thread(
                    target=lambda: answered.append(fleet_service.stats()),
                    daemon=True),
                threading.Thread(
                    target=lambda: queried.append(fleet_service.query(
                        "w", [smpl_spec()], profile=True)),
                    daemon=True)]
            for poll in polls:
                poll.start()
            for poll in polls:
                poll.join(timeout=5.0)
            queued = [poll.is_alive() for poll in polls]
        finally:
            release.touch()
            apply_thread.join(timeout=30.0)
        assert queued == [False, False], \
            "stats or query queued behind the busy worker"
        pinned = answered[0]["fleet"]["per_worker"][shard_of("w", 2)]
        assert pinned["workspaces"] == ["w"]
        assert_spliced(queried[0])
        assert queried[0]["summary"]["changed_files"] == 1
        assert applied and applied[0]["workspace"] == "w"

    @pytest.mark.parametrize("same_worker", [True, False],
                             ids=["same-worker", "other-worker"])
    def test_evicted_workspace_reopens_byte_identically(self, same_worker):
        """A workspace the parent evicted and re-opened (with an edited,
        smaller tree) applies exactly as in-process — whether its worker
        still holds the stale copy (the other workspace lives on the other
        worker) or its own LRU evicted it too (same worker).  Worker-side
        evictions do not count as the service's."""
        first = "w"
        second = next(name for name in (f"v{index}" for index in range(64))
                      if (shard_of(name, 2) == shard_of(first, 2))
                      == same_worker)
        edited = {"a.c": "void f(void) { old(); old(); }\n",
                  "c.c": "void g(void) { old(); }\n"}
        runs = []
        for workers in (1, 2):
            service = PatchService(workers=workers, max_workspaces=1)
            try:
                outputs = []
                for name, files in ((first, FILES), (second, FILES),
                                    (first, edited)):
                    service.open_workspace(name)
                    service.sync_files(name, files=dict(files))
                    outputs.append(canonical(
                        service.apply(name, [smpl_spec()], texts=True)))
                runs.append((outputs, service.stats()["evictions"]))
            finally:
                service.close()
        assert runs[0] == runs[1]
        assert runs[1][1] == 2


# ---------------------------------------------------------------------------
# restart survival
# ---------------------------------------------------------------------------

def assert_memo_warm(profile: dict) -> None:
    """The first apply after a restart: the workspace came back from its
    manifest, and the memo directory answered every session, so nothing
    was parsed or matched."""
    assert profile["restored"]
    assert profile["memo"]["hits"] > 0
    assert profile["memo"]["misses"] == 0
    assert profile["parse_cache"]["misses"] == 0


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
            assert_memo_warm(after["profile"])
        finally:
            reborn.close()

    @pytest.mark.parametrize("damage", ["missing", "mismatched"])
    def test_manifest_with_a_bad_blob_restores_nothing(self, tmp_path,
                                                       damage):
        """A manifest naming a blob that is gone, or whose bytes fail their
        hash, restores no file at all; the next manifest sync asks for
        exactly the damaged file, and the result is still byte-identical."""
        state_root = tmp_path / "state"
        service = PatchService(state_root=str(state_root))
        try:
            service.open_workspace("w")
            service.sync_files("w", files=dict(FILES))
            reference = canonical(service.apply("w", [smpl_spec()]))
        finally:
            service.close()
        assert json.loads(pathlib.Path(state_path(str(state_root), "w"))
                          .read_bytes()) == {
            "version": 1,
            "files": {name: content_sha1(text)
                      for name, text in FILES.items()}}
        digest = content_sha1(FILES["a.c"])
        blob = state_root / "memo" / "blobs" / digest[:2] / f"{digest}.blob"
        if damage == "missing":
            blob.unlink()
        else:
            blob.write_text("void f(void) { tampered(); }\n")

        reborn = PatchService(state_root=str(state_root))
        try:
            opened = reborn.open_workspace("w")
            assert not opened["restored"] and opened["files"] == 0
            delta = reborn.sync_files("w", hashes={
                name: content_sha1(text) for name, text in FILES.items()})
            assert delta["need"] == ["a.c"]
            assert delta["recalled"] == ["b.c"]
            reborn.sync_files("w", files={"a.c": FILES["a.c"]})
            assert canonical(reborn.apply("w", [smpl_spec()])) == reference
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
    wait_until_serving(f"unix:{sock}", process)
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
                assert_memo_warm(after["profile"])
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
    def test_internal_error_reads_the_same_in_both_modes(self, tmp_path):
        """A failure inside the engine answers one line, with no worker
        traceback, whether the apply ran in-process or in a worker."""
        broken = {"a.c": "void f(void) { old(); }\n/* never closed\n",
                  "b.c": "int idle;\n"}
        errors = []
        for workers in (1, 2):
            daemon = PatchDaemon(f"unix:{tmp_path}/err{workers}.sock",
                                 PatchService(workers=workers))
            daemon.serve_in_thread()
            try:
                with RemoteClient(daemon.address) as client:
                    client.open_workspace("w")
                    client.sync_codebase("w", CodeBase.from_files(broken))
                    with pytest.raises(RemoteError) as err:
                        client.apply("w", [smpl_spec()])
                errors.append((err.value.kind, err.value.message))
            finally:
                daemon.shutdown()
        assert errors[0] == errors[1]
        assert errors[0] == ("internal",
                             "LexError: a.c:2:0: unterminated block comment")
        assert "Traceback" not in errors[1][1]

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
