"""Tests for the filesystem-watching backends and their selection logic.

The backend contract is deliberately weak — ``wait(timeout)`` answers
"may anything have changed?" and correctness stays with the stat+hash
sweep — so these tests check selection/fallback/logging, event latency
where a real backend is available (inotify on Linux), and the service's
workspace auto-refresh riding on top.
"""

import sys
import threading
import time

import pytest

from repro import watch
from repro.server.service import PatchService
from repro.watch import (BACKEND_ENV, InotifyWatcher, PollWatcher,
                         create_watcher)


def _inotify_available(tmp_path) -> bool:
    try:
        InotifyWatcher([str(tmp_path)]).close()
        return True
    except Exception:
        return False


class TestSelection:
    def test_poll_is_always_available(self, tmp_path):
        logs = []
        watcher = create_watcher([str(tmp_path)], backend="poll",
                                 log=logs.append)
        assert isinstance(watcher, PollWatcher)
        assert watcher.wait(0.01) is True  # poll semantics: always sweep
        assert logs == ["watch backend: poll"]
        watcher.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            create_watcher([str(tmp_path)], backend="frobnicate")

    def test_auto_never_picks_an_unavailable_watchdog(self, tmp_path,
                                                      monkeypatch):
        # auto tries inotify, then poll — never a third-party backend
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        logs = []
        watcher = create_watcher([str(tmp_path)], backend="auto",
                                 log=logs.append)
        assert watcher.name in ("inotify", "poll")
        assert any("watch backend:" in line for line in logs)
        watcher.close()

    def test_pinned_backend_falls_back_to_poll_with_a_log_line(
            self, tmp_path, monkeypatch):
        def no_inotify():
            raise OSError("libc lacks inotify_init1")

        # simulate a platform without inotify
        monkeypatch.setattr(watch, "_libc", no_inotify)
        logs = []
        watcher = create_watcher([str(tmp_path)], backend="inotify",
                                 log=logs.append)
        assert isinstance(watcher, PollWatcher)
        assert any("fell back" in line for line in logs)
        watcher.close()

    def test_watchdog_is_no_longer_a_backend(self, tmp_path):
        assert "watchdog" not in watch.BACKENDS
        with pytest.raises(ValueError):
            create_watcher([str(tmp_path)], backend="watchdog")

    def test_env_override_pins_the_choice(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "poll")
        logs = []
        watcher = create_watcher([str(tmp_path)], backend="auto",
                                 log=logs.append)
        assert isinstance(watcher, PollWatcher)
        watcher.close()

    def test_bogus_env_override_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "nonsense")
        watcher = create_watcher([str(tmp_path)], backend="auto",
                                 log=lambda line: None)
        assert watcher.name in ("inotify", "poll")
        watcher.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="inotify is Linux-only")
class TestInotify:
    def test_events_and_new_subdirectories(self, tmp_path):
        if not _inotify_available(tmp_path):
            pytest.skip("inotify unavailable in this environment")
        (tmp_path / "a.c").write_text("int x;\n")
        watcher = InotifyWatcher([str(tmp_path)])
        try:
            assert watcher.wait(0.1) is False  # quiet tree times out

            timer = threading.Timer(
                0.05, lambda: (tmp_path / "a.c").write_text("int y;\n"))
            timer.start()
            started = time.perf_counter()
            assert watcher.wait(5.0) is True
            assert time.perf_counter() - started < 4.0  # event, not timeout

            # a directory created after construction is picked up by the
            # post-event rescan: edits inside it fire too
            sub = tmp_path / "sub"
            sub.mkdir()
            (sub / "b.c").write_text("int z;\n")
            assert watcher.wait(5.0) is True
            (sub / "b.c").write_text("int q;\n")
            assert watcher.wait(5.0) is True
        finally:
            watcher.close()

    def test_file_target_watches_its_directory(self, tmp_path):
        if not _inotify_available(tmp_path):
            pytest.skip("inotify unavailable in this environment")
        target = tmp_path / "only.c"
        target.write_text("int x;\n")
        watcher = InotifyWatcher([str(target)])
        try:
            timer = threading.Timer(0.05,
                                    lambda: target.write_text("int y;\n"))
            timer.start()
            assert watcher.wait(5.0) is True
        finally:
            watcher.close()


class TestServiceAutoRefresh:
    def test_rooted_workspace_follows_disk(self, tmp_path):
        (tmp_path / "x.c").write_text("void f(void) { old(); }\n")
        service = PatchService()
        service.open_workspace("auto", root=str(tmp_path), watch=True,
                               watch_backend="poll", watch_interval=0.05)
        try:
            workspace = service._workspaces["auto"]
            (tmp_path / "x.c").write_text("void f(void) { old(); edit(); }\n")
            (tmp_path / "new.c").write_text("int fresh;\n")
            deadline = time.time() + 10.0
            while time.time() < deadline:
                with workspace.lock:
                    synced = "new.c" in workspace.codebase \
                        and "edit" in workspace.codebase["x.c"]
                if synced:
                    break
                time.sleep(0.05)
            assert synced, "auto-refresh never folded the disk delta in"
            payload = service.apply(
                "auto", [{"kind": "smpl", "name": "r",
                          "text": "@r@ @@\n- old();\n+ new_call();\n"}])
            assert payload["files"]["x.c"]["changed"]
        finally:
            service.close()


class TestCliWatchBackend:
    def test_watch_loop_runs_with_pinned_poll_backend(self, tmp_path,
                                                      capsys):
        from repro.cli.spatch import main as spatch_main

        target = tmp_path / "code.c"
        target.write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text("@r@ @@\n- old();\n+ new_call();\n")
        rc = spatch_main(["--sp-file", str(cocci), str(target), "--watch",
                          "--watch-backend", "poll", "--watch-interval",
                          "0.05", "--watch-polls", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "watch backend: poll" in captured.err
        assert "new_call();" in captured.out
