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
from repro.watch import InotifyWatcher, PollWatcher, create_watcher


def _inotify_available(tmp_path) -> bool:
    try:
        InotifyWatcher([str(tmp_path)]).close()
        return True
    except Exception:
        return False


@pytest.fixture()
def no_inotify(monkeypatch):
    """Simulate a platform where inotify cannot start: the real fallback
    path, not a pinned choice."""
    def missing():
        raise OSError("libc lacks inotify_init1")

    monkeypatch.setattr(watch, "_libc", missing)


class TestSelection:
    def test_poll_is_always_available(self, tmp_path, no_inotify):
        logs = []
        watcher = create_watcher([str(tmp_path)], log=logs.append)
        assert isinstance(watcher, PollWatcher)
        assert watcher.wait(0.01) is True  # poll semantics: always sweep
        watcher.close()

    def test_auto_never_picks_an_unavailable_watchdog(self, tmp_path):
        # inotify, then poll — never a third-party backend
        logs = []
        watcher = create_watcher([str(tmp_path)], log=logs.append)
        assert watcher.name in ("inotify", "poll")
        assert len(logs) == 1 and logs[0].startswith("watch backend:")
        watcher.close()

    def test_inotify_is_chosen_when_it_starts(self, tmp_path):
        if not _inotify_available(tmp_path):
            pytest.skip("inotify unavailable in this environment")
        logs = []
        watcher = create_watcher([str(tmp_path)], log=logs.append)
        assert isinstance(watcher, InotifyWatcher)
        assert logs == ["watch backend: inotify"]
        watcher.close()

    def test_falls_back_to_poll_with_a_log_line(self, tmp_path, no_inotify):
        logs = []
        watcher = create_watcher([str(tmp_path)], log=logs.append)
        assert isinstance(watcher, PollWatcher)
        assert logs == ["watch backend: poll (fell back: inotify: "
                        "libc lacks inotify_init1)"]
        watcher.close()

    def test_there_is_no_backend_knob(self):
        from repro.cli.spatch import build_arg_parser

        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["--watch-backend", "poll", "x"])


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
    def test_rooted_workspace_follows_disk(self, tmp_path, no_inotify):
        (tmp_path / "x.c").write_text("void f(void) { old(); }\n")
        service = PatchService()
        service.open_workspace("auto", root=str(tmp_path), watch=True,
                               watch_interval=0.05)
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


class TestCliWatchFallback:
    def test_watch_loop_runs_on_the_poll_fallback(self, tmp_path, capsys,
                                                  no_inotify):
        from repro.cli.spatch import main as spatch_main

        target = tmp_path / "code.c"
        target.write_text("void f(void) { old(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text("@r@ @@\n- old();\n+ new_call();\n")
        rc = spatch_main(["--sp-file", str(cocci), str(target), "--watch",
                          "--watch-interval", "0.05", "--watch-polls", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "watch backend: poll (fell back" in captured.err
        assert "new_call();" in captured.out
