"""The CLI's exit-status contract, as one parameterized matrix.

``repro-spatch`` promises exactly three exit codes:

* **0** — at least one patch matched (at a non-guard rule),
* **1** — everything parsed and ran, nothing matched,
* **2** — the run never happened: usage errors, unreadable or unparsable
  patch files, missing targets.

The satellite this suite pins down: operational failures must exit **2
with a one-line ``file:line: message`` diagnostic and no traceback** —
never crash out with code 1, never print a Python stack — and the
diagnostic must be byte-identical whether the patch fails to parse
in-process or inside a ``--server`` daemon.
"""

import json

import pytest

from frontend_corpus import CORPUS, PATCH_FILENAMES, PATCH_TEXTS
from repro.cli.spatch import main as spatch_main
from repro.server.daemon import PatchDaemon
from repro.server.service import PatchService

SMPL_MATCH = "@r@ @@\n- old();\n+ new_call();\n"
SMPL_NO_MATCH = "@r@ @@\n- absent_fn();\n+ other();\n"
JSON_MATCH = json.dumps([{"action": "replace", "search": "old();",
                          "replace": "new_call();"}])
JSON_NO_MATCH = json.dumps([{"action": "replace", "search": "absent_fn();",
                             "replace": "other();"}])

TARGET = "void f(void) { old(); }\n"

#: (flag, file name, matching patch, non-matching patch, malformed text)
PATCH_KINDS = [
    ("--sp-file", "p.cocci", SMPL_MATCH, SMPL_NO_MATCH, "@r@\n- broken\n"),
    ("--patch-file", "ops.json", JSON_MATCH, JSON_NO_MATCH,
     "[{\"action\": }]"),
    ("--patch-file", "edit.ap", "changes:\n  - action: delete\n"
     "    snippet: 'old();'\n", "changes:\n  - action: delete\n"
     "    snippet: 'absent_fn();'\n",
     "changes:\n  - action: delete\n    wibble: 'x'\n"),
    ("--patch-file", "edit.blocks",
     "<<<<<<< SEARCH\nold();\n=======\nnew_call();\n>>>>>>> REPLACE\n",
     "<<<<<<< SEARCH\nabsent_fn();\n=======\nx();\n>>>>>>> REPLACE\n",
     "<<<<<<< SEARCH\nold();\n=======\n"),
]

IDS = ["smpl", "jsonops", "ap", "blocks"]


@pytest.fixture
def target(tmp_path):
    path = tmp_path / "a.c"
    path.write_text(TARGET)
    return path


@pytest.fixture
def daemon(tmp_path):
    daemon = PatchDaemon(f"unix:{tmp_path}/spatchd.sock", PatchService())
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


def run(argv, capsys):
    rc = spatch_main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err, captured.err
    return rc, captured


class TestExitStatusMatrix:
    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    @pytest.mark.parametrize("json_mode", [False, True],
                             ids=["plain", "json"])
    def test_exit_zero_on_match(self, flag, name, match, no_match, bad,
                                json_mode, tmp_path, target, capsys):
        patch = tmp_path / name
        patch.write_text(match)
        argv = [flag, str(patch), str(target)] + (["--json"] if json_mode
                                                  else [])
        rc, captured = run(argv, capsys)
        assert rc == 0
        if json_mode:
            payload = json.loads(captured.out)
            assert payload["exit_status"] == 0 and payload["matched"]

    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    @pytest.mark.parametrize("json_mode", [False, True],
                             ids=["plain", "json"])
    def test_exit_one_on_no_match(self, flag, name, match, no_match, bad,
                                  json_mode, tmp_path, target, capsys):
        patch = tmp_path / name
        patch.write_text(no_match)
        argv = [flag, str(patch), str(target)] + (["--json"] if json_mode
                                                  else [])
        rc, captured = run(argv, capsys)
        assert rc == 1
        if json_mode:
            payload = json.loads(captured.out)
            assert payload["exit_status"] == 1 and not payload["matched"]

    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    def test_exit_two_on_unparsable_patch(self, flag, name, match, no_match,
                                          bad, tmp_path, target, capsys):
        patch = tmp_path / name
        patch.write_text(bad)
        rc, captured = run([flag, str(patch), str(target)], capsys)
        assert rc == 2
        error_lines = [l for l in captured.err.splitlines()
                       if l.startswith("repro-spatch: error: ")]
        assert len(error_lines) == 1
        # one-line file:line: message diagnostic
        assert error_lines[0].startswith(f"repro-spatch: error: {name}:")

    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    def test_exit_two_on_missing_patch_file(self, flag, name, match, no_match,
                                            bad, tmp_path, target, capsys):
        missing = tmp_path / ("missing_" + name)
        rc, captured = run([flag, str(missing), str(target)], capsys)
        assert rc == 2
        assert f"repro-spatch: error: {missing}: " in captured.err

    def test_exit_two_on_missing_target(self, tmp_path, capsys):
        patch = tmp_path / "p.cocci"
        patch.write_text(SMPL_MATCH)
        with pytest.raises(SystemExit) as exc:
            spatch_main(["--sp-file", str(patch),
                         str(tmp_path / "missing.c")])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_exit_two_on_no_patch_argument(self, target, capsys):
        with pytest.raises(SystemExit) as exc:
            spatch_main([str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--sp-file, --patch-file or --cookbook" in err


class TestMemoDirectoryErrors:
    @pytest.mark.parametrize("flag", ["--memo-dir", "--incremental"])
    @pytest.mark.parametrize("patch_text, code", [(SMPL_MATCH, 0),
                                                  (SMPL_NO_MATCH, 1)],
                             ids=["match", "no-match"])
    def test_unusable_memo_dir_warns_once_and_runs(self, flag, patch_text,
                                                   code, tmp_path, target,
                                                   capsys):
        """A regular file where the memo directory should be is not a
        crash: one warning line, then the plain run's stdout and exit
        status from the memory tier."""
        patch = tmp_path / "p.cocci"
        patch.write_text(patch_text)
        plain_rc, plain = run(["--sp-file", str(patch), str(target)], capsys)
        in_the_way = tmp_path / "not_a_dir"
        in_the_way.write_text("a regular file\n")
        rc, captured = run(["--sp-file", str(patch), flag, str(in_the_way),
                            str(target)], capsys)
        assert rc == plain_rc == code
        assert captured.out == plain.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-spatch: warning: ")

    def test_incremental_and_memo_dir_must_agree(self, tmp_path, target,
                                                 capsys):
        patch = tmp_path / "p.cocci"
        patch.write_text(SMPL_MATCH)
        with pytest.raises(SystemExit) as exc:
            spatch_main(["--sp-file", str(patch), "--incremental",
                         str(tmp_path / "a"), "--memo-dir",
                         str(tmp_path / "b"), str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--incremental and --memo-dir" in err


class TestSizingFlags:
    """A sizing flag that would break the daemon or wipe the memo is a
    usage error: exit 2 with one ``error:`` line, before anything runs."""

    def _usage_error(self, main, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert len([line for line in err.splitlines()
                    if "error:" in line]) == 1
        return err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-workspaces", "0", "max_workspaces must be >= 1"),
        ("--workers", "0", "workers must be >= 1"),
        ("--cache-entries", "-1", "cache_entries must be >= 0"),
        ("--memo-entries", "-1", "memo_entries must be >= 0"),
        ("--memo-max-mb", "-5", "memo_max_bytes must be >= 0"),
        ("--memo-max-mb", "nan", "cannot convert float NaN"),
        ("--memo-max-mb", "inf", "cannot convert float infinity"),
        ("--memo-max-age", "-5", "memo_max_age must be >= 0"),
        ("--memo-max-age", "nan", "memo_max_age must be >= 0"),
    ])
    def test_daemon_refuses_breaking_sizes(self, flag, value, message,
                                           tmp_path, capsys):
        """The service owns the minimums; the daemon reports its refusal."""
        from repro.cli.spatchd import main as spatchd_main

        err = self._usage_error(spatchd_main, [
            "--listen", f"unix:{tmp_path}/x.sock", "--memo-dir",
            str(tmp_path / "memo"), flag, value], capsys)
        assert f"error: {message}" in err
        assert not (tmp_path / "x.sock").exists()
        assert not (tmp_path / "memo").exists()

    @pytest.fixture
    def memo_dir(self, tmp_path, target, capsys):
        patch = tmp_path / "p.cocci"
        patch.write_text(SMPL_MATCH)
        memo = tmp_path / "memo"
        run(["--sp-file", str(patch), "--memo-dir", str(memo), str(target)],
            capsys)
        assert any(memo.rglob("*.memo"))
        return memo

    @pytest.mark.parametrize("flag", ["--memo-max-mb", "--memo-max-age"])
    def test_negative_prune_bound_keeps_the_memo(self, flag, memo_dir,
                                                 capsys):
        before = sorted(memo_dir.rglob("*"))
        err = self._usage_error(spatch_main, [
            "--memo-prune", "--memo-dir", str(memo_dir), flag, "-5"], capsys)
        assert f"argument {flag}: must be >= 0, got -5" in err
        assert sorted(memo_dir.rglob("*")) == before

    def test_zero_size_bound_still_prunes_everything(self, memo_dir, capsys):
        rc, _captured = run(["--memo-prune", "--memo-dir", str(memo_dir),
                             "--memo-max-mb", "0"], capsys)
        assert rc == 0
        assert not any(memo_dir.rglob("*.memo"))


class TestServerExitParity:
    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    def test_match_and_no_match_codes(self, flag, name, match, no_match, bad,
                                      daemon, tmp_path, target, capsys):
        patch = tmp_path / name
        patch.write_text(match)
        rc, _ = run([flag, str(patch), "--server", daemon.address,
                     str(target)], capsys)
        assert rc == 0
        patch.write_text(no_match)
        rc, _ = run([flag, str(patch), "--server", daemon.address,
                     str(target)], capsys)
        assert rc == 1

    @pytest.mark.parametrize("flag, name, match, no_match, bad", PATCH_KINDS,
                             ids=IDS)
    def test_bad_patch_diagnostic_is_byte_identical(self, flag, name, match,
                                                    no_match, bad, daemon,
                                                    tmp_path, target, capsys):
        # the same unparsable patch file, rejected locally and via a
        # daemon round-trip: exit 2 both times, same one-line stderr
        patch = tmp_path / name
        patch.write_text(bad)
        local_rc, local = run([flag, str(patch), str(target)], capsys)
        remote_rc, remote = run([flag, str(patch), "--server",
                                 daemon.address, str(target)], capsys)
        assert local_rc == remote_rc == 2
        assert local.err == remote.err

    def test_missing_patch_file_never_reaches_the_server(self, daemon,
                                                         tmp_path, target,
                                                         capsys):
        missing = tmp_path / "missing.json"
        rc, captured = run(["--patch-file", str(missing), "--server",
                            daemon.address, str(target)], capsys)
        assert rc == 2
        assert f"repro-spatch: error: {missing}: " in captured.err

    @staticmethod
    def _unreadable_source_alike(patch_flags, daemon, tmp_path, capsys,
                                 monkeypatch):
        (tmp_path / "p.cocci").write_text(SMPL_MATCH)
        (tmp_path / "a.c").write_text(TARGET + "  /* never closed\n")
        monkeypatch.chdir(tmp_path)
        message = "a.c:2:2: unterminated block comment"
        local_rc, local = run([*patch_flags, "a.c"], capsys)
        remote_rc, remote = run([*patch_flags, "--server", daemon.address,
                                 "a.c"], capsys)
        assert local_rc == remote_rc == 2
        assert local.out == remote.out == ""
        assert local.err == f"repro-spatch: error: {message}\n"
        assert remote.err == local.err

    @pytest.mark.parametrize("patch_flags", [
        ["--cookbook", "full_modernization"], ["--sp-file", "p.cocci"]],
        ids=["cookbook", "sp-file"])
    def test_unreadable_source_exits_two_alike(self, patch_flags, daemon,
                                               tmp_path, capsys,
                                               monkeypatch):
        """A source file the lexer rejects fails the run, not the match:
        exit 2 with the same one error line naming it, locally and through
        a daemon, never a traceback and never exit 1."""
        self._unreadable_source_alike(patch_flags, daemon, tmp_path, capsys,
                                      monkeypatch)

    @pytest.mark.parametrize("patch_flags", [
        ["--cookbook", "full_modernization"], ["--sp-file", "p.cocci"]],
        ids=["cookbook", "sp-file"])
    def test_unreadable_source_exits_two_alike_through_a_fleet(
            self, patch_flags, tmp_path, capsys, monkeypatch):
        """The same line when the apply runs in a fleet worker process."""
        daemon = PatchDaemon(f"unix:{tmp_path}/fleet.sock",
                             PatchService(workers=2))
        daemon.serve_in_thread()
        try:
            self._unreadable_source_alike(patch_flags, daemon, tmp_path,
                                          capsys, monkeypatch)
        finally:
            daemon.shutdown()

    def test_unreachable_server_exits_two(self, tmp_path, target, capsys):
        patch = tmp_path / "p.cocci"
        patch.write_text(SMPL_MATCH)
        rc, captured = run(["--sp-file", str(patch), "--server",
                            f"unix:{tmp_path}/nope.sock", str(target)],
                           capsys)
        assert rc == 2
