"""Tests for whole-code-base application (``SemanticPatch.apply``, a
one-patch pipeline): input order, prefilter coverage, parse cache, parallel
jobs and script-rule semantics, plus the CLI surface."""

import pytest

from repro import CodeBase, SemanticPatch, __version__
from repro.engine import Engine
from repro.engine.cache import TreeCache
from repro.engine.pipeline import resolve_jobs
from repro.cli.spatch import main as spatch_main


RENAME_PATCH = "@r@ @@\n- old_api();\n+ new_api();\n"


def _mixed_files(n_irrelevant: int = 6) -> dict[str, str]:
    files = {"match_0.c": "void f(void) { old_api(); }\n",
             "match_1.c": "void g(void) { before(); old_api(); }\n"}
    for i in range(n_irrelevant):
        files[f"plain_{i}.c"] = f"int value_{i}(int a) {{ return a + {i}; }}\n"
    return files


class TestDriver:
    def test_results_keep_input_order(self):
        files = _mixed_files()
        patch = SemanticPatch.from_string(RENAME_PATCH)
        result = patch.apply(files)
        assert list(result.files) == list(files)

    def test_stats_report_skips_and_gates(self):
        files = _mixed_files(6)
        patch = SemanticPatch.from_string(RENAME_PATCH)
        result = patch.apply(files)
        assert result.stats.files_total == 8
        assert result.stats.files_skipped == 6
        assert 0 < result.stats.skip_rate < 1
        # one rule, gated in each of the six skipped files
        assert result.stats.rules_gated == 6
        assert "skipped for the whole pipeline: 6" in result.stats.describe()
        assert result.result_for(0).stats.files_skipped == 6
        assert result["match_0.c"].changed
        assert not result["plain_0.c"].changed

    def test_prefilter_off_parses_everything(self):
        files = _mixed_files(3)
        patch = SemanticPatch.from_string(RENAME_PATCH)
        result = patch.apply(files, prefilter=False)
        assert result.stats.files_skipped == 0
        assert result.stats.sessions_run == len(files)
        assert list(result.files) == list(files)
        assert result["match_0.c"].changed

    def test_tree_cache_hits_on_repeated_application(self):
        # texts no other test uses, so the process-wide cache starts cold
        files = {name: f"/* repeated application */\n{text}"
                 for name, text in _mixed_files(2).items()}
        patch = SemanticPatch.from_string(RENAME_PATCH)
        for expect_hits in (False, True):
            result = patch.apply(files, prefilter=False)
            assert result["match_0.c"].changed
            assert (result.stats.cache_hits > 0) is expect_hits

    def test_tree_cache_is_bounded(self):
        cache = TreeCache(max_entries=2)
        from repro.options import DEFAULT_OPTIONS
        for i in range(5):
            cache.get_or_parse(f"int x_{i};\n", f"f{i}.c", DEFAULT_OPTIONS)
        assert len(cache) == 2

    def test_engine_apply_to_file_still_works(self):
        patch = SemanticPatch.from_string(RENAME_PATCH)
        engine = Engine(patch.ast, options=patch.options)
        file_result = engine.apply_to_file("a.c", "void f(void) { old_api(); }\n")
        assert "new_api();" in file_result.text

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestParallelJobs:
    def test_parallel_results_identical_to_serial(self):
        from repro.cookbook import cuda_hip
        from repro.workloads import cuda_app

        codebase = cuda_app.generate(n_files=3, seed=11)
        codebase = codebase.with_file("plain.c", "int zero(void) { return 0; }\n")
        patch = cuda_hip.cuda_to_hip_patch()
        serial = patch.apply(codebase, jobs=1, prefilter=False)
        parallel = patch.apply(codebase, jobs=2, prefilter=True)
        assert list(parallel.files) == list(serial.files)
        for name in serial.files:
            assert parallel[name].text == serial[name].text
        assert parallel.total_matches == serial.total_matches

    def test_parallel_falls_back_when_finalize_aggregates_scripts(self):
        """A per-file script that mutates its namespace carries state across
        files; the pipeline must discard the forked run and apply it
        serially."""
        text = ("@initialize:python@ @@\nseen = []\n\n"
                "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                "@script:python s@\nf << a.f;\n@@\nseen.append(f)\n\n"
                "@finalize:python@ @@\nprint('seen', len(seen))\n")
        patch = SemanticPatch.from_string(text)
        result = patch.apply({"a.c": "void t(void) { marked(x); }\n",
                              "b.c": "void u(void) { marked(y); }\n"},
                             jobs=4)
        assert result.stats.jobs_used == 1
        assert result.impure_patches == [patch.name]

    def test_initialize_runs_exactly_once_for_script_free_parallel_patch(self, tmp_path):
        """Side-effecting initialize rules must not be duplicated across
        workers when no per-file script needs them."""
        marker = tmp_path / "init.log"
        text = (f"@initialize:python@ @@\n"
                f"open({str(marker)!r}, 'a').write('ran\\n')\n\n"
                f"@r@ @@\n- old_api();\n+ new_api();\n")
        patch = SemanticPatch.from_string(text)
        result = patch.apply(_mixed_files(2), jobs=2, prefilter=False)
        assert result.stats.jobs_used == 2
        assert result["match_0.c"].changed
        assert marker.read_text().count("ran") == 1

    def test_parallel_used_for_script_free_patches(self):
        patch = SemanticPatch.from_string(RENAME_PATCH)
        result = patch.apply(_mixed_files(2), jobs=2, prefilter=False)
        assert result.stats.jobs_used == 2
        assert result["match_0.c"].changed


class TestEncodingRobustness:
    def test_from_dir_tolerates_latin1_comments(self, tmp_path):
        latin1 = tmp_path / "legacy.c"
        latin1.write_bytes(b"/* r\xe9sum\xe9 of the kernel */\nvoid f(void) { old_api(); }\n")
        codebase = CodeBase.from_dir(tmp_path)
        assert "legacy.c" in codebase
        assert "old_api" in codebase["legacy.c"]

    def test_cli_accepts_latin1_file(self, tmp_path, capsys):
        target = tmp_path / "legacy.c"
        target.write_bytes(b"// \xe9\xe9\nvoid f(void) { old_api(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_PATCH)
        rc = spatch_main(["--sp-file", str(cocci), str(target)])
        assert rc == 0
        assert "new_api" in capsys.readouterr().out

    def test_in_place_preserves_non_utf8_bytes(self, tmp_path, capsys):
        """surrogateescape round-trips stray Latin-1 bytes: an in-place
        rewrite must not corrupt untouched lines."""
        target = tmp_path / "legacy.c"
        target.write_bytes(b"/* r\xe9sum\xe9 */\nvoid f(void) { old_api(); }\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_PATCH)
        rc = spatch_main(["--sp-file", str(cocci), "--in-place", str(target)])
        assert rc == 0
        raw = target.read_bytes()
        assert b"new_api" in raw
        assert b"/* r\xe9sum\xe9 */" in raw  # original bytes, not U+FFFD

    def test_codebase_round_trip_preserves_non_utf8_bytes(self, tmp_path):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "legacy.c").write_bytes(b"// caf\xe9\nint x;\n")
        codebase = CodeBase.from_dir(tmp_path / "in")
        codebase.write_to(tmp_path / "out")
        assert (tmp_path / "out" / "legacy.c").read_bytes() == \
            b"// caf\xe9\nint x;\n"


class TestCliExitCodes:
    def _write_patch(self, tmp_path) -> str:
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_PATCH)
        return str(cocci)

    def test_zero_on_match(self, tmp_path, capsys):
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old_api(); }\n")
        assert spatch_main(["--sp-file", self._write_patch(tmp_path),
                            str(target)]) == 0

    def test_one_on_no_match(self, tmp_path, capsys):
        target = tmp_path / "a.c"
        target.write_text("void f(void) { untouched(); }\n")
        assert spatch_main(["--sp-file", self._write_patch(tmp_path),
                            str(target)]) == 1

    def test_two_on_missing_target(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            spatch_main(["--sp-file", self._write_patch(tmp_path),
                         str(tmp_path / "nope.c")])
        assert excinfo.value.code == 2

    def test_two_on_bad_jobs(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            spatch_main(["--sp-file", self._write_patch(tmp_path),
                         "--jobs", "zero", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            spatch_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_profile_and_flags_smoke(self, tmp_path, capsys):
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old_api(); }\n")
        rc = spatch_main(["--sp-file", self._write_patch(tmp_path),
                          "--jobs", "1", "--no-prefilter", "--profile",
                          str(target)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "profile" in captured.err
        assert "parse cache" in captured.err

    def test_in_place_exit_codes(self, tmp_path, capsys):
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old_api(); }\n")
        rc = spatch_main(["--sp-file", self._write_patch(tmp_path),
                          "--in-place", str(target)])
        assert rc == 0 and "new_api" in target.read_text()
        # second run: nothing left to match
        rc = spatch_main(["--sp-file", self._write_patch(tmp_path),
                          "--in-place", str(target)])
        assert rc == 1
