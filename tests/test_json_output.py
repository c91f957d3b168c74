"""Tests for ``repro-spatch --json`` and the shared result serialization.

The ``--json`` payload *is* the server protocol's apply response (minus
the workspace echo): one schema, produced by
:func:`repro.engine.report.result_payload`, so most parity coverage
lives in ``test_server_daemon.py`` and ``test_cli_server_parity.py`` —
here we pin the local semantics: schema shape, exit-status agreement,
determinism across prefilter on/off and incremental warm runs, the
``--profile`` counter surfacing, and that each file result is diffed once.
"""

import difflib
import json

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.engine.cache import DEFAULT_TREE_CACHE, parse_cache_counts
from repro.engine.compile import matcher_counters
from repro.engine.report import RESULT_SCHEMA, profile_lines, result_payload
from repro.obs import Capture
from repro.obs.registry import REGISTRY
from repro.server.service import PatchService

from profile_text import PROFILE_LINE, profile_of

RENAME_SMPL = "@r@ @@\n- old();\n+ new_call();\n"


@pytest.fixture
def project(tmp_path):
    (tmp_path / "hit.c").write_text("void f(void) { old(); }\n")
    (tmp_path / "miss.c").write_text("int unrelated;\n")
    cocci = tmp_path / "r.cocci"
    cocci.write_text(RENAME_SMPL)
    return tmp_path, cocci


def run_json(capsys, argv):
    rc = spatch_main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestJsonFlag:
    def test_schema_and_contents(self, project, capsys):
        tmp_path, cocci = project
        rc, payload = run_json(capsys, ["--json", "--sp-file", str(cocci),
                                        str(tmp_path)])
        assert rc == 0
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["exit_status"] == 0 and payload["matched"]
        assert payload["patches"] == ["r.cocci"]
        assert payload["summary"]["changed_files"] == 1
        hit = payload["files"][str(tmp_path / "hit.c")]
        assert hit["changed"] and hit["matches"] == 1
        (rule_row,) = hit["rules"]
        assert rule_row["rule"] == "r" and rule_row["matches"] == 1
        assert rule_row["deletions"] > 0 and rule_row["insertions"] > 0
        assert "new_call" in hit["diff"]
        miss = payload["files"][str(tmp_path / "miss.c")]
        assert not miss["changed"] and "diff" not in miss
        assert payload["per_patch"][0]["patch"] == "r.cocci"
        assert "profile" not in payload  # volatile bits only on request

    def test_exit_status_agreement_on_no_match(self, tmp_path, capsys):
        (tmp_path / "code.c").write_text("int nothing;\n")
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_SMPL)
        rc, payload = run_json(capsys, ["--json", "--sp-file", str(cocci),
                                        str(tmp_path)])
        assert rc == 1
        assert payload["exit_status"] == 1 and not payload["matched"]

    def test_deterministic_across_prefilter_toggle(self, project, capsys):
        tmp_path, cocci = project
        _, on = run_json(capsys, ["--json", "--sp-file", str(cocci),
                                  str(tmp_path)])
        _, off = run_json(capsys, ["--json", "--sp-file", str(cocci),
                                   "--no-prefilter", str(tmp_path)])
        assert json.dumps(on, sort_keys=True) == json.dumps(off,
                                                            sort_keys=True)

    def test_deterministic_across_incremental_warm_run(self, project,
                                                       capsys):
        tmp_path, cocci = project
        state = tmp_path / ".state"
        argv = ["--json", "--sp-file", str(cocci), "--incremental",
                str(state), str(tmp_path)]
        _, cold = run_json(capsys, argv)
        _, warm = run_json(capsys, argv)  # answered by the memo directory
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm,
                                                              sort_keys=True)

    def test_profile_section_carries_counters(self, project, capsys):
        tmp_path, cocci = project
        rc = spatch_main(["--json", "--profile", "--sp-file", str(cocci),
                          str(tmp_path)])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert rc == 0
        profile = payload["profile"]
        assert profile["stats"]["files_total"] == 2
        assert {"hits", "misses", "dedup_waits", "evictions"} \
            <= set(profile["parse_cache"])
        assert "token_index" not in profile
        # the --profile lines are the same section, rendered
        lines = profile_of(captured.err)
        assert lines["stats.files_total"] == "2"
        for key, value in profile["parse_cache"].items():
            assert lines[f"parse_cache.{key}"] == str(value)
        assert "token_index" not in captured.err

    def test_second_run_reports_only_its_own_traffic(self, project, capsys):
        """Two ``--profile`` runs in one process: every parse-cache and
        matcher line of the second is that run's own count, and no line is
        a process-wide total."""
        tmp_path, cocci = project
        argv = ["--json", "--profile", "--sp-file", str(cocci),
                str(tmp_path)]
        assert spatch_main(argv) == 0
        capsys.readouterr()
        with Capture() as counts:
            assert spatch_main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines and all(PROFILE_LINE.match(line) for line in lines)
        profile = json.loads(captured.out)["profile"]
        own = {"parse_cache": DEFAULT_TREE_CACHE.counters(counts),
               "matcher": matcher_counters(counts)}
        assert {section: profile[section] for section in own} == own
        assert [line for line in lines
                if line.startswith(("# parse_cache.", "# matcher."))] \
            == profile_lines(own)
        # the second run parsed nothing and compiled only its own patch,
        # while the process has missed and compiled for both runs
        assert profile["parse_cache"]["misses"] == 0 \
            < parse_cache_counts(REGISTRY)["misses"]
        assert 0 < profile["matcher"]["rules_compiled"] \
            < matcher_counters()["rules_compiled"]

    def test_pipeline_payload_has_per_patch_rows(self, tmp_path, capsys):
        (tmp_path / "a.c").write_text("void f(void) { old(); gone(); }\n")
        one = tmp_path / "one.cocci"
        one.write_text(RENAME_SMPL)
        two = tmp_path / "two.cocci"
        two.write_text("@s@ @@\n- gone();\n+ kept();\n")
        rc, payload = run_json(capsys, ["--json", "--sp-file", str(one),
                                        "--sp-file", str(two),
                                        str(tmp_path)])
        assert rc == 0
        assert [row["patch"] for row in payload["per_patch"]] \
            == ["one.cocci", "two.cocci"]
        assert all(row["matches"] == 1 for row in payload["per_patch"])
        rules = [r["rule"]
                 for r in payload["files"][str(tmp_path / "a.c")]["rules"]]
        assert rules == ["r", "s"]

    def test_json_watch_conflict(self, project):
        tmp_path, cocci = project
        with pytest.raises(SystemExit):
            spatch_main(["--json", "--watch", "--sp-file", str(cocci),
                         str(tmp_path)])

    def test_json_in_place_rewrites_and_reports(self, project, capsys):
        tmp_path, cocci = project
        rc, payload = run_json(capsys, ["--json", "--in-place", "--sp-file",
                                        str(cocci), str(tmp_path)])
        assert rc == 0
        assert "new_call" in (tmp_path / "hit.c").read_text()
        assert payload["summary"]["changed_files"] == 1
        # the printed payload is the one the rewrite consumed: texts included
        assert payload["files"][str(tmp_path / "hit.c")]["text"] \
            == (tmp_path / "hit.c").read_text()


class TestResultPayloadApi:
    def test_single_patch_result_serializes_like_pipeline(self):
        files = {"a.c": "void f(void) { old(); }\n"}
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        single = patch.apply(CodeBase.from_files(files))
        pipeline = PatchSet([patch]).apply(CodeBase.from_files(files))
        assert json.dumps(result_payload(single, [patch]), sort_keys=True) \
            == json.dumps(result_payload(pipeline, [patch]), sort_keys=True)

    def test_surrogate_bytes_survive_the_json_round_trip(self):
        # Latin-1 comment bytes load as lone surrogates; the payload must
        # carry them through dumps/loads unchanged (ensure_ascii escapes)
        text = "int x; /* caf\udce9 */ void f(void) { old(); }\n"
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        result = patch.apply(CodeBase.from_files({"a.c": text}))
        payload = result_payload(result, [patch], include_texts=True)
        line = json.dumps(payload, sort_keys=True, ensure_ascii=True)
        restored = json.loads(line)
        assert restored["files"]["a.c"]["text"] \
            == result.files["a.c"].text
        assert "\udce9" in restored["files"]["a.c"]["text"]


@pytest.fixture
def diff_calls(monkeypatch):
    """Counts every difflib unified diff made while the test runs."""
    calls = []
    unified_diff = difflib.unified_diff

    def counting(*args, **kwargs):
        calls.append(args[0])
        return unified_diff(*args, **kwargs)

    monkeypatch.setattr(difflib, "unified_diff", counting)
    return calls


SECOND_SMPL = "@s@ @@\n- new_call();\n+ newest_call();\n"
TREE = {"a.c": "void f(void) { old(); }\n",
        "b.c": "void g(void) { old(); old(); }\n",
        "idle.c": "int idle;\n"}


class TestDiffOnce:
    def test_cold_payload_diffs_each_file_result_at_most_once(
            self, diff_calls):
        patches = [SemanticPatch.from_string(RENAME_SMPL, name="first"),
                   SemanticPatch.from_string(SECOND_SMPL, name="second")]
        result = PatchSet(patches).apply(CodeBase.from_files(TREE))
        file_results = list(result) + [file_result
                                       for view in result.per_patch
                                       for file_result in view]
        changed = sum(file_result.changed for file_result in file_results)
        first = result_payload(result, patches, include_texts=True)
        assert 0 < len(diff_calls) <= changed
        diff_calls.clear()
        assert result_payload(result, patches, include_texts=True) == first
        assert diff_calls == []

    def test_query_after_apply_makes_no_diffs(self, diff_calls):
        service = PatchService()
        service.open_workspace("w")
        service.sync_files("w", files=TREE)
        specs = [{"kind": "smpl", "name": "first", "text": RENAME_SMPL},
                 {"kind": "smpl", "name": "second", "text": SECOND_SMPL}]
        applied = service.apply("w", specs)
        assert applied["summary"]["changed_files"] == 2 and diff_calls
        diff_calls.clear()
        queried = service.query("w", specs)
        assert queried["summary"] == applied["summary"]
        assert diff_calls == []
