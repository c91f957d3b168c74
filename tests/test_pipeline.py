"""Unit tests for the PatchPipeline subsystem and its surfaces
(PatchSet, the repeatable --sp-file/--cookbook CLI, the cookbook preset)."""

from dataclasses import FrozenInstanceError

import pytest

from repro import CodeBase, FileResult, PatchSet, SemanticPatch
from repro.engine.pipeline import PatchPipeline, PipelinePrefilter
from repro.cli.spatch import main as spatch_main


RENAME_A = "@r@ @@\n- old_api();\n+ mid_api();\n"
RENAME_B = "@r@ @@\n- mid_api();\n+ new_api();\n"


def _patches(*texts):
    return [SemanticPatch.from_string(text, name=f"p{i}")
            for i, text in enumerate(texts)]


class TestPatchSet:
    def test_container_protocol(self):
        patches = _patches(RENAME_A, RENAME_B)
        patchset = PatchSet(patches, name="renames")
        assert len(patchset) == 2
        assert list(patchset) == patches
        assert patchset[1] is patches[1]
        assert patchset.patch_names == ["p0", "p1"]
        assert patchset.loc() == patches[0].loc() + patches[1].loc()
        assert "renames" in patchset.describe()
        assert "p1" in patchset.describe()

    def test_apply_chains_patches_in_order(self):
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { old_api(); }\n"})
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(codebase)
        assert "new_api();" in result["a.c"].text
        assert result.total_matches == 2
        assert result.patch_names == ["p0", "p1"]

    def test_apply_accepts_plain_dict(self):
        result = PatchSet(_patches(RENAME_A)).apply(
            {"a.c": "void f(void) { old_api(); }\n"})
        assert "mid_api();" in result["a.c"].text

    def test_empty_patchset_is_identity(self):
        codebase = CodeBase.from_files({"a.c": "int x;\n"})
        result = PatchSet([]).apply(codebase)
        assert result["a.c"].text == "int x;\n"
        assert result.total_matches == 0
        assert result.diff() == ""

    def test_result_for_by_index_and_name(self):
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { old_api(); }\n"})
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(codebase)
        assert result.result_for(0) is result.per_patch[0]
        assert result.result_for("p1") is result.per_patch[1]
        assert result.result_for("p0")["a.c"].text == \
            "void f(void) { mid_api(); }\n"
        rows = result.per_patch_summary()
        assert [row["patch"] for row in rows] == ["p0", "p1"]
        assert all(row["matches"] == 1 for row in rows)

    def test_matches_of_sums_across_patches_sharing_a_rule_name(self):
        # both patches name their rule 'r': the combined view must add the
        # reports up, not return whichever comes first
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { old_api(); }\n"})
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(codebase)
        assert result.matches_of("r") == 2
        assert result["a.c"].matches_of("r") == 2

    def test_skipped_file_results_are_independent_objects(self):
        # sequential composition hands out one untouched FileResult per
        # patch; the pipeline's skip path shares one immutable result, so
        # no view can change another, and each equals the sequential one
        codebase = CodeBase.from_files({"miss.c": "int zero;\n",
                                        "hit.c": "void f(void) { old_api(); }\n"})
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(codebase)
        assert result.stats.files_skipped == 1
        views = [result.result_for(0)["miss.c"], result.result_for(1)["miss.c"],
                 result["miss.c"]]
        for view in views:
            with pytest.raises(AttributeError):
                view.diagnostics.append("marker")
            with pytest.raises(FrozenInstanceError):
                view.text = "int one;\n"
        sequential = [patch.apply(codebase)["miss.c"]
                      for patch in _patches(RENAME_A, RENAME_B)]
        untouched = FileResult(filename="miss.c", original_text="int zero;\n",
                               text="int zero;\n")
        assert views == sequential + [untouched]
        assert all(view == untouched and not view.diagnostics
                   for view in views)

    def test_combined_diff_is_original_to_final(self):
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { old_api(); }\n"})
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(codebase)
        diff = result.diff()
        assert "-void f(void) { old_api(); }" in diff
        assert "+void f(void) { new_api(); }" in diff
        assert "mid_api" not in diff  # the intermediate state is not a hunk

    def test_transform_returns_codebase(self):
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { old_api(); }\n"})
        transformed = PatchSet(_patches(RENAME_A, RENAME_B)).transform(codebase)
        assert transformed["a.c"] == "void f(void) { new_api(); }\n"
        assert codebase["a.c"] == "void f(void) { old_api(); }\n"  # untouched


class TestPipelinePrefilter:
    def test_irrelevant_files_skipped_whole_pipeline(self):
        files = {"hit.c": "void f(void) { old_api(); }\n",
                 "miss_0.c": "int zero(void) { return 0; }\n",
                 "miss_1.c": "int one(void) { return 1; }\n"}
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(
            CodeBase.from_files(files))
        assert result.stats.files_skipped == 2
        assert result.stats.sessions_run == 2  # both patches, hit.c only
        assert not result["miss_0.c"].changed
        assert "new_api();" in result["hit.c"].text
        # per-patch stats carry that patch's own coverage, not the aggregate
        for index in (0, 1):
            per_patch = result.result_for(index).stats
            assert per_patch.files_total == 3
            assert per_patch.files_skipped == 2
            assert per_patch.rules_gated == 2

    def test_token_inserted_by_earlier_patch_does_not_gate_later_patch(self):
        # mid_api only exists because patch 0 inserts it: the union plan
        # must keep the file alive for patch 1 (cross-patch addable tokens)
        files = {"a.c": "void f(void) { old_api(); }\n"}
        on = PatchSet(_patches(RENAME_A, RENAME_B)).apply(
            CodeBase.from_files(files), prefilter=True)
        off = PatchSet(_patches(RENAME_A, RENAME_B)).apply(
            CodeBase.from_files(files), prefilter=False)
        assert on["a.c"].text == off["a.c"].text == \
            "void f(void) { new_api(); }\n"

    def test_unbounded_plus_material_disables_later_skipping(self):
        wildcard = ("@a@\nidentifier f;\n@@\n- old_marker(f);\n+ f();\n")
        later = "@b@ @@\n- anything_at_all();\n"
        asts = [SemanticPatch.from_string(t).ast for t in (wildcard, later)]
        prefilter = PipelinePrefilter(asts)
        # a file with neither old_marker nor anything_at_all must still get
        # a session: patch a could (in principle) have inserted anything
        assert prefilter.needs_any_session(frozenset({"old_marker"}))
        # ...but a file that patch a cannot touch is skippable only if
        # patch b's own requirement also fails on the *original* tokens
        assert not prefilter.needs_any_session(frozenset({"unrelated"}))

    def test_bounded_plus_material_keeps_skipping_precise(self):
        asts = [SemanticPatch.from_string(t).ast
                for t in (RENAME_A, RENAME_B)]
        prefilter = PipelinePrefilter(asts)
        assert prefilter.needs_any_session(frozenset({"old_api"}))
        assert prefilter.needs_any_session(frozenset({"mid_api"}))
        assert not prefilter.needs_any_session(frozenset({"new_api"}))


class TestPipelineSemantics:
    def test_parse_shared_across_patch_boundaries(self):
        # two pure-match patches on the same file: the second session must
        # reuse the first session's tree through the shared cache
        from repro.engine.cache import TreeCache

        match_only = "@m@\nidentifier fn;\nexpression list el;\n@@\nfn(el)\n"
        asts = [SemanticPatch.from_string(match_only).ast for _ in range(2)]
        cache = TreeCache()
        pipeline = PatchPipeline(asts, tree_cache=cache)
        result = pipeline.run({"a.c": "void f(void) { g(1); }\n"})
        assert result.total_matches == 2
        assert pipeline.stats.cache_misses == 1
        assert pipeline.stats.cache_hits == 1

    def test_edit_forces_reparse_for_next_patch(self):
        from repro.engine.cache import TreeCache

        asts = [SemanticPatch.from_string(t).ast
                for t in (RENAME_A, RENAME_B)]
        cache = TreeCache()
        pipeline = PatchPipeline(asts, tree_cache=cache)
        pipeline.run({"a.c": "void f(void) { old_api(); }\n"})
        assert pipeline.stats.cache_misses == 2  # original + patched text
        assert pipeline.stats.cache_hits == 0

    def test_parallel_fallback_when_finalize_aggregates_scripts(self):
        aggregating = ("@initialize:python@ @@\nseen = []\n\n"
                       "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                       "@script:python s@\nf << a.f;\n@@\nseen.append(f)\n\n"
                       "@finalize:python@ @@\nprint('seen', len(seen))\n")
        asts = [SemanticPatch.from_string(RENAME_A).ast,
                SemanticPatch.from_string(aggregating).ast]
        pipeline = PatchPipeline(asts, names=["rename", "agg"], jobs=4)
        result = pipeline.run({"a.c": "void t(void) { marked(x); }\n",
                               "b.c": "void u(void) { marked(y); }\n"})
        # the forked run saw the appending script mutate its namespace and
        # was re-run serially; the finalize rule read both files' names
        assert result.stats.jobs_used == 1
        assert result.impure_patches == ["agg"]
        warnings = [d for d in result.diagnostics if d.severity == "warning"]
        assert len(warnings) == 1 and "'agg'" in warnings[0].message
        assert pipeline.engines[1].runner.globals["seen"] == ["x", "y"]

    def test_parallel_initialize_runs_once_per_patch(self, tmp_path):
        markers = [tmp_path / "init_0.log", tmp_path / "init_1.log"]
        texts = [(f"@initialize:python@ @@\n"
                  f"open({str(marker)!r}, 'a').write('ran\\n')\n\n"
                  f"{rename}")
                 for marker, rename in zip(markers, (RENAME_A, RENAME_B))]
        files = {f"f{i}.c": f"void f{i}(void) {{ old_api(); }}\n"
                 for i in range(4)}
        asts = [SemanticPatch.from_string(t).ast for t in texts]
        pipeline = PatchPipeline(asts, jobs=2, prefilter=False)
        result = pipeline.run(files)
        assert result.stats.jobs_used == 2
        assert all(result[name].text == f"void f{i}(void) {{ new_api(); }}\n"
                   for i, name in enumerate(files))
        for marker in markers:
            assert marker.read_text().count("ran") == 1

    def test_stats_describe_mentions_pipeline_shape(self):
        result = PatchSet(_patches(RENAME_A, RENAME_B)).apply(
            CodeBase.from_files({"a.c": "void f(void) { old_api(); }\n",
                                 "b.c": "int zero(void) { return 0; }\n"}))
        described = result.stats.describe()
        assert "patches: 2" in described
        assert "skipped for the whole pipeline: 1" in described

    def test_mismatched_options_length_rejected(self):
        ast = SemanticPatch.from_string(RENAME_A).ast
        with pytest.raises(ValueError):
            PatchPipeline([ast], options=[None, None])


class TestForkPool:
    """Forked workers run on the parent's own patch objects, and a run
    that leaves a single cold file never builds worker state in the
    parent."""

    @staticmethod
    def _files():
        return {f"f{i}.c": f"void f{i}(void) {{ old_api(); }}\n"
                for i in range(4)}

    def test_workers_apply_the_parents_patch_objects(self, monkeypatch,
                                                     tmp_path):
        import json

        from repro.engine import pipeline as pipeline_module
        from repro.engine.compile import compiled_patch_for, matcher_counters
        from repro.obs import Capture
        from repro.smpl import parser as smpl_parser

        asts = [SemanticPatch.from_string(t).ast for t in (RENAME_A, RENAME_B)]
        compiled = [compiled_patch_for(ast, ast.options) for ast in asts]
        for ast, patch in zip(asts, compiled):
            for rule in ast.patch_rules():
                patch.rule_for(rule)
        parses = []
        parse = smpl_parser.parse_semantic_patch

        def counting_parse(*args, **kwargs):
            parses.append(1)
            return parse(*args, **kwargs)

        log = tmp_path / "workers.jsonl"
        init = pipeline_module._pipeline_worker_init

        def spying_init(*args):
            # runs in each forked worker: the closure is never pickled
            init(*args)
            engines = pipeline_module._PIPELINE_WORKER["engines"]
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "patches": [id(engine.patch) for engine in engines],
                    "compiled": [id(engine.compiled()) for engine in engines],
                    "parses": len(parses)}) + "\n")

        monkeypatch.setattr(smpl_parser, "parse_semantic_patch", counting_parse)
        monkeypatch.setattr(pipeline_module, "_pipeline_worker_init",
                            spying_init)
        with Capture() as counts:
            result = PatchPipeline(asts, jobs=2, prefilter=False).run(
                self._files())
        assert result.stats.jobs_used == 2
        assert all(file_result.text.count("new_api()") == 1
                   for file_result in result.files.values())
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows and all(row == {
            "patches": [id(ast) for ast in asts],
            "compiled": [id(patch) for patch in compiled],
            "parses": 0} for row in rows)
        # the workers matched with the rules the parent compiled
        assert matcher_counters(counts)["rules_compiled"] == 0

    def test_a_lone_cold_file_runs_on_the_parents_serial_path(
            self, monkeypatch):
        from repro.engine import pipeline as pipeline_module
        from repro.engine.memo import TransformMemo

        worker_state: dict = {}
        monkeypatch.setattr(pipeline_module, "_PIPELINE_WORKER", worker_state)
        files = self._files()
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        memo = TransformMemo()
        assert patchset.apply(files, jobs=2, memo=memo).stats.jobs_used == 2
        files["f1.c"] = "void f1(void) { old_api(); old_api(); }\n"
        result = patchset.apply(files, jobs=2, memo=memo)
        assert result.stats.memo_hits == 6
        assert worker_state == {}
        serial = PatchSet(_patches(RENAME_A, RENAME_B)).apply(files)
        assert {name: r.text for name, r in result.files.items()} == \
            {name: r.text for name, r in serial.files.items()}
        assert result.files["f1.c"].text.count("new_api()") == 2

    def test_a_fully_warm_pass_reports_one_job(self):
        """``jobs_used`` counts the processes that ran sessions: a pass the
        memo answers entirely forks nothing."""
        from repro.engine.memo import TransformMemo

        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        memo = TransformMemo()
        runs = [patchset.apply(self._files(), jobs=2, memo=memo)
                for _ in range(3)]
        assert runs[0].stats.jobs_used == 2
        warm = runs[2].stats
        assert (warm.memo_hits, warm.memo_misses) == (8, 0)
        assert warm.jobs_used == 1
        assert "jobs: 1 (requested 2)" in warm.describe()
        assert all(patch.stats.jobs_used == 1 for patch in runs[2].per_patch)


class TestFullModernizationPreset:
    def test_preset_is_the_whole_cookbook(self):
        from repro.cookbook import builders, full_modernization_pipeline

        patchset = full_modernization_pipeline()
        assert len(patchset) == len(builders()) == 12

    def test_preset_applies_over_mixed_files(self):
        from repro.cookbook import full_modernization_pipeline
        from repro.workloads import openmp_kernels

        codebase = openmp_kernels.generate(n_files=1, kernels_per_file=2,
                                           regions_per_file=2, seed=9)
        result = full_modernization_pipeline().apply(codebase)
        assert result.total_matches > 0
        assert "LIKWID_MARKER_START" in result.diff()

    def test_preset_mdspan_arrays_override(self):
        from repro.cookbook import full_modernization_pipeline
        from repro.workloads import gadget

        codebase = gadget.generate(n_files=1, loops_per_file=2,
                                   grid_kernels_per_file=2, seed=9)
        default = full_modernization_pipeline()
        targeted = full_modernization_pipeline(
            mdspan_arrays={"rho": 3, "phi": 3})
        mdspan_index = 6  # builders() order
        assert targeted.apply(codebase).result_for(mdspan_index) \
            .total_matches > default.apply(codebase) \
            .result_for(mdspan_index).total_matches


class TestCliPipeline:
    def _write(self, tmp_path, name, text):
        target = tmp_path / name
        target.write_text(text)
        return str(target)

    def test_repeatable_sp_file_runs_as_pipeline(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cocci", RENAME_A)
        b = self._write(tmp_path, "b.cocci", RENAME_B)
        target = self._write(tmp_path, "t.c", "void f(void) { old_api(); }\n")
        rc = spatch_main(["--sp-file", a, "--sp-file", b, target])
        out = capsys.readouterr().out
        assert rc == 0
        assert "+void f(void) { new_api(); }" in out
        assert "mid_api" not in out

    def test_sp_file_and_cookbook_combine(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cocci", RENAME_A)
        target = self._write(
            tmp_path, "t.c",
            "#include <omp.h>\nvoid f(void) {\n#pragma omp parallel\n"
            "{\nold_api();\n}\n}\n")
        rc = spatch_main(["--sp-file", a,
                          "--cookbook", "likwid_instrumentation", target])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mid_api" in out and "LIKWID_MARKER_START" in out

    def test_cookbook_full_modernization_expands(self, tmp_path, capsys):
        target = self._write(
            tmp_path, "t.c",
            "#include <omp.h>\nvoid axpy_kernel(int n) {\n"
            "#pragma omp parallel\n{\nwork();\n}\n}\n")
        rc = spatch_main(["--cookbook", "full_modernization", "--report",
                          "--profile", target])
        captured = capsys.readouterr()
        assert rc == 0
        assert "LIKWID_MARKER_START" in captured.out
        assert "patches: 12" in captured.err

    def test_pipeline_exit_code_one_when_nothing_matches(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cocci", RENAME_A)
        b = self._write(tmp_path, "b.cocci", RENAME_B)
        target = self._write(tmp_path, "t.c", "int untouched;\n")
        assert spatch_main(["--sp-file", a, "--sp-file", b, target]) == 1

    def test_unknown_cookbook_name_is_usage_error(self, tmp_path, capsys):
        target = self._write(tmp_path, "t.c", "int x;\n")
        with pytest.raises(SystemExit) as excinfo:
            spatch_main(["--cookbook", "nope", target])
        assert excinfo.value.code == 2

    def test_list_cookbook_includes_preset(self, capsys):
        assert spatch_main(["--list-cookbook"]) == 0
        assert "full_modernization" in capsys.readouterr().out

    def test_interleaved_flags_keep_command_line_order(self, tmp_path):
        from repro.cli.spatch import build_arg_parser

        args = build_arg_parser().parse_args(
            ["--cookbook", "likwid_instrumentation", "--sp-file", "a.cocci",
             "--cookbook", "acc_to_omp", "t.c"])
        assert args.patch_args == [("cookbook", "likwid_instrumentation"),
                                   ("sp_file", "a.cocci"),
                                   ("cookbook", "acc_to_omp")]

    def test_rerun_of_guarded_cookbook_exits_one(self, tmp_path, capsys):
        """Regression: the idempotence-guard rules fire on already-modernized
        files; their matches must not make a no-op re-run report 'matched'."""
        target = tmp_path / "t.c"
        target.write_text("#include <omp.h>\nvoid f(void) {\n"
                          "#pragma omp parallel\n{\nwork();\n}\n}\n")
        first = spatch_main(["--cookbook", "likwid_instrumentation",
                             "--in-place", str(target)])
        assert first == 0
        assert "LIKWID_MARKER_START" in target.read_text()
        before = target.read_text()
        second = spatch_main(["--cookbook", "likwid_instrumentation",
                              "--in-place", str(target)])
        assert second == 1  # nothing left to do
        assert target.read_text() == before

    def test_pure_match_analysis_patch_still_exits_zero(self, tmp_path, capsys):
        """...but a patch that is *all* pure-match rules (an analysis patch,
        no guards) must keep reporting exit 0 when it matches."""
        cocci = tmp_path / "calls.cocci"
        cocci.write_text("@calls@\nidentifier fn;\nexpression list el;\n@@\n"
                         "fn(el)\n")
        target = self._write(tmp_path, "t.c", "void f(void) { g(1); }\n")
        assert spatch_main(["--sp-file", str(cocci), target]) == 0

    def test_in_place_pipeline_rewrite(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cocci", RENAME_A)
        b = self._write(tmp_path, "b.cocci", RENAME_B)
        target = tmp_path / "t.c"
        target.write_text("void f(void) { old_api(); }\n")
        rc = spatch_main(["--sp-file", a, "--sp-file", b, "--in-place",
                          str(target)])
        assert rc == 0
        assert target.read_text() == "void f(void) { new_api(); }\n"


class TestFromPathEncoding:
    def test_patch_files_load_with_surrogateescape(self, tmp_path):
        """Regression: from_path used errors='replace' while CodeBase uses
        surrogateescape; a stray Latin-1 byte in a patch comment must
        round-trip exactly like one in a source file."""
        cocci = tmp_path / "r.cocci"
        cocci.write_bytes("// caf\xe9 patch\n".encode("latin-1")
                          + RENAME_A.encode())
        patch = SemanticPatch.from_path(cocci)
        assert "\udce9" in patch.ast.source_text  # byte kept, not U+FFFD
        result = patch.apply_to_source("void f(void) { old_api(); }\n")
        assert "mid_api();" in result.text
