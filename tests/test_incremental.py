"""Incremental re-application: differential equivalence and its surfaces.

The contract under test: ``PatchSet.apply(codebase, since=prior_result)``
is **byte-identical** to a cold ``PatchSet.apply(codebase)`` — same texts,
same per-rule reports (combined and per patch), same coverage stats modulo
timing — across change/add/delete deltas, prefilter on/off and jobs 1/4,
while actually re-running only the files whose content hash changed.

Also covered here: the satellite fixes this mode depends on —
``CodeBase.__delitem__``/``refresh_from_dir`` token-index maintenance,
``run_fork_pool`` degenerate inputs, ``PipelineResult.result_for``'s
``KeyError`` — plus the persisted-state round-trip and the CLI's
``--incremental``/``--watch``.
"""

import threading
import time

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.engine.cache import content_sha1
from repro.engine.incremental import (IncrementalPipeline, IncrementalStats,
                                      PipelineState)

from test_prefilter import _cookbook_patch
from test_pipeline_differential import _mini


RENAME_A = "@r@ @@\n- old_api();\n+ mid_api();\n"
RENAME_B = "@r@ @@\n- mid_api();\n+ new_api();\n"


def _patches(*texts):
    return [SemanticPatch.from_string(text, name=f"p{i}")
            for i, text in enumerate(texts)]


def assert_results_identical(incremental, cold, context=""):
    """Byte-identity of two pipeline results: texts, reports, diagnostics
    per patch and combined, plus the coverage counters (timing excluded)."""
    assert list(incremental.files) == list(cold.files), context
    for name in cold.files:
        assert incremental[name].text == cold[name].text, (context, name)
        assert incremental[name].original_text == \
            cold[name].original_text, (context, name)
        assert incremental[name].rule_reports == \
            cold[name].rule_reports, (context, name)
        assert incremental[name].diagnostics == \
            cold[name].diagnostics, (context, name)
    assert incremental.patch_names == cold.patch_names
    assert len(incremental.per_patch) == len(cold.per_patch)
    for index, (inc_patch, cold_patch) in enumerate(
            zip(incremental.per_patch, cold.per_patch)):
        assert list(inc_patch.files) == list(cold_patch.files), (context, index)
        for name in cold_patch.files:
            assert inc_patch[name].text == cold_patch[name].text, \
                (context, index, name)
            assert inc_patch[name].rule_reports == \
                cold_patch[name].rule_reports, (context, index, name)
        inc_stats, cold_stats = inc_patch.stats, cold_patch.stats
        for field in ("files_total", "files_skipped", "rules_gated",
                      "prefilter"):
            assert getattr(inc_stats, field) == getattr(cold_stats, field), \
                (context, index, field)
    for field in ("patches", "files_total", "files_skipped", "sessions_run",
                  "sessions_gated", "rules_gated", "prefilter"):
        assert getattr(incremental.stats, field) == \
            getattr(cold.stats, field), (context, field)
    assert incremental.total_matches == cold.total_matches
    assert incremental.records == cold.records
    assert incremental.fingerprint == cold.fingerprint


# ---------------------------------------------------------------------------
# differential: change / add / delete x prefilter x jobs, over the cookbook
# ---------------------------------------------------------------------------

#: patch names and workload parts: a GPU-translation pair (one unfilterable
#: patch, one selective) over a mixed tree — both prefilter regimes matter
COOKBOOK_NAMES = ("cuda_to_hip", "acc_to_omp")
WORKLOAD_PARTS = ("cuda", "acc", "raw")


def _mutated(codebase: CodeBase, scenario: str) -> CodeBase:
    files = dict(codebase.files)
    names = sorted(files)
    if scenario == "change":
        # a real edit with new matches: an OpenACC loop the patch rewrites
        files[names[0]] += ("\nvoid probe_added(float *x, int n) {\n"
                            "#pragma acc parallel loop\n"
                            "for (int i = 0; i < n; i++) x[i] += 1.0f;\n"
                            "}\n")
    elif scenario == "add":
        files["added/probe.c"] = ("void probe_new(float *x, int n) {\n"
                                  "#pragma acc parallel loop\n"
                                  "for (int i = 0; i < n; i++) x[i] *= 2.0f;\n"
                                  "}\n")
    elif scenario == "delete":
        del files[names[0]]
    elif scenario == "mixed":
        files[names[0]] += "\n/* trailing note */\n"
        files["added/probe.c"] = "int probe;\n"
        del files[names[1]]
    else:  # pragma: no cover - scenario typo guard
        raise AssertionError(scenario)
    return CodeBase.from_files(files)


CONFIGS = [(True, 1), (False, 1), (True, 4), (False, 4)]


@pytest.mark.parametrize("prefilter,jobs", CONFIGS,
                         ids=[f"prefilter_{'on' if p else 'off'}-jobs{j}"
                              for p, j in CONFIGS])
@pytest.mark.parametrize("scenario", ["change", "add", "delete", "mixed"])
def test_incremental_identical_to_cold_run(scenario, prefilter, jobs):
    patches = [_cookbook_patch(name) for name in COOKBOOK_NAMES]
    patchset = PatchSet(patches)
    base = _mini(*WORKLOAD_PARTS)
    prior = patchset.apply(base, jobs=jobs, prefilter=prefilter)
    assert prior.total_matches > 0

    mutated = _mutated(base, scenario)
    cold = patchset.apply(CodeBase.from_files(dict(mutated.files)),
                          jobs=jobs, prefilter=prefilter)
    incremental = patchset.apply(mutated, jobs=jobs, prefilter=prefilter,
                                 since=prior)

    stats = incremental.incremental
    assert stats is not None and stats.fallback is None
    expected_rerun = {"change": 1, "add": 1, "delete": 0, "mixed": 2}[scenario]
    expected_dropped = {"change": 0, "add": 0, "delete": 1, "mixed": 1}[scenario]
    assert stats.files_rerun == expected_rerun, (scenario, stats)
    assert stats.files_dropped == expected_dropped
    assert stats.files_reused == len(mutated) - expected_rerun
    assert_results_identical(incremental, cold, (scenario, prefilter, jobs))


def test_incremental_chain_edit_apply_edit_apply():
    """Each incremental result seeds the next: a three-step edit loop stays
    identical to cold runs throughout."""
    patches = [_cookbook_patch(name) for name in COOKBOOK_NAMES]
    patchset = PatchSet(patches)
    codebase = _mini(*WORKLOAD_PARTS)
    result = patchset.apply(codebase)
    for step, scenario in enumerate(["change", "add", "delete"]):
        codebase = _mutated(codebase, scenario)
        cold = patchset.apply(CodeBase.from_files(dict(codebase.files)))
        result = patchset.apply(codebase, since=result)
        assert result.incremental.fallback is None
        assert_results_identical(result, cold, ("chain", step, scenario))


def test_identity_rerun_reuses_everything():
    patchset = PatchSet(_patches(RENAME_A, RENAME_B))
    codebase = CodeBase.from_files(
        {"a.c": "void f(void) { old_api(); }\n", "b.c": "int zero;\n"})
    prior = patchset.apply(codebase)
    again = patchset.apply(codebase, since=prior)
    assert again.incremental.files_reused == 2
    assert again.incremental.files_rerun == 0
    assert_results_identical(again, prior, "identity")


def test_spliced_results_are_independent_objects():
    """Mutating a view spliced from the prior result must not leak back
    into it (or into sibling views) — mirrors the cold pipeline's skip-path
    guarantee."""
    patchset = PatchSet(_patches(RENAME_A, RENAME_B))
    codebase = CodeBase.from_files(
        {"a.c": "void f(void) { old_api(); }\n", "b.c": "int zero;\n"})
    prior = patchset.apply(codebase)
    again = patchset.apply(codebase, since=prior)
    views = [again["a.c"], again.result_for(0)["a.c"], prior["a.c"]]
    assert len({id(view) for view in views}) == 3
    views[0].diagnostics.append("marker")
    views[0].rule_reports[0].matches = 999
    assert prior["a.c"].diagnostics == []
    assert prior["a.c"].rule_reports[0].matches == 1
    assert again.result_for(0)["a.c"].rule_reports[0].matches == 1


class TestFallbacks:
    def _prior(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        codebase = CodeBase.from_files({"a.c": "void f(void) { old_api(); }\n"})
        return patchset, codebase, patchset.apply(codebase)

    def test_none_since_runs_cold_without_stats_fallback_field(self):
        patchset, codebase, _prior = self._prior()
        result = patchset.apply(codebase, since=None)
        assert result.incremental is None  # plain cold run, no wrapper

    def test_shared_prefix_no_longer_falls_back(self):
        """Dropping the tail of the patch list keeps the shared prefix
        reusable: the truncated set splices the cached prefix results
        instead of degrading to a cold run (PR 3 behaviour)."""
        _patchset, codebase, prior = self._prior()
        other = PatchSet(_patches(RENAME_A))  # prefix of the prior list
        result = other.apply(codebase, since=prior)
        assert result.incremental.fallback is None
        assert result.incremental.patches_reused == 1
        assert result["a.c"].text == "void f(void) { mid_api(); }\n"

    def test_diverged_first_patch_falls_back(self):
        _patchset, codebase, prior = self._prior()
        other = PatchSet(_patches(RENAME_B, RENAME_A))  # reordered prefix
        result = other.apply(codebase, since=prior)
        assert "no shared patch prefix" in result.incremental.fallback
        # RENAME_B then RENAME_A: old_api -> mid_api (B first finds nothing)
        assert result["a.c"].text == "void f(void) { mid_api(); }\n"

    def test_recordless_prior_falls_back(self):
        patchset, codebase, prior = self._prior()
        prior.records.clear()  # e.g. a result from a pre-records pickle
        result = patchset.apply(codebase, since=prior)
        assert "records" in result.incremental.fallback
        assert result.total_matches == 2

    def test_prefilter_toggle_falls_back(self):
        """Texts and reports are prefilter-independent, but the spliced
        coverage counters are not: a prior prefilter-on result must not
        seed a prefilter-off run (and vice versa)."""
        patchset, codebase, prior = self._prior()  # prefilter on
        result = patchset.apply(codebase, prefilter=False, since=prior)
        assert "prefilter" in result.incremental.fallback
        assert result.stats.files_skipped == 0  # honest no-prefilter stats
        back_on = patchset.apply(codebase, prefilter=True, since=result)
        assert "prefilter" in back_on.incremental.fallback

    def test_script_finalize_aggregation_falls_back(self):
        aggregating = ("@initialize:python@ @@\nseen = []\n\n"
                       "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                       "@script:python s@\nf << a.f;\n@@\nseen.append(f)\n\n"
                       "@finalize:python@ @@\nprint('seen', len(seen))\n")
        patchset = PatchSet([SemanticPatch.from_string(aggregating, name="agg")])
        codebase = CodeBase.from_files({"a.c": "void t(void) { marked(x); }\n",
                                        "b.c": "void u(void) { marked(y); }\n"})
        prior = patchset.apply(codebase)
        result = patchset.apply(codebase, since=prior)
        assert "finalize" in result.incremental.fallback

    def test_fallback_result_still_seeds_the_next_incremental_run(self):
        patchset, codebase, prior = self._prior()
        prior.records.clear()
        fallback = patchset.apply(codebase, since=prior)  # cold, but recorded
        assert fallback.records
        follow_up = patchset.apply(codebase, since=fallback)
        assert follow_up.incremental.fallback is None
        assert follow_up.incremental.files_reused == 1


# ---------------------------------------------------------------------------
# patch-set deltas: prefix splicing + suffix replay
# ---------------------------------------------------------------------------

#: appended third patch for the prefix differentials (matches the raw part)
APPEND_NAME = "raw_loop_to_find"


class TestPatchPrefixReuse:
    def _prior(self, prefilter=True, jobs=1):
        patches = [_cookbook_patch(name) for name in COOKBOOK_NAMES]
        codebase = _mini(*WORKLOAD_PARTS)
        prior = PatchSet(patches).apply(codebase, jobs=jobs,
                                        prefilter=prefilter)
        assert prior.total_matches > 0
        return patches, codebase, prior

    @pytest.mark.parametrize("prefilter,jobs", CONFIGS,
                             ids=[f"prefilter_{'on' if p else 'off'}-jobs{j}"
                                  for p, j in CONFIGS])
    def test_appended_patch_runs_suffix_only(self, prefilter, jobs):
        """The headline workflow: appending one patch to a warm patch set
        splices every unchanged file's prefix results and replays only the
        new patch — byte-identical to a cold run of the full list."""
        patches, codebase, prior = self._prior(prefilter, jobs)
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        cold = extended.apply(CodeBase.from_files(dict(codebase.files)),
                              jobs=jobs, prefilter=prefilter)
        incremental = extended.apply(codebase, jobs=jobs, prefilter=prefilter,
                                     since=prior)
        stats = incremental.incremental
        assert stats.fallback is None
        assert stats.patches_reused == len(patches)
        assert stats.patches_total == len(patches) + 1
        assert stats.files_reused == len(codebase)
        assert stats.files_rerun == 0
        assert cold.per_patch[-1].total_matches > 0  # the suffix patch bites
        assert_results_identical(incremental, cold,
                                 ("append", prefilter, jobs))

    def test_modified_tail_patch_replays_from_divergence(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        prior = patchset.apply(files)
        modified = PatchSet(_patches(
            RENAME_A, "@r@ @@\n- mid_api();\n+ other_api();\n"))
        cold = modified.apply(dict(files))
        incremental = modified.apply(dict(files), since=prior)
        assert incremental.incremental.patches_reused == 1
        assert incremental["a.c"].text == "void f(void) { other_api(); }\n"
        assert_results_identical(incremental, cold, "modified-tail")

    def test_reordered_tail_keeps_the_prefix(self):
        """Reordering patches *after* the shared prefix replays from the
        divergence point; only reordering the first patch costs a cold run
        (see TestFallbacks.test_diverged_first_patch_falls_back)."""
        texts = [RENAME_A, RENAME_B, "@r@ @@\n- new_api();\n+ last_api();\n"]
        files = {"a.c": "void f(void) { old_api(); }\n"}
        prior = PatchSet(_patches(*texts)).apply(files)
        swapped = [texts[0], texts[2], texts[1]]
        reordered = PatchSet(_patches(*swapped))
        cold = reordered.apply(dict(files))
        incremental = reordered.apply(dict(files), since=prior)
        assert incremental.incremental.fallback is None
        assert incremental.incremental.patches_reused == 1
        assert_results_identical(incremental, cold, "reordered-tail")

    def test_option_change_falls_back_cold(self):
        from repro.options import SpatchOptions

        patchset, codebase, prior = TestFallbacks()._prior()
        other = PatchSet([
            SemanticPatch.from_string(
                RENAME_A, name="p0",
                options=SpatchOptions(apply_isomorphisms=False)),
            SemanticPatch.from_string(
                RENAME_B, name="p1",
                options=SpatchOptions(apply_isomorphisms=False))])
        result = other.apply(codebase, since=prior)
        assert "no shared patch prefix" in result.incremental.fallback
        assert result["a.c"].text == "void f(void) { new_api(); }\n"

    def test_combined_tree_and_patch_delta(self):
        """An edited file re-runs the whole new chain while untouched files
        splice the prefix and replay only the suffix — in the same pass."""
        patches, codebase, prior = self._prior()
        mutated = _mutated(codebase, "change")
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        cold = extended.apply(CodeBase.from_files(dict(mutated.files)))
        incremental = extended.apply(mutated, since=prior)
        stats = incremental.incremental
        assert stats.fallback is None
        assert stats.patches_reused == len(patches)
        assert stats.files_changed == 1
        assert stats.files_reused == len(mutated) - 1
        assert_results_identical(incremental, cold, "tree+patch")

    def test_corrupt_boundary_text_demotes_file_to_full_rerun(self):
        """Splice verification: a cached boundary text that no longer hashes
        to the recorded boundary (tampered/corrupt state) must re-run that
        file through the whole chain — wrong state never becomes output."""
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        prior = patchset.apply(files)
        prior.per_patch[1].files["a.c"].text = "void f(void) { EVIL(); }\n"
        extended = PatchSet(_patches(
            RENAME_A, RENAME_B, "@r@ @@\n- new_api();\n+ last_api();\n"))
        cold = extended.apply(dict(files))
        incremental = extended.apply(dict(files), since=prior)
        stats = incremental.incremental
        assert stats.fallback is None
        assert stats.files_changed == 1  # the tampered file, demoted
        assert stats.files_reused == 1
        assert incremental["a.c"].text == "void f(void) { last_api(); }\n"
        assert_results_identical(incremental, cold, "corrupt-boundary")

    def test_truncated_prior_result_degrades_not_crashes(self):
        """A prior result claiming more patch fingerprints than it carries
        per-patch results (tampered or half-rebuilt state) must degrade —
        splice what is actually there, cold-run otherwise — never raise."""
        files = {"a.c": "void f(void) { old_api(); }\n"}
        third = "@r@ @@\n- new_api();\n+ last_api();\n"
        extended = PatchSet(_patches(RENAME_A, RENAME_B, third))
        cold = extended.apply(dict(files))

        prior = PatchSet(_patches(RENAME_A, RENAME_B)).apply(dict(files))
        prior.per_patch = prior.per_patch[:1]  # fingerprints still claim 2
        partial = extended.apply(dict(files), since=prior)
        assert partial.incremental.fallback is None
        assert partial.incremental.patches_reused == 1  # capped at what exists
        assert_results_identical(partial, cold, "truncated-partial")

        prior = PatchSet(_patches(RENAME_A, RENAME_B)).apply(dict(files))
        prior.per_patch = []  # nothing left to splice from
        empty = extended.apply(dict(files), since=prior)
        assert "no shared patch prefix" in empty.incremental.fallback
        assert empty["a.c"].text == cold["a.c"].text

        # identical patch set (equal whole-set fingerprint) but truncated
        # per-patch results: the wholesale path must not be taken blindly
        same_set = PatchSet(_patches(RENAME_A, RENAME_B))
        cold_same = same_set.apply(dict(files))
        prior = same_set.apply(dict(files))
        prior.per_patch = prior.per_patch[:1]
        degraded = same_set.apply(dict(files), since=prior)
        assert degraded.incremental.fallback is None
        assert degraded.incremental.patches_reused == 1
        assert_results_identical(degraded, cold_same, "truncated-same-set")

        # a malformed record (wrong arity) re-runs its file, never crashes
        import dataclasses
        prior = same_set.apply(dict(files))
        prior.records["a.c"] = dataclasses.replace(prior.records["a.c"],
                                                   ran=(True,))
        short = same_set.apply(dict(files), since=prior)
        assert short.incremental.files_changed == 1
        assert_results_identical(short, cold_same, "short-record")

    def test_prior_without_patch_fingerprints_falls_back(self):
        """A result predating per-patch fingerprints (or a stripped one)
        cannot prove any shared prefix: cold run."""
        patchset, codebase, prior = TestFallbacks()._prior()
        prior.patch_fingerprints = []
        extended = PatchSet(_patches(RENAME_A, RENAME_B,
                                     "@r@ @@\n- new_api();\n+ last_api();\n"))
        result = extended.apply(codebase, since=prior)
        assert "no shared patch prefix" in result.incremental.fallback

    def test_records_carry_per_boundary_hashes(self):
        from repro.engine.cache import content_sha1

        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        result = patchset.apply(files)
        for name, record in result.records.items():
            assert len(record.boundaries) == 2
            for index, boundary in enumerate(record.boundaries):
                assert boundary == content_sha1(
                    result.per_patch[index].files[name].text)

    def test_prefix_results_chain_into_further_increments(self):
        """A prefix-spliced result seeds the next edit-apply round like any
        other (its records are rebuilt for the new patch list)."""
        patches, codebase, prior = self._prior()
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        first = extended.apply(codebase, since=prior)
        assert first.incremental.patches_reused == len(patches)
        mutated = _mutated(codebase, "add")
        cold = extended.apply(CodeBase.from_files(dict(mutated.files)))
        second = extended.apply(mutated, since=first)
        assert second.incremental.fallback is None
        assert second.incremental.patches_reused == len(patches) + 1
        assert second.incremental.files_added == 1
        assert_results_identical(second, cold, "chained-prefix")


class TestIncrementalStats:
    def test_describe_mentions_reuse_breakdown(self):
        stats = IncrementalStats(files_total=4, files_reused=3,
                                 files_changed=1)
        described = stats.describe()
        assert "3 reused (75%)" in described
        assert "1 changed" in described

    def test_describe_mentions_fallback(self):
        stats = IncrementalStats(files_total=2, fallback="no prior result")
        assert "cold run" in stats.describe()

    def test_rates_with_zero_files(self):
        assert IncrementalStats().reuse_rate == 0.0


# ---------------------------------------------------------------------------
# satellite fixes incremental mode depends on
# ---------------------------------------------------------------------------

class TestCodeBaseMutation:
    def test_delitem_removes_file_and_index_entry(self):
        codebase = CodeBase.from_files(
            {"a.c": "void f(void) { unique_marker(); }\n", "b.c": "int x;\n"})
        index = codebase.token_index()
        assert "unique_marker" in index.tokens_of("a.c")
        del codebase["a.c"]
        assert "a.c" not in codebase
        assert "a.c" not in index
        assert index.tokens_of("a.c") == frozenset()  # no stale tokens

    def test_delitem_keeps_prefilter_exact(self):
        """The regression the fix targets: after a deletion, an apply over
        the same CodeBase must not consult stale index entries."""
        codebase = CodeBase.from_files(
            {"hit.c": "void f(void) { old_api(); }\n", "miss.c": "int x;\n"})
        patch = SemanticPatch.from_string(RENAME_A)
        first = patch.apply(codebase)
        assert first["hit.c"].changed
        del codebase["hit.c"]
        second = patch.apply(codebase)
        assert list(second.files) == ["miss.c"]
        assert second.total_matches == 0

    def test_delitem_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            del CodeBase.from_files({})["ghost.c"]

    def test_refresh_from_dir_applies_the_disk_delta(self, tmp_path):
        (tmp_path / "keep.c").write_text("int keep;\n")
        (tmp_path / "edit.c").write_text("int before;\n")
        (tmp_path / "gone.c").write_text("int gone;\n")
        codebase = CodeBase.from_dir(tmp_path)
        index = codebase.token_index()
        assert "gone" in index.tokens_of("gone.c")

        (tmp_path / "edit.c").write_text("int after;\n")
        (tmp_path / "fresh.c").write_text("int fresh;\n")
        (tmp_path / "gone.c").unlink()
        delta = codebase.refresh_from_dir(tmp_path)

        assert delta == {"added": ["fresh.c"], "changed": ["edit.c"],
                         "removed": ["gone.c"]}
        assert codebase["edit.c"] == "int after;\n"
        assert "gone.c" not in codebase
        assert "after" in index.tokens_of("edit.c")
        assert "fresh" in index.tokens_of("fresh.c")
        assert "gone.c" not in index

    def test_refresh_from_dir_noop_reports_empty_delta(self, tmp_path):
        (tmp_path / "same.c").write_text("int same;\n")
        codebase = CodeBase.from_dir(tmp_path)
        assert codebase.refresh_from_dir(tmp_path) == \
            {"added": [], "changed": [], "removed": []}


class TestRunForkPool:
    def _forbid_pool(self, monkeypatch):
        import concurrent.futures

        def bomb(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ProcessPoolExecutor must not be created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", bomb)

    def test_empty_items_return_empty_without_a_pool(self, monkeypatch):
        from repro.engine.pipeline import run_fork_pool

        self._forbid_pool(monkeypatch)
        called = []
        assert run_fork_pool([], 4, lambda: called.append("init"), (),
                             lambda batch: batch) == []
        assert called == []  # not even the initializer runs

    def test_single_item_runs_in_process(self, monkeypatch):
        from repro.engine.pipeline import run_fork_pool

        self._forbid_pool(monkeypatch)
        state = {}

        def initializer(value):
            state["ready"] = value

        def worker(batch):
            assert state["ready"] == 42
            return [item * 2 for item in batch]

        assert run_fork_pool([21], 4, initializer, (42,), worker) == [42]

    def test_result_order_preserved_in_process(self, monkeypatch):
        from repro.engine.pipeline import run_fork_pool

        self._forbid_pool(monkeypatch)
        out = run_fork_pool(["a"], 1, lambda: None, (), list)
        assert out == ["a"]


class TestResultForKeyError:
    def test_unknown_name_raises_keyerror_listing_patches(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        result = patchset.apply({"a.c": "void f(void) { old_api(); }\n"})
        with pytest.raises(KeyError) as excinfo:
            result.result_for("nonexistent")
        message = str(excinfo.value)
        assert "nonexistent" in message
        assert "'p0'" in message and "'p1'" in message

    def test_known_name_and_index_still_work(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        result = patchset.apply({"a.c": "void f(void) { old_api(); }\n"})
        assert result.result_for("p1") is result.per_patch[1]
        assert result.result_for(0) is result.per_patch[0]


# ---------------------------------------------------------------------------
# persisted state round-trips
# ---------------------------------------------------------------------------

class TestPipelineState:
    def test_round_trip_preserves_result_and_cache(self, tmp_path):
        from repro.engine.cache import TreeCache

        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        cache = TreeCache()
        cache.get_or_parse("int cached;\n", "c.c",
                           patchset[0].options)
        result = patchset.apply({"a.c": "void f(void) { old_api(); }\n"})
        target = tmp_path / "state.bin"
        PipelineState(result=result, cache_entries=cache.snapshot()) \
            .save(target)

        loaded = PipelineState.load(target)
        assert loaded is not None
        assert loaded.fingerprint == result.fingerprint
        assert loaded.result == result
        assert loaded.result.records == result.records
        restored = TreeCache()
        assert restored.restore(loaded.cache_entries) == 1

    def test_loaded_state_seeds_an_incremental_run(self, tmp_path):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        result = patchset.apply(files)
        target = tmp_path / "state.bin"
        PipelineState(result=result).save(target)

        loaded = PipelineState.load(target)
        again = patchset.apply(files, since=loaded.result)
        assert again.incremental.files_reused == 2
        assert_results_identical(again, result, "persisted")

    def test_load_of_missing_or_corrupt_returns_none(self, tmp_path):
        assert PipelineState.load(tmp_path / "absent.bin") is None
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"\x80\x04 garbage")
        assert PipelineState.load(corrupt) is None
        # a bad protocol marker raises ValueError, not UnpicklingError —
        # it must degrade just the same (and for TreeCache.load too)
        bad_protocol = tmp_path / "proto.bin"
        bad_protocol.write_bytes(b"\x80\x63spam")
        assert PipelineState.load(bad_protocol) is None
        from repro.engine.cache import TreeCache
        assert TreeCache().load(bad_protocol) == 0

    def test_save_caps_embedded_cache_entries(self, tmp_path):
        """State-file hygiene: the embedded parse-cache snapshot is bounded
        (LRU-coldest entries dropped past the cap) and a capped state still
        loads, restores and seeds reuse."""
        from repro.engine.cache import TreeCache

        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        cache = TreeCache()
        for index in range(6):
            cache.get_or_parse(f"int cached_{index};\n", f"f{index}.c",
                               patchset[0].options)
        hottest = f"int cached_5;\n"
        result = patchset.apply({"a.c": "void f(void) { old_api(); }\n"})
        target = tmp_path / "state.bin"
        PipelineState(result=result, cache_entries=cache.snapshot(),
                      max_cache_entries=2).save(target)

        loaded = PipelineState.load(target)
        assert loaded is not None
        assert len(loaded.cache_entries) == 2
        restored = TreeCache()
        assert restored.restore(loaded.cache_entries) == 2
        # the kept entries are the LRU-hottest: the last text parsed hits
        hits0, _ = restored.stats()
        restored.get_or_parse(hottest, "f5.c", patchset[0].options)
        assert restored.stats()[0] == hits0 + 1
        # and the result still seeds an incremental run
        again = patchset.apply({"a.c": "void f(void) { old_api(); }\n"},
                               since=loaded.result)
        assert again.incremental.files_reused == 1

    def test_load_of_wrong_version_returns_none(self, tmp_path):
        import pickle

        target = tmp_path / "old.bin"
        target.write_bytes(pickle.dumps({"version": -1, "result": None}))
        assert PipelineState.load(target) is None

    def test_save_cap_keeps_most_recently_used_not_newest_inserted(
            self, tmp_path):
        """The capped snapshot is *recency* order: an old entry touched just
        before saving must survive the cap, and the true-coldest entry —
        not the oldest-inserted — is what gets dropped."""
        from repro.engine.cache import TreeCache

        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        cache = TreeCache()
        for index in range(4):
            cache.get_or_parse(f"int cached_{index};\n", f"f{index}.c",
                               patchset[0].options)
        # touch the oldest-inserted entry: it is now the hottest
        cache.get_or_parse("int cached_0;\n", "f0.c", patchset[0].options)

        result = patchset.apply({"a.c": "void f(void) { old_api(); }\n"})
        target = tmp_path / "state.bin"
        PipelineState(result=result, cache_entries=cache.snapshot(),
                      max_cache_entries=2).save(target)

        loaded = PipelineState.load(target)
        kept = TreeCache()
        kept.restore(loaded.cache_entries)
        kept.get_or_parse("int cached_0;\n", "f0.c", patchset[0].options)
        kept.get_or_parse("int cached_3;\n", "f3.c", patchset[0].options)
        assert kept.stats() == (2, 0)  # the touched-old + last-inserted hit
        # cached_1 was the true LRU-coldest: it fell past the cap
        kept.get_or_parse("int cached_1;\n", "f1.c", patchset[0].options)
        assert kept.stats() == (2, 1)


# ---------------------------------------------------------------------------
# CLI: --incremental and --watch
# ---------------------------------------------------------------------------

class TestCliIncremental:
    def _setup(self, tmp_path):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        (src / "miss.c").write_text("int zero;\n")
        return str(cocci), str(src), str(tmp_path / "state.bin")

    def test_second_invocation_reuses_everything(self, tmp_path, capsys):
        cocci, src, state = self._setup(tmp_path)
        argv = ["--sp-file", cocci, "--incremental", state, "--profile", src]
        assert spatch_main(argv) == 0
        first = capsys.readouterr()
        assert "incremental" not in first.err  # cold: no prior state

        assert spatch_main(argv) == 0
        second = capsys.readouterr()
        assert "2 reused (100%)" in second.err
        assert second.out == first.out  # identical diff

    def test_edited_file_reruns_alone(self, tmp_path, capsys):
        cocci, src, state = self._setup(tmp_path)
        argv = ["--sp-file", cocci, "--incremental", state, "--profile", src]
        spatch_main(argv)
        capsys.readouterr()
        (tmp_path / "src" / "hit.c").write_text(
            "void f(void) { old_api(); other(); }\n")
        assert spatch_main(argv) == 0
        captured = capsys.readouterr()
        assert "1 reused (50%)" in captured.err
        assert "1 changed + 0 added re-run" in captured.err

    def test_stale_state_from_other_patch_degrades_to_cold(self, tmp_path,
                                                           capsys):
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        capsys.readouterr()
        other = tmp_path / "other.cocci"
        other.write_text(RENAME_B)
        rc = spatch_main(["--sp-file", str(other), "--incremental", state,
                          "--profile", src])
        captured = capsys.readouterr()
        assert rc == 1  # RENAME_B matches nothing in the pristine tree
        assert "fell back to a cold run" in captured.err

    def test_appended_patch_between_invocations_splices_prefix(self, tmp_path,
                                                               capsys):
        """A second invocation with one more --sp-file reuses the persisted
        prefix: only the appended patch re-runs."""
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        capsys.readouterr()
        extra = tmp_path / "extra.cocci"
        extra.write_text(RENAME_B)
        rc = spatch_main(["--sp-file", cocci, "--sp-file", str(extra),
                          "--incremental", state, "--profile", src])
        captured = capsys.readouterr()
        assert rc == 0
        assert "patch prefix: 1/2 spliced, 1 suffix patch(es) re-run" \
            in captured.err
        assert "2 reused (100%)" in captured.err
        # mid_api (written by the prefix patch) became new_api via the suffix
        assert "+void f(void) { new_api(); }" in captured.out

    def test_single_patch_incremental_uses_pipeline_result(self, tmp_path):
        """--incremental with one --sp-file must still persist a seedable
        state (the single-patch fast path bypasses the pipeline otherwise)."""
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        loaded = PipelineState.load(state)
        assert loaded is not None
        assert loaded.result.records


class TestCliWatch:
    def test_watch_rerun_touches_only_the_edited_file(self, tmp_path, capsys):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        src = tmp_path / "src"
        src.mkdir()
        (src / "edit.c").write_text("void f(void) { old_api(); }\n")
        (src / "quiet.c").write_text("void g(void) { old_api(); }\n")

        def edit_later():
            time.sleep(0.6)
            (src / "edit.c").write_text(
                "void f(void) { old_api(); newly_added(); }\n")

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(cocci), "--watch",
                              "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        captured = capsys.readouterr()
        assert rc == 0
        watch_lines = [line for line in captured.err.splitlines()
                       if line.startswith("# watch:")]
        assert watch_lines == ["# watch: 1 changed + 0 added re-run, "
                               "1 reused, 0 dropped -> 2 match(es)"]
        # the re-run round printed only the edited file's diff
        rounds = captured.out.split("--- a/")
        assert len(rounds) == 4  # initial: two files; round two: one
        assert "newly_added" in rounds[-1]
        assert "quiet.c" not in rounds[-1]

    def test_watch_in_place_never_reapplies_its_own_rewrites(self, tmp_path,
                                                             capsys):
        """Regression: the initial in-place rewrites must be folded into
        the watch baseline from memory — with a *non-idempotent* patch, an
        external edit to another file must not re-trigger (and re-apply)
        the patch on the tool's own output."""
        cocci = tmp_path / "grow.cocci"
        # matches its own output: every re-application appends another call
        cocci.write_text("@g@ @@\n  marker();\n+ grown();\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "stable.c").write_text("void f(void) { marker(); }\n")
        (src / "other.c").write_text("int untouched;\n")

        def edit_later():
            time.sleep(0.6)
            (src / "other.c").write_text("int edited;\n")

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(cocci), "--watch", "--in-place",
                              "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        capsys.readouterr()
        assert rc == 0
        # one application from the initial run, none from the watch round
        assert (src / "stable.c").read_text().count("grown();") == 1

    def test_watch_spfile_edit_reruns_only_suffix_patches(self, tmp_path,
                                                          capsys):
        """Editing an sp-file mid-watch re-applies with the prior result:
        the unchanged leading patch splices, only the edited suffix patch
        re-runs, and only output-changed files are emitted."""
        first = tmp_path / "first.cocci"
        first.write_text(RENAME_A)
        second = tmp_path / "second.cocci"
        second.write_text(RENAME_B)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        (src / "quiet.c").write_text("int zero;\n")

        def edit_later():
            time.sleep(0.6)
            second.write_text("@r@ @@\n- mid_api();\n+ changed_api();\n")

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(first), "--sp-file",
                              str(second), "--watch",
                              "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        captured = capsys.readouterr()
        assert rc == 0
        watch_lines = [line for line in captured.err.splitlines()
                       if line.startswith("# watch:")]
        assert watch_lines == ["# watch: 0 changed + 0 added re-run, "
                               "2 reused, 0 dropped, patch prefix 1/2 "
                               "spliced -> 2 match(es)"]
        # the patch-edit round emitted only the file the new suffix affects
        rounds = captured.out.split("--- a/")
        assert len(rounds) == 3  # initial: hit.c; patch round: hit.c again
        assert "changed_api" in rounds[-1]
        assert "quiet.c" not in rounds[-1]

    def test_watch_spfile_edit_never_rewrites_unaffected_files(self, tmp_path,
                                                               capsys):
        """--in-place + a patch edit whose outcome is identical must not
        rewrite anything: emission is gated on *output* changes."""
        first = tmp_path / "first.cocci"
        first.write_text(RENAME_A)
        second = tmp_path / "second.cocci"
        second.write_text(RENAME_B)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        (src / "other.c").write_text("int untouched;\n")

        def edit_later():
            time.sleep(0.6)
            # rewrites mid_api too — but the initial round already turned
            # hit.c into new_api form, so no file's output changes
            second.write_text("@r@ @@\n- mid_api();\n+ other_api();\n")

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(first), "--sp-file",
                              str(second), "--watch", "--in-place",
                              "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        captured = capsys.readouterr()
        assert rc == 0
        rewrites = [line for line in captured.err.splitlines()
                    if line.startswith("rewrote ")]
        assert len(rewrites) == 1  # the initial round's hit.c — nothing else
        assert "hit.c" in rewrites[0]
        assert (src / "hit.c").read_text() == "void f(void) { new_api(); }\n"
        assert (src / "other.c").read_text() == "int untouched;\n"

    def test_watch_broken_spfile_keeps_previous_patches(self, tmp_path,
                                                        capsys):
        """A mid-edit save that fails to parse is reported and skipped; the
        session keeps running with the previous patches."""
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old_api(); }\n")

        def break_later():
            time.sleep(0.4)
            cocci.write_text("@broken rule without closing\n- nonsense")

        editor = threading.Thread(target=break_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(cocci), "--watch",
                              "--watch-interval", "0.05",
                              "--watch-polls", "30", str(target)])
        finally:
            editor.join()
        captured = capsys.readouterr()
        assert rc == 0  # the initial round matched
        assert "keeping the previous patches" in captured.err

    def test_watch_ignores_touch_without_content_change(self, tmp_path,
                                                        capsys):
        import os

        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old_api(); }\n")

        def touch_later():
            time.sleep(0.3)
            os.utime(target)  # mtime changes, content does not

        toucher = threading.Thread(target=touch_later)
        toucher.start()
        try:
            rc = spatch_main(["--sp-file", str(cocci), "--watch",
                              "--watch-interval", "0.05",
                              "--watch-polls", "20", str(target)])
        finally:
            toucher.join()
        captured = capsys.readouterr()
        assert rc == 0
        assert "# watch:" not in captured.err  # nothing re-ran
