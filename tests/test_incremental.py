"""Incremental re-application: differential equivalence and its surfaces.

The contract under test: ``PatchSet.apply(codebase, since=prior_result)``
is **byte-identical** to a cold ``PatchSet.apply(codebase)`` — same texts,
same per-rule reports (combined and per patch), same coverage stats modulo
timing — across change/add/delete deltas, prefilter on/off and jobs 1/4,
while actually re-running only the files whose content hash changed.

Also covered here: the satellite fixes this mode depends on —
``CodeBase.__delitem__``/``refresh_from_dir`` token-index maintenance,
``run_fork_pool``'s empty input, result order and unpickled initargs,
``PipelineResult.result_for``'s ``KeyError`` — plus the CLI's
``--incremental`` (the memo directory's other spelling) and ``--watch``.
"""

import dataclasses
import pathlib
import threading
import time

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.engine.cache import content_sha1
from repro.engine.incremental import IncrementalPipeline, IncrementalStats
from repro.engine.memo import TransformMemo
from repro.engine.report import profile_lines

from profile_text import profile_of
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
    """No caller can change the prior result through a view spliced from
    it (or a sibling view): results are immutable, so the splice shares
    them, and every view stays equal to a cold run's."""
    patchset = PatchSet(_patches(RENAME_A, RENAME_B))
    codebase = CodeBase.from_files(
        {"a.c": "void f(void) { old_api(); }\n", "b.c": "int zero;\n"})
    prior = patchset.apply(codebase)
    again = patchset.apply(codebase, since=prior)
    views = [again["a.c"], again.result_for(0)["a.c"], prior["a.c"]]
    assert views[0] is views[2]
    for view in views:
        with pytest.raises(AttributeError):
            view.diagnostics.append("marker")
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.rule_reports[0].matches = 999
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.text = "void f(void) { EVIL(); }\n"
    assert prior["a.c"].diagnostics == ()
    assert prior["a.c"].rule_reports[0].matches == 1
    assert again.result_for(0)["a.c"].rule_reports[0].matches == 1
    cold = patchset.apply(CodeBase.from_files(dict(codebase.files)))
    assert_results_identical(again, cold, "spliced views")


class TestFallbacks:
    def _prior(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        codebase = CodeBase.from_files({"a.c": "void f(void) { old_api(); }\n"})
        return patchset, codebase, patchset.apply(codebase)

    def test_none_since_runs_cold_without_stats_fallback_field(self):
        patchset, codebase, _prior = self._prior()
        result = patchset.apply(codebase, since=None)
        assert result.incremental is None  # plain cold run, no wrapper

    def test_truncated_patch_list_runs_cold_through_the_memo(self):
        """Dropping the tail of the patch list is a cold run; the memo
        answers the patch that stayed."""
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        codebase = CodeBase.from_files({"a.c": "void f(void) { old_api(); }\n"})
        memo = TransformMemo()
        prior = patchset.apply(codebase, memo=memo)
        other = PatchSet(_patches(RENAME_A))  # prefix of the prior list
        cold = other.apply(CodeBase.from_files(dict(codebase.files)))
        result = other.apply(codebase, since=prior, memo=memo)
        assert "patch set" in result.incremental.fallback
        assert (result.stats.memo_hits, result.stats.memo_misses) == (1, 0)
        assert result["a.c"].text == "void f(void) { mid_api(); }\n"
        assert_results_identical(result, cold, "truncated")

    def test_diverged_first_patch_falls_back(self):
        _patchset, codebase, prior = self._prior()
        other = PatchSet(_patches(RENAME_B, RENAME_A))  # reordered prefix
        result = other.apply(codebase, since=prior)
        assert "patch set" in result.incremental.fallback
        # RENAME_B then RENAME_A: old_api -> mid_api (B first finds nothing)
        assert result["a.c"].text == "void f(void) { mid_api(); }\n"

    def test_recordless_prior_falls_back(self):
        patchset, codebase, prior = self._prior()
        prior.records.clear()  # e.g. a result built without records
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

    def test_pure_script_finalize_patch_splices(self):
        """Per-file scripts that only read their namespace leave nothing
        for a finalize rule to aggregate: the prior result splices."""
        table = ("@initialize:python@ @@\nNEW = {'x': 'x2', 'y': 'y2'}\n\n"
                 "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                 "@script:python s@\nf << a.f;\nn;\n@@\n"
                 "coccinelle.n = cocci.make_ident(NEW[f])\n\n"
                 "@b@\nidentifier a.f;\nidentifier s.n;\n@@\n"
                 "- marked(f);\n+ marked(n);\n\n"
                 "@finalize:python@ @@\nprint('done', len(NEW))\n")
        patchset = PatchSet([SemanticPatch.from_string(table, name="table")])
        codebase = CodeBase.from_files({"a.c": "void t(void) { marked(x); }\n",
                                        "b.c": "void u(void) { marked(y); }\n"})
        prior = patchset.apply(codebase)
        assert prior["a.c"].text == "void t(void) { marked(x2); }\n"
        result = patchset.apply(codebase, since=prior)
        assert result.incremental.fallback is None
        assert result.incremental.files_reused == 2
        assert_results_identical(result, prior, "pure-script")

    def test_impure_prior_result_is_refused(self):
        aggregating = ("@initialize:python@ @@\nseen = []\n\n"
                       "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                       "@script:python s@\nf << a.f;\n@@\nseen.append(f)\n\n"
                       "@finalize:python@ @@\nprint('seen', len(seen))\n")
        patchset = PatchSet([SemanticPatch.from_string(aggregating, name="agg")])
        codebase = CodeBase.from_files({"a.c": "void t(void) { marked(x); }\n",
                                        "b.c": "void u(void) { marked(y); }\n"})
        prior = patchset.apply(codebase)
        assert prior.impure_patches == ["agg"]
        result = patchset.apply(codebase, since=prior)
        assert "impure" in result.incremental.fallback
        assert "agg" in result.incremental.fallback
        assert result.incremental.files_reused == 0
        assert_results_identical(result, prior, "impure-prior")

    def test_fallback_result_still_seeds_the_next_incremental_run(self):
        patchset, codebase, prior = self._prior()
        prior.records.clear()
        fallback = patchset.apply(codebase, since=prior)  # cold, but recorded
        assert fallback.records
        follow_up = patchset.apply(codebase, since=fallback)
        assert follow_up.incremental.fallback is None
        assert follow_up.incremental.files_reused == 1


# ---------------------------------------------------------------------------
# patch-set deltas: a cold run the transform memo answers
# ---------------------------------------------------------------------------

#: appended third patch for the patch-list differentials (matches the raw part)
APPEND_NAME = "raw_loop_to_find"


def _sessions(result, patches=None) -> int:
    """Sessions the given patch positions (default: all) ran in ``result``."""
    indices = range(len(result.per_patch)) if patches is None else patches
    return sum(result.per_patch[index].stats.files_total
               - result.per_patch[index].stats.files_skipped
               for index in indices)


def _probe_hits(cold, n_unchanged: int, jobs: int) -> int:
    """Memo hits a forked run's parent adds while probing: every file whose
    appended patch needs a session resolves the unchanged patches in the
    parent first, then again in a worker."""
    if jobs == 1:
        return 0
    return sum(sum(record.ran[:n_unchanged])
               for record in cold.records.values()
               if len(record.ran) > n_unchanged and record.ran[n_unchanged])


class TestPatchListChanges:
    def _prior(self, memo, prefilter=True, jobs=1):
        patches = [_cookbook_patch(name) for name in COOKBOOK_NAMES]
        codebase = _mini(*WORKLOAD_PARTS)
        prior = PatchSet(patches).apply(codebase, jobs=jobs,
                                        prefilter=prefilter, memo=memo)
        assert prior.total_matches > 0
        return patches, codebase, prior

    @pytest.mark.parametrize("prefilter,jobs", CONFIGS,
                             ids=[f"prefilter_{'on' if p else 'off'}-jobs{j}"
                                  for p, j in CONFIGS])
    def test_appended_patch_runs_only_the_new_sessions(self, prefilter, jobs,
                                                      tmp_path):
        """The headline workflow: appending one patch to a warm patch set
        is answered from the memo for every unchanged patch, and only the
        new patch's sessions run — byte-identical to a cold run of the
        full list."""
        memo = TransformMemo(path=tmp_path / "memo")  # workers share it
        patches, codebase, prior = self._prior(memo, prefilter, jobs)
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        cold = extended.apply(CodeBase.from_files(dict(codebase.files)),
                              jobs=jobs, prefilter=prefilter)
        incremental = extended.apply(codebase, jobs=jobs, prefilter=prefilter,
                                     since=prior, memo=memo)
        stats = incremental.incremental
        assert "patch set" in stats.fallback
        assert stats.patches_total == len(patches) + 1
        probes = _probe_hits(cold, len(patches), jobs)
        new_sessions = _sessions(cold, [len(patches)])
        assert incremental.stats.memo_hits == _sessions(prior) + probes
        assert incremental.stats.memo_misses == \
            new_sessions * (2 if jobs > 1 else 1)
        assert cold.per_patch[-1].total_matches > 0  # the new patch bites
        assert_results_identical(incremental, cold,
                                 ("append", prefilter, jobs))

    def test_modified_tail_patch_reruns_only_its_sessions(self):
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        memo = TransformMemo()
        prior = patchset.apply(files, memo=memo)
        modified = PatchSet(_patches(
            RENAME_A, "@r@ @@\n- mid_api();\n+ other_api();\n"))
        cold = modified.apply(dict(files))
        incremental = modified.apply(dict(files), since=prior, memo=memo)
        assert (incremental.stats.memo_hits,
                incremental.stats.memo_misses) == (1, 1)
        assert incremental["a.c"].text == "void f(void) { other_api(); }\n"
        assert_results_identical(incremental, cold, "modified-tail")

    def test_reordered_patches_hit_wherever_they_moved(self):
        """The memo answers by content, not position: a patch that moved
        still hits wherever it sees the text it saw before."""
        named = [SemanticPatch.from_string(text, name=name) for name, text in
                 (("a", RENAME_A), ("b", RENAME_B),
                  ("c", "@r@ @@\n- new_api();\n+ last_api();\n"))]
        files = {"a.c": "void f(void) { old_api(); }\n"}
        memo = TransformMemo()
        prior = PatchSet(named).apply(files, memo=memo)
        reordered = PatchSet([named[0], named[2], named[1]])
        cold = reordered.apply(dict(files))
        incremental = reordered.apply(dict(files), since=prior, memo=memo)
        # a (old -> mid) and the moved b (mid -> new) hit; the moved c
        # (new -> last) sees no new_api and is gated, as in the cold run
        assert (incremental.stats.memo_hits,
                incremental.stats.memo_misses) == (2, 0)
        assert_results_identical(incremental, cold, "reordered")

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
        assert "patch set" in result.incremental.fallback
        assert result["a.c"].text == "void f(void) { new_api(); }\n"

    def test_combined_tree_and_patch_delta(self):
        """An edited file misses for every patch while untouched files hit
        for the unchanged ones — in the same pass."""
        memo = TransformMemo()
        patches, codebase, prior = self._prior(memo)
        mutated = _mutated(codebase, "change")
        edited = sorted(codebase.files)[0]
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        cold = extended.apply(CodeBase.from_files(dict(mutated.files)))
        incremental = extended.apply(mutated, since=prior, memo=memo)
        assert "patch set" in incremental.incremental.fallback
        assert incremental.stats.memo_hits == sum(
            sum(record.ran) for name, record in prior.records.items()
            if name != edited)
        assert incremental.stats.memo_hits + incremental.stats.memo_misses \
            == cold.stats.sessions_run
        assert_results_identical(incremental, cold, "tree+patch")

    def test_tampered_prior_result_never_reaches_a_changed_patch_list(self):
        """A prior result whose cached texts were tampered with is never
        read when the patch list changed: the output is the cold one."""
        patchset = PatchSet(_patches(RENAME_A, RENAME_B))
        files = {"a.c": "void f(void) { old_api(); }\n", "b.c": "int z;\n"}
        prior = patchset.apply(files)
        tampered = prior.per_patch[1].files
        tampered["a.c"] = dataclasses.replace(
            tampered["a.c"], text="void f(void) { EVIL(); }\n")
        extended = PatchSet(_patches(
            RENAME_A, RENAME_B, "@r@ @@\n- new_api();\n+ last_api();\n"))
        cold = extended.apply(dict(files))
        incremental = extended.apply(dict(files), since=prior)
        assert "patch set" in incremental.incremental.fallback
        assert incremental["a.c"].text == "void f(void) { last_api(); }\n"
        assert_results_identical(incremental, cold, "tampered")

    def test_truncated_prior_result_degrades_not_crashes(self):
        """A prior result with fewer per-patch results than patches
        (tampered or half-rebuilt state) must degrade to a cold run, never
        raise."""
        files = {"a.c": "void f(void) { old_api(); }\n"}
        third = "@r@ @@\n- new_api();\n+ last_api();\n"
        extended = PatchSet(_patches(RENAME_A, RENAME_B, third))
        cold = extended.apply(dict(files))

        prior = PatchSet(_patches(RENAME_A, RENAME_B)).apply(dict(files))
        prior.per_patch = prior.per_patch[:1]
        partial = extended.apply(dict(files), since=prior)
        assert "patch set" in partial.incremental.fallback
        assert_results_identical(partial, cold, "truncated-partial")

        prior = PatchSet(_patches(RENAME_A, RENAME_B)).apply(dict(files))
        prior.per_patch = []  # nothing left to splice from
        empty = extended.apply(dict(files), since=prior)
        assert "patch set" in empty.incremental.fallback
        assert empty["a.c"].text == cold["a.c"].text

        # identical patch set (equal whole-set fingerprint) but truncated
        # per-patch results: the splice path must not be taken blindly
        same_set = PatchSet(_patches(RENAME_A, RENAME_B))
        cold_same = same_set.apply(dict(files))
        prior = same_set.apply(dict(files))
        prior.per_patch = prior.per_patch[:1]
        degraded = same_set.apply(dict(files), since=prior)
        assert "patch set" in degraded.incremental.fallback
        assert_results_identical(degraded, cold_same, "truncated-same-set")

        # a malformed record (wrong arity) re-runs its file, never crashes
        import dataclasses
        prior = same_set.apply(dict(files))
        prior.records["a.c"] = dataclasses.replace(prior.records["a.c"],
                                                   ran=(True,))
        short = same_set.apply(dict(files), since=prior)
        assert short.incremental.files_changed == 1
        assert_results_identical(short, cold_same, "short-record")

    def test_prior_without_fingerprint_falls_back(self):
        """A result with no patch-set fingerprint (stripped or legacy)
        cannot prove it came from this patch list: cold run."""
        patchset, codebase, prior = TestFallbacks()._prior()
        prior.fingerprint = None
        result = patchset.apply(codebase, since=prior)
        assert "patch set" in result.incremental.fallback

    def test_memo_answered_result_seeds_further_increments(self):
        """A result the memo answered after a patch-list change seeds the
        next edit-apply round's splice like any other."""
        memo = TransformMemo()
        patches, codebase, prior = self._prior(memo)
        extended = PatchSet(patches + [_cookbook_patch(APPEND_NAME)])
        first = extended.apply(codebase, since=prior, memo=memo)
        assert first.stats.memo_hits == _sessions(prior)
        mutated = _mutated(codebase, "add")
        cold = extended.apply(CodeBase.from_files(dict(mutated.files)))
        second = extended.apply(mutated, since=first)
        assert second.incremental.fallback is None
        assert second.incremental.files_reused == len(codebase)
        assert second.incremental.files_added == 1
        assert_results_identical(second, cold, "chained")


class TestIncrementalStats:
    def test_profile_lines_show_reuse_breakdown(self):
        stats = IncrementalStats(files_total=4, files_reused=3,
                                 files_changed=1)
        lines = profile_lines({"incremental": stats.as_dict()})
        assert "# incremental.files_reused: 3" in lines
        assert "# incremental.reuse_rate: 0.75" in lines
        assert "# incremental.files_changed: 1" in lines

    def test_profile_lines_show_fallback(self):
        stats = IncrementalStats(files_total=2, fallback="no prior result")
        assert "# incremental.fallback: no prior result" \
            in profile_lines({"incremental": stats.as_dict()})

    def test_rates_with_zero_files(self):
        assert IncrementalStats().reuse_rate == 0.0


# ---------------------------------------------------------------------------
# satellite fixes incremental mode depends on
# ---------------------------------------------------------------------------

class TestCodeBaseMutation:
    def test_delitem_keeps_prefilter_exact(self):
        """After a deletion, an apply over the same CodeBase sees neither
        the file nor anything scanned from it."""
        codebase = CodeBase.from_files(
            {"hit.c": "void f(void) { old_api(); }\n", "miss.c": "int x;\n"})
        patch = SemanticPatch.from_string(RENAME_A)
        first = patch.apply(codebase)
        assert first["hit.c"].changed
        del codebase["hit.c"]
        assert "hit.c" not in codebase
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
        patch = SemanticPatch.from_string(
            "@r@ @@\n- int gone;\n+ int kept;\n")
        assert patch.apply(codebase)["gone.c"].changed

        (tmp_path / "edit.c").write_text("int after;\n")
        (tmp_path / "fresh.c").write_text("int fresh;\n")
        (tmp_path / "gone.c").unlink()
        delta = codebase.refresh_from_dir(tmp_path)

        assert delta == {"added": ["fresh.c"], "changed": ["edit.c"],
                         "removed": ["gone.c"]}
        assert codebase["edit.c"] == "int after;\n"
        assert "gone.c" not in codebase
        assert codebase["fresh.c"] == "int fresh;\n"
        # an apply over the refreshed code base sees exactly the new tree
        result = PatchSet([SemanticPatch.from_string(
            "@r@ @@\n- int after;\n+ int later;\n")]).apply(codebase)
        assert sorted(result.files) == ["edit.c", "fresh.c", "keep.c"]
        assert result["edit.c"].text == "int later;\n"
        assert patch.apply(codebase).total_matches == 0

    def test_refresh_from_dir_noop_reports_empty_delta(self, tmp_path):
        (tmp_path / "same.c").write_text("int same;\n")
        codebase = CodeBase.from_dir(tmp_path)
        assert codebase.refresh_from_dir(tmp_path) == \
            {"added": [], "changed": [], "removed": []}


_FORK_STATE: dict = {}


def _set_fork_token(value):
    _FORK_STATE["token"] = id(value)


def _double_batch(batch):
    return [item * 2 for item in batch]


def _tag_batch(batch):
    return [(item, _FORK_STATE["token"]) for item in batch]


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

    def test_result_order_preserved_across_batches(self):
        from repro.engine.pipeline import run_fork_pool

        items = list(range(10))
        assert run_fork_pool(items, 2, _set_fork_token, (None,),
                             _double_batch) == [item * 2 for item in items]

    def test_initargs_reach_workers_without_pickling(self):
        """The fork hands the initializer the caller's own objects: an
        unpicklable one arrives at its parent address."""
        import pickle

        from repro.engine.pipeline import run_fork_pool

        lock = threading.Lock()
        with pytest.raises(TypeError):
            pickle.dumps(lock)
        out = run_fork_pool(["a", "b", "c"], 2, _set_fork_token, (lock,),
                            _tag_batch)
        assert out == [("a", id(lock)), ("b", id(lock)), ("c", id(lock))]


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
# CLI: --incremental and --watch
# ---------------------------------------------------------------------------

def _memo_traffic(err: str) -> tuple[str, str, str]:
    """``(hits, disk_hits, misses)`` of a ``--profile`` run's memo lines."""
    profile = profile_of(err)
    return tuple(profile[f"memo.{key}"]
                 for key in ("hits", "disk_hits", "misses"))


class TestCliIncremental:
    """``--incremental DIR`` is the other spelling of ``--memo-dir DIR``: a
    repeated invocation is answered by the memo directory, and nothing but
    memo entries persists."""

    def _setup(self, tmp_path):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        (src / "miss.c").write_text("int zero;\n")
        return str(cocci), str(src), str(tmp_path / "state")

    def test_second_invocation_is_answered_by_the_memo(self, tmp_path,
                                                       capsys):
        cocci, src, state = self._setup(tmp_path)
        argv = ["--sp-file", cocci, "--incremental", state, "--profile", src]
        assert spatch_main(argv) == 0
        first = capsys.readouterr()
        # cold: hit.c's one session misses (miss.c is skipped by the
        # prefilter)
        assert _memo_traffic(first.err) == ("0", "0", "1")

        assert spatch_main(argv) == 0
        second = capsys.readouterr()
        assert _memo_traffic(second.err) == ("1", "1", "0")
        assert second.out == first.out  # identical diff

    def test_pre_change_state_file_is_never_opened(self, tmp_path, capsys):
        """A state file from before the memo became the one store holds the
        path: the run warns once, runs on the memory tier, and leaves the
        file as it was."""
        import pickle

        cocci, src, state = self._setup(tmp_path)
        assert spatch_main(["--sp-file", cocci, src]) == 0
        plain = capsys.readouterr()
        old_state = pickle.dumps({"version": 4, "result": None,
                                  "cache_entries": []})
        pathlib.Path(state).write_bytes(old_state)

        assert spatch_main(["--sp-file", cocci, "--incremental", state,
                            src]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-spatch: warning: cannot use memo "
                                   f"directory {state}")
        assert pathlib.Path(state).read_bytes() == old_state

    def test_unusable_state_dir_warns_and_keeps_the_run(self, tmp_path,
                                                        capsys):
        cocci, src, _ = self._setup(tmp_path)
        assert spatch_main(["--sp-file", cocci, src]) == 0
        plain = capsys.readouterr()
        blocker = tmp_path / "a_file"
        blocker.write_text("in the way\n")
        unusable = str(blocker / "state")
        assert spatch_main(["--sp-file", cocci, "--incremental", unusable,
                            src]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out and captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-spatch: warning: cannot use memo "
                                   f"directory {unusable}")

    def test_edited_file_reruns_alone(self, tmp_path, capsys):
        cocci, src, state = self._setup(tmp_path)
        (tmp_path / "src" / "twin.c").write_text(
            "void g(void) { old_api(); }\n")
        argv = ["--sp-file", cocci, "--incremental", state, "--profile", src]
        spatch_main(argv)
        capsys.readouterr()
        (tmp_path / "src" / "hit.c").write_text(
            "void f(void) { old_api(); other(); }\n")
        assert spatch_main(argv) == 0
        captured = capsys.readouterr()
        # twin.c is answered from disk; only the edited hit.c runs
        assert _memo_traffic(captured.err) == ("1", "1", "1")

    def test_other_patch_shares_the_directory_without_crosstalk(
            self, tmp_path, capsys):
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        capsys.readouterr()
        other = tmp_path / "other.cocci"
        other.write_text(RENAME_B)
        rc = spatch_main(["--sp-file", str(other), "--incremental", state,
                          "--profile", src])
        captured = capsys.readouterr()
        assert rc == 1  # RENAME_B matches nothing in the pristine tree
        assert _memo_traffic(captured.err)[:2] == ("0", "0")

    def test_appended_patch_between_invocations_hits_the_memo(self, tmp_path,
                                                             capsys):
        """A second invocation with one more --sp-file runs cold, and the
        memo directory answers the unchanged patch: only the appended one
        runs."""
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        capsys.readouterr()
        extra = tmp_path / "extra.cocci"
        extra.write_text(RENAME_B)
        rc = spatch_main(["--sp-file", cocci, "--sp-file", str(extra),
                          "--incremental", state, "--profile", src])
        captured = capsys.readouterr()
        assert rc == 0
        # hit.c's first-patch session from disk; the appended patch's one
        # session on hit.c misses (miss.c is skipped by the prefilter)
        assert _memo_traffic(captured.err) == ("1", "1", "1")
        # mid_api (written by the first patch) became new_api via the second
        assert "+void f(void) { new_api(); }" in captured.out

    def test_both_spellings_may_name_the_same_directory(self, tmp_path,
                                                        capsys):
        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--memo-dir", state, src])
        capsys.readouterr()
        assert spatch_main(["--sp-file", cocci, "--incremental", state,
                            "--memo-dir", state + "/", "--profile",
                            src]) == 0
        assert _memo_traffic(capsys.readouterr().err)[:2] == ("1", "1")

    def test_only_plain_data_persists(self, tmp_path):
        """The directory holds JSON memo entries, nothing else: no result,
        no parse tree and no pickle."""
        import json

        cocci, src, state = self._setup(tmp_path)
        spatch_main(["--sp-file", cocci, "--incremental", state, src])
        stored = [path for path in pathlib.Path(state).rglob("*")
                  if path.is_file()]
        assert stored and all(path.suffix == ".memo" for path in stored)
        for path in stored:
            assert json.loads(path.read_bytes())["version"] == 2


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

    def test_watch_spfile_edit_reruns_only_the_edited_patch(self, tmp_path,
                                                            capsys):
        """Editing an sp-file mid-watch re-applies the changed patch list
        cold: the session's in-memory memo answers the unchanged leading
        patch, only the edited patch's sessions run, and only
        output-changed files are emitted."""
        import json

        first = tmp_path / "first.cocci"
        first.write_text(RENAME_A)
        second = tmp_path / "second.cocci"
        second.write_text(RENAME_B)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        (src / "quiet.c").write_text("int zero;\n")
        journal = tmp_path / "journal.jsonl"

        def edit_later():
            time.sleep(0.6)
            second.write_text("@r@ @@\n- mid_api();\n+ changed_api();\n")

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(first), "--sp-file",
                              str(second), "--watch", "--journal",
                              str(journal), "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        captured = capsys.readouterr()
        assert rc == 0
        watch_lines = [line for line in captured.err.splitlines()
                       if line.startswith("# watch:")]
        assert watch_lines == ["# watch: 2 changed + 0 added re-run, "
                               "0 reused, 0 dropped (cold: patch set or "
                               "options changed since the prior result) "
                               "-> 2 match(es)"]
        rounds = [json.loads(line) for line in journal.read_text().splitlines()
                  if '"watch_round"' in line]
        # the first patch's one session (on hit.c) came from the memo
        assert [event["memo_hits"] for event in rounds] == [1]
        # the patch-edit round emitted only the file the new patch affects
        outputs = captured.out.split("--- a/")
        assert len(outputs) == 3  # initial: hit.c; patch round: hit.c again
        assert "changed_api" in outputs[-1]
        assert "quiet.c" not in outputs[-1]

    def test_watch_spfile_edit_parses_only_the_edited_text(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        """A patch-edit round rebuilds the patch list through the run's
        one builder: the edited sp-file's text is the only SMPL parsed,
        and the unchanged sp-file and cookbook patch are the same objects,
        compiled rules and prefilters included."""
        import repro.api
        import repro.cli.spatch as cli

        parse = repro.api.parse_semantic_patch
        parsed, rounds = [], []

        def counting_parse(text, *args, **kwargs):
            parsed.append(text)
            return parse(text, *args, **kwargs)

        apply = cli._apply

        def recording_apply(patches, *args, **kwargs):
            rounds.append((len(parsed), list(patches)))
            return apply(patches, *args, **kwargs)

        monkeypatch.setattr(repro.api, "parse_semantic_patch",
                            counting_parse)
        monkeypatch.setattr(cli, "_apply", recording_apply)
        first = tmp_path / "first.cocci"
        first.write_text(RENAME_A)
        second = tmp_path / "second.cocci"
        second.write_text(RENAME_B)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text("void f(void) { old_api(); }\n")
        edited = "@r@ @@\n- mid_api();\n+ changed_api();\n"

        def edit_later():
            time.sleep(0.6)
            second.write_text(edited)

        editor = threading.Thread(target=edit_later)
        editor.start()
        try:
            rc = spatch_main(["--sp-file", str(first), "--sp-file",
                              str(second), "--cookbook", "cuda_to_hip",
                              "--watch", "--watch-interval", "0.05",
                              "--watch-polls", "40", str(src)])
        finally:
            editor.join()
        assert rc == 0
        assert "changed_api" in capsys.readouterr().out
        (cold_parses, cold), (total_parses, again) = rounds
        assert cold_parses == 3
        assert parsed[cold_parses:] == [edited]
        assert total_parses == cold_parses + 1
        assert again[0] is cold[0] and again[2] is cold[2]
        assert again[1] is not cold[1]

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
