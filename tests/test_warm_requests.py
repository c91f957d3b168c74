"""A warm request derives nothing its unchanged inputs already determine.

The service's patch-spec LRU hands every request for the same spec the same
patch objects, and a warm query splices the last result's file views.  So
after the first query, further queries over an unchanged workspace build
no prefilter, compile no rule or script source, count no diff line,
build no :class:`~repro.engine.report.FileResult` and scan no rule list:
each patch's prefilter, fingerprint, compiled rules and rule facts are
derived once per patch object (:mod:`repro.engine.derived`) and freed
with it, each script source is compiled once, and results are immutable
values whose derived facts (diff, line counts, match total, summary row)
are computed once and travel with the object, its copies and its pickles
(the fleet's ship-home path), so a splice shares them.
"""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.engine import derived, engine, scripting
from repro.engine.compile import (CompiledRule, compiled_patch_for,
                                  matcher_counters)
from repro.engine.pipeline import PatchPipeline, patch_fingerprint
from repro.engine.prefilter import PatchPrefilter, patch_prefilter
from repro.engine.report import FileResult, RuleReport, dumps, result_payload
from repro.obs import Capture
from repro.server.protocol import options_from_payload
from repro.server.service import PatchService
from repro.workloads import (cuda_app, gadget, openacc_app, openmp_kernels,
                             rawloops)

import frontend_corpus
import test_golden_corpus as golden

COOKBOOK = [{"kind": "cookbook", "name": "full_modernization"}]


def mixed_tree() -> dict[str, str]:
    """A 14-file mixed HPC tree shaped like the benchmark's: CUDA, OpenMP,
    GADGET-style, raw-loop and OpenACC files."""
    parts = (
        ("cuda", cuda_app, {"n_files": 2, "drivers_per_file": 1}),
        ("omp", openmp_kernels, {"n_files": 3, "kernels_per_file": 1,
                                 "regions_per_file": 1}),
        ("gadget", gadget, {"n_files": 3, "loops_per_file": 1,
                            "grid_kernels_per_file": 1}),
        ("raw", rawloops, {"n_files": 2, "searches_per_file": 1,
                           "counters_per_file": 1}),
        ("acc", openacc_app, {"n_files": 2, "loops_per_file": 1}),
    )
    files = {}
    for seed, (prefix, module, params) in enumerate(parts, start=1):
        for name, text in module.generate(seed=seed, **params).items():
            files[f"{prefix}/{name}"] = text
    return files


class Seen(dict):
    """Hook counts by name; ``files`` names the file of every
    :class:`FileResult` constructed, in order."""

    def __init__(self, *names: str):
        super().__init__(dict.fromkeys(names, 0))
        self.files: list[str] = []


@pytest.fixture
def hooks(monkeypatch):
    """Counts prefilter builds, rule compiles, script-source compiles, line
    counts computed (not read from a stored count), ``FileResult``
    constructions and engine rule-list scans while the test runs."""
    seen = Seen("prefilters", "rules", "compiles", "counts", "results",
                "scans")

    build = PatchPrefilter.__init__

    def counting_build(self, patch):
        seen["prefilters"] += 1
        build(self, patch)

    lower = CompiledRule.__init__

    def counting_lower(self, rule, options):
        seen["rules"] += 1
        lower(self, rule, options)

    def counting_compile(*args, **kwargs):
        seen["compiles"] += 1
        return compile(*args, **kwargs)

    line_counts = FileResult.line_counts

    def counting_counts(self):
        if "_counts" not in vars(self):
            seen["counts"] += 1
        return line_counts(self)

    post_init = FileResult.__post_init__

    def counting_post_init(self):
        seen["results"] += 1
        seen.files.append(self.filename)
        post_init(self)

    scan = engine._scan_rules

    def counting_scan(patch):
        seen["scans"] += 1
        return scan(patch)

    monkeypatch.setattr(PatchPrefilter, "__init__", counting_build)
    monkeypatch.setattr(FileResult, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "_scan_rules", counting_scan)
    monkeypatch.setattr(CompiledRule, "__init__", counting_lower)
    # the module global shadows the builtin for every compile in scripting
    monkeypatch.setattr(scripting, "compile", counting_compile, raising=False)
    monkeypatch.setattr(FileResult, "line_counts", counting_counts)
    yield seen
    # code compiled through the wrapper must not outlive the test in the
    # process-wide code cache
    scripting._code.cache_clear()


@pytest.fixture
def service():
    service = PatchService()
    service.open_workspace("w")
    service.sync_files("w", files=mixed_tree())
    yield service
    service.close()


def test_warm_queries_derive_nothing(service, hooks):
    # with no script rule, "0 compiles" would hold trivially
    assert any(rule.is_script and rule.when == "initialize"
               for patch in service.build_patches(COOKBOOK, None)
               for rule in patch.ast.rules)
    service.apply("w", COOKBOOK)
    first = service.query("w", COOKBOOK, profile=True)
    assert first["profile"]["incremental"]["files_reused"] == 14
    del first["profile"]
    for key in hooks:
        hooks[key] = 0
    for _ in range(10):
        assert service.query("w", COOKBOOK) == first
    assert hooks == {"prefilters": 0, "rules": 0, "compiles": 0, "counts": 0,
                     "results": 0, "scans": 0}


def test_one_file_edit_builds_views_for_that_file_only(service, hooks):
    tree = mixed_tree()
    service.apply("w", COOKBOOK)
    edited = sorted(tree)[0]
    service.sync_files("w", files={**tree,
                                   edited: tree[edited] + "int edited;\n"})
    for key in hooks:
        hooks[key] = 0
    hooks.files.clear()
    payload = service.apply("w", COOKBOOK, profile=True)
    assert payload["profile"]["incremental"]["files_reused"] == 13
    assert hooks["results"] > 0 and set(hooks.files) == {edited}
    assert hooks["scans"] == 0


RENAME = "@r@\nexpression E;\n@@\n- cudaFree(E)\n+ {}(E)\n"


def _revision(new_name: str) -> dict:
    return {"kind": "smpl", "name": "rev", "text": RENAME.format(new_name)}


def test_new_revision_is_derived_afresh_and_matches_a_cold_run(service,
                                                               hooks):
    tree = mixed_tree()
    service.query("w", [_revision("hipFree")])
    hooks["prefilters"] = hooks["rules"] = 0
    payload = service.query("w", [_revision("hipFreeAsync")])
    # the new revision's prefilter and one rule, and only those
    assert hooks["prefilters"] == hooks["rules"] == 1

    old, new = (service.build_patches([_revision(name)],
                                      options_from_payload(None))[0]
                for name in ("hipFree", "hipFreeAsync"))
    assert patch_fingerprint(old.ast, old.options, "rev") \
        != patch_fingerprint(new.ast, new.options, "rev")
    assert patch_prefilter(old.ast) is not patch_prefilter(new.ast)

    cold_patch = SemanticPatch.from_string(RENAME.format("hipFreeAsync"),
                                           name="rev")
    cold = PatchPipeline([cold_patch.ast], [cold_patch.options],
                         names=["rev"]).run(tree)
    assert cold.summary()["changed_files"] > 0
    payload.pop("workspace")
    assert dumps(payload) == dumps(result_payload(
        cold, [cold_patch], include_diff=False))


def test_derived_facts_die_with_their_patch():
    patch = SemanticPatch.from_string(RENAME.format("hipFree")).ast
    patch_prefilter(patch)
    patch_fingerprint(patch, patch.options, "rev")
    files = {"a.cu": "void f(int *p) { cudaFree(p); }\n"}
    with Capture() as counts:
        for _ in range(2):
            assert PatchPipeline([patch]).run(files).total_matches == 1
    # two pipelines, two engines, one compile of the patch's one rule
    assert matcher_counters(counts)["rules_compiled"] == 1
    compiled = compiled_patch_for(patch, patch.options)
    forms = [weakref.ref(compiled),
             weakref.ref(compiled.rule_for(patch.patch_rules()[0]))]
    del compiled
    key, alive = id(patch), weakref.ref(patch)
    assert key in derived._FACTS
    del patch
    gc.collect()
    assert alive() is None
    assert [form() for form in forms] == [None, None]
    assert key not in derived._FACTS


def test_racing_threads_derive_equal_facts_and_leave_no_entry():
    """Threads racing on first use may each build a fact; every caller
    still gets the patch's one value, and the table forgets the patch."""
    texts = [RENAME.format(f"hipFree{index}") for index in range(6)]
    expected = [patch_fingerprint(twin.ast, twin.options, "rev")
                for twin in map(SemanticPatch.from_string, texts)]
    patches = [SemanticPatch.from_string(text).ast for text in texts]
    keys = [id(patch) for patch in patches]
    seen, errors = [], []

    def derive() -> None:
        try:
            for patch in patches:
                patch_prefilter(patch).plan_for_text("cudaFree(p);")
                seen.append((id(patch), patch_fingerprint(
                    patch, patch.options, "rev")))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(seen) == 8 * len(patches)
    assert {key: fingerprint for key, fingerprint in seen} \
        == dict(zip(keys, expected))
    assert len(seen) == len(set(seen)) * 8
    del patches
    gc.collect()
    assert not set(keys) & set(derived._FACTS)


def test_derived_facts_are_not_pickled_with_the_patch():
    patch = SemanticPatch.from_string(RENAME.format("hipFree")).ast
    prefilter = patch_prefilter(patch)
    clone = pickle.loads(pickle.dumps(patch))
    assert clone == patch
    assert id(clone) not in derived._FACTS
    assert patch_prefilter(clone) is not prefilter


# ---------------------------------------------------------------------------
# results are immutable, and their derived facts travel with them
# ---------------------------------------------------------------------------

def _changed_result() -> FileResult:
    patch = SemanticPatch.from_string(RENAME.format("hipFree"))
    result = patch.apply(CodeBase.from_files(
        {"a.cu": "void f(int *p) {\n    cudaFree(p);\n}\n"}))
    return result["a.cu"]


def test_copy_and_pickle_keep_the_counts(hooks):
    file_result = _changed_result()
    assert file_result.line_counts() == (1, 1)
    assert hooks["counts"] == 1
    for clone in (copy.copy(file_result), copy.deepcopy(file_result),
                  pickle.loads(pickle.dumps(file_result))):
        assert clone == file_result
        assert clone.line_counts() == (1, 1)
    assert hooks["counts"] == 1


def test_field_assignment_raises():
    file_result = _changed_result()
    report = file_result.rule_reports[0]
    for target, name, value in ((file_result, "text", ""),
                                (file_result, "rule_reports", ()),
                                (file_result, "total_matches", 0),
                                (report, "matches", 999),
                                (report, "rule", "other")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, value)
    assert file_result == _changed_result()
    assert (report.rule, report.matches) == ("r", 1)


def test_reports_and_diagnostics_are_tuples():
    file_result = FileResult(filename="a.c", original_text="a\n",
                             text="b\n", rule_reports=[RuleReport("r", 1)],
                             diagnostics=[])
    for sequence in (file_result.rule_reports, file_result.diagnostics):
        assert type(sequence) is tuple
        assert not hasattr(sequence, "append")
    assert file_result.rule_reports == (RuleReport("r", 1),)


def test_pickle_keeps_the_derived_facts():
    """The fleet ships a worker's result home by pickling it: the cached
    diff, line counts, match total and summary row ride along, and a file
    shared by several views stays one object."""
    patch = SemanticPatch.from_string(RENAME.format("hipFree"))
    result = patch.apply(CodeBase.from_files({
        "a.cu": "void f(int *p) {\n    cudaFree(p);\n}\n",
        "b.c": "int zero;\n"}))
    file_result = result["a.cu"]
    facts = (file_result.diff(), file_result.line_counts(),
             file_result.total_matches, file_result.summary_counts())
    assert facts[1:] == ((1, 1), 1, (1, 1, 1, 1))
    clone = pickle.loads(pickle.dumps(result))
    shipped = vars(clone["a.cu"])
    assert (shipped["_diff"], shipped["_counts"], shipped["total_matches"],
            shipped["_summary"]) == facts
    assert clone.summary() == result.summary()
    assert clone["b.c"] is clone.per_patch[0]["b.c"]


def test_increment_and_decrement_lines_are_counted():
    """A line starting with ``++``/``--`` is a line, not a file header."""
    patch = SemanticPatch.from_string(
        "@r@\nidentifier x;\n@@\n- --x;\n+ ++x;\n", name="inc")
    result = patch.apply(CodeBase.from_files(
        {"a.c": "void f(int i) {\n--i;\n}\n"}))
    file_result = result["a.c"]
    assert file_result.added_lines() == ["++i;"]
    assert file_result.removed_lines() == ["--i;"]
    assert file_result.line_counts() == (1, 1)
    summary = result.summary()
    assert (summary["lines_added"], summary["lines_removed"]) == (1, 1)


def _golden_results():
    """``(golden name, result)`` for every diff under ``tests/golden/``."""
    from repro.cookbook import full_modernization_pipeline

    for name in sorted(golden.COOKBOOK_WORKLOADS):
        workload = golden.COOKBOOK_WORKLOADS[name]()
        yield name, golden._cookbook_patch(name).apply(workload)
    patchset = full_modernization_pipeline(mdspan_arrays={"rho": 3, "phi": 3})
    yield golden.PIPELINE_GOLDEN, patchset.apply(golden._pipeline_workload())
    for name, fmt in sorted(golden.FRONTEND_GOLDENS.items()):
        yield name, PatchSet([frontend_corpus.frontend_patch(fmt)]).apply(
            frontend_corpus.codebase())


def test_counts_equal_the_list_helpers_over_the_golden_corpus():
    names = set()
    for name, result in _golden_results():
        names.add(name)
        text = (golden.GOLDEN_DIR / f"{name}.diff").read_text(
            encoding="utf-8", errors="surrogateescape")
        assert result.diff() == text
        views = [result] + list(getattr(result, "per_patch", []))
        for file_result in (file_result for view in views
                            for file_result in view):
            assert file_result.line_counts() == (
                len(file_result.added_lines()),
                len(file_result.removed_lines())), (name, file_result.filename)
    assert names == {path.stem for path in golden.GOLDEN_DIR.glob("*.diff")}
