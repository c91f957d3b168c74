"""TransformMemo: content-addressed transform memoization.

The soundness contract under test: a memo hit is byte-for-byte equivalent
to running the session cold — same output text, same per-rule reports,
same diagnostics, same coverage counters — across processes (the on-disk
tier), across workspaces (the service's shared memo) and across the
serial/parallel apply paths.  Corrupt or stale persisted entries degrade
to a miss, never to wrong output or an error.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.engine.cache import TreeCache, content_sha1
from repro.engine.memo import (DEFAULT_MEMO_ENTRIES, MemoEntry,
                               TransformMemo, memo_flags)
from repro.engine.report import FileResult, RuleReport
from repro.errors import Diagnostic
from repro.obs import Capture

RENAME_A = "@r@ @@\n- old_api();\n+ mid_api();\n"
RENAME_B = "@r@ @@\n- mid_api();\n+ new_api();\n"

HIT_TEXT = "void f(void) { old_api(); }\n"
MISS_TEXT = "int zero(void) { return 0; }\n"


def _patches(*texts):
    return [SemanticPatch.from_string(text, name=f"p{i}")
            for i, text in enumerate(texts)]


def _entry(filename="a.c", text=None, diagnostics=()):
    return MemoEntry(filename=filename, text=text,
                     output_sha=content_sha1(text) if text else None,
                     reports=(("r", 1, 1, 1),), diagnostics=diagnostics)


def _texts(result):
    return {name: file_result.text
            for name, file_result in result.files.items()}


def _reports(result):
    return {name: [(r.rule, r.matches, r.deletions, r.insertions)
                   for r in file_result.rule_reports]
            for name, file_result in result.files.items()}


def _hits_misses(memo, counts):
    """The ``(hits, misses)`` pair ``counts`` recorded for the memo."""
    counters = memo.counters(counts)
    return counters["hits"], counters["misses"]


def _service_hits_misses(service):
    """The service's running ``(hits, misses)`` memo totals."""
    counters = service.stats()["memo"]
    return counters["hits"], counters["misses"]


class TestMemoEntry:
    def test_round_trips_a_changed_file_result(self):
        original = FileResult(
            filename="a.c", original_text="int a;\n", text="int b;\n",
            rule_reports=[RuleReport(rule="r", matches=2, deletions=1,
                                     insertions=1)],
            diagnostics=["a.c: note"])
        entry = MemoEntry.from_file_result(original)
        assert entry.changed
        assert entry.output_sha == content_sha1("int b;\n")
        rebuilt = entry.to_file_result("a.c", "int a;\n")
        assert rebuilt.text == original.text
        assert rebuilt.original_text == original.original_text
        assert rebuilt.diagnostics == original.diagnostics
        assert [(r.rule, r.matches) for r in rebuilt.rule_reports] == \
            [("r", 2)]

    def test_unchanged_entry_stores_no_text(self):
        untouched = FileResult(filename="a.c", original_text="int a;\n",
                               text="int a;\n", rule_reports=[],
                               diagnostics=[])
        entry = MemoEntry.from_file_result(untouched)
        assert not entry.changed
        assert entry.text is None and entry.output_sha is None
        rebuilt = entry.to_file_result("other.c", "int a;\n")
        assert rebuilt.text == "int a;\n"
        assert not rebuilt.changed


class TestMemoFlags:
    def test_every_mode_combination_is_distinct(self):
        assert memo_flags(True) != memo_flags(False)

    def test_flags_keep_their_bytes(self):
        """The trailing ``c`` once told two matchers apart; it stays, so
        memo directories and state roots written with it keep hitting."""
        assert memo_flags(True) == "pc"
        assert memo_flags(False) == "-c"


class TestMemoryTier:
    def test_lookup_miss_then_store_then_hit(self):
        memo = TransformMemo()
        with Capture() as counts:
            assert memo.lookup("sha", "fp", "pc", "a.c") is None
            memo.store("sha", "fp", "pc", _entry())
            entry = memo.lookup("sha", "fp", "pc", "a.c")
        assert entry is not None and entry.reports == (("r", 1, 1, 1),)
        assert _hits_misses(memo, counts) == (1, 1)
        assert memo.counters(counts)["stores"] == 1

    def test_keys_distinguish_every_component(self):
        memo = TransformMemo()
        memo.store("sha", "fp", "pc", _entry())
        assert memo.lookup("other", "fp", "pc", "a.c") is None
        assert memo.lookup("sha", "other", "pc", "a.c") is None
        assert memo.lookup("sha", "fp", "-c", "a.c") is None

    def test_lru_eviction_drops_least_recently_used(self):
        memo = TransformMemo(max_entries=2)
        with Capture() as counts:
            memo.store("s1", "fp", "pc", _entry())
            memo.store("s2", "fp", "pc", _entry())
            memo.lookup("s1", "fp", "pc", "a.c")  # refresh s1: s2 is coldest
            memo.store("s3", "fp", "pc", _entry())
        assert memo.counters(counts)["evictions"] == 1
        assert memo.lookup("s2", "fp", "pc", "a.c") is None  # evicted
        assert memo.lookup("s1", "fp", "pc", "a.c") is not None
        assert memo.lookup("s3", "fp", "pc", "a.c") is not None
        assert len(memo) == 2

    def test_restore_of_known_key_does_not_recount_stores(self):
        memo = TransformMemo()
        with Capture() as counts:
            memo.store("sha", "fp", "pc", _entry())
            memo.store("sha", "fp", "pc", _entry())
        assert memo.counters(counts)["stores"] == 1

    def test_diagnostics_pin_the_filename(self):
        # diagnostics embed the filename they were produced under: an entry
        # carrying them must not answer an identically-hashed other file
        memo = TransformMemo()
        memo.store("sha", "fp", "pc",
                   _entry(filename="a.c", diagnostics=("a.c: warn",)))
        assert memo.lookup("sha", "fp", "pc", "b.c") is None
        assert memo.lookup("sha", "fp", "pc", "a.c") is not None
        # ...while diagnostic-free entries are filename-portable
        memo.store("sha2", "fp", "pc", _entry(filename="a.c"))
        assert memo.lookup("sha2", "fp", "pc", "b.c") is not None

    def test_clear_resets_memory_tier_and_counters(self):
        memo = TransformMemo()
        memo.store("sha", "fp", "pc", _entry())
        memo.lookup("sha", "fp", "pc", "a.c")
        memo.clear()
        assert len(memo) == 0
        # counts belong to captures: one opened after the clear starts
        # from zero, and the dropped entry now misses
        with Capture() as counts:
            assert memo.lookup("sha", "fp", "pc", "a.c") is None
        assert _hits_misses(memo, counts) == (0, 1)
        assert memo.counters(counts)["stores"] == 0


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        first = TransformMemo(path=tmp_path / "memo")
        with Capture() as counts:
            first.store("sha", "fp", "pc", _entry(text="int b;\n"))
        assert first.counters(counts)["disk_stores"] == 1

        fresh = TransformMemo(path=tmp_path / "memo")  # a "new process"
        with Capture() as counts:
            entry = fresh.lookup("sha", "fp", "pc", "a.c")
        assert entry is not None and entry.text == "int b;\n"
        assert fresh.counters(counts)["disk_hits"] == 1
        assert _hits_misses(fresh, counts) == (1, 0)
        # promoted into the memory tier: the next lookup skips the disk
        with counts:
            fresh.lookup("sha", "fp", "pc", "a.c")
        assert fresh.counters(counts)["disk_hits"] == 1
        assert fresh.counters(counts)["hits"] == 2

    def test_entries_are_sharded_content_addressed_files(self, tmp_path):
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store("sha", "fp", "pc", _entry())
        files = list((tmp_path / "memo").rglob("*.memo"))
        assert len(files) == 1
        assert files[0].parent.name == files[0].name[:2]  # 2-hex shard dir

    def test_corrupt_entry_degrades_to_a_miss_and_is_unlinked(self, tmp_path):
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store("sha", "fp", "pc", _entry())
        entry_file = next((tmp_path / "memo").rglob("*.memo"))
        entry_file.write_bytes(b"not json at all")

        fresh = TransformMemo(path=tmp_path / "memo")
        with Capture() as counts:
            assert fresh.lookup("sha", "fp", "pc", "a.c") is None
        counters = fresh.counters(counts)
        assert counters["disk_errors"] == 1 and counters["disk_misses"] == 1
        assert not entry_file.exists()  # dropped so the next store heals it
        # ...and a store after the miss does heal it
        fresh.store("sha", "fp", "pc", _entry())
        again = TransformMemo(path=tmp_path / "memo")
        assert again.lookup("sha", "fp", "pc", "a.c") is not None

    def test_stale_version_and_key_mismatch_rejected(self, tmp_path):
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store("sha", "fp", "pc", _entry())
        entry_file = next((tmp_path / "memo").rglob("*.memo"))

        payload = json.loads(entry_file.read_bytes())
        payload["version"] = 999
        entry_file.write_text(json.dumps(payload))
        fresh = TransformMemo(path=tmp_path / "memo")
        assert fresh.lookup("sha", "fp", "pc", "a.c") is None

        fresh.store("sha", "fp", "pc", _entry())  # re-publish, corrupt the key
        entry_file = next((tmp_path / "memo").rglob("*.memo"))
        payload = json.loads(entry_file.read_bytes())
        payload["key"] = ["other", "fp", "pc"]
        entry_file.write_text(json.dumps(payload))
        again = TransformMemo(path=tmp_path / "memo")
        with Capture() as counts:
            assert again.lookup("sha", "fp", "pc", "a.c") is None
        assert again.counters(counts)["disk_errors"] == 1

    @pytest.mark.parametrize("field, value", [
        ("filename", 7),
        ("text", "int tampered;\n"),  # no longer matches output_sha
        ("output_sha", None),
        ("reports", [["r", 1, 1]]),
        ("reports", [["r", True, 1, 1]]),
        ("diagnostics", ["a.c: warn"]),
        ("diagnostics", [{"severity": "error", "message": "m",
                          "filename": "a.c", "line": "7"}]),
    ])
    def test_malformed_entry_field_is_a_miss_and_unlinked(self, tmp_path,
                                                          field, value):
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store("sha", "fp", "pc", _entry(text="int b;\n"))
        entry_file = next((tmp_path / "memo").rglob("*.memo"))
        payload = json.loads(entry_file.read_bytes())
        payload["entry"][field] = value
        entry_file.write_text(json.dumps(payload))

        fresh = TransformMemo(path=tmp_path / "memo")
        with Capture() as counts:
            assert fresh.lookup("sha", "fp", "pc", "a.c") is None
        assert fresh.counters(counts)["disk_errors"] == 1
        assert not entry_file.exists()

    def test_entries_are_json_and_diagnostics_round_trip(self, tmp_path):
        diagnostic = Diagnostic(severity="warning", message="odd \udcff",
                                filename="a.c", line=3)
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store("sha", "fp", "pc",
                   _entry(text="int \udcfe;\n", diagnostics=(diagnostic,)))
        entry_file = next((tmp_path / "memo").rglob("*.memo"))
        payload = json.loads(entry_file.read_bytes())
        assert payload["version"] == 2
        assert payload["key"] == ["sha", "fp", "pc"]

        entry = TransformMemo(path=tmp_path / "memo").lookup(
            "sha", "fp", "pc", "a.c")
        assert entry.text == "int \udcfe;\n"
        assert entry.diagnostics == (diagnostic,)

    def test_write_failure_degrades_to_memory_only(self, tmp_path,
                                                   monkeypatch):
        # a full or read-only disk must never break the apply (chmod is not
        # a usable simulation under root, so fail the publish itself)
        import tempfile

        from repro.engine import memo as memo_module

        memo = TransformMemo(path=tmp_path / "memo")

        def failing_mkstemp(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(memo_module.tempfile, "mkstemp", failing_mkstemp)
        with Capture() as counts:
            memo.store("sha", "fp", "pc", _entry())
        counters = memo.counters(counts)
        assert counters["disk_errors"] == 1 and counters["disk_stores"] == 0
        # the memory tier still answers
        assert memo.lookup("sha", "fp", "pc", "a.c") is not None


class TestPipelineIntegration:
    def test_warm_run_is_byte_identical_without_parsing(self):
        files = {"hit.c": HIT_TEXT, "miss.c": MISS_TEXT}
        patches = _patches(RENAME_A, RENAME_B)
        cold = PatchSet(patches).apply(CodeBase.from_files(files))

        memo = TransformMemo()
        first = PatchSet(patches).apply(CodeBase.from_files(files),
                                        memo=memo)
        warm = PatchSet(patches).apply(CodeBase.from_files(files),
                                       memo=memo)
        assert _texts(warm) == _texts(first) == _texts(cold)
        assert _reports(warm) == _reports(cold)
        assert warm.stats.memo_hits == 2  # both patches on hit.c
        assert warm.stats.memo_misses == 0
        # coverage counters match the cold run exactly: a memo hit is a
        # logical session, and skip decisions are re-planned, not memoized
        assert warm.stats.sessions_run == cold.stats.sessions_run
        assert warm.stats.files_skipped == cold.stats.files_skipped

    def test_duplicate_files_hit_within_one_cold_run(self):
        files = {"a.c": HIT_TEXT, "b.c": HIT_TEXT, "c.c": HIT_TEXT}
        memo = TransformMemo()
        result = PatchSet(_patches(RENAME_A)).apply(
            CodeBase.from_files(files), memo=memo)
        assert result.stats.memo_misses == 1  # one real session...
        assert result.stats.memo_hits == 2    # ...answers the duplicates
        assert len(set(_texts(result).values())) == 1

    def test_disk_tier_warms_a_fresh_process(self, tmp_path):
        files = {"hit.c": HIT_TEXT}
        patches = _patches(RENAME_A, RENAME_B)
        cold = PatchSet(patches).apply(CodeBase.from_files(files))
        PatchSet(patches).apply(CodeBase.from_files(files),
                                memo=TransformMemo(path=tmp_path / "m"))

        fresh = TransformMemo(path=tmp_path / "m")  # simulates a new process
        with Capture() as counts:
            warm = PatchSet(patches).apply(CodeBase.from_files(files),
                                           memo=fresh)
        assert _texts(warm) == _texts(cold)
        assert warm.stats.memo_hits == 2 and warm.stats.memo_misses == 0
        assert fresh.counters(counts)["disk_hits"] == 2

    def test_parallel_apply_uses_and_fills_the_memo(self, tmp_path):
        files = {f"f{i}.c": HIT_TEXT.replace("f(", f"f{i}(")
                 for i in range(6)}
        patches = _patches(RENAME_A, RENAME_B)
        cold = PatchSet(patches).apply(CodeBase.from_files(files))

        memo = TransformMemo(path=tmp_path / "m")
        first = PatchSet(patches).apply(CodeBase.from_files(files),
                                        jobs=3, memo=memo)
        assert _texts(first) == _texts(cold)
        # worker outcomes were folded back into the parent memo...
        warm = PatchSet(patches).apply(CodeBase.from_files(files),
                                       jobs=3, memo=memo)
        assert _texts(warm) == _texts(cold)
        assert warm.stats.memo_hits == len(files) * len(patches)
        assert warm.stats.memo_misses == 0
        # ...and the disk tier carries them to a fresh process
        fresh = TransformMemo(path=tmp_path / "m")
        rewarm = PatchSet(patches).apply(CodeBase.from_files(files),
                                         jobs=3, memo=fresh)
        assert _texts(rewarm) == _texts(cold)
        assert rewarm.stats.memo_misses == 0

    def test_parallel_apply_writes_each_disk_entry_once(self, tmp_path,
                                                        monkeypatch):
        """The forked worker that computes a session writes its disk entry;
        the parent only takes it into its memory tier.  Every write, in any
        process, appends its key to one log file."""
        files = {f"f{i}.c": HIT_TEXT.replace("f(", f"f{i}(")
                 for i in range(6)}
        patches = _patches(RENAME_A, RENAME_B)
        log = tmp_path / "stores.log"
        disk_store = TransformMemo._disk_store

        def logged(memo, key, entry):
            with open(log, "a", encoding="ascii") as handle:
                handle.write("\0".join(key) + "\n")
            disk_store(memo, key, entry)

        monkeypatch.setattr(TransformMemo, "_disk_store", logged)
        memo = TransformMemo(path=tmp_path / "m")
        with Capture() as counts:
            result = PatchSet(patches).apply(CodeBase.from_files(files),
                                             jobs=2, memo=memo)
        assert result.stats.jobs_used == 2
        stores = log.read_text(encoding="ascii").splitlines()
        assert len(stores) == len(set(stores)) == len(files) * len(patches)
        counters = memo.counters(counts)
        assert counters["stores"] == counters["disk_stores"] == len(stores)
        # the parent's memory tier holds every entry all the same
        assert len(memo) == len(stores)

    def test_pure_script_patches_are_memoized(self):
        scripted = ("@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                    "@script:python s@\nf << a.f;\n@@\nprint(f)\n")
        patches = [SemanticPatch.from_string(scripted, name="scripted")]
        memo = TransformMemo()
        files = {"a.c": "void t(void) { marked(x); }\n"}
        with Capture() as counts:
            results = [PatchSet(patches).apply(CodeBase.from_files(files),
                                               memo=memo)
                       for _ in range(2)]
        # the script only reads its namespace: one store, then one hit
        assert _hits_misses(memo, counts) == (1, 1)
        assert len(memo) == 1
        assert results[0].impure_patches == results[1].impure_patches == []

    def test_impure_script_sessions_are_never_stored(self):
        counting = ("@initialize:python@ @@\nSEEN = [0]\n\n"
                    "@a@\nidentifier f;\n@@\nmarked(f);\n\n"
                    "@script:python s@\nf << a.f;\n@@\nSEEN[0] += 1\n")
        patches = [SemanticPatch.from_string(counting, name="counting")]
        memo = TransformMemo()
        files = {"a.c": "void t(void) { marked(x); }\n"}
        with Capture() as counts:
            results = [PatchSet(patches).apply(CodeBase.from_files(files),
                                               memo=memo)
                       for _ in range(2)]
        # looked up both times (the namespace digest is part of the key),
        # never stored, so never answered
        assert _hits_misses(memo, counts) == (0, 2)
        assert len(memo) == 0
        assert [r.impure_patches for r in results] == [["counting"]] * 2

    def test_prefilter_toggle_does_not_cross_contaminate(self):
        files = {"hit.c": HIT_TEXT}
        patches = _patches(RENAME_A)
        memo = TransformMemo()
        on = PatchSet(patches).apply(CodeBase.from_files(files),
                                     prefilter=True, memo=memo)
        off = PatchSet(patches).apply(CodeBase.from_files(files),
                                      prefilter=False, memo=memo)
        assert off.stats.memo_hits == 0  # different flags: a fresh session
        assert _texts(on) == _texts(off)

    def test_incremental_pipeline_falls_through_to_memo(self):
        from repro.engine.incremental import IncrementalPipeline

        files = {"hit.c": HIT_TEXT, "miss.c": MISS_TEXT}
        asts = [p.ast for p in _patches(RENAME_A, RENAME_B)]
        memo = TransformMemo()
        cache = TreeCache()
        cold = IncrementalPipeline(asts, tree_cache=cache,
                                   memo=memo).run(files)
        # an edited file cannot splice from the prior result, but its
        # *unchanged boundary content* can still hit the memo if seen before
        edited = dict(files, **{"miss.c": MISS_TEXT + "int more;\n"})
        warm = IncrementalPipeline(asts, tree_cache=cache, memo=memo).run(
            edited, since=cold)
        assert warm.files["hit.c"].text == cold.files["hit.c"].text
        assert warm.incremental.files_reused == 1  # splice path won
        assert warm.stats.memo_misses == 0  # edited miss.c is still gated


#: a script rule that reads a position and builds code from its filename:
#: byte-identical ``a.c`` and ``b.c`` get different outputs
FROM_FILE_SMPL = (
    "@r@\nidentifier f;\nposition p;\n@@\nf@p();\n\n"
    "@script:python s@\np << r.p;\nn;\n@@\n"
    "coccinelle.n = cocci.make_ident('from_' + p.rsplit(':', 2)[0][:-2])\n\n"
    "@b@\nidentifier r.f;\nidentifier s.n;\nposition r.p;\n@@\n"
    "- f@p();\n+ n();\n")


class TestFilenameDependentScripts:
    """A ``script:python`` rule importing a position sees the filename (a
    position renders as ``file:line:col``), so byte-identical files must
    not share its sessions: cold, in-memory memo and on-disk memo runs
    are byte-identical, and each file is still memoized on its own."""

    @pytest.mark.parametrize("smpl", ["position", "from_file"])
    def test_memo_runs_match_the_cold_run(self, tmp_path, capsys, smpl):
        from test_cache import POSITION_SMPL, TWIN_TEXT, printed_files

        text = {"position": POSITION_SMPL, "from_file": FROM_FILE_SMPL}[smpl]
        patches = [SemanticPatch.from_string(text, name=smpl)]
        files = {"a.c": TWIN_TEXT, "b.c": TWIN_TEXT}

        def run(memo):
            result = PatchSet(patches).apply(CodeBase.from_files(files),
                                             memo=memo)
            return (_texts(result), _reports(result), result.stats.memo_hits,
                    printed_files(capsys.readouterr().out))

        cold = run(None)
        memory = TransformMemo()
        disk = tmp_path / "memo"
        firsts = [run(memory), run(TransformMemo(path=disk))]
        warms = [run(memory), run(TransformMemo(path=disk))]
        for first in firsts:
            # every file ran its own session, as cold
            assert first == cold and cold[2] == 0
        for texts, reports, hits, _printed in warms:
            # and a warm memo answers each file from its own entry
            assert (texts, reports, hits) == (cold[0], cold[1], len(files))
        if smpl == "position":
            assert cold[3] == ["a.c", "b.c"]
        else:
            assert cold[0] == {"a.c": "void t(void) { from_a(); }\n",
                               "b.c": "void t(void) { from_b(); }\n"}


def _mixed_workload() -> dict[str, str]:
    """The Q3 benchmarks' ``mixed_workload`` tree at scale 1 (44 files): CUDA
    drivers, OpenMP kernels, GADGET grids, raw loops and OpenACC sources."""
    from repro.workloads import (cuda_app, gadget, openacc_app,
                                 openmp_kernels, rawloops)

    parts = [
        ("cuda", cuda_app.generate(n_files=6, seed=1)),
        ("omp", openmp_kernels.generate(n_files=12, kernels_per_file=4,
                                        regions_per_file=3, seed=2)),
        ("gadget", gadget.generate(n_files=10, loops_per_file=4,
                                   grid_kernels_per_file=2, seed=3)),
        ("raw", rawloops.generate(n_files=8, seed=4)),
        ("acc", openacc_app.generate(n_files=6, seed=5)),
    ]
    return {f"{prefix}/{name}": text for prefix, codebase in parts
            for name, text in codebase.items()}


#: a fresh interpreter (own addresses, own string hashing) re-running the
#: cookbook over the same tree with a fresh memo on the same directory
_CHILD_RUN = """
import json, sys
from repro.cookbook import full_modernization_pipeline
from repro.engine.cache import TreeCache
from repro.engine.memo import TransformMemo
from repro.engine.pipeline import PatchPipeline
from repro.obs import Capture

files = json.load(open(sys.argv[1]))
patches = list(full_modernization_pipeline())
memo = TransformMemo(path=sys.argv[2])
with Capture() as counts:
    result = PatchPipeline([p.ast for p in patches],
                           [p.options for p in patches],
                           names=[p.name for p in patches],
                           tree_cache=TreeCache(), memo=memo).run(files)
print(json.dumps({"sessions": result.stats.sessions_run,
                  "hits": result.stats.memo_hits,
                  "misses": result.stats.memo_misses,
                  "disk_hits": memo.counters(counts)["disk_hits"]}))
"""


class TestMemoDeterminism:
    """Memo keys of script-bearing patches carry a digest of the script
    namespace; that digest must not depend on the engine or the process,
    or every fresh pipeline would miss (and never share) those entries."""

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        from repro.cookbook import full_modernization_pipeline
        from repro.engine.pipeline import PatchPipeline

        files = _mixed_workload()
        patches = list(full_modernization_pipeline())
        assert len(patches) == 12
        directory = tmp_path_factory.mktemp("memo")
        memo = TransformMemo(path=directory)
        runs = [PatchPipeline([p.ast for p in patches],
                              [p.options for p in patches],
                              names=[p.name for p in patches],
                              tree_cache=TreeCache(), memo=memo).run(files)
                for _ in range(2)]
        return files, patches, directory, runs

    def test_second_fresh_pipeline_hits_every_session(self, warm):
        files, patches, _directory, (first, second) = warm
        assert second.stats.memo_misses == 0
        assert second.stats.memo_hits == second.stats.sessions_run \
            == first.stats.sessions_run
        assert _texts(second) == _texts(first)
        scripted = [index for index, patch in enumerate(patches)
                    if "@script:python" in patch.ast.source_text]
        assert len(scripted) == 3
        # the script patches really ran sessions (and so hit) on this tree
        for index in scripted:
            stats = second.per_patch[index].stats
            assert stats.files_total - stats.files_skipped > 0, \
                patches[index].name
        assert first.impure_patches == second.impure_patches == []

    def test_fresh_process_gets_disk_hits(self, warm, tmp_path):
        files, _patches, directory, (first, _second) = warm
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(files))
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(
                       [str(pathlib.Path(__file__).parents[1] / "src")]
                       + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_RUN, str(tree), str(directory)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        counts = json.loads(child.stdout.strip().splitlines()[-1])
        assert counts["sessions"] == first.stats.sessions_run
        assert counts["misses"] == 0
        assert counts["hits"] == counts["sessions"]
        assert counts["disk_hits"] > 0


class TestServiceSharing:
    def test_one_memo_spans_workspaces(self):
        from repro.server.service import PatchService

        service = PatchService()
        files = {"dup.c": HIT_TEXT}
        spec = {"kind": "smpl", "name": "rename", "text": RENAME_A}
        for name in ("w1", "w2"):
            service.open_workspace(name)
            service.sync_files(name, files=dict(files))

        service.apply("w1", [spec])
        assert _service_hits_misses(service) == (0, 1)
        # the second workspace holds identical content: pure memo hit
        payload = service.apply("w2", [spec], profile=True)
        assert _service_hits_misses(service) == (1, 1)
        assert payload["files"]["dup.c"]["changed"]
        assert payload["profile"]["memo"]["hits"] == 1

    def test_stats_verb_reports_memo_counters(self):
        from repro.server.service import PatchService

        service = PatchService(memo_entries=7)
        payload = service.stats()
        assert payload["memo"]["max_entries"] == 7
        assert payload["memo"]["hits"] == 0
        assert payload["memo"]["path"] is None

    def test_service_memo_disk_tier(self, tmp_path):
        from repro.server.service import PatchService

        first = PatchService(memo_dir=str(tmp_path / "memo"))
        name = "w"
        first.open_workspace(name)
        first.sync_files(name, files={"a.c": HIT_TEXT})
        first.apply(name, [{"kind": "smpl", "name": "r", "text": RENAME_A}])
        assert first.stats()["memo"]["disk_stores"] >= 1

        restarted = PatchService(memo_dir=str(tmp_path / "memo"))
        restarted.open_workspace(name)
        restarted.sync_files(name, files={"a.c": HIT_TEXT})
        restarted.apply(name, [{"kind": "smpl", "name": "r",
                                "text": RENAME_A}])
        counters = restarted.stats()["memo"]
        assert counters["disk_hits"] >= 1 and counters["misses"] == 0


class TestDefaults:
    def test_default_bound_is_advertised(self):
        memo = TransformMemo()
        assert memo.max_entries == DEFAULT_MEMO_ENTRIES
        assert memo.path is None


class TestBlobTier:
    """The raw-text tier behind memo-aware delta sync: texts are
    remembered by content hash (memory LRU plus the on-disk tier) and
    recalled byte-identically; corruption degrades to a miss."""

    def test_store_and_recall_in_memory(self):
        memo = TransformMemo()
        with Capture() as counts:
            sha = memo.store_text(HIT_TEXT)
            assert sha == content_sha1(HIT_TEXT)
            assert memo.recall_text(sha) == HIT_TEXT
            assert memo.recall_text(content_sha1("absent")) is None
        counters = memo.counters(counts)
        assert counters["blob_stores"] == 1
        assert counters["blob_hits"] == 1 and counters["blob_misses"] == 1

    def test_disk_tier_survives_a_new_process_worth_of_state(self, tmp_path):
        first = TransformMemo(path=tmp_path)
        sha = first.store_text(HIT_TEXT)
        # a fresh memo over the same directory: memory is cold, disk answers
        second = TransformMemo(path=tmp_path)
        with Capture() as counts:
            assert second.recall_text(sha) == HIT_TEXT
        assert second.counters(counts)["blob_hits"] == 1

    def test_surrogateescape_texts_round_trip(self, tmp_path):
        tricky = "int x; /* \udce9 bad byte */\n"
        memo = TransformMemo(path=tmp_path)
        sha = memo.store_text(tricky)
        assert TransformMemo(path=tmp_path).recall_text(sha) == tricky

    def test_corrupt_blob_degrades_to_a_miss_and_unlinks(self, tmp_path):
        memo = TransformMemo(path=tmp_path)
        sha = memo.store_text(HIT_TEXT)
        blob = memo._blob_path(sha)
        with open(blob, "w") as handle:
            handle.write("tampered")
        cold = TransformMemo(path=tmp_path)
        with Capture() as counts:
            assert cold.recall_text(sha) is None
        assert not pathlib.Path(blob).exists()
        assert cold.counters(counts)["blob_misses"] == 1
        assert cold.counters(counts)["disk_errors"] == 1

    def test_a_digest_that_is_not_a_sha1_never_touches_the_disk(
            self, tmp_path):
        """A manifest or client hash is outside input: ``../victim`` would
        name ``<dir>/../victim.blob``, and a failed re-hash would unlink
        it."""
        victim = tmp_path / "victim.blob"
        victim.write_text("someone else's file\n")
        memo = TransformMemo(path=tmp_path / "memo")
        memo.store_text(HIT_TEXT)  # <dir>/blobs exists, so ".." resolves
        with Capture() as counts:
            assert memo.recall_text("../victim") is None
        assert victim.exists()
        assert memo.counters(counts)["disk_errors"] == 0

    def test_memory_lru_is_bounded(self, tmp_path):
        memo = TransformMemo(max_blob_entries=2)
        shas = [memo.store_text(f"int x{i};\n") for i in range(4)]
        assert memo.counters(Capture())["blob_entries"] == 2
        assert memo.recall_text(shas[0]) is None  # evicted, no disk tier

        # a recall answered from disk promotes the text into a full memory
        # tier, which evicts its oldest blob to stay at the bound
        old_sha = TransformMemo(path=tmp_path).store_text("int on_disk;\n")
        memo = TransformMemo(path=tmp_path, max_blob_entries=2)
        shas = [memo.store_text(f"int y{i};\n") for i in range(2)]
        with Capture() as counts:
            assert memo.recall_text(old_sha) == "int on_disk;\n"
        assert memo.counters(counts)["blob_hits"] == 1
        assert memo.counters(Capture())["blob_entries"] == 2
        assert list(memo._blobs) == [shas[1], old_sha]


class TestPrune:
    """`prune` bounds the on-disk tier (entry files and blobs) by age
    and/or total size, oldest-mtime first, and reports what it did."""

    def _populate(self, tmp_path, count=4):
        memo = TransformMemo(path=tmp_path)
        for index in range(count):
            memo.store_text(f"void f{index}(void) {{}}\n")
        return memo

    def test_age_bound_removes_everything_expired(self, tmp_path):
        memo = self._populate(tmp_path)
        summary = memo.prune(max_age=0)
        assert summary["scanned"] == 4 and summary["removed"] == 4
        assert summary["removed_bytes"] == summary["scanned_bytes"] > 0
        assert memo.prune(max_age=0)["scanned"] == 0  # directory is empty

    def test_fresh_entries_survive_a_generous_age(self, tmp_path):
        memo = self._populate(tmp_path)
        summary = memo.prune(max_age=3600)
        assert summary["removed"] == 0 and summary["scanned"] == 4

    def test_size_bound_keeps_newest(self, tmp_path):
        memo = TransformMemo(path=tmp_path)
        old_sha = memo.store_text("void old_one(void) {}\n")
        # age the first blob so mtime ordering is deterministic
        os.utime(memo._blob_path(old_sha), (1, 1))
        new_sha = memo.store_text("void new_one(void) {}\n")
        keep = os.path.getsize(memo._blob_path(new_sha))
        summary = memo.prune(max_bytes=keep)
        assert summary["removed"] == 1
        cold = TransformMemo(path=tmp_path)
        assert cold.recall_text(old_sha) is None
        assert cold.recall_text(new_sha) is not None

    def test_prune_covers_entry_files_too(self, tmp_path):
        memo = TransformMemo(path=tmp_path)
        patches = _patches(RENAME_A)
        with Capture() as counts:
            PatchSet(patches).apply(CodeBase.from_files({"a.c": HIT_TEXT}),
                                    memo=memo)
        assert memo.counters(counts)["disk_stores"] >= 1
        summary = memo.prune(max_age=0)
        assert summary["removed"] >= 1
        # a cold memo over the pruned directory re-computes from scratch
        cold = TransformMemo(path=tmp_path)
        with Capture() as counts:
            PatchSet(_patches(RENAME_A)).apply(
                CodeBase.from_files({"a.c": HIT_TEXT}), memo=cold)
        assert cold.counters(counts)["disk_hits"] == 0

    def test_prune_without_a_path_is_a_no_op(self):
        summary = TransformMemo().prune(max_age=0)
        assert summary == {"scanned": 0, "scanned_bytes": 0,
                           "removed": 0, "removed_bytes": 0}

    def test_prune_tolerates_files_vanishing_mid_walk(self, tmp_path):
        memo = self._populate(tmp_path)
        victim = memo._blob_path(memo.store_text("void gone(void) {}\n"))
        os.unlink(victim)
        assert memo.prune(max_age=0)["scanned"] == 4


class _Touch:
    """Pickles to a call that creates ``marker`` when the pickle is loaded:
    the shape of a tampered state file that runs code."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def hostile_pickle(marker) -> bytes:
    return pickle.dumps({"version": 2, "entry": _Touch(marker)})


class TestHostileState:
    """No persisted file is ever unpickled: a pickle that would run code
    on load is a cold run (or a miss) and never creates its marker."""

    def _tree(self, tmp_path):
        cocci = tmp_path / "r.cocci"
        cocci.write_text(RENAME_A)
        src = tmp_path / "src"
        src.mkdir()
        (src / "hit.c").write_text(HIT_TEXT)
        (src / "miss.c").write_text(MISS_TEXT)
        return str(cocci), str(src)

    def _cold(self, cocci, src, capsys):
        from repro.cli.spatch import main as spatch_main

        assert spatch_main(["--sp-file", cocci, src]) == 0
        return capsys.readouterr().out

    def test_pickle_as_the_incremental_path(self, tmp_path, capsys):
        from repro.cli.spatch import main as spatch_main

        cocci, src = self._tree(tmp_path)
        cold = self._cold(cocci, src, capsys)
        marker = tmp_path / "marker"
        state = tmp_path / "state"
        state.write_bytes(hostile_pickle(marker))

        assert spatch_main(["--sp-file", cocci, "--incremental", str(state),
                            src]) == 0
        captured = capsys.readouterr()
        assert not marker.exists()
        assert captured.out == cold
        assert len(captured.err.splitlines()) <= 1

    def test_pickle_as_a_memo_entry(self, tmp_path, capsys):
        from repro.cli.spatch import main as spatch_main

        cocci, src = self._tree(tmp_path)
        memo_dir = tmp_path / "memo"
        argv = ["--sp-file", cocci, "--memo-dir", str(memo_dir), src]
        assert spatch_main(argv) == 0
        cold = capsys.readouterr().out
        marker = tmp_path / "marker"
        entries = list(memo_dir.rglob("*.memo"))
        assert entries
        for entry_file in entries:
            entry_file.write_bytes(hostile_pickle(marker))

        assert spatch_main(argv) == 0
        captured = capsys.readouterr()
        assert not marker.exists()
        assert captured.out == cold
        assert len(captured.err.splitlines()) <= 1
        # the misses re-stored every entry as JSON
        for entry_file in entries:
            assert json.loads(entry_file.read_bytes())["version"] == 2

    def test_pickle_as_an_old_workspace_state_file(self, tmp_path):
        import hashlib

        from repro.server.service import PatchService

        spec = [{"kind": "smpl", "name": "r", "text": RENAME_A}]
        files = {"hit.c": HIT_TEXT, "miss.c": MISS_TEXT}
        cold = PatchService()
        try:
            cold.open_workspace("w")
            cold.sync_files("w", files=dict(files))
            reference = cold.apply("w", spec)
        finally:
            cold.close()

        state_root = tmp_path / "state"
        state_root.mkdir()
        marker = tmp_path / "marker"
        digest = hashlib.sha1(b"w").hexdigest()[:12]
        (state_root / f"w-{digest}.state").write_bytes(
            hostile_pickle(marker))
        service = PatchService(state_root=str(state_root))
        try:
            assert not service.open_workspace("w")["restored"]
            service.sync_files("w", files=dict(files))
            payload = service.apply("w", spec)
        finally:
            service.close()
        assert not marker.exists()
        assert payload == reference
