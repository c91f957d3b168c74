"""Unit tests for the in-process :class:`~repro.server.service.PatchService`.

The service is the daemon minus sockets: everything here runs without a
listener, which keeps the semantics — workspace lifecycle, delta sync,
warm incremental reuse, eviction, error isolation — testable at function
granularity.  The wire layer is covered by ``test_server_daemon.py``.
"""

import json
import threading

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cookbook import instrumentation
from repro.engine.cache import content_sha1
from repro.engine.report import result_payload
from repro.obs import Capture
from repro.server.service import PatchService, ServiceError

RENAME_SMPL = "@r@ @@\n- old();\n+ new_call();\n"
OTHER_SMPL = "@s@ @@\n- gone();\n+ kept();\n"

FILES = {
    "a.c": "void f(void) { old(); }\n",
    "b.c": "void g(void) { int x; gone(); }\n",
    "c.c": "int untouched;\n",
}


def make_service(**kwargs):
    return PatchService(**kwargs)


def opened(service, name="w", files=FILES):
    service.open_workspace(name)
    service.sync_files(name, files=dict(files))
    return name


def smpl_spec(text, name="inline"):
    return {"kind": "smpl", "name": name, "text": text}


class TestWorkspaceLifecycle:
    def test_open_is_idempotent_and_counts_files(self):
        service = make_service()
        first = service.open_workspace("w")
        assert first["created"] and first["files"] == 0
        service.sync_files("w", files=dict(FILES))
        again = service.open_workspace("w")
        assert not again["created"]
        assert again["files"] == len(FILES)  # warm state survived re-open

    def test_unknown_workspace_is_an_error_not_autocreated(self):
        service = make_service()
        with pytest.raises(ServiceError) as err:
            service.sync_files("nope", files={})
        assert err.value.kind == "unknown-workspace"

    def test_open_from_server_side_root(self, tmp_path):
        (tmp_path / "x.c").write_text("void f(void) { old(); }\n")
        service = make_service()
        info = service.open_workspace("rooted", root=str(tmp_path))
        assert info["files"] == 1
        payload = service.apply("rooted", [smpl_spec(RENAME_SMPL)])
        assert payload["files"]["x.c"]["changed"]

    def test_reopen_with_conflicting_root_errors(self, tmp_path):
        service = make_service()
        service.open_workspace("w", root=str(tmp_path))
        with pytest.raises(ServiceError) as err:
            service.open_workspace("w", root=str(tmp_path / "elsewhere"))
        assert err.value.kind == "bad-request"

    def test_lru_eviction_drops_coldest(self):
        service = make_service(max_workspaces=2)
        for name in ("w1", "w2", "w3"):
            service.open_workspace(name)
        stats = service.stats()
        names = {row["name"] for row in stats["per_workspace"]}
        assert names == {"w2", "w3"}  # w1 was coldest
        assert stats["evictions"] == 1
        with pytest.raises(ServiceError):
            service.workspace("w1")

    def test_touching_a_workspace_saves_it_from_eviction(self):
        service = make_service(max_workspaces=2)
        service.open_workspace("w1")
        service.open_workspace("w2")
        service.sync_files("w1", files={})  # touch w1: w2 is now coldest
        service.open_workspace("w3")
        names = {row["name"] for row in service.stats()["per_workspace"]}
        assert names == {"w1", "w3"}


class TestSyncFiles:
    def test_upsert_and_remove(self):
        service = make_service()
        name = opened(service)
        delta = service.sync_files(name, files={"a.c": FILES["a.c"],
                                                "d.c": "int d;\n"},
                                   remove=["c.c"])
        assert delta["added"] == ["d.c"]
        assert delta["changed"] == []  # identical content is not a change
        assert delta["removed"] == ["c.c"]
        assert delta["files"] == 3

    def test_manifest_reports_need_and_removes_absent(self):
        service = make_service()
        name = opened(service)
        manifest = {"a.c": content_sha1(FILES["a.c"]),        # unchanged
                    "b.c": content_sha1("void g(void) {}\n"),  # edited
                    "new.c": content_sha1("int n;\n")}          # unknown
        delta = service.sync_files(name, hashes=manifest)
        assert sorted(delta["need"]) == ["b.c", "new.c"]
        assert delta["removed"] == ["c.c"]  # absent from the manifest
        # phase two uploads exactly the needed contents
        delta = service.sync_files(name, files={
            "b.c": "void g(void) {}\n", "new.c": "int n;\n"})
        assert delta["changed"] == ["b.c"] and delta["added"] == ["new.c"]
        # a repeated manifest round is now a no-op
        assert service.sync_files(name, hashes=manifest)["need"] == []

    def test_bad_files_payload_rejected_before_mutation(self):
        service = make_service()
        name = opened(service)
        with pytest.raises(ServiceError) as err:
            service.sync_files(name, files={"a.c": 42})
        assert err.value.kind == "bad-request"
        # the bad request left the workspace exactly as it was
        payload = service.apply(name, [smpl_spec(RENAME_SMPL)])
        assert payload["files"]["a.c"]["changed"]

    @pytest.mark.parametrize("payload", [
        {"remove": "a.c"},                      # a string, not a list
        {"remove": ["c.c", 7]},
        {"hashes": ["a.c"]},                    # a list, not a map
        {"hashes": {"a.c": None}},
        {"files": ["a.c"]},
        {"files": {"d.c": "int d;\n"}, "remove": ["c.c"],
         "hashes": ["d.c"]},                    # valid parts, bad manifest
    ], ids=["remove-str", "remove-int", "hashes-list", "hashes-none",
            "files-list", "mixed"])
    def test_malformed_payload_changes_nothing(self, payload):
        service = make_service()
        name = opened(service)
        with pytest.raises(ServiceError) as err:
            service.sync_files(name, **payload)
        assert err.value.kind == "bad-request"
        assert service.workspace(name).codebase.files == FILES


class TestApply:
    def test_matches_local_patchset_byte_for_byte(self):
        service = make_service()
        name = opened(service)
        patch = SemanticPatch.from_string(RENAME_SMPL, name="inline")
        local = PatchSet([patch]).apply(CodeBase.from_files(FILES))
        local_payload = result_payload(local, [patch])
        remote_payload = service.apply(name, [smpl_spec(RENAME_SMPL)])
        remote_payload.pop("workspace")
        assert json.dumps(local_payload, sort_keys=True) \
            == json.dumps(remote_payload, sort_keys=True)

    def test_second_apply_reuses_everything(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        service.apply(name, spec)
        payload = service.apply(name, spec, profile=True)
        incremental = payload["profile"]["incremental"]
        assert incremental["fallback"] is None
        assert incremental["files_reused"] == len(FILES)
        assert incremental["files_rerun"] == 0

    def test_one_file_edit_reruns_one_file(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        service.apply(name, spec)
        service.sync_files(name, files={"a.c": "void f(void) { old(); /*e*/ }\n"})
        payload = service.apply(name, spec, profile=True)
        incremental = payload["profile"]["incremental"]
        assert incremental["files_rerun"] == 1
        assert incremental["files_reused"] == len(FILES) - 1

    def test_appending_a_patch_hits_the_shared_memo(self):
        service = make_service()
        name = opened(service)
        service.apply(name, [smpl_spec(RENAME_SMPL)])
        payload = service.apply(name, [smpl_spec(RENAME_SMPL),
                                       smpl_spec(OTHER_SMPL, name="second")],
                                profile=True)
        profile = payload["profile"]
        assert profile["incremental"]["patches_total"] == 2
        assert "patch set" in profile["incremental"]["fallback"]
        # the first patch's one session (a.c) from the memo; the appended
        # patch's one session (b.c) ran
        assert (profile["memo"]["hits"], profile["memo"]["misses"]) == (1, 1)
        assert payload["files"]["b.c"]["changed"]  # the appended patch ran

    def test_cookbook_by_name_and_exit_codes(self, tiny_codebase):
        service = make_service()
        service.open_workspace("w")
        service.sync_files("w", files=dict(tiny_codebase.files))
        payload = service.apply("w", [{"kind": "cookbook",
                                       "name": "likwid_instrumentation"}])
        assert payload["exit_status"] == 0
        assert payload["summary"]["matches"] > 0
        local = instrumentation.likwid_patch().apply(tiny_codebase)
        assert payload["files"]["omp.c"]["diff"] == local["omp.c"].diff()

    def test_no_match_exits_one(self):
        service = make_service()
        name = opened(service)
        payload = service.apply(name, [smpl_spec("@r@ @@\n- absent();\n")])
        assert payload["exit_status"] == 1 and not payload["matched"]

    def test_bad_specs_fail_without_poisoning(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        service.apply(name, spec)
        for bad in ([], [{"kind": "cookbook", "name": "no_such"}],
                    [{"kind": "smpl", "text": "@@@@ not smpl"}],
                    [{"kind": "weird"}], [{"no": "kind"}]):
            with pytest.raises(ServiceError):
                service.apply(name, bad)
        payload = service.apply(name, spec, profile=True)
        assert payload["profile"]["incremental"]["files_reused"] == len(FILES)

    def test_patch_cache_avoids_reparsing(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        service.apply(name, spec)
        service.apply(name, spec)
        stats = service.stats(name)["workspace"]
        assert stats["patches_cached"] == 1


class TestQuery:
    def test_query_reports_without_diffs_and_preserves_warm_state(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        service.apply(name, spec)
        query = service.query(name, [smpl_spec(OTHER_SMPL)])
        assert "diff" not in query["files"]["b.c"]
        assert query["files"]["b.c"]["matches"] > 0
        # the exploratory query did not replace the warm apply result
        payload = service.apply(name, spec, profile=True)
        assert payload["profile"]["incremental"]["files_reused"] == len(FILES)


class TestStats:
    def test_counters_are_user_visible(self):
        service = make_service()
        name = opened(service)
        service.apply(name, [smpl_spec(RENAME_SMPL)])
        service.apply(name, [smpl_spec(RENAME_SMPL)])
        stats = service.stats(name)
        workspace = stats["workspace"]
        assert workspace["applies"] == 2
        assert workspace["parse_cache"]["misses"] > 0
        assert workspace["token_index"]["scan_misses"] > 0
        assert {"hits", "misses", "dedup_waits", "evictions"} \
            <= set(workspace["parse_cache"])
        assert stats["requests_total"] >= 4


class TestConcurrency:
    def test_parallel_applies_on_one_workspace_serialize(self):
        service = make_service()
        name = opened(service)
        spec = [smpl_spec(RENAME_SMPL)]
        reference = service.apply(name, spec)
        payloads, errors = [], []

        def hammer():
            try:
                for _ in range(5):
                    service.sync_files(name, files=dict(FILES))
                    payloads.append(service.apply(name, spec))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        reference.pop("workspace")
        for payload in payloads:
            payload.pop("workspace")
            assert json.dumps(payload, sort_keys=True) \
                == json.dumps(reference, sort_keys=True)


class TestPatchCacheBound:
    def test_authoring_loop_cannot_grow_the_cache_forever(self):
        from repro.server.service import MAX_CACHED_PATCH_SPECS

        service = make_service()
        name = opened(service)
        for revision in range(MAX_CACHED_PATCH_SPECS + 10):
            smpl = f"@r@ @@\n- old();\n+ new_call_{revision}();\n"
            service.apply(name, [smpl_spec(smpl)])
        stats = service.stats(name)["workspace"]
        assert stats["patches_cached"] <= MAX_CACHED_PATCH_SPECS


class TestCompileCacheRefcounting:
    """One spec-LRU eviction must not evict a compiled patch another cached
    spec still holds (the compile cache is process-wide and
    fingerprint-keyed, so the pins live in one module-level table shared by
    every workspace of every service, and only the last holder drops the
    compiled form).  Each test uses its own SMPL text, so pins left behind
    by other tests' services cannot skew the counts."""

    def _shared_key(self, spec):
        from repro.engine.compile import compile_key
        from repro.server.service import parse_spec

        patch = parse_spec(spec, None)[0]
        return compile_key(patch.ast, patch.options)

    def _flood(self, service, name):
        from repro.server.service import MAX_CACHED_PATCH_SPECS

        for revision in range(MAX_CACHED_PATCH_SPECS):
            service.apply(name, [smpl_spec(
                f"@f@ @@\n- flood_{revision}();\n", name=f"f{revision}")])

    def test_flooding_one_workspace_does_not_force_a_recompile(self):
        from repro.engine.compile import backend_enabled, matcher_counters
        from repro.server.service import _COMPILE_REFS

        if not backend_enabled(None):
            pytest.skip("compile cache inactive under REPRO_MATCHER=interp")

        service = make_service()
        shared = smpl_spec("@r@ @@\n- old();\n+ pinned_by_two();\n",
                           name="shared")
        for name in ("w1", "w2"):
            service.open_workspace(name)
            service.sync_files(name, files={
                f"{name}.c": f"void {name}(void) {{ old(); }}\n"})
            service.apply(name, [shared])
        key = self._shared_key(shared)
        assert _COMPILE_REFS[key] == 2

        # flood w1's spec LRU until the shared spec falls out of it; w2's
        # cached spec must keep the compiled form pinned in the global cache
        self._flood(service, "w1")
        assert key not in service.workspace("w1")._patches
        assert _COMPILE_REFS[key] == 1

        # w2 re-applies over fresh content (new content so the transform
        # memo cannot answer without a session): zero new compile misses
        service.sync_files("w2", files={
            "w2.c": "void h(void) { int z; old(); }\n"})
        with Capture() as counts:
            payload = service.apply("w2", [shared])
        assert payload["files"]["w2.c"]["changed"]
        assert matcher_counters(counts)["compile_cache_misses"] == 0
        service.close()

    def test_flooding_one_service_keeps_another_services_form(self):
        """Two services in one process share the compile cache, so they
        must share the pins too: service A's spec-LRU eviction must not
        evict a compiled form service B still holds."""
        from repro.engine.compile import backend_enabled, matcher_counters
        from repro.server.service import _COMPILE_REFS

        if not backend_enabled(None):
            pytest.skip("compile cache inactive under REPRO_MATCHER=interp")

        first, second = make_service(), make_service()
        shared = smpl_spec("@r@ @@\n- old();\n+ pinned_across();\n",
                           name="shared")
        for service in (first, second):
            service.open_workspace("w")
            service.sync_files("w", files={"w.c": "void w(void) { old(); }\n"})
            service.apply("w", [shared])
        key = self._shared_key(shared)
        assert _COMPILE_REFS[key] == 2

        self._flood(first, "w")
        assert key not in first.workspace("w")._patches
        assert _COMPILE_REFS[key] == 1

        second.sync_files("w", files={
            "w.c": "void w(void) { int fresh; old(); }\n"})
        with Capture() as counts:
            payload = second.apply("w", [shared])
        assert payload["files"]["w.c"]["changed"]
        assert matcher_counters(counts)["compile_cache_misses"] == 0
        first.close()
        second.close()

    def test_last_holder_eviction_drops_the_compiled_form(self):
        from repro.engine import compile as compile_module
        from repro.engine.compile import backend_enabled
        from repro.server.service import _COMPILE_REFS

        if not backend_enabled(None):
            pytest.skip("compile cache inactive under REPRO_MATCHER=interp")

        service = make_service(max_workspaces=2)
        shared = smpl_spec("@s@ @@\n- gone();\n+ last_holder();\n",
                           name="shared")
        for name in ("w1", "w2"):
            service.open_workspace(name)
            service.sync_files(name, files={
                f"{name}.c": f"void {name}(void) {{ gone(); }}\n"})
            service.apply(name, [shared])
        key = self._shared_key(shared)
        assert key in compile_module._COMPILE_CACHE

        # evicting w1 releases one reference; the compiled form survives
        service.open_workspace("w3")  # LRU pushes w1 out
        assert _COMPILE_REFS[key] == 1
        assert key in compile_module._COMPILE_CACHE

        # closing the service releases the last one; the form is dropped
        service.close()
        assert key not in _COMPILE_REFS
        assert key not in compile_module._COMPILE_CACHE
