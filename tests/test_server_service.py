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
from repro.engine import prefilter as prefilter_module
from repro.engine.cache import content_sha1
from repro.engine.prefilter import scan_token_set, token_set
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


class TestSizing:
    @pytest.mark.parametrize("sizes", [
        {"max_workspaces": 0}, {"workers": 0}, {"cache_entries": -1},
        {"memo_entries": -1}, {"memo_max_bytes": -5},
        {"memo_max_age": -5.0}, {"memo_max_age": float("nan")},
    ], ids=lambda sizes: "-".join(f"{k}={v}" for k, v in sizes.items()))
    def test_sizes_that_break_the_service_are_refused(self, sizes):
        with pytest.raises(ValueError, match=next(iter(sizes))):
            PatchService(**sizes)

    def test_zero_means_none_and_still_serves(self, tmp_path):
        service = PatchService(cache_entries=0, memo_entries=0,
                               memo_dir=str(tmp_path), memo_max_bytes=0)
        name = opened(service)
        payload = service.apply(name, [smpl_spec(RENAME_SMPL)])
        assert payload["files"]["a.c"]["changed"]
        service.close()


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
                    [{"kind": "weird"}], [{"no": "kind"}],
                    [{"kind": "cookbook", "name": ["no_such"]}],
                    [{"kind": "smpl", "name": 3, "text": RENAME_SMPL}]):
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
        assert service.stats(name)["patches_cached"] == 1

    def test_two_workspaces_parse_the_same_smpl_once(self, monkeypatch):
        """The spec cache is the service's, not a workspace's: a second
        workspace applying the same SMPL text reuses the built patch."""
        parses = []
        from_text = SemanticPatch.from_text

        def counting(cls, *args, **kwargs):
            parses.append(args[0])
            return from_text(*args, **kwargs)

        monkeypatch.setattr(SemanticPatch, "from_text", classmethod(counting))
        service = make_service()
        for name in ("w1", "w2"):
            opened(service, name)
            payload = service.apply(name, [smpl_spec(RENAME_SMPL)])
            assert payload["files"]["a.c"]["changed"]
        service.query("w1", [smpl_spec(RENAME_SMPL)])
        assert parses == [RENAME_SMPL]
        assert service.stats()["patches_cached"] == 1

    def test_a_new_smpl_revision_rescans_no_file(self, monkeypatch):
        """A new patch text per request re-plans every file; the unchanged
        files answer from the prefilter's scan cache, not a fresh scan."""
        token_set.cache_clear()
        scans = []

        def counted(text):
            scans.append(text)
            return scan_token_set(text)

        monkeypatch.setattr(prefilter_module, "scan_token_set", counted)
        service = make_service()
        name = opened(service)
        service.apply(name, [smpl_spec(RENAME_SMPL)])
        assert len(scans) == len(FILES)
        for k in range(3):
            revision = f"@r@ @@\n- old();\n+ call_{k}();\n"
            payload = service.apply(name, [smpl_spec(revision)])
            assert f"call_{k}();" in payload["files"]["a.c"]["diff"]
        assert len(scans) == len(FILES)
        token_set.cache_clear()


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
        assert "patches_cached" not in workspace
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

    def test_workspaces_share_the_spec_cache_under_contention(self):
        """Threads on different workspaces build, hit and evict entries of
        the one spec LRU at once: every request runs the patch it named,
        and the LRU never outgrows its bound."""
        import sys

        from repro.api import MAX_CACHED_PATCH_SPECS

        service = make_service()
        names = [opened(service, f"w{index}",
                        files={"a.c": "void f(void) { old(); }\n"})
                 for index in range(4)]
        errors, done = [], []

        def hammer(name):
            try:
                for revision in range(40):
                    # even revisions are shared by every thread, odd ones
                    # unique to this one: 100 specs overflow the LRU
                    call = f"call_{revision}" if revision % 2 == 0 \
                        else f"call_{name}_{revision}"
                    spec = [smpl_spec(f"@r@ @@\n- old();\n+ {call}();\n")]
                    if revision % 4 < 2:
                        payload = service.apply(name, spec, texts=True)
                        assert f"{call}();" in payload["files"]["a.c"]["text"]
                    else:
                        payload = service.query(name, spec)
                    assert payload["files"]["a.c"]["matches"] == 1
                    done.append(call)
                    assert service.stats()["patches_cached"] \
                        <= MAX_CACHED_PATCH_SPECS
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(name,))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(done) == 4 * 40
        assert service.stats()["patches_cached"] == MAX_CACHED_PATCH_SPECS


class TestPatchCacheBound:
    def test_authoring_loop_cannot_grow_the_cache_forever(self):
        """One bound for the whole service, however many workspaces the
        revisions arrive through."""
        from repro.api import MAX_CACHED_PATCH_SPECS

        service = make_service()
        for name in ("w1", "w2"):
            opened(service, name)
        for revision in range(MAX_CACHED_PATCH_SPECS + 10):
            smpl = f"@r@ @@\n- old();\n+ new_call_{revision}();\n"
            service.apply(("w1", "w2")[revision % 2], [smpl_spec(smpl)])
        assert service.stats()["patches_cached"] == MAX_CACHED_PATCH_SPECS


class TestCompiledFormsFollowTheSpecCache:
    """A built patch carries its compiled rules.  A spec that falls out of
    the service's spec LRU frees its compiled form, and on its return it
    parses and compiles once more; another service's patch objects, and
    so its compiled forms, are untouched by the first one's evictions."""

    def _flood(self, service, name):
        from repro.api import MAX_CACHED_PATCH_SPECS

        for revision in range(MAX_CACHED_PATCH_SPECS):
            service.apply(name, [smpl_spec(
                f"@f@ @@\n- flood_{revision}();\n", name=f"f{revision}")])

    def _reapply_compiles(self, service, name, filename, spec):
        """Rules compiled by one apply over fresh content (new content, so
        the transform memo cannot answer without a session)."""
        from repro.engine.compile import matcher_counters

        service.sync_files(name, files={
            filename: "void h(void) { int fresh; old(); }\n"})
        with Capture() as counts:
            payload = service.apply(name, [spec])
        assert payload["files"][filename]["changed"]
        return matcher_counters(counts)["rules_compiled"]

    def test_an_evicted_spec_frees_its_form_and_compiles_once_again(self):
        import gc
        import weakref

        from repro.engine.compile import compiled_patch_for, matcher_counters
        from repro.server.protocol import options_from_payload

        service = make_service()
        shared = smpl_spec("@r@ @@\n- old();\n+ shared_by_two();\n",
                           name="shared")
        for name in ("w1", "w2"):
            service.open_workspace(name)
            service.sync_files(name, files={
                f"{name}.c": f"void {name}(void) {{ old(); }}\n"})
            service.apply(name, [shared])
        (patch,) = service.build_patches([shared], options_from_payload(None))
        with Capture() as counts:
            compiled = compiled_patch_for(patch.ast, patch.options)
            compiled.rule_for(patch.ast.patch_rules()[0])
        # the form the two applies compiled and matched with
        assert matcher_counters(counts)["rules_compiled"] == 0
        form = weakref.ref(compiled)
        del patch, compiled

        # flood the spec LRU from w1 until the shared spec falls out of it
        self._flood(service, "w1")
        digest = content_sha1(shared["text"])
        assert all(key[2] != digest for key in service._patches)
        gc.collect()
        assert form() is None
        assert self._reapply_compiles(service, "w2", "w2.c", shared) == 1
        service.close()

    def test_flooding_one_service_keeps_another_services_form(self):
        first, second = make_service(), make_service()
        shared = smpl_spec("@r@ @@\n- old();\n+ shared_across();\n",
                           name="shared")
        for service in (first, second):
            service.open_workspace("w")
            service.sync_files("w", files={"w.c": "void w(void) { old(); }\n"})
            service.apply("w", [shared])

        self._flood(first, "w")
        assert self._reapply_compiles(second, "w", "w.c", shared) == 0
        first.close()
        second.close()
