"""TreeCache: content keys, filename rebinding, concurrent in-flight
deduplication and LRU recency.

The dedup contract: when N threads race ``get_or_parse`` on the same
key, exactly one of them parses; the others wait for
its tree, each seeing it under the filename it asked with.  The counts
stay *exact* — one miss per unique parse, one hit per caller answered
without parsing — which the pipeline's ``--profile``
output and the incremental benchmarks rely on.  Counts live in the metrics
registry; each test reads them from a capture around the work it drives
(one per thread for the racing tests: a capture sees only its own
context).
"""

import threading

import pytest

from repro.engine.cache import TreeCache, content_sha1, parse_cache_counts
from repro.obs import Capture
from repro.obs import registry as _obs
from repro.options import DEFAULT_OPTIONS, SpatchOptions


#: a rule binding each call's position plus a script printing its file;
#: positions reach scripts rendered ``file:line:col``
POSITION_SMPL = ("@r@\nidentifier f;\nposition p;\n@@\nf@p(...);\n\n"
                 "@script:python s@\np << r.p;\n@@\n"
                 "print('position file:', p.rsplit(':', 2)[0])\n")
TWIN_TEXT = "void t(void) { twin(); }\n"


def printed_files(out: str) -> list[str]:
    return sorted(line.split(": ", 1)[1] for line in out.splitlines()
                  if line.startswith("position file: "))


def _hits_misses(counts) -> tuple[int, int]:
    parse = parse_cache_counts(counts)
    return parse["hits"], parse["misses"]


def _captured(totals: Capture, work):
    """``work`` wrapped to run under its own capture (on whatever thread
    calls it) and add what it counted to ``totals``."""
    def run(*args):
        with Capture() as counts:
            work(*args)
        totals.add(counts)
    return run


def _install_counting_parser(monkeypatch, delay: float = 0.0):
    """Replace the cache's parser with a call-counting (optionally slow)
    wrapper, so a duplicated parse is observable and races overlap."""
    import time

    from repro.engine import cache as cache_module
    from repro.lang.parser import parse_source

    calls: list[tuple[str, str]] = []
    lock = threading.Lock()

    def counting_parse(text, name="<input>", options=None, tolerant=False):
        with lock:
            calls.append((name, text))
        if delay:
            time.sleep(delay)
        return parse_source(text, name=name, options=options,
                            tolerant=tolerant)

    monkeypatch.setattr(cache_module, "parse_source", counting_parse)
    return calls


class TestInFlightDeduplication:
    def test_racing_threads_parse_once(self, monkeypatch):
        """16 threads, one key: one parse, one miss, 15 hits."""
        calls = _install_counting_parser(monkeypatch, delay=0.05)
        cache = TreeCache()
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        trees = [None] * n_threads
        errors = []
        totals = Capture()

        def worker(slot):
            try:
                barrier.wait()
                trees[slot] = cache.get_or_parse("int racy;\n", "racy.c",
                                                 DEFAULT_OPTIONS)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=_captured(totals, worker),
                                    args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(calls) == 1  # exactly one parse hit the parser
        assert _hits_misses(totals) == (n_threads - 1, 1)
        assert all(tree is trees[0] for tree in trees)  # same shared tree

    def test_stress_many_keys_counters_exact(self, monkeypatch):
        """8 threads × 6 distinct texts, every thread parses every text:
        misses == unique texts, hits == the rest, no duplicate parses."""
        calls = _install_counting_parser(monkeypatch, delay=0.005)
        cache = TreeCache()
        texts = [f"int stress_{i};\n" for i in range(6)]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors = []
        totals = Capture()

        def worker(offset):
            try:
                barrier.wait()
                # staggered orders so different keys race at different times
                for i in range(len(texts)):
                    text = texts[(i + offset) % len(texts)]
                    cache.get_or_parse(text, "stress.c", DEFAULT_OPTIONS)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=_captured(totals, worker),
                                    args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(calls) == len(texts)
        hits, misses = _hits_misses(totals)
        assert misses == len(texts)
        assert hits == n_threads * len(texts) - len(texts)
        assert len(cache) == len(texts)

    def test_different_keys_do_not_block_each_other(self, monkeypatch):
        """The lock is only held for bookkeeping: two different keys parse
        concurrently (both parses overlap inside the slow parser)."""
        import time

        from repro.engine import cache as cache_module
        from repro.lang.parser import parse_source

        active = []
        overlaps = []
        lock = threading.Lock()

        def overlapping_parse(text, name="<input>", options=None,
                              tolerant=False):
            with lock:
                active.append(text)
                if len(active) > 1:
                    overlaps.append(tuple(active))
            time.sleep(0.05)
            with lock:
                active.remove(text)
            return parse_source(text, name=name, options=options,
                                tolerant=tolerant)

        monkeypatch.setattr(cache_module, "parse_source", overlapping_parse)
        cache = TreeCache()
        barrier = threading.Barrier(2)

        def worker(text):
            barrier.wait()
            cache.get_or_parse(text, "free.c", DEFAULT_OPTIONS)

        threads = [threading.Thread(target=worker, args=(f"int free_{i};\n",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert overlaps  # both keys were inside the parser at once

    def test_parse_error_releases_waiters(self, monkeypatch):
        """A failing parse must propagate to every racing caller and leave
        no stuck in-flight marker behind."""
        from repro.engine import cache as cache_module

        boom = RuntimeError("front end exploded")

        def failing_parse(text, name="<input>", options=None, tolerant=False):
            import time
            time.sleep(0.02)
            raise boom

        monkeypatch.setattr(cache_module, "parse_source", failing_parse)
        cache = TreeCache()
        barrier = threading.Barrier(4)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                cache.get_or_parse("int broken;\n", "broken.c",
                                   DEFAULT_OPTIONS)
            except RuntimeError as exc:
                with lock:
                    outcomes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 4
        assert all(exc is boom for exc in outcomes)
        assert not cache._inflight  # no zombie marker
        # the key is retryable afterwards
        monkeypatch.undo()
        tree = cache.get_or_parse("int broken;\n", "broken.c", DEFAULT_OPTIONS)
        assert tree is not None


class TestContentKeys:
    """One key per content: the filename rides on the returned tree."""

    def test_racing_threads_under_two_filenames_parse_once(self,
                                                           monkeypatch):
        calls = _install_counting_parser(monkeypatch, delay=0.05)
        cache = TreeCache()
        names = ["left.c", "right.c"] * 4
        barrier = threading.Barrier(len(names))
        trees = [None] * len(names)
        totals = Capture()

        def worker(slot):
            barrier.wait()
            trees[slot] = cache.get_or_parse("int shared;\n", names[slot],
                                             DEFAULT_OPTIONS)

        threads = [threading.Thread(target=_captured(totals, worker),
                                    args=(i,))
                   for i in range(len(names))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == 1  # one parse for both filenames
        assert [tree.source.name for tree in trees] == names
        assert len(cache) == 1
        parsed_as = calls[0][0]
        counters = parse_cache_counts(totals)
        assert (counters["hits"], counters["misses"]) == (len(names) - 1, 1)
        # every caller that asked under the other name got a rebound copy
        assert counters["rebinds"] == names.count(
            "right.c" if parsed_as == "left.c" else "left.c")

    def test_hit_under_another_filename_is_rebound(self):
        cache = TreeCache()
        first = cache.get_or_parse("int twin;\n", "vendor/a.c",
                                   DEFAULT_OPTIONS)
        with Capture() as counts:
            second = cache.get_or_parse("int twin;\n", "other/b.c",
                                        DEFAULT_OPTIONS)
            again = cache.get_or_parse("int twin;\n", "vendor/a.c",
                                       DEFAULT_OPTIONS)
        assert second.source.name == "other/b.c"
        assert second.unit is first.unit  # the parse itself is shared
        assert again is first  # same name: the stored tree itself
        counters = cache.counters(counts)
        assert (counters["hits"], counters["misses"]) == (2, 0)
        assert counters["rebinds"] == 1
        # the stored entry keeps the name it was parsed under
        assert [tree.source.name for tree in cache._entries.values()] \
            == ["vendor/a.c"]

    def test_script_positions_name_their_own_file(self, capsys):
        """Two byte-identical files, one parse: a script rule printing each
        match position's file still sees each file's own name."""
        from repro import SemanticPatch
        from repro.engine.pipeline import PatchPipeline

        patch = SemanticPatch.from_string(POSITION_SMPL, name="where")
        files = {"a.c": TWIN_TEXT, "b.c": TWIN_TEXT}
        cache = TreeCache()
        with Capture() as counts:
            PatchPipeline([patch.ast], tree_cache=cache).run(files)
        assert printed_files(capsys.readouterr().out) == ["a.c", "b.c"]
        assert parse_cache_counts(counts)["rebinds"] >= 1

    def test_keys_distinguish_options(self):
        """An entry is keyed on what the parser reads: options it ignores
        (matching knobs, the C++ level) share one entry, the type and
        attribute hints separate entries, and a text that parses the same
        as C and as C++ shares one entry between the two."""
        cache = TreeCache()
        text = "int opt;\n"
        first = cache.get_or_parse(text, "o.c", SpatchOptions(cxx=17))
        with Capture() as counts:
            for options in (SpatchOptions(cxx=23),
                            SpatchOptions(cxx=17, verbose=True),
                            SpatchOptions(cxx=17, max_dots_statements=5),
                            DEFAULT_OPTIONS):
                assert cache.get_or_parse(text, "o.c", options) is first
        assert _hits_misses(counts) == (4, 0)
        assert len(cache) == 1
        with Capture() as counts:
            typed = cache.get_or_parse(
                text, "o.c", SpatchOptions(extra_types=("opt_t",)))
            attributed = cache.get_or_parse(
                text, "o.c", SpatchOptions(attribute_names=("__hot",)))
        assert _hits_misses(counts) == (0, 2)
        assert typed is not first and attributed is not first
        assert len(cache) == 3

    def test_mode_sensitive_text_keeps_one_entry_per_mode(self):
        """A text whose C and C++ trees differ (a range-``for``) is never
        served across modes."""
        cache = TreeCache()
        text = "void f(int *xs) { for (auto &v : xs) v = 0; }\n"
        with Capture() as counts:
            c_tree = cache.get_or_parse(text, "r.c", DEFAULT_OPTIONS)
            cxx_tree = cache.get_or_parse(text, "r.c", SpatchOptions(cxx=17))
            again = cache.get_or_parse(text, "r.c", SpatchOptions(cxx=23))
        assert _hits_misses(counts) == (1, 2)
        assert c_tree.cxx_decided and cxx_tree.cxx_decided
        assert c_tree is not cxx_tree and again is cxx_tree
        assert len(cache) == 2

    def test_rebound_copy_keeps_the_node_index(self):
        """Two byte-identical files under different names: the second file's
        rebound tree reuses the first one's candidate index."""
        from repro import SemanticPatch
        from repro.engine.compile import _MATCHER
        from repro.engine.pipeline import PatchPipeline

        patch = SemanticPatch.from_string(
            "@r@\n@@\n- twin();\n+ other();\n", name="twin")
        files = {"a.c": TWIN_TEXT, "b.c": TWIN_TEXT}
        with Capture() as counts:
            PatchPipeline([patch.ast], tree_cache=TreeCache()).run(files)
        assert counts.total(_MATCHER["trees_indexed"]) == 1
        assert counts.total(_MATCHER["index_reuses"]) >= 1


class TestContentSha1:
    def test_stable_and_distinct(self):
        assert content_sha1("int x;\n") == content_sha1("int x;\n")
        assert content_sha1("int x;\n") != content_sha1("int y;\n")

    def test_surrogateescape_bytes_hashable(self):
        # a Latin-1 byte read with surrogateescape must hash, not crash
        text = b"// caf\xe9\nint x;\n".decode("utf-8", "surrogateescape")
        assert content_sha1(text)


class TestCounters:
    """The user-visible counter surface added for --profile / server stats."""

    def test_dedup_waits_counted(self, monkeypatch):
        _install_counting_parser(monkeypatch, delay=0.05)
        cache = TreeCache()
        barrier = threading.Barrier(4)
        totals = Capture()

        def worker():
            barrier.wait()
            cache.get_or_parse("int c;\n", "c.c", DEFAULT_OPTIONS)

        threads = [threading.Thread(target=_captured(totals, worker))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = cache.counters(totals)
        assert counters["misses"] == 1
        assert counters["hits"] == 3
        # every hit was answered by waiting on the in-flight parse
        assert counters["dedup_waits"] == 3
        # a later plain hit does not count as a dedup wait
        _captured(totals, cache.get_or_parse)("int c;\n", "c.c",
                                              DEFAULT_OPTIONS)
        assert cache.counters(totals)["dedup_waits"] == 3
        assert cache.counters(totals)["hits"] == 4

    def test_evictions_counted_and_reset(self):
        cache = TreeCache(max_entries=2)
        with Capture() as counts:
            for index in range(4):
                cache.get_or_parse(f"int e{index};\n", f"e{index}.c",
                                   DEFAULT_OPTIONS)
        counters = cache.counters(counts)
        assert counters["evictions"] == 2
        assert counters["entries"] == 2 and counters["max_entries"] == 2
        # clear drops the entries; a fresh capture starts from zero
        cache.clear()
        fresh = cache.counters(Capture())
        assert fresh["entries"] == 0
        assert fresh["evictions"] == fresh["dedup_waits"] == 0
        assert fresh["hits"] == fresh["misses"] == 0


class TestRecencyExactness:
    """The LRU order the cache evicts by is true recency."""

    def test_dedup_wait_hit_refreshes_recency(self, monkeypatch):
        """A hit answered by waiting on an in-flight parse is still a use:
        the key must move to the hot end, exactly like a plain hit."""
        import time

        calls = _install_counting_parser(monkeypatch, delay=0.05)
        cache = TreeCache(max_entries=2)
        cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)

        started = threading.Event()

        def slow_parse_b():
            cache.get_or_parse("int b;\n", "b.c", DEFAULT_OPTIONS)

        def waiting_hit_b():
            started.wait()
            time.sleep(0.01)  # land inside b's in-flight window
            cache.get_or_parse("int b;\n", "b.c", DEFAULT_OPTIONS)
            # now touch a so the LRU order is decided by recency
            cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)

        threads = [threading.Thread(target=slow_parse_b),
                   threading.Thread(target=waiting_hit_b)]
        threads[1].start()
        started.set()
        threads[0].start()
        for thread in threads:
            thread.join()
        assert len(calls) == 2
        # coldest-first: b (dedup-wait hit), then a (last touch), so a
        # third text evicts b and keeps a
        cache.get_or_parse("int c;\n", "c.c", DEFAULT_OPTIONS)
        cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)
        assert len(calls) == 3
        cache.get_or_parse("int b;\n", "b.c", DEFAULT_OPTIONS)
        assert len(calls) == 4


class TestMemoCounterExactness:
    """--profile / server-stats counter audit: when the transform memo
    short-circuits a session, the layers it bypassed record *nothing* — a
    memo hit must not double-count as parse-cache traffic."""

    RENAME = "@r@ @@\n- old_api();\n+ mid_api();\n"
    FILES = {"hit.c": "void f(void) { old_api(); }\n",
             "miss.c": "int zero(void) { return 0; }\n"}

    def _run(self, cache, memo):
        from repro import SemanticPatch
        from repro.engine.pipeline import PatchPipeline

        ast = SemanticPatch.from_string(self.RENAME, name="p0").ast
        pipeline = PatchPipeline([ast], tree_cache=cache, memo=memo)
        return pipeline.run(dict(self.FILES))

    def test_memo_hit_records_no_tree_cache_traffic(self):
        from repro.engine.memo import TransformMemo

        cache = TreeCache()
        memo = TransformMemo()
        cold = self._run(cache, memo)
        assert cold.stats.memo_misses == 1  # hit.c ran; miss.c was gated

        with Capture() as counts:
            warm = self._run(cache, memo)
        assert warm.stats.memo_hits == 1 and warm.stats.memo_misses == 0
        # the short-circuited session never consulted the parse cache: the
        # warm run recorded no parse-cache traffic at all
        assert _hits_misses(counts) == (0, 0)
        assert warm.stats.cache_hits == 0
        assert warm.stats.cache_misses == 0
        # and coverage counters still match the cold run (logical session)
        assert warm.stats.sessions_run == cold.stats.sessions_run

    def test_memo_counters_and_cache_counters_partition_the_work(self):
        """Over any run: sessions_run == memo hits + real sessions; the
        parse traffic belongs only to the real sessions."""
        from repro.engine.memo import TransformMemo

        cache = TreeCache()
        memo = TransformMemo()
        with Capture() as counts:
            first = self._run(cache, memo)
            assert first.stats.sessions_run == \
                first.stats.memo_hits + first.stats.memo_misses
            second = self._run(cache, memo)
        assert second.stats.sessions_run == second.stats.memo_hits
        counters = memo.counters(counts)
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["stores"] == 1


class TestForkPoolCounterExactness:
    """``jobs=4`` fork pools: each worker's parse-cache delta travels home
    through the telemetry channel and the merged counters stay *exact* —
    one miss per file parsed in a worker, zero phantom hits — so
    ``--profile`` over a fork pool is as trustworthy as a serial run."""

    RENAME = "@r@ @@\n- old_api();\n+ new_api();\n"

    @staticmethod
    def _files(count: int = 6) -> dict:
        return {f"fork_{index}.c":
                f"void fn{index}(void) {{ old_api(); }}\n"
                for index in range(count)}

    def _run(self, jobs: int):
        from repro import SemanticPatch

        patch = SemanticPatch.from_string(self.RENAME)
        return patch.apply(self._files(), jobs=jobs, prefilter=False)

    def test_worker_deltas_are_exact(self):
        files = self._files()
        with Capture() as counts:
            result = self._run(jobs=4)
        assert result.stats.jobs_used == 4
        # the merged counts are exact: each worker parsed each of its files
        # exactly once, cold
        assert result.stats.cache_misses == len(files)
        assert result.stats.cache_hits == 0
        # and they landed on the registry's origin="workers" children
        # inside the caller's capture (per-batch captures, so a
        # parallel-running test cannot inflate them)
        worker_misses = _obs.REGISTRY.counter(
            "repro_parse_cache_misses_total", cache="tree", origin="workers")
        worker_hits = _obs.REGISTRY.counter(
            "repro_parse_cache_hits_total", cache="tree", origin="workers")
        assert counts.counters.get(worker_misses, 0) == len(files)
        assert counts.counters.get(worker_hits, 0) == 0
        local_misses = _obs.REGISTRY.counter(
            "repro_parse_cache_misses_total", cache="tree")
        assert counts.counters.get(local_misses, 0) == 0
        # the transform happened in every file despite the scatter
        for name in files:
            assert result[name].changed

    def test_serial_run_stays_locally_scoped(self):
        result = self._run(jobs=1)
        assert result.stats.cache_misses == len(self._files())


class TestFleetCounterExactness:
    """``--workers 4`` fleet: what the worker processes counted lands in the
    parent's per-workspace ``stats`` row, exactly — every parse happened
    in precisely the one worker the workspace is pinned to."""

    FILES = {"hit.c": "void f(void) { old_api(); }\n",
             "also.c": "void g(void) { old_api(); }\n"}
    SPEC = {"kind": "smpl", "text": "@r@ @@\n- old_api();\n+ new_api();\n"}

    @pytest.fixture()
    def service(self, tmp_path):
        from repro.server.service import PatchService

        service = PatchService(workers=4,
                               state_root=str(tmp_path / "state"))
        yield service
        service.close()

    def test_workspace_row_counts_the_worker_parses(self, service):
        service.open_workspace("w")
        service.sync_files("w", files=dict(self.FILES))
        service.apply("w", [self.SPEC])
        stats = service.stats()
        per_worker = stats["fleet"]["per_worker"]
        assert len(per_worker) == 4
        assert all(row["pid"] > 0 for row in per_worker)
        # the workspace is pinned to exactly one worker
        assert [row["workspaces"] for row in per_worker
                if row["workspaces"]] == [["w"]]
        # a cold apply parsed every file exactly once, in that worker
        (row,) = stats["per_workspace"]
        assert row["parse_cache"]["misses"] == len(self.FILES)
        assert row["parse_cache"]["hits"] == 0
        assert stats["memo"]["misses"] == len(self.FILES)

    def test_warm_reapply_moves_hits_not_misses(self, service):
        service.open_workspace("w")
        service.sync_files("w", files=dict(self.FILES))
        service.apply("w", [self.SPEC])
        cold = service.stats()
        payload = service.apply("w", [self.SPEC], profile=True)
        warm = service.stats()
        # the replay was answered from warm state: not one new parse miss
        assert warm["per_workspace"][0]["parse_cache"]["misses"] \
            == cold["per_workspace"][0]["parse_cache"]["misses"]
        assert warm["memo"]["misses"] == cold["memo"]["misses"]
        # and the profile names the worker that served it
        worker = payload["profile"]["fleet_worker"]
        assert worker["pid"] in {row["pid"] for row in
                                 service.stats()["fleet"]["per_worker"]}
