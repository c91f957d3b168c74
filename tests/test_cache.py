"""TreeCache: concurrent in-flight deduplication and persistence.

The dedup contract: when N threads race ``get_or_parse`` on the same
``(name, sha1, options)`` key, exactly one of them parses; the others wait
for its tree.  The counts stay *exact* — one miss per unique parse, one
hit per caller answered without parsing — which the pipeline's ``--profile``
output and the incremental benchmarks rely on.  Counts live in the metrics
registry; each test reads them from a capture around the work it drives
(one per thread for the racing tests: a capture sees only its own
context).
"""

import pickle
import threading

import pytest

from repro.engine.cache import TreeCache, content_sha1, parse_cache_counts
from repro.obs import Capture
from repro.obs import registry as _obs
from repro.options import DEFAULT_OPTIONS, SpatchOptions


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


class TestPersistence:
    def test_save_load_round_trip_skips_parsing(self, tmp_path, monkeypatch):
        cache = TreeCache()
        cache.get_or_parse("int persisted;\n", "p.c", DEFAULT_OPTIONS)
        cache.get_or_parse("int other;\n", "q.c", DEFAULT_OPTIONS)
        target = tmp_path / "trees.cache"
        assert cache.save(target) == 2

        calls = _install_counting_parser(monkeypatch)
        fresh = TreeCache()
        assert fresh.load(target) == 2
        with Capture() as counts:
            tree = fresh.get_or_parse("int persisted;\n", "p.c",
                                      DEFAULT_OPTIONS)
        assert tree.source.text == "int persisted;\n"
        assert calls == []  # answered from the persisted entry
        assert _hits_misses(counts) == (1, 0)

    def test_load_missing_or_corrupt_is_a_no_op(self, tmp_path):
        cache = TreeCache()
        assert cache.load(tmp_path / "nope.cache") == 0
        garbage = tmp_path / "garbage.cache"
        garbage.write_bytes(b"not a pickle at all")
        assert cache.load(garbage) == 0
        versioned = tmp_path / "versioned.cache"
        versioned.write_bytes(pickle.dumps({"version": 999, "entries": []}))
        assert cache.load(versioned) == 0
        assert len(cache) == 0

    def test_restore_respects_the_lru_bound(self):
        source = TreeCache()
        for i in range(6):
            source.get_or_parse(f"int bound_{i};\n", "b.c", DEFAULT_OPTIONS)
        bounded = TreeCache(max_entries=3)
        assert bounded.restore(source.snapshot()) == 6
        assert len(bounded) == 3

    def test_keys_distinguish_options(self, tmp_path):
        """Persisted entries only answer the exact (name, hash, options)
        triple they were parsed under."""
        cache = TreeCache()
        cache.get_or_parse("int opt;\n", "o.c", DEFAULT_OPTIONS)
        target = tmp_path / "trees.cache"
        cache.save(target)
        fresh = TreeCache()
        fresh.load(target)
        with Capture() as counts:
            fresh.get_or_parse("int opt;\n", "o.c", SpatchOptions(cxx=17))
        assert _hits_misses(counts) == (0, 1)  # different options: a parse


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


class TestTokenIndexCounters:
    def test_scan_reuse_counted(self):
        from repro.engine.prefilter import TokenIndex

        index = TokenIndex({"a.c": "int alpha;\n"})
        with Capture() as counts:
            index.tokens_of("a.c")
            index.tokens_of("a.c")
        counters = index.counters(counts)
        assert counters["scan_misses"] == 1
        assert counters["scan_hits"] == 1
        # new content for the same name forces a fresh scan
        index.add("a.c", "int beta;\n")
        with counts:
            assert "beta" in index.tokens_of("a.c")
        assert index.counters(counts)["scan_misses"] == 2


class TestRecencyExactness:
    """The LRU order the cache reports (and persists) is true recency."""

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
            # now touch a so the snapshot order is decided by recency
            cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)

        threads = [threading.Thread(target=slow_parse_b),
                   threading.Thread(target=waiting_hit_b)]
        threads[1].start()
        started.set()
        threads[0].start()
        for thread in threads:
            thread.join()
        assert len(calls) == 2
        # snapshot is coldest-first: b (dedup-wait hit), then a (last touch)
        names = [key[0] for key, _ in cache.snapshot()]
        assert names == ["b.c", "a.c"]

    def test_restore_does_not_steal_recency_from_live_entries(self):
        """Restoring a stale snapshot must not re-order keys the cache has
        used since the snapshot was taken."""
        cache = TreeCache()
        cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)
        cache.get_or_parse("int b;\n", "b.c", DEFAULT_OPTIONS)
        stale = cache.snapshot()  # order: a, b

        cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)  # a is hottest
        merged = cache.restore(stale)
        assert merged == 0  # every key was already live
        names = [key[0] for key, _ in cache.snapshot()]
        assert names == ["b.c", "a.c"]  # a kept its post-snapshot recency

    def test_restore_merges_only_unknown_keys(self):
        donor = TreeCache()
        donor.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)
        donor.get_or_parse("int b;\n", "b.c", DEFAULT_OPTIONS)

        cache = TreeCache()
        cache.get_or_parse("int a;\n", "a.c", DEFAULT_OPTIONS)
        merged = cache.restore(donor.snapshot())
        assert merged == 1  # only b was new
        assert len(cache) == 2


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
    """``--workers 4`` fleet: worker-process counters surface through the
    ``stats`` verb both per worker (with pid) and as a key-wise aggregate,
    and they partition exactly — every parse happened in precisely one
    worker's mirror."""

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

    def test_aggregate_is_the_key_wise_sum_of_workers(self, service):
        service.open_workspace("w")
        service.sync_files("w", files=dict(self.FILES))
        service.apply("w", [self.SPEC])
        fleet = service.stats()["fleet"]
        per_worker = fleet["per_worker"]
        assert len(per_worker) == 4
        assert all(row["pid"] > 0 for row in per_worker)
        aggregate = fleet["aggregate"]
        # the workspace lives in exactly one worker's mirror
        assert aggregate["workspaces"] == 1
        for field in ("hits", "misses"):
            summed = sum(counters.get(field, 0)
                         for row in per_worker
                         for counters in row["parse_caches"].values())
            assert aggregate["parse_cache"][field] == summed
        # a cold apply parsed every file exactly once, in one worker
        assert aggregate["parse_cache"]["misses"] == len(self.FILES)
        memo_summed = sum(row["memo"].get("misses", 0) for row in per_worker)
        assert aggregate["memo"]["misses"] == memo_summed

    def test_warm_reapply_moves_hits_not_misses(self, service):
        service.open_workspace("w")
        service.sync_files("w", files=dict(self.FILES))
        service.apply("w", [self.SPEC])
        cold = service.stats()["fleet"]["aggregate"]
        payload = service.apply("w", [self.SPEC], profile=True)
        warm = service.stats()["fleet"]["aggregate"]
        # the replay was answered from warm state: not one new parse miss
        assert warm["parse_cache"]["misses"] == cold["parse_cache"]["misses"]
        assert warm["memo"]["misses"] == cold["memo"]["misses"]
        # and the profile names the worker that served it
        worker = payload["profile"]["fleet_worker"]
        assert worker["pid"] in {row["pid"] for row in
                                 service.stats()["fleet"]["per_worker"]}
