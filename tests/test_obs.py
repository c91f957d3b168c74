"""The observability layer: metrics registry, tracer, journal, sinks.

Covers the registry primitives (counter/gauge/histogram families,
scoped captures, Prometheus rendering), the contextvar span tracer
(including Chrome trace-event export and fork grafting), the sinks (JSONL
journal with rotation, the stdlib HTTP ``/metrics`` endpoint, the daemon's
``metrics`` verb), the per-request numbers every view reads from one
capture, and the soundness property everything hangs on: a run under an
active trace and capture is byte-identical to a run under neither.
"""

import json
import urllib.request

import pytest

from repro.obs import journal as journal_mod
from repro.obs import registry as registry_mod
from repro.obs import trace as trace_mod
from repro.obs.journal import Journal
from repro.obs.metrics_http import MetricsServer
from repro.obs.registry import (DEFAULT_BUCKETS, Capture, Histogram,
                                MetricsRegistry, merge_telemetry)


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_children_are_per_label_set(self):
        registry = MetricsRegistry()
        hits = registry.counter("t_total", "help", cache="tree")
        again = registry.counter("t_total", cache="tree")
        other = registry.counter("t_total", cache="shared")
        hits.inc()
        hits.inc(2)
        assert again is hits and other is not hits
        assert hits.value == 3 and other.value == 0

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.dec(2.0)
        assert gauge.value == 3.0

    def test_histogram_state_and_summary(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5):
            histogram.observe(value)
        state = histogram.state()
        assert state["counts"] == [2, 1, 1, 0]  # trailing +Inf bucket
        assert state["count"] == 4
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(0.56 / 4)
        assert summary["p50"] == 0.01  # 2 of 4 land in the first bucket

    def test_histogram_merge_state_adds_counts(self):
        first = Histogram(buckets=(0.01, 0.1))
        second = Histogram(buckets=(0.01, 0.1))
        first.observe(0.005)
        second.observe(0.05)
        second.observe(5.0)
        first.merge_state(second.state())
        state = first.state()
        assert state["count"] == 3 and state["counts"] == [1, 1, 1]


class TestPrometheusRendering:
    """The text exposition must be valid Prometheus 0.0.4: TYPE lines,
    cumulative ``le`` buckets ending at +Inf == _count, numeric samples."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("r_hits_total", "Hits", cache="tree").inc(3)
        histogram = registry.histogram("r_seconds", "Timing",
                                       buckets=(0.1, 1.0), phase="parse")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_families_carry_help_and_type(self):
        text = self._registry().render_prometheus()
        assert "# HELP r_hits_total Hits" in text
        assert "# TYPE r_hits_total counter" in text
        assert "# TYPE r_seconds histogram" in text
        assert 'r_hits_total{cache="tree"} 3' in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = self._registry().render_prometheus()
        buckets = [line for line in text.splitlines()
                   if line.startswith("r_seconds_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative, never decreasing
        assert 'le="+Inf"' in buckets[-1] and counts[-1] == 3
        assert 'r_seconds_count{phase="parse"} 3' in text

    def test_every_sample_line_parses(self):
        for line in self._registry().render_prometheus().splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # must be a plain number
            assert name_part[0].isalpha()


# ---------------------------------------------------------------------------
# spans and traces
# ---------------------------------------------------------------------------

class TestTracer:
    def test_no_trace_means_inactive_and_noop_spans(self):
        assert not trace_mod.tracing_active()
        assert trace_mod.current_trace_id() is None
        assert trace_mod.span("parse") is trace_mod.span("match")

    def test_spans_nest_under_the_active_trace(self):
        tracer = trace_mod.start_trace("root")
        try:
            assert trace_mod.tracing_active()
            with trace_mod.span("outer"):
                with trace_mod.span("inner"):
                    pass
        finally:
            root = tracer.finish()
        assert not trace_mod.tracing_active()
        payload = root.to_payload()
        assert payload["name"] == "root"
        outer = payload["children"][0]
        assert outer["name"] == "outer"
        assert outer["children"][0]["name"] == "inner"
        # nanosecond timings: a child never outlasts its parent
        inner = outer["children"][0]
        assert outer["start_ns"] <= inner["start_ns"]
        assert inner["end_ns"] <= outer["end_ns"]

    def test_trace_ids_are_unique_and_short(self):
        ids = {trace_mod.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)

    def test_graft_attaches_worker_payloads(self):
        tracer = trace_mod.start_trace("parent")
        try:
            child_tracer = trace_mod.start_trace("worker")
            with trace_mod.span("match"):
                pass
            worker_payload = child_tracer.finish().to_payload()
        finally:
            pass
        trace_mod.graft_payloads([worker_payload, None])
        root = tracer.finish()
        names = [c["name"] for c in root.to_payload()["children"]]
        assert "worker" in names

    def test_chrome_trace_events_shape(self):
        tracer = trace_mod.start_trace("run")
        with trace_mod.span("parse"):
            pass
        payload = tracer.finish().to_payload()
        events = trace_mod.chrome_trace_events(payload)
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float))
            assert event["dur"] >= 0
        json.dumps(events)  # must be JSON-serializable as-is

    def test_phase_records_span_only_under_a_trace(self):
        tracer = trace_mod.start_trace("spanned")
        with registry_mod.phase("match"):
            pass
        root = tracer.finish().to_payload()
        assert [c["name"] for c in root["children"]] == ["match"]


# ---------------------------------------------------------------------------
# scoped captures and fork-boundary merges
# ---------------------------------------------------------------------------

class TestTelemetryDeltas:
    def test_capture_sees_only_what_moved(self):
        counter = registry_mod.REGISTRY.counter("test_delta_total", "t")
        counter.inc(5)
        with Capture() as capture:
            counter.inc(3)
        assert capture.payload()["counters"]["test_delta_total"] == 3
        assert capture.total(counter) == 3

    def test_nested_capture_folds_into_the_enclosing_one(self):
        counter = registry_mod.REGISTRY.counter("test_nested_total", "t")
        with Capture() as outer:
            counter.inc()
            with Capture() as inner:
                counter.inc(2)
            counter.inc(4)
        assert inner.total(counter) == 2
        assert outer.total(counter) == 7

    def test_other_threads_stay_out(self):
        import threading

        counter = registry_mod.REGISTRY.counter("test_thread_total", "t")
        with Capture() as capture:
            counter.inc()
            thread = threading.Thread(target=counter.inc, args=(10,))
            thread.start()
            thread.join()
        assert capture.total(counter) == 1

    def test_total_sums_over_origins(self):
        counter = registry_mod.REGISTRY.counter("test_origin_total", "t",
                                                kind="x")
        before = registry_mod.REGISTRY.total(counter)
        with Capture() as capture:
            counter.inc(2)
            merge_telemetry({"counters": {'test_origin_total{kind="x"}': 5}},
                            origin="workers")
        assert capture.total(counter) == 7
        assert registry_mod.REGISTRY.total(counter) - before == 7
        assert capture.payload()["counters"] == {
            'test_origin_total{kind="x"}': 2,
            'test_origin_total{kind="x",origin="workers"}': 5}

    def test_accumulator_adds_finished_captures(self):
        counter = registry_mod.REGISTRY.counter("test_sum_total", "t")
        totals = Capture()
        for amount in (1, 2, 3):
            with Capture() as capture:
                counter.inc(amount)
            totals.add(capture)
        assert totals.total(counter) == 6

    def test_phases_summarize_only_this_capture(self):
        with registry_mod.phase("parse"):
            pass
        with Capture() as capture:
            with registry_mod.phase("parse"):
                pass
        assert capture.phases()["parse"]["count"] == 1
        assert set(capture.phases()) == {"parse"}

    def test_merge_lands_under_the_origin_label(self):
        merge_telemetry({"counters": {"test_merge_total": 4}},
                        origin="workers")
        child = registry_mod.REGISTRY.counter("test_merge_total",
                                              origin="workers")
        assert child.value >= 4

    def test_histogram_deltas_merge(self):
        histogram = registry_mod.REGISTRY.histogram(
            "test_hist_seconds", "t", buckets=(0.1, 1.0), phase="x")
        with Capture() as capture:
            histogram.observe(0.05)
        delta = capture.payload()
        assert delta["histograms"]['test_hist_seconds{phase="x"}'][
            "count"] == 1
        merge_telemetry(delta, origin="workers")
        merged = registry_mod.REGISTRY.histogram(
            "test_hist_seconds", buckets=(0.1, 1.0),
            phase="x", origin="workers")
        assert merged.state()["count"] == 1

    def test_forked_child_gets_free_locks(self):
        """A counter lock held by another thread at fork time must not
        deadlock the child's first increment (fork pools and respawned
        fleet workers fork while handler threads count)."""
        import os
        import signal

        counter = registry_mod.REGISTRY.counter("test_fork_total", "t")
        with counter._lock:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                signal.alarm(5)  # a deadlocked child dies instead of hanging
                counter.inc()
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_split_key_round_trip(self):
        name, labels = registry_mod._split_key('a_total{x="1",y="z"}')
        assert name == "a_total" and labels == {"x": "1", "y": "z"}
        assert registry_mod._split_key("bare") == ("bare", {})


# ---------------------------------------------------------------------------
# journal sink
# ---------------------------------------------------------------------------

class TestJournal:
    def test_events_are_one_sorted_json_line_each(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as journal:
            journal.emit("request", verb="apply", ok=True, skipped=None)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "request" and record["verb"] == "apply"
        assert "skipped" not in record  # None fields are dropped
        assert "ts" in record

    def test_rotation_bounds_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(str(path), max_bytes=4096)
        for index in range(200):
            journal.emit("event", index=index, pad="x" * 64)
        journal.close()
        assert path.stat().st_size <= 4096
        rotated = tmp_path / "j.jsonl.1"
        assert rotated.exists() and rotated.stat().st_size <= 4096
        # every surviving line is whole (rotation never tears a record)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_open_journal_none_for_unconfigured(self):
        assert journal_mod.open_journal(None) is None
        assert journal_mod.open_journal("") is None

    def test_unserializable_fields_drop_the_event_not_the_process(
            self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as journal:
            journal.emit("bad", payload=object())
            journal.emit("good")
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["good"]


# ---------------------------------------------------------------------------
# HTTP /metrics endpoint
# ---------------------------------------------------------------------------

class TestMetricsServer:
    def test_scrape_and_healthz(self):
        registry = MetricsRegistry()
        registry.counter("scrape_total", "Scrapes", kind="test").inc(2)
        server = MetricsServer("127.0.0.1:0", registry=registry).start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.status == 200
                assert "version=0.0.4" in response.headers["Content-Type"]
                text = response.read().decode()
            assert 'scrape_total{kind="test"} 2' in text
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            server.close()

    def test_bad_address_is_a_value_error(self):
        with pytest.raises(ValueError):
            MetricsServer("not-an-address")


# ---------------------------------------------------------------------------
# daemon integration: metrics verb, trace echo, request journal
# ---------------------------------------------------------------------------

class TestDaemonTelemetry:
    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.server.daemon import PatchDaemon
        from repro.server.service import PatchService

        daemon = PatchDaemon(f"unix:{tmp_path}/obs.sock", PatchService(),
                             metrics="127.0.0.1:0",
                             journal=str(tmp_path / "journal.jsonl"))
        daemon.serve_in_thread()
        yield daemon
        daemon.shutdown()
        daemon.close()

    def test_metrics_verb_and_http_scrape_agree(self, daemon, tmp_path):
        from repro.server.client import RemoteClient

        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_files("w", files={"a.c": "int main(){f();}\n"})
            client.apply("w", [{"kind": "smpl",
                                "text": "@r@ @@\n- f();\n+ g();\n"}])
            verb_payload = client.request("metrics")
        assert set(verb_payload) == {"snapshot", "phases", "prometheus"}
        assert "repro_service_workspaces" in verb_payload["prometheus"]
        url = f"http://{daemon.metrics_server.address}/metrics"
        scraped = urllib.request.urlopen(url).read().decode()
        assert "# TYPE repro_phase_seconds histogram" in scraped
        assert "repro_service_requests_total" in scraped

    def test_trace_echoed_in_success_and_error_envelopes(self, daemon):
        from repro.server.client import RemoteClient, RemoteError

        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            with pytest.raises(RemoteError) as excinfo:
                client.apply("no-such-workspace",
                             [{"kind": "cookbook", "name": "cuda_to_hip"}])
        assert excinfo.value.kind == "unknown-workspace"
        assert excinfo.value.trace  # the error envelope carries the id

    def test_journal_records_every_request_with_trace(self, daemon,
                                                      tmp_path):
        from repro.server.client import RemoteClient

        with RemoteClient(daemon.address) as client:
            client.ping()
            client.open_workspace("w")
        daemon.server.journal.close()
        events = [json.loads(line) for line in
                  (tmp_path / "journal.jsonl").read_text().splitlines()]
        verbs = [event["verb"] for event in events]
        assert "ping" in verbs and "open_workspace" in verbs
        assert all(event.get("trace") for event in events)
        assert all(event["ok"] for event in events)


# ---------------------------------------------------------------------------
# per-request numbers: every view of one request reads one capture
# ---------------------------------------------------------------------------

RENAME = {"kind": "smpl", "name": "rename",
          "text": "@r@ @@\n- old_api();\n+ new_api();\n"}


def _metric_total(service, family: str, **labels) -> int:
    """``family`` summed over every sample of the service's metrics
    snapshot (the ``/metrics`` surface) carrying ``labels`` — i.e. over
    every ``origin``."""
    samples = service.metrics()["snapshot"].get(family, {}).get("samples", {})
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return int(sum(value for suffix, value in samples.items()
                   if all(label in suffix for label in wanted)))


@pytest.fixture(params=[1, 2], ids=["in-process", "fleet"])
def service(request, tmp_path):
    from repro.server.service import PatchService

    service = PatchService(workers=request.param,
                           state_root=str(tmp_path / "state"))
    yield service
    service.close()


def _three_applies(service) -> list[tuple[str, dict]]:
    """Three profiled applies over two workspaces, one parse each:
    ``(workspace, profile)`` pairs."""
    for name, body in (("w1", "old_api();"), ("w2", "old_api(); x();")):
        service.open_workspace(name)
        service.sync_files(name, files={
            "a.c": f"void f(void) {{ {body} }}\n"})
    runs = [(name, service.apply(name, [RENAME], profile=True)["profile"])
            for name in ("w1", "w2")]
    service.sync_files("w1", files={
        "a.c": "void f(void) { y(); old_api(); }\n"})
    runs.append(("w1", service.apply("w1", [RENAME], profile=True)["profile"]))
    return runs


class TestPerRequestNumbers:
    def test_profiles_count_only_their_own_request(self, service):
        """Every response's phase count, parse-cache misses and stats agree
        on exactly that request's one parse (not a running total)."""
        for _name, profile in _three_applies(service):
            assert profile["phases"]["parse"]["count"] == \
                profile["parse_cache"]["misses"] == \
                profile["stats"]["cache_misses"] == 1

    def test_stats_are_the_sum_of_the_requests(self, service):
        """The ``stats`` verb's service sections sum every request's
        capture, and a workspace's parse cache sums that workspace's."""
        runs = _three_applies(service)
        stats = service.stats()
        for section, key in (("memo", "misses"), ("matcher", "match_calls")):
            assert stats[section][key] == \
                sum(profile[section][key] for _name, profile in runs) > 0
        if service.workers == 1:
            caches = {row["name"]: row["parse_cache"]
                      for row in stats["per_workspace"]}
        else:
            caches = {name: counters
                      for row in stats["fleet"]["per_worker"]
                      for name, counters in row["parse_caches"].items()}
        assert caches["w1"]["misses"] == 2 and caches["w2"]["misses"] == 1

    def test_fork_pool_phases_reach_the_run_profile(self, tmp_path, capsys):
        """A ``--jobs 2`` run's profile counts the parses its forked
        workers made, in the phases as in the stats."""
        from repro.cli.spatch import main as spatch_main

        for index in range(4):
            (tmp_path / f"f{index}.c").write_text(
                f"void f{index}(void) {{ old_api(); }}\n")
        cocci = tmp_path / "rename.cocci"
        cocci.write_text(RENAME["text"])
        spatch_main(["--json", "--profile", "--jobs", "2", "--no-prefilter",
                     "--sp-file", str(cocci), str(tmp_path)])
        profile = json.loads(capsys.readouterr().out)["profile"]
        assert profile["stats"]["jobs_used"] == 2
        assert profile["phases"]["parse"]["count"] == \
            profile["stats"]["cache_misses"] == 4

    def test_views_agree_with_the_metrics_endpoint(self, service):
        """For one apply: the profile's parse-cache misses and memo hits,
        the run's stats, and the movement of the registry series (summed
        over ``origin``) are the same numbers."""
        service.open_workspace("w")
        # two identical files: one real session and parse, one memo hit
        text = "void f(void) { old_api(); }\n"
        service.sync_files("w", files={"a.c": text, "b.c": text})
        misses0 = _metric_total(service, "repro_parse_cache_misses_total",
                                cache="tree")
        hits0 = _metric_total(service, "repro_memo_lookups_total",
                              result="hit")
        profile = service.apply("w", [RENAME], profile=True)["profile"]
        misses = _metric_total(service, "repro_parse_cache_misses_total",
                               cache="tree") - misses0
        hits = _metric_total(service, "repro_memo_lookups_total",
                             result="hit") - hits0
        assert profile["parse_cache"]["misses"] == \
            profile["stats"]["cache_misses"] == misses == 1
        assert profile["memo"]["hits"] == \
            profile["stats"]["memo_hits"] == hits == 1


# ---------------------------------------------------------------------------
# soundness: telemetry on vs. off is byte-identical
# ---------------------------------------------------------------------------

class TestTelemetryInertness:
    """The acceptance property: diffs, result payloads and exit codes are
    byte-identical between a run under an active trace and capture and a
    run under neither, over real cookbook workloads, serial and forked."""

    NAMES = ("cuda_to_hip", "kokkos_lambda", "acc_to_omp")

    def _payload_bytes(self, name: str, jobs: int = 1) -> str:
        from repro.server.protocol import dumps, result_payload
        from test_prefilter import COOKBOOK_WORKLOADS, _cookbook_patch

        patch = _cookbook_patch(name)
        result = patch.apply(COOKBOOK_WORKLOADS[name](), jobs=jobs)
        return dumps(result_payload(result, [patch], include_texts=True))

    def _observed_bytes(self, name: str, jobs: int = 1) -> str:
        tracer = trace_mod.start_trace("differential")
        try:
            with Capture() as capture:
                observed = self._payload_bytes(name, jobs)
        finally:
            tracer.finish()
        assert capture.counters  # the capture really recorded the run
        return observed

    @pytest.mark.parametrize("name", NAMES)
    def test_cookbook_payloads_match(self, name):
        assert self._observed_bytes(name) == self._payload_bytes(name)

    def test_fork_pool_payloads_match(self):
        assert self._observed_bytes("cuda_to_hip", jobs=2) == \
            self._payload_bytes("cuda_to_hip", jobs=2)
