"""Q3 — engine runtime vs workload size (code-base-wide application).

Besides the original runtime-vs-size sweeps, this file measures the
code-base-level optimisations: the required-token prefilter (files that
cannot match are answered without parsing), parallel application
(``jobs=N``) and whole-cookbook batch application (``PatchSet`` pipelines),
compared against the seed serial path (a cold-cache
``patch.apply(files, prefilter=False)``: no prefilter, no parallelism).

Setting ``REPRO_BENCH_QUICK=1`` runs a smoke-mode sweep: smaller patch sets
and no hard speedup thresholds, so CI can check the harness itself without
depending on the runner's timing behaviour.
"""

import gc
import os
import time
from dataclasses import dataclass

from repro import CodeBase, PatchSet, SemanticPatch
from repro.analysis import scaling_sweep
from repro.cookbook import (bloat_removal, cuda_hip, instrumentation, mdspan,
                            openacc_openmp, stl_modernize, unrolling)
from repro.engine.cache import DEFAULT_TREE_CACHE
from repro.obs import Capture
from repro.workloads import (cuda_app, gadget, openacc_app, openmp_kernels,
                             rawloops)
from conftest import emit

#: smoke mode for CI: exercise every measurement, assert only correctness
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def speedup_floor(normal: float) -> float:
    """Hard speedup thresholds only apply outside smoke mode."""
    return 0.0 if QUICK else normal


def test_q3_scaling_instrumentation(benchmark):
    def sweep():
        return scaling_sweep(
            instrumentation.likwid_patch,
            lambda size: openmp_kernels.generate(n_files=size, kernels_per_file=4,
                                                 regions_per_file=3, seed=1),
            sizes=[1, 2, 4, 8])

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # shape: matches grow with the workload and the runtime stays roughly
    # proportional to its size (no super-linear blow-up)
    assert rows[-1].matches > rows[0].matches
    assert rows[-1].workload_loc > 4 * rows[0].workload_loc
    per_loc = [r.seconds / r.workload_loc for r in rows]
    assert per_loc[-1] < per_loc[0] * 8
    emit("Q3a scaling (instrumentation over OpenMP kernels)",
         "runtime grows roughly linearly with the number of files/regions",
         rows, columns=["size_label", "files", "workload_loc", "matches", "seconds",
                        "loc_per_second"])


def test_q3_scaling_mdspan(benchmark):
    def sweep():
        return scaling_sweep(
            lambda: mdspan.multiindex_patch_for_arrays({"rho": 3, "phi": 3}),
            lambda size: gadget.generate(n_files=size, loops_per_file=3,
                                         grid_kernels_per_file=3, seed=1),
            sizes=[1, 2, 4])

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert rows[-1].matches > rows[0].matches
    emit("Q3b scaling (expression rewriting over GADGET-like grids)",
         "expression-level rules also scale with the code base",
         rows, columns=["size_label", "files", "workload_loc", "matches", "seconds",
                        "loc_per_second"])


# ---------------------------------------------------------------------------
# Q3c/Q3d — driver: prefilter skip-rate and parallel speedup
# ---------------------------------------------------------------------------

def mixed_workload(scale: int = 1) -> CodeBase:
    """A mixed HPC tree: a handful of CUDA drivers buried in a majority of
    unrelated OpenMP/GADGET/raw-loop/OpenACC sources (44 files at scale 1)."""
    files: dict[str, str] = {}
    parts = [
        ("cuda", cuda_app.generate(n_files=6 * scale, seed=1)),
        ("omp", openmp_kernels.generate(n_files=12 * scale, kernels_per_file=4,
                                        regions_per_file=3, seed=2)),
        ("gadget", gadget.generate(n_files=10 * scale, loops_per_file=4,
                                   grid_kernels_per_file=2, seed=3)),
        ("raw", rawloops.generate(n_files=8 * scale, seed=4)),
        ("acc", openacc_app.generate(n_files=6 * scale, seed=5)),
    ]
    for prefix, codebase in parts:
        for name, text in codebase.items():
            files[f"{prefix}/{name}"] = text
    return CodeBase.from_files(files)


@dataclass
class DriverRow:
    path: str
    files: int
    skipped: int
    matches: int
    seconds: float
    speedup_vs_seed: float


def _texts(result) -> dict[str, str]:
    return {name: fr.text for name, fr in result.files.items()}


def _seed_serial(patch, codebase):
    """The seed code path: serial, no prefilter, cold parse cache."""
    DEFAULT_TREE_CACHE.clear()
    started = time.perf_counter()
    result = patch.apply(codebase.files, prefilter=False)
    return result, time.perf_counter() - started


def _driver_run(patch, codebase, *, jobs, prefilter):
    DEFAULT_TREE_CACHE.clear()  # no warm-cache advantage over the seed path
    started = time.perf_counter()
    result = patch.apply(codebase, jobs=jobs, prefilter=prefilter)
    return result, time.perf_counter() - started


def test_q3_prefilter_parallel_speedup(benchmark):
    """Acceptance: >= 2x wall clock vs the seed serial path when applying a
    single-target cookbook patch (the CUDA->HIP kernel-launch rewrite) to a
    40+ file mixed workload with jobs=4 + prefilter, identical outputs."""
    codebase = mixed_workload(scale=1)
    assert len(codebase) >= 40
    patch = cuda_hip.kernel_launch_patch()

    def compare():
        seed_result, seed_seconds = _seed_serial(patch, codebase)
        fast_result, fast_seconds = _driver_run(patch, codebase,
                                                jobs=4, prefilter=True)
        return seed_result, seed_seconds, fast_result, fast_seconds

    seed_result, seed_seconds, fast_result, fast_seconds = \
        benchmark.pedantic(compare, rounds=1, iterations=1)

    assert _texts(fast_result) == _texts(seed_result)  # byte-identical
    assert fast_result.total_matches == seed_result.total_matches > 0
    speedup = seed_seconds / fast_seconds
    assert speedup >= speedup_floor(2.0), \
        f"expected >= 2x, measured {speedup:.2f}x"
    stats = fast_result.stats
    assert stats.files_skipped >= len(codebase) // 2  # prefilter pulls weight

    rows = [
        DriverRow("seed serial", len(codebase), 0,
                  seed_result.total_matches, seed_seconds, 1.0),
        DriverRow("jobs=4 + prefilter", len(codebase), stats.files_skipped,
                  fast_result.total_matches, fast_seconds, speedup),
    ]
    emit("Q3c driver speedup (CUDA kernel-launch patch over a mixed tree)",
         "prefilter + parallel jobs beat the seed serial engine >= 2x "
         "with byte-identical output",
         rows, columns=["path", "files", "skipped", "matches", "seconds",
                        "speedup_vs_seed"])


def test_q3_prefilter_skip_rate(benchmark):
    """Skip-rate of the prefilter across representative cookbook patches on
    the same mixed tree (how much of the code base is never parsed)."""
    codebase = mixed_workload(scale=1)
    patches = {
        "cuda kernel-launch": cuda_hip.kernel_launch_patch(),
        "likwid instrumentation": instrumentation.likwid_patch(),
        "cuda_to_hip (full)": cuda_hip.cuda_to_hip_patch(),
    }

    def measure():
        rows = []
        for label, patch in patches.items():
            seed_result, seed_seconds = _seed_serial(patch, codebase)
            fast_result, fast_seconds = _driver_run(patch, codebase,
                                                    jobs=1, prefilter=True)
            assert _texts(fast_result) == _texts(seed_result)
            rows.append(DriverRow(label, len(codebase),
                                  fast_result.stats.files_skipped,
                                  fast_result.total_matches, fast_seconds,
                                  seed_seconds / fast_seconds))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    by_label = {row.path: row for row in rows}
    # single-target patches skip most of the tree; the full CUDA->HIP chain
    # contains an unfilterable match-any-call rule, so it cannot skip files
    assert by_label["cuda kernel-launch"].skipped >= len(codebase) // 2
    assert by_label["likwid instrumentation"].skipped > 0
    assert by_label["cuda_to_hip (full)"].skipped == 0
    emit("Q3d prefilter skip-rate (mixed tree, 44 files)",
         "files answered without parsing, per patch; outputs stay identical",
         rows, columns=["path", "files", "skipped", "matches", "seconds",
                        "speedup_vs_seed"])


# ---------------------------------------------------------------------------
# Q3e — PatchSet pipeline vs N sequential applies
# ---------------------------------------------------------------------------

def modernization_patches() -> list:
    """The selective 'single-target' half of the cookbook: each patch only
    concerns one corner of the mixed tree, which is exactly the regime batch
    application was built for (the prefilter union gates most file x patch
    pairs, and surviving files share one parse across patch boundaries)."""
    patches = [
        cuda_hip.kernel_launch_patch(),
        instrumentation.likwid_patch(),
        openacc_openmp.acc_to_omp_patch(),
        stl_modernize.raw_loop_to_find_patch(),
        bloat_removal.remove_obsolete_clones(),
        unrolling.reroll_patch_p0(),
    ]
    return patches[:3] if QUICK else patches


@dataclass
class PipelineRow:
    path: str
    passes: int
    sessions: int
    matches: int
    seconds: float
    speedup_vs_path: float


def test_q3_pipeline_vs_sequential_applies(benchmark):
    """Acceptance: PatchSet batch application of the modernization patches is
    >= 1.5x faster than chaining one full pass per patch (the pre-pipeline
    workflow: each ``apply`` token-scans the tree and parses from cold, as N
    independent spatch invocations would), with byte-identical output.
    Against N *prefiltered* in-process applies the bound is parity: matching
    work dominates there and is identical by construction, so the pipeline
    can only save the repeated scans/parses (measured ~1.1x)."""
    codebase = mixed_workload(scale=1)
    patches = modernization_patches()

    def seed_sequential():
        """One full seed pass per patch (serial engine, no prefilter)."""
        current = dict(codebase.files)
        for patch in patches:
            DEFAULT_TREE_CACHE.clear()
            result = patch.apply(current, prefilter=False)
            current = {name: fr.text for name, fr in result.files.items()}
        return current

    def prefiltered_sequential():
        """N independent prefiltered applies chained through transform()."""
        current = codebase
        total_matches = 0
        for patch in patches:
            DEFAULT_TREE_CACHE.clear()
            result = patch.apply(current, jobs=1, prefilter=True)
            total_matches += result.total_matches
            current = CodeBase(files={name: fr.text
                                      for name, fr in result.files.items()})
        return current, total_matches

    def pipeline():
        DEFAULT_TREE_CACHE.clear()
        return PatchSet(patches).apply(codebase, jobs=1, prefilter=True)

    def compare():
        pipeline()  # warm-up: imports and compiled regexes out of the timings
        started = time.perf_counter()
        seed_final = seed_sequential()
        seed_seconds = time.perf_counter() - started
        started = time.perf_counter()
        seq_final, seq_matches = prefiltered_sequential()
        seq_seconds = time.perf_counter() - started
        started = time.perf_counter()
        pipe_result = pipeline()
        pipe_seconds = time.perf_counter() - started
        return (seed_final, seed_seconds, seq_final, seq_matches, seq_seconds,
                pipe_result, pipe_seconds)

    (seed_final, seed_seconds, seq_final, seq_matches, seq_seconds,
     pipe_result, pipe_seconds) = benchmark.pedantic(compare, rounds=1,
                                                     iterations=1)

    # byte-identical to both sequential compositions, same total match count
    assert _texts(pipe_result) == seq_final.files == seed_final
    assert pipe_result.total_matches == seq_matches > 0

    seed_speedup = seed_seconds / pipe_seconds
    seq_speedup = seq_seconds / pipe_seconds
    assert seed_speedup >= speedup_floor(1.5), \
        f"expected >= 1.5x vs seed passes, measured {seed_speedup:.2f}x"
    assert seq_speedup >= speedup_floor(0.9), \
        f"pipeline must not lose to sequential applies ({seq_speedup:.2f}x)"

    stats = pipe_result.stats
    # the union prefilter does real gating: most file x patch sessions skipped
    if not QUICK:
        assert stats.sessions_gated > stats.sessions_run

    n = len(patches)
    rows = [
        PipelineRow(f"{n} seed full passes", n, n * len(codebase),
                    pipe_result.total_matches, seed_seconds, seed_speedup),
        PipelineRow(f"{n} prefiltered applies", n, stats.sessions_run,
                    seq_matches, seq_seconds, seq_speedup),
        PipelineRow("PatchSet pipeline", 1, stats.sessions_run,
                    pipe_result.total_matches, pipe_seconds, 1.0),
    ]
    emit("Q3e batch application (modernization patches over the mixed tree)",
         "one pipeline pass beats one-full-pass-per-patch >= 1.5x and stays "
         "at parity with prefiltered sequential applies (whose matching "
         "work it shares by construction), byte-identical output",
         rows, columns=["path", "passes", "sessions", "matches", "seconds",
                        "speedup_vs_path"])


# ---------------------------------------------------------------------------
# Q3f — incremental re-application after a 1-file edit
# ---------------------------------------------------------------------------

@dataclass
class IncrementalRow:
    path: str
    files: int
    rerun: int
    reused: int
    matches: int
    seconds: float
    speedup_vs_cold: float


def test_q3f_incremental_one_file_edit(benchmark):
    """Acceptance: after editing 1 of 44 files, re-applying the
    modernization patch set with ``since=prior_result`` beats a cold
    pipeline pass >= 5x, with byte-identical texts and reports."""
    codebase = mixed_workload(scale=1)
    patches = modernization_patches()
    patchset = PatchSet(patches)

    edited_name = next(name for name in sorted(codebase) if
                       name.startswith("omp/"))
    edited_files = dict(codebase.files)
    edited_files[edited_name] += ("\nvoid q3f_probe(int n) {\n"
                                  "#pragma omp parallel\n"
                                  "{\nint probe = n;\n}\n"
                                  "}\n")

    def compare():
        DEFAULT_TREE_CACHE.clear()
        prior = patchset.apply(codebase, jobs=1, prefilter=True)
        # cold re-run over the edited tree (its own CodeBase: no shared
        # token-index warm-up between the contenders)
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        cold = patchset.apply(CodeBase.from_files(edited_files),
                              jobs=1, prefilter=True)
        cold_seconds = time.perf_counter() - started
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        incremental = patchset.apply(CodeBase.from_files(edited_files),
                                     jobs=1, prefilter=True, since=prior)
        incremental_seconds = time.perf_counter() - started
        return cold, cold_seconds, incremental, incremental_seconds

    cold, cold_seconds, incremental, incremental_seconds = \
        benchmark.pedantic(compare, rounds=1, iterations=1)

    # byte-identical to the cold pass, and the delta was really 1 file
    assert _texts(incremental) == _texts(cold)
    assert incremental.total_matches == cold.total_matches > 0
    stats = incremental.incremental
    assert stats.fallback is None
    assert stats.files_rerun == 1
    assert stats.files_reused == len(codebase) - 1

    speedup = cold_seconds / incremental_seconds
    assert speedup >= speedup_floor(5.0), \
        f"expected >= 5x, measured {speedup:.2f}x"

    rows = [
        IncrementalRow("cold pipeline pass", len(codebase), len(codebase), 0,
                       cold.total_matches, cold_seconds, 1.0),
        IncrementalRow("incremental (1 file edited)", len(codebase),
                       stats.files_rerun, stats.files_reused,
                       incremental.total_matches, incremental_seconds,
                       speedup),
    ]
    emit("Q3f incremental re-application (1 edited file in the mixed tree)",
         "re-running only the content-changed file and splicing the other "
         "43 cached results beats a cold pipeline pass >= 5x, "
         "byte-identical output",
         rows, columns=["path", "files", "rerun", "reused", "matches",
                        "seconds", "speedup_vs_cold"])


# ---------------------------------------------------------------------------
# Q3g — patch-set delta: append 1 patch to the warm 12-patch cookbook
# ---------------------------------------------------------------------------

#: the appended 13th patch: rewrites a call the OpenMP regions of the mixed
#: tree really contain, so the suffix replay does genuine matching work
Q3G_APPENDED_SMPL = ("@q3g_probe@ @@\n"
                     "- omp_get_thread_num()\n"
                     "+ repro_thread_id()\n")


@dataclass
class PatchDeltaRow:
    path: str
    patches: int
    patches_from_memo: int
    memo_hits: int
    matches: int
    seconds: float
    speedup_vs_cold: float


def test_q3g_append_patch_to_warm_cookbook(benchmark):
    """Acceptance: appending 1 patch to the 12-patch full_modernization
    cookbook with a warm transform memo answers every base patch's sessions
    from the memo and runs only the new patch — >= 3x faster than a cold
    13-patch pass, byte-identical texts, reports and records (the
    cookbook-authoring loop the paper's workflow implies: iterate on the
    patch list against a fixed tree)."""
    from repro.cookbook import full_modernization_pipeline
    from repro.engine.memo import TransformMemo

    codebase = mixed_workload(scale=1)
    base = full_modernization_pipeline(mdspan_arrays={"rho": 3, "phi": 3})
    base_patches = list(base) if not QUICK else list(base)[:4]
    appended = SemanticPatch.from_string(Q3G_APPENDED_SMPL, name="q3g-probe")
    warm_set = PatchSet(base_patches)
    extended = PatchSet(base_patches + [appended])

    def compare():
        # the warm state: the cookbook was applied, into the memo, before
        # the append
        memo = TransformMemo()
        DEFAULT_TREE_CACHE.clear()
        prior = warm_set.apply(codebase, jobs=1, prefilter=True, memo=memo)
        # cold 13-patch pass over its own CodeBase (fresh token index)
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        cold = extended.apply(CodeBase.from_files(dict(codebase.files)),
                              jobs=1, prefilter=True)
        cold_seconds = time.perf_counter() - started
        # warm append: the memo answers the 12 base patches, only the new
        # patch runs
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        warm = extended.apply(CodeBase.from_files(dict(codebase.files)),
                              jobs=1, prefilter=True, since=prior, memo=memo)
        warm_seconds = time.perf_counter() - started
        return prior, cold, cold_seconds, warm, warm_seconds

    prior, cold, cold_seconds, warm, warm_seconds = \
        benchmark.pedantic(compare, rounds=1, iterations=1)

    # byte-identical, and the reuse really covered every base session
    assert _texts(warm) == _texts(cold)
    assert warm.total_matches == cold.total_matches > 0
    assert warm.records == cold.records
    assert warm.incremental.patches_total == len(base_patches) + 1
    base_sessions = prior.stats.sessions_run
    new_sessions = cold.stats.sessions_run - base_sessions
    assert warm.stats.memo_hits == base_sessions
    assert warm.stats.memo_misses == new_sessions > 0
    assert warm.impure_patches == []
    # the appended patch did real work (it matches the OpenMP regions)
    assert cold.per_patch[-1].total_matches > 0

    speedup = cold_seconds / warm_seconds
    assert speedup >= speedup_floor(3.0), \
        f"expected >= 3x, measured {speedup:.2f}x"

    n = len(base_patches) + 1
    rows = [
        PatchDeltaRow(f"cold {n}-patch pass", n, 0, 0,
                      cold.total_matches, cold_seconds, 1.0),
        PatchDeltaRow("append-1 warm re-apply", n, len(base_patches),
                      warm.stats.memo_hits, warm.total_matches, warm_seconds,
                      speedup),
    ]
    emit("Q3g patch-set delta (append 1 patch to the warm cookbook)",
         "answering the unchanged 12 patches from the transform memo and "
         "running only the appended patch beats a cold 13-patch pass >= 3x, "
         "byte-identical output",
         rows, columns=["path", "patches", "patches_from_memo", "memo_hits",
                        "matches", "seconds", "speedup_vs_cold"])


# ---------------------------------------------------------------------------
# Q3h — warm server request vs a cold CLI process
# ---------------------------------------------------------------------------

@dataclass
class ServerRow:
    path: str
    files: int
    rerun: int
    matches: int
    seconds: float
    speedup_vs_cold: float


@dataclass
class ThroughputRow:
    clients: int
    requests: int
    seconds: float
    requests_per_second: float


def _edit_probe(text: str) -> str:
    return text + ("\nvoid q3h_probe(int n) {\n#pragma omp parallel\n"
                   "{\nint probe = n;\n}\n}\n")


def test_q3h_server_vs_cold_cli(benchmark, tmp_path):
    """Acceptance: the steady-state server workflow — 1-file edit, delta
    sync, warm apply of the 12-patch cookbook over the 44-file mixed tree —
    is >= 5x faster end-to-end (client-observed) than spawning a cold
    ``repro-spatch`` process for the same work, with byte-identical diffs
    and exit codes; server results are also byte-identical across
    prefilter on/off.  Plus a multi-client throughput curve against the
    warm workspace."""
    import json
    import pathlib
    import subprocess
    import sys
    import threading

    import repro
    from repro.cookbook import full_modernization_pipeline
    from repro.server.client import RemoteClient
    from repro.server.daemon import PatchDaemon
    from repro.server.service import PatchService

    codebase = mixed_workload(scale=1)
    patches = list(full_modernization_pipeline(mdspan_arrays={"rho": 3,
                                                              "phi": 3}))
    if QUICK:
        patches = patches[:4]
    tree = tmp_path / "tree"
    codebase.write_to(tree)
    patch_args: list[str] = []
    for index, patch in enumerate(patches):
        assert patch.ast.source_text, "cookbook patches carry SMPL source"
        sp_file = tmp_path / f"p{index:02d}.cocci"
        sp_file.write_text(patch.ast.source_text)
        patch_args += ["--sp-file", str(sp_file)]
    cli_env = dict(os.environ)
    cli_env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(repro.__file__).parent.parent),
         cli_env.get("PYTHONPATH", "")]).rstrip(os.pathsep)

    def cold_cli() -> "tuple[str, int, float]":
        """One full cold process: interpreter + imports + SMPL parse +
        whole-tree application — what every request costs without a
        daemon.  Runs with cwd=tree and target '.' so file names match the
        server workspace's relative names exactly."""
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli.spatch", *patch_args, "."],
            cwd=tree, env=cli_env, capture_output=True, text=True)
        seconds = time.perf_counter() - started
        assert proc.returncode in (0, 1), proc.stderr
        return proc.stdout, proc.returncode, seconds

    daemon = PatchDaemon(f"unix:{tmp_path}/bench.sock", PatchService())
    daemon.serve_in_thread()
    try:
        def measure():
            with RemoteClient(daemon.address) as client:
                client.open_workspace("bench")
                client.sync_codebase("bench", CodeBase.from_dir(tree))
                client.apply("bench", patches)  # warm the workspace

                # the steady-state request: edit 1 file, delta-sync, apply
                edited = sorted(name for name in codebase
                                if name.startswith("omp/"))[0]
                (tree / edited).write_text(
                    _edit_probe((tree / edited).read_text()))
                current = CodeBase.from_dir(tree)
                started = time.perf_counter()
                delta = client.sync_codebase("bench", current)
                payload = client.apply("bench", patches, profile=True)
                warm_seconds = time.perf_counter() - started

                cli_out, cli_status, cold_seconds = cold_cli()

                throughput = []
                for n_clients in (1, 2, 4):
                    barrier = threading.Barrier(n_clients)
                    done = []

                    def worker():
                        with RemoteClient(daemon.address) as mine:
                            barrier.wait()
                            for _ in range(3):
                                done.append(mine.query("bench", patches))

                    workers = [threading.Thread(target=worker)
                               for _ in range(n_clients)]
                    started = time.perf_counter()
                    for thread in workers:
                        thread.start()
                    for thread in workers:
                        thread.join()
                    seconds = time.perf_counter() - started
                    assert len(done) == 3 * n_clients
                    throughput.append(ThroughputRow(
                        n_clients, len(done), seconds,
                        len(done) / seconds if seconds else 0.0))

                # prefilter off on the same workspace: identical bytes
                # (runs last — it stores a prefilter=False result, which
                # would cool the warm state the throughput loop measures)
                off = client.apply("bench", patches, prefilter=False)
            return (delta, payload, warm_seconds, cli_out, cli_status,
                    cold_seconds, off, throughput)

        (delta, payload, warm_seconds, cli_out, cli_status, cold_seconds,
         off, throughput) = benchmark.pedantic(measure, rounds=1,
                                               iterations=1)
    finally:
        daemon.shutdown()

    # the delta really was one file, spliced against warm state
    assert delta["uploaded"] == 1
    incremental = payload["profile"]["incremental"]
    assert incremental["fallback"] is None
    assert incremental["files_rerun"] == 1
    assert incremental["files_reused"] == len(codebase) - 1

    # byte-identical to the cold CLI process: same diffs, same exit code
    server_diff = "".join(entry.get("diff", "")
                          for entry in payload["files"].values())
    assert server_diff == cli_out
    assert payload["exit_status"] == cli_status == 0

    # prefilter on/off: identical texts, reports, exit codes
    deterministic = {key: value for key, value in payload.items()
                     if key not in ("profile", "workspace")}
    off_deterministic = {key: value for key, value in off.items()
                         if key not in ("profile", "workspace")}
    assert json.dumps(deterministic, sort_keys=True) \
        == json.dumps(off_deterministic, sort_keys=True)

    speedup = cold_seconds / warm_seconds
    assert speedup >= speedup_floor(5.0), \
        f"expected >= 5x, measured {speedup:.2f}x"

    rows = [
        ServerRow("cold repro-spatch process", len(codebase), len(codebase),
                  payload["summary"]["matches"], cold_seconds, 1.0),
        ServerRow("warm server request (sync+apply)", len(codebase), 1,
                  payload["summary"]["matches"], warm_seconds, speedup),
    ]
    emit("Q3h server mode (1-file edit against the warm 12-patch cookbook)",
         "a steady-state daemon request — content-hash delta sync plus a "
         "spliced incremental apply — beats spawning a cold CLI process "
         ">= 5x end-to-end, byte-identical diffs and exit codes",
         rows, columns=["path", "files", "rerun", "matches", "seconds",
                        "speedup_vs_cold"])
    emit("Q3h multi-client throughput (warm workspace, match-only queries)",
         "request throughput as concurrent clients stack onto one warm "
         "workspace (per-workspace locking serializes applies; the curve "
         "shows the saturation point)",
         throughput, columns=["clients", "requests", "seconds",
                              "requests_per_second"])


# ---------------------------------------------------------------------------
# Q3i — compiled matcher backend vs the interpreted reference
# ---------------------------------------------------------------------------

@dataclass
class MatcherRow:
    backend: str
    rules: int
    files: int
    pairs: int
    matches: int
    seconds: float
    speedup_vs_interp: float


def test_q3i_compiled_matcher_vs_interpreter(benchmark):
    """Acceptance: a cold matching pass of the whole cookbook's rules over
    the 44-file mixed tree — every (rule, file) pair, compilation and the
    candidate-index walks included in the compiled timing — is >= 5x
    faster with the compiled backend, with identical match signatures pair
    by pair and byte-identical end-to-end pipeline output.

    The grid isolates the matcher: both backends consume the same parsed
    trees, so parse time (which re-parse-after-edit makes the bulk of a
    full pipeline pass and which is byte-for-byte the same work in both
    backends) cannot dilute the comparison.
    """
    from repro.cookbook import full_modernization_pipeline
    from repro.engine.compile import CompiledRule
    from repro.engine.matcher import Matcher
    from repro.lang.parser import parse_source

    codebase = mixed_workload(scale=1)
    patches = list(full_modernization_pipeline())
    if QUICK:
        patches = patches[:4]
    rules = [(patch, rule) for patch in patches
             for rule in patch.ast.patch_rules()]
    trees = {name: parse_source(text, name=name, options=patches[0].options,
                                tolerant=True)
             for name, text in codebase.files.items()}
    rounds = 1 if QUICK else 5

    def interp_pass():
        gc.collect()
        started = time.perf_counter()
        signatures = []
        for patch, rule in rules:
            matcher_options = patch.options
            for name, tree in trees.items():
                found = Matcher(rule, tree,
                                options=matcher_options).match_all()
                signatures.append((rule.name, name,
                                   [inst.signature() for inst in found]))
        return signatures, time.perf_counter() - started

    def compiled_pass():
        # cold: recompile every rule and rebuild every candidate index
        for tree in trees.values():
            if hasattr(tree, "_node_index"):
                del tree._node_index
        gc.collect()
        started = time.perf_counter()
        signatures = []
        for patch, rule in rules:
            crule = CompiledRule(rule, patch.options)
            for name, tree in trees.items():
                found = crule.match_all(tree)
                signatures.append((rule.name, name,
                                   [inst.signature() for inst in found]))
        return signatures, time.perf_counter() - started

    def compare():
        interp_pass()          # warm-up: imports and caches out of timings
        compiled_pass()
        interp_runs = [interp_pass() for _ in range(rounds)]
        compiled_runs = [compiled_pass() for _ in range(rounds)]
        return interp_runs, compiled_runs

    interp_runs, compiled_runs = benchmark.pedantic(compare, rounds=1,
                                                    iterations=1)

    # signature-identical, pair by pair, on every run of both backends
    reference = interp_runs[0][0]
    for signatures, _seconds in interp_runs + compiled_runs:
        assert signatures == reference
    matches = sum(len(sigs) for _rule, _file, sigs in reference)

    # byte-identical end-to-end output (the full pipeline, both backends)
    interp_result = PatchSet(patches).apply(mixed_workload(scale=1),
                                            compile=False)
    compiled_result = PatchSet(patches).apply(mixed_workload(scale=1),
                                              compile=True)
    assert _texts(compiled_result) == _texts(interp_result)

    # min-of-rounds: the noise-robust per-backend estimate (a slow outlier
    # round says something about the machine, not the backend)
    interp_seconds = min(seconds for _s, seconds in interp_runs)
    compiled_seconds = min(seconds for _s, seconds in compiled_runs)
    speedup = interp_seconds / compiled_seconds
    assert speedup >= speedup_floor(5.0), \
        f"expected >= 5x, measured {speedup:.2f}x"

    rows = [
        MatcherRow("interpreted reference", len(rules), len(trees),
                   len(rules) * len(trees), matches, interp_seconds, 1.0),
        MatcherRow("compiled (cold: compile + index + match)", len(rules),
                   len(trees), len(rules) * len(trees), matches,
                   compiled_seconds, speedup),
    ]
    emit("Q3i compiled matcher backend (cookbook rules x mixed tree)",
         "per-rule specialized matchers over shared candidate indexes beat "
         "the interpreted reference >= 5x on a cold matching pass, with "
         "identical match signatures and byte-identical pipeline output",
         rows, columns=["backend", "rules", "files", "pairs", "matches",
                        "seconds", "speedup_vs_interp"])


# ---------------------------------------------------------------------------
# Q3j — transform memo: duplicated vendored trees and fresh-process warm-start
# ---------------------------------------------------------------------------

#: vendored copies of the mixed tree (the monorepo pattern the memo targets:
#: byte-identical sources under several prefixes)
Q3J_VENDOR_COPIES = 3


@dataclass
class MemoRow:
    path: str
    files: int
    memo_hits: int
    matches: int
    seconds: float
    speedup_vs_cold: float


def vendored_workload(copies: int = Q3J_VENDOR_COPIES) -> CodeBase:
    """The mixed tree vendored ``copies`` times — identical contents under
    ``vendor{k}/`` prefixes, as a monorepo carrying the same third-party
    sources in several places does."""
    base = mixed_workload(scale=1)
    files = {f"vendor{index}/{name}": text
             for index in range(copies)
             for name, text in base.files.items()}
    return CodeBase.from_files(files)


def test_q3j_transform_memo(benchmark, tmp_path):
    """Acceptance: with a warm transform memo, re-applying the modernization
    patches over the vendored tree is >= 5x faster than a cold pass — and a
    *fresh-process* warm start (a brand-new memo instance over the same
    ``--memo-dir``, nothing but the on-disk tier) clears the same bar —
    byte-identical texts both ways.  The memo answers every session from
    content, so both the duplicate-heavy tree (one transform per unique
    text, not per file) and the restarted process (entry files instead of
    re-transforms) collapse to hash-lookup cost."""
    from repro.engine.memo import TransformMemo

    codebase = vendored_workload()
    patches = modernization_patches()
    patchset = PatchSet(patches)
    memo_dir = tmp_path / "memo"

    def compare():
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        cold = patchset.apply(codebase, jobs=1, prefilter=True)
        cold_seconds = time.perf_counter() - started

        memo = TransformMemo(path=memo_dir)
        DEFAULT_TREE_CACHE.clear()
        patchset.apply(codebase, jobs=1, prefilter=True, memo=memo)  # fill
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        warm = patchset.apply(codebase, jobs=1, prefilter=True, memo=memo)
        warm_seconds = time.perf_counter() - started

        # a brand-new instance over the same directory: what a restarted
        # process (spatch --memo-dir / a rebooted daemon) starts from
        fresh = TransformMemo(path=memo_dir)
        DEFAULT_TREE_CACHE.clear()
        started = time.perf_counter()
        with Capture() as counts:
            restarted = patchset.apply(codebase, jobs=1, prefilter=True,
                                       memo=fresh)
        fresh_seconds = time.perf_counter() - started
        return (cold, cold_seconds, warm, warm_seconds, restarted,
                fresh_seconds, fresh.counters(counts)["disk_hits"])

    (cold, cold_seconds, warm, warm_seconds, restarted, fresh_seconds,
     disk_hits) = benchmark.pedantic(compare, rounds=1, iterations=1)

    # byte-identical both ways, and the warm runs never ran a real session
    assert _texts(warm) == _texts(cold)
    assert _texts(restarted) == _texts(cold)
    assert warm.total_matches == restarted.total_matches \
        == cold.total_matches > 0
    assert warm.stats.memo_misses == 0
    assert restarted.stats.memo_misses == 0
    assert disk_hits > 0  # the restart really came off the disk tier
    assert warm.stats.sessions_run == cold.stats.sessions_run

    warm_speedup = cold_seconds / warm_seconds
    fresh_speedup = cold_seconds / fresh_seconds
    assert warm_speedup >= speedup_floor(5.0), \
        f"expected >= 5x warm, measured {warm_speedup:.2f}x"
    assert fresh_speedup >= speedup_floor(5.0), \
        f"expected >= 5x from disk, measured {fresh_speedup:.2f}x"

    rows = [
        MemoRow("cold pipeline pass", len(codebase), 0,
                cold.total_matches, cold_seconds, 1.0),
        MemoRow("warm memo (memory tier)", len(codebase),
                warm.stats.memo_hits, warm.total_matches, warm_seconds,
                warm_speedup),
        MemoRow("fresh process (--memo-dir disk tier)", len(codebase),
                restarted.stats.memo_hits, restarted.total_matches,
                fresh_seconds, fresh_speedup),
    ]
    emit("Q3j transform memo (vendored mixed tree, modernization patches)",
         "a warm content-addressed memo answers every session without "
         "parsing >= 5x faster than cold, and a fresh process warm-starts "
         "off the --memo-dir entry files to the same bar, byte-identical "
         "output",
         rows, columns=["path", "files", "memo_hits", "matches", "seconds",
                        "speedup_vs_cold"])


# ---------------------------------------------------------------------------
# Q3k — apply-fleet saturation: 64 clients across sharded workspaces
# ---------------------------------------------------------------------------

@dataclass
class FleetRow:
    config: str
    clients: int
    workspaces: int
    applies: int
    seconds: float
    speedup_vs_one: float


def _q3k_states(n_workspaces: int, files_per_ws: int):
    """Per-workspace A/B file states.  Contents are *unique per workspace*
    (the function names carry the workspace index) so the shared transform
    memo cannot answer one workspace's applies with another's sessions —
    the comparison must measure apply execution, not memo cross-talk."""
    states = {}
    for ws in range(n_workspaces):
        state_a = {
            f"k{index}.c":
                ("void k%d_%d(void) {\n"
                 "  for (int i = 0; i < 64; ++i) { old(); use(i); }\n"
                 "}\n") % (ws, index)
            for index in range(files_per_ws)}
        state_b = {name: text + ("void extra_%d(void) { old(); }\n" % ws)
                   for name, text in state_a.items()}
        states[f"q3k-{ws}"] = (state_a, state_b)
    return states


def test_q3k_fleet_saturation(benchmark, tmp_path):
    """Acceptance: 64 concurrent clients hammering sharded workspaces
    through real sockets — every apply byte-identical to its serial
    reference under both configurations, and (on a >= 8-CPU host, outside
    smoke mode) ``--workers 8`` sustains >= 3x the end-to-end throughput
    of ``--workers 1``: the fleet moves applies onto N CPUs while the
    single-process daemon serializes them behind one GIL."""
    import json as json_mod
    import threading

    from repro.server.client import RemoteClient
    from repro.server.daemon import PatchDaemon
    from repro.server.protocol import result_payload
    from repro.server.service import PatchService

    n_clients = 8 if QUICK else 64
    n_workspaces = 4 if QUICK else 8
    files_per_ws = 2 if QUICK else 4
    rounds = 2
    fleet_workers = 2 if QUICK else 8
    rename = "@r@ @@\n- old();\n+ new_call();\n"
    spec = {"kind": "smpl", "name": "q3k", "text": rename}
    patch = SemanticPatch.from_string(rename, name="q3k")
    states = _q3k_states(n_workspaces, files_per_ws)

    def canonical(payload):
        trimmed = {key: value for key, value in payload.items()
                   if key not in ("profile", "workspace")}
        return json_mod.dumps(trimmed, sort_keys=True)

    # serial references: each workspace state applied locally, once
    references = {
        name: {canonical(result_payload(
            PatchSet([patch]).apply(CodeBase.from_files(state)), [patch]))
            for state in pair}
        for name, pair in states.items()}

    def run_config(workers: int, label: str):
        service = PatchService(workers=workers)
        daemon = PatchDaemon(f"unix:{tmp_path}/{label}.sock", service)
        daemon.serve_in_thread()
        try:
            with RemoteClient(daemon.address) as setup:
                for name, (state_a, _state_b) in states.items():
                    setup.open_workspace(name)
                    setup.sync_files(name, files=state_a)
            payloads, errors = [], []
            barrier = threading.Barrier(n_clients + 1)

            def client_loop(index: int):
                name = f"q3k-{index % n_workspaces}"
                state_a, state_b = states[name]
                try:
                    with RemoteClient(daemon.address) as client:
                        barrier.wait()
                        for round_index in range(rounds):
                            state = (state_a, state_b)[round_index % 2]
                            client.sync_files(name, files=state)
                            payloads.append(
                                (name, client.apply(name, [spec])))
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    try:
                        barrier.abort()
                    except BaseException:
                        pass

            threads = [threading.Thread(target=client_loop, args=(index,))
                       for index in range(n_clients)]
            for thread in threads:
                thread.start()
            barrier.wait()  # all clients connected: timing starts here
            started = time.perf_counter()
            for thread in threads:
                thread.join(timeout=600.0)
            seconds = time.perf_counter() - started
        finally:
            daemon.shutdown()
        assert not errors, errors[:1]
        assert len(payloads) == n_clients * rounds
        # byte-identity: every response equals one of its workspace's
        # serial references (a concurrent sync may interleave, but an
        # apply must never see a torn or wrong-process state)
        for name, payload in payloads:
            assert canonical(payload) in references[name], \
                f"{name}: fleet apply diverged from the serial reference"
        return seconds, len(payloads)

    def compare():
        one_seconds, one_applies = run_config(1, "one")
        fleet_seconds, fleet_applies = run_config(fleet_workers, "fleet")
        return one_seconds, one_applies, fleet_seconds, fleet_applies

    one_seconds, one_applies, fleet_seconds, fleet_applies = \
        benchmark.pedantic(compare, rounds=1, iterations=1)

    speedup = one_seconds / fleet_seconds if fleet_seconds else 0.0
    cpus = os.cpu_count() or 1
    if not QUICK and cpus >= 8:
        assert speedup >= 3.0, \
            f"expected >= 3x with {fleet_workers} workers on {cpus} CPUs, " \
            f"measured {speedup:.2f}x"

    rows = [
        FleetRow("--workers 1 (in-process)", n_clients, n_workspaces,
                 one_applies, one_seconds, 1.0),
        FleetRow(f"--workers {fleet_workers} (apply fleet)", n_clients,
                 n_workspaces, fleet_applies, fleet_seconds, speedup),
    ]
    emit("Q3k fleet saturation (64 clients, sharded workspaces)",
         "concurrent applies across workspaces scale with the worker "
         "fleet (>= 3x at 8 workers on >= 8 CPUs); every response stays "
         "byte-identical to its serial reference",
         rows, columns=["config", "clients", "workspaces", "applies",
                        "seconds", "speedup_vs_one"])
