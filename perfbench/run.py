"""Benchmark of the semantic-patch engine, end to end and layer by layer.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (all closed loops over the seeded mixed HPC tree and the
12-patch ``full_modernization`` cookbook):

``cold_cli``
    One fresh ``repro-spatch --cookbook full_modernization --jobs 1 TREE``
    process per operation, one at a time.  The paper's batch port; no memo,
    incremental splicing or server, so it is the control for work on those.
``edit_loop``
    An in-process daemon and two connections: a writer edits one file per
    round, then syncs and applies; a reader queries an unchanged copy.
``fleet_edit``
    The same traffic against ``PatchService(workers=2)``: applies run in a
    forked worker, queries in the parent without a warm result.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a separately traced run.  Every output is checked against a
reference computed outside the timed region; a wrong output aborts the run.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold_cli", "edit_loop", "fleet_edit")

#: set-up is measured at least this many times per run, each in a fresh
#: process, and the median is reported.  ``cold_cli`` set-ups are cheap and
#: spread over the run, one before every ``CLI_SETUP_EVERY`` passes; the
#: loops set up in separate processes before the one that runs the loop.
CLI_SETUP_REPEATS = 5
CLI_SETUP_EVERY = 3
LOOP_SETUP_REPEATS = 3

#: seconds one CLI process, or one loop process, may take before it is
#: killed and counted as failed
CLI_TIMEOUT = 60.0
LOOP_TIMEOUT = 150.0

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``
END_TO_END = (
    ("files_per_s", "1/s"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``;
#: times are self seconds per operation unless the README says otherwise
PER_LAYER = (
    ("lexer.self_s", "s/op"), ("lexer.calls", "count/op"),
    ("lexer.tokens_per_s", "1/s"),
    ("parser.self_s", "s/op"), ("parser.calls", "count/op"),
    ("parser.parses_per_file", "ratio"),
    ("cache.self_s", "s/op"), ("cache.hit_ratio", "ratio"),
    ("prefilter.self_s", "s/op"), ("prefilter.skip_ratio", "ratio"),
    ("compile.self_s", "s/op"),
    ("match.self_s", "s/op"), ("match.calls", "count/op"),
    ("match.hit_ratio", "ratio"),
    ("transform.self_s", "s/op"), ("transform.instances", "count/op"),
    ("edits.self_s", "s/op"),
    ("scripting.self_s", "s/op"), ("scripting.calls", "count/op"),
    ("session.self_s", "s/op"),
    ("pipeline.self_s", "s/op"),
    ("memo.self_s", "s/op"), ("memo.hit_ratio", "ratio"),
    ("incremental.self_s", "s/op"), ("incremental.reuse_ratio", "ratio"),
    ("report.diff_s", "s/op"), ("report.diff_calls", "count/op"),
    ("report.diffs_per_changed_file", "ratio"),
    ("protocol.payload_s", "s/op"),
    ("client.wait_s", "s/op"),
    ("service.self_s", "s/op"),
    ("fleet.call_s", "s/op"), ("fleet.calls_per_apply", "ratio"),
    ("cli.startup_s", "s"),
    ("smpl.parse_s", "s"),
    ("residual_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
)


class WrongOutput(Exception):
    """An output differed from its reference: the run is aborted."""


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: it follows the share of a run the host
    spent slow smoothly (a median jumps between the fast and the slow
    mode), and ignores single stalls (a mean does not)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.mean(ordered[quarter:len(ordered) - quarter])


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    spawned: float
    wall: float
    maxrss_mb: float


def spawn(argv: list[str], stdout: str, stderr: str, timeout: float,
          env: dict | None = None) -> Child:
    """Run ``python3 argv...`` to completion in its own process group,
    stdout and stderr to files; peak RSS comes from ``wait4`` (per child,
    unlike ``RUSAGE_CHILDREN``, which keeps the maximum over all)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                         os.environ if env is None else env,
                         file_actions=actions, setpgroup=0)

    def kill_group() -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill_group)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        kill_group()
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.monotonic() - spawned
    kill_group()  # anything the child left behind in its group
    return Child(os.waitstatus_to_exitcode(status), spawned, wall,
                 usage.ru_maxrss / 1024.0)


def tail(path: str, limit: int = 2000) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-limit:]
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------

def run_cold_cli(args, tree: dict) -> dict:
    import inputs

    inputs.write_tree(tree, "tree")
    os.makedirs("empty", exist_ok=True)
    launcher = os.path.join(HERE, "cli_child.py")
    spatch = ["--cookbook", inputs.COOKBOOK, "--jobs", "1"]

    # the reference: interpreted matcher, prefilter off
    reference = spawn([launcher, "--", *spatch, "--no-prefilter", "tree"],
                      "ref.out", "ref.err", CLI_TIMEOUT,
                      env={**os.environ, "REPRO_MATCHER": "interp"})
    if reference.code not in (0, 1):
        raise WrongOutput(f"reference run exited {reference.code}: "
                          f"{tail('ref.err')}")
    expected = (reference.code, sha256_file("ref.out"))

    counts = {"attempted": 0, "failed": 0, "setup_runs": 0}
    setups = []
    passes: list[Child] = []
    traced: list[tuple[Child, dict]] = []

    def one(argv, name, expected_codes) -> Child | None:
        child = spawn(argv, f"{name}.out", f"{name}.err", CLI_TIMEOUT)
        counts["attempted"] += 1
        if child.code not in expected_codes:
            counts["failed"] += 1
            print(f"# {name} process exited {child.code}: "
                  f"{tail(f'{name}.err')}", file=sys.stderr)
            return None
        return child

    def setup() -> None:
        counts["setup_runs"] += 1
        # an empty tree matches nothing: exit 1
        child = one([launcher, "--", *spatch, "empty"], "setup", (1,))
        if child is not None:
            setups.append(child.wall)

    deadline = time.monotonic() + args.seconds
    index = 0
    while time.monotonic() < deadline:
        if index % CLI_SETUP_EVERY == 0:
            # set-up samples are spread over the run, so that a burst of
            # host contention cannot hit all of them
            setup()
        trace_file = f"trace{index}.json" if args.trace and index % 2 else None
        argv = [launcher, *(["--trace-out", trace_file] if trace_file
                            else []), "--", *spatch, "tree"]
        index += 1
        child = one(argv, "pass", (0, 1))
        if child is None:
            continue
        if (child.code, sha256_file("pass.out")) != expected:
            raise WrongOutput("cold pass output differs from the "
                              "interpreted, unfiltered reference")
        if trace_file:
            with open(trace_file, encoding="utf-8") as handle:
                traced.append((child, json.load(handle)))
        else:
            passes.append(child)
    while counts["setup_runs"] < CLI_SETUP_REPEATS:
        setup()
    attempted, failed = counts["attempted"], counts["failed"]

    result = {"attempted": attempted, "failed": failed, "files": len(tree)}
    if args.trace:
        result["per_layer"], result["notes"] = cold_cli_layers(passes,
                                                               traced)
        return result
    walls = [child.wall for child in passes]
    median, tail90 = statistics.median(walls), p90(walls)
    # one client, closed loop: throughput is the inverse of the pass time
    throughput = 1.0 / interquartile_mean(walls)
    result["samples"] = {"passes": len(walls), "setups": len(setups)}
    result["end_to_end"] = {
        "files_per_s": len(tree) * throughput,
        # without a daemon, an edit-and-reapply and a query each cost one
        # cold pass, so both latency pairs describe the same processes
        "edit_p50_ms": median * 1e3, "edit_p90_ms": tail90 * 1e3,
        "query_p50_ms": median * 1e3, "query_p90_ms": tail90 * 1e3,
        "ops_per_s": throughput,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in passes),
    }
    return result


def cold_cli_layers(untraced: list[Child], traced: list[tuple[Child, dict]],
                    ) -> tuple[dict, list[str]]:
    from tracer import merge

    summary = merge([data["trace"] for _, data in traced])
    ops = len(traced)
    startup = sum(data["ready"] - child.spawned for child, data in traced)
    wall = sum(child.wall for child, _ in traced)
    covered = startup + sum(row[1] for row in summary["totals"].values())
    overhead = statistics.median(c.wall for c, _ in traced) \
        / statistics.median(c.wall for c in untraced) - 1.0
    metrics = layer_metrics(summary, ops)
    metrics["cli.startup_s"] = startup / ops
    metrics["smpl.parse_s"] = self_seconds(summary, "smpl") / ops
    metrics["residual_frac"] = 1.0 - covered / wall
    metrics["trace_overhead_frac"] = overhead
    # cross-check: traced lexer + parser against the registry's own
    # parse-phase histogram, read in the same processes
    traced_parse = self_seconds(summary, "lexer") \
        + self_seconds(summary, "parser")
    registry_parse = sum(data["registry_parse_s"] for _, data in traced)
    notes = [f"parse cross-check: traced lexer+parser {traced_parse:.4f} s, "
             f"registry parse phase {registry_parse:.4f} s, ratio "
             f"{traced_parse / registry_parse:.4f}"]
    return metrics, notes + breakdowns(summary)


# ---------------------------------------------------------------------------
# edit_loop / fleet_edit
# ---------------------------------------------------------------------------

def reference_digests(seed: int, rounds: int):
    """Payload digests of local in-process applies: the cold apply of the
    initial tree, the query answer for the unchanged copy, and every state
    the writer produced.  Two processes (``reference.py``) split the rounds
    after the timed region."""
    launcher = os.path.join(HERE, "reference.py")
    middle = rounds // 2
    halves = [(0, middle), (middle, rounds)]
    children: list = [None, None]

    def compute(part: int) -> None:
        first, stop = halves[part]
        children[part] = spawn(
            [launcher, "--seed", str(seed), "--first", str(first),
             "--stop", str(stop), "--out", f"ref{part}.json"],
            f"ref{part}.out", f"ref{part}.err", LOOP_TIMEOUT)

    threads = [threading.Thread(target=compute, args=(part,))
               for part in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    parts = []
    for part, child in enumerate(children):
        if child is None or child.code != 0:
            raise RuntimeError(f"reference process failed: "
                               f"{tail(f'ref{part}.err')}")
        with open(f"ref{part}.json", encoding="utf-8") as handle:
            parts.append(json.load(handle))
    first, second = parts
    chained_end = first["digests"][-1] if first["digests"] else first["start"]
    if second["start"] != chained_end:
        raise WrongOutput("a cold local apply differs from the chained one")
    return (first["start"], first["query"],
            first["digests"] + second["digests"])


def run_loop(args, tree: dict) -> dict:
    launcher = os.path.join(HERE, "loop_child.py")
    attempted = failed = 0
    setups = []
    setup_rss = []
    data = child = None
    digests_seen = []
    for index in range(LOOP_SETUP_REPEATS):
        mode = "loop" if index == LOOP_SETUP_REPEATS - 1 else "setup"
        out = f"loop{index}.json"
        child = spawn([launcher, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--mode", mode,
                       "--out", out], f"loop{index}.out", f"loop{index}.err",
                      LOOP_TIMEOUT)
        attempted += 1
        if child.code != 0 or not os.path.exists(out):
            failed += 1
            print(f"# {mode} process exited {child.code}: "
                  f"{tail(f'loop{index}.err')}", file=sys.stderr)
            data = None
            continue
        with open(out, encoding="utf-8") as handle:
            data = json.load(handle)
        setups.append((data["ready"] - child.spawned)
                      + (data["done"] - data["began"]))
        if mode == "setup":
            setup_rss.append(child.maxrss_mb)
        digests_seen.append(data["setup_digest"])
    if data is None or "ops" not in data:
        raise RuntimeError("the loop process did not finish")

    ops = data["ops"]
    edits = [op for op in ops if op[0] == "edit"]
    rounds = max((op[1] for op in edits), default=-1) + 1
    initial, query, digests = reference_digests(args.seed, rounds)
    if any(digest != initial for digest in digests_seen):
        raise WrongOutput("a set-up apply differs from the local apply")
    for kind, index, seconds, digest, *_ in ops:
        attempted += 1
        if seconds is None:
            failed += 1
        elif digest != (digests[index] if kind == "edit" else query):
            raise WrongOutput(f"{kind} {index} differs from its reference")

    result = {"attempted": attempted, "failed": failed, "files": len(tree)}
    if args.trace:
        result["per_layer"] = loop_layers(data, child)
        result["notes"] = breakdowns(data["trace"])
        return result
    edit_lat = [op[2] for op in edits if op[2] is not None]
    query_lat = [op[2] for op in ops if op[0] == "query" and op[2] is not None]
    # throughput as the interquartile mean over whole one-second windows,
    # so a burst of host contention moves it no more than the latencies
    windows = [0] * int(data["loop_seconds"])
    for op in ops:
        if op[2] is not None and int(op[6]) < len(windows):
            windows[int(op[6])] += 1
    ops_per_s = interquartile_mean(windows)
    result["samples"] = {"edits": len(edit_lat), "queries": len(query_lat),
                         "loop_peak_rss_mb": round(child.maxrss_mb, 1)}
    result["end_to_end"] = {
        "files_per_s": ops_per_s * len(tree),
        "edit_p50_ms": statistics.median(edit_lat) * 1e3,
        "edit_p90_ms": p90(edit_lat) * 1e3,
        "query_p50_ms": statistics.median(query_lat) * 1e3,
        "query_p90_ms": p90(query_lat) * 1e3,
        "ops_per_s": ops_per_s,
        "setup_s": statistics.median(setups),
        # the loop process keeps growing while its caches fill, at a rate
        # set by how many rounds it completes; the set-up processes give
        # a footprint that does not depend on the host's speed
        "peak_rss_mb": statistics.median(setup_rss),
    }
    return result


def loop_layers(data: dict, child: Child) -> dict:
    summary = data["trace"]
    ops = data["ops"]
    traced = [op for op in ops if op[2] is not None and op[4] == 1]
    untraced = [op for op in ops if op[2] is not None and op[4] == 0]
    metrics = layer_metrics(summary, len(traced))
    metrics["cli.startup_s"] = data["ready"] - child.spawned
    metrics["smpl.parse_s"] = self_seconds(data["setup_trace"], "smpl")
    metrics["residual_frac"] = 1.0 - sum(op[5] for op in traced) \
        / sum(op[2] for op in traced)
    # tracing overhead per operation kind, weighted by traced samples
    weighted = 0.0
    for kind in ("edit", "query"):
        on = [op[2] for op in traced if op[0] == kind]
        off = [op[2] for op in untraced if op[0] == kind]
        if on and off:
            weighted += len(on) * (statistics.median(on)
                                   / statistics.median(off) - 1.0)
    metrics["trace_overhead_frac"] = weighted / len(traced)
    return metrics


# ---------------------------------------------------------------------------
# per-layer arithmetic shared by every workload
# ---------------------------------------------------------------------------

def breakdowns(summary: dict, top: int = 6) -> list[str]:
    """One line per outermost traced call (``service.query``, ...) that
    holds at least 1% of the traced time: its seconds, its calls and the
    layers that took the largest shares of them."""
    spent = {root: sum(row[1] for row in rows.values())
             for root, rows in summary["roots"].items()}
    everything = sum(spent.values()) or 1.0
    lines = []
    for root, rows in sorted(summary["roots"].items(),
                             key=lambda item: -spent[item[0]]):
        if spent[root] < 0.01 * everything:
            continue
        calls = rows[root.split(".")[0]][0] if root.split(".")[0] in rows \
            else 0
        shares = sorted(((row[1] / spent[root], name)
                         for name, row in rows.items()), reverse=True)
        parts = ", ".join(f"{name} {share:.1%}"
                          for share, name in shares[:top])
        lines.append(f"breakdown {root}: {spent[root]:.3f} s over {calls} "
                     f"call(s); {parts}")
    return lines


def self_seconds(summary: dict, layer: str) -> float:
    return summary["totals"].get(layer, [0, 0.0, 0.0])[1]


def layer_metrics(summary: dict, ops: int) -> dict:
    """Every per-layer metric that follows from span totals alone."""
    totals = summary["totals"]
    extra = summary["extra"]

    def row(layer):
        return totals.get(layer, [0, 0.0, 0.0])

    def per_op(value):
        return value / ops

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for layer in ("lexer", "parser", "cache", "prefilter", "compile",
                  "match", "transform", "edits", "scripting", "session",
                  "pipeline", "memo", "incremental", "service"):
        metrics[f"{layer}.self_s"] = per_op(row(layer)[1])
    metrics["lexer.calls"] = per_op(row("lexer")[0])
    metrics["lexer.tokens_per_s"] = ratio(extra.get("lexer.tokens", 0),
                                          row("lexer")[1])
    metrics["parser.calls"] = per_op(row("parser")[0])
    metrics["parser.parses_per_file"] = ratio(row("parser")[0],
                                              extra.get("run.files", 0))
    metrics["cache.hit_ratio"] = ratio(extra.get("cache.hits", 0),
                                       row("cache")[0])
    metrics["prefilter.skip_ratio"] = ratio(extra.get("prefilter.skips", 0),
                                            extra.get("prefilter.plans", 0))
    metrics["match.calls"] = per_op(row("match")[0])
    metrics["match.hit_ratio"] = ratio(extra.get("match.hits", 0),
                                       row("match")[0])
    metrics["transform.instances"] = per_op(row("transform")[0])
    metrics["scripting.calls"] = per_op(row("scripting")[0])
    metrics["memo.hit_ratio"] = ratio(extra.get("memo.hits", 0),
                                      extra.get("memo.lookups", 0))
    metrics["incremental.reuse_ratio"] = ratio(
        extra.get("incremental.reused", 0), extra.get("incremental.files", 0))
    metrics["report.diff_s"] = per_op(row("report")[1])
    metrics["report.diff_calls"] = per_op(row("report")[0])
    metrics["report.diffs_per_changed_file"] = ratio(
        extra.get("report.diff_work", 0), extra.get("run.changed_files", 0))
    metrics["protocol.payload_s"] = per_op(row("protocol")[1])
    # the client's round trip minus the service's own handling time
    metrics["client.wait_s"] = per_op(row("client")[2] - row("service")[2])
    metrics["fleet.call_s"] = per_op(row("fleet")[2])
    metrics["fleet.calls_per_apply"] = ratio(row("fleet")[0],
                                             extra.get("service.applies", 0))
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark: cold CLI pass, warm edit loop, fleet edit "
                    "loop.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def report(args, sha: str, result: dict, correct: bool) -> dict:
    """Print the human-readable lines and return the JSON result."""
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"files={result.get('files')} inputs_sha256={sha}")
    attempted = max(1, result.get("attempted", 0))
    failed = result.get("failed", 0)
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    if "samples" in result:
        print(f"# samples: {json.dumps(result['samples'])}")
    metrics = {}
    table = PER_LAYER if args.trace else END_TO_END
    values = result.get("per_layer" if args.trace else "end_to_end", {})
    for note in result.get("notes", ()):
        print(f"# {note}")
    for name, unit in table:
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    tree = inputs.make_tree(args.seed)
    stream = inputs.edit_stream(args.seed, tree)
    sha = inputs.inputs_sha256(tree, stream)

    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    correct = True
    try:
        run = run_cold_cli if args.workload == "cold_cli" else run_loop
        result = run(args, tree)
    except WrongOutput as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        correct = False
        result = {"attempted": 1, "failed": 1}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report(args, sha, result, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
