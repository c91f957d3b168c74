"""The benchmark's own checks (not part of the repository's test suite).

    python3 perfbench/selftest.py

* the tracer puts back every wrapped attribute as the identical object;
* each thread keeps its own span stack, so concurrent threads do not
  steal each other's self time;
* traced output is byte-identical to untraced output, in process and for
  a whole ``repro-spatch`` process;
* the same seed gives byte-identical inputs, another seed other ones;
* traced lexer + parser seconds agree with the registry's
  ``repro_phase_seconds{phase="parse"}`` sum within ``PARSE_TOLERANCE``;
* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints;
* without the program's sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer, repro_targets  # noqa: E402

#: largest accepted relative gap between traced lexer + parser time and the
#: registry's parse phase (the phase also covers ``parse_source``'s own
#: bookkeeping, and both sides carry the wrappers' cost)
PARSE_TOLERANCE = 0.10


class _Work:
    """Stand-ins for two nested layers."""

    def outer(self, seconds):
        time.sleep(seconds)
        self.inner(seconds)

    def inner(self, seconds):
        time.sleep(seconds)


def _scratch(name):
    path = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


class TracerTest(unittest.TestCase):

    def test_uninstall_restores_identical_attributes(self):
        tracer = Tracer(repro_targets())
        before = [(t.owner, t.attr, vars(t.owner)[t.attr])
                  for t in tracer.targets]
        tracer.install()
        self.assertTrue(all(vars(owner)[attr] is not raw
                            for owner, attr, raw in before))
        tracer.uninstall()
        for owner, attr, raw in before:
            self.assertIs(vars(owner)[attr], raw, f"{owner}.{attr}")

    def test_threads_keep_their_own_span_stacks(self):
        tracer = Tracer([Target(_Work, "outer", "outer"),
                         Target(_Work, "inner", "inner")])
        tracer.install()
        try:
            work = _Work()
            threads = [threading.Thread(target=work.outer, args=(0.1,)),
                       threading.Thread(target=work.inner, args=(0.2,))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                self.assertFalse(thread.is_alive())
        finally:
            tracer.uninstall()
        totals = tracer.summary()["totals"]
        outer_calls, outer_self, outer_total = totals["outer"]
        inner_calls, inner_self, _ = totals["inner"]
        self.assertEqual((outer_calls, inner_calls), (1, 2))
        # the other thread's 0.2 s inner call overlaps outer, but is not
        # its child: outer's self time stays its own 0.1 s
        self.assertAlmostEqual(outer_self, 0.1, delta=0.04)
        self.assertAlmostEqual(outer_total, 0.2, delta=0.05)
        self.assertAlmostEqual(inner_self, 0.3, delta=0.06)

    def test_traced_payload_is_byte_identical(self):
        from repro.cookbook import full_modernization_pipeline
        from repro.engine.cache import DEFAULT_TREE_CACHE
        from repro.server.protocol import dumps, result_payload

        tree = inputs.make_tree(7)
        patches = full_modernization_pipeline()

        def payload():
            DEFAULT_TREE_CACHE.clear()
            return dumps(result_payload(patches.apply(dict(tree)),
                                        list(patches)))

        plain = payload()
        tracer = Tracer(repro_targets())
        tracer.install()
        try:
            traced = payload()
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertGreater(tracer.summary()["totals"]["parser"][0], 0)


class ProcessTest(unittest.TestCase):

    def setUp(self):
        self.work = _scratch("selftest")
        inputs.write_tree(inputs.make_tree(3), os.path.join(self.work,
                                                            "tree"))
        self.launcher = os.path.join(HERE, "cli_child.py")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # a benchmark run still uses it

    def _cold_pass(self, name, trace_out=None):
        out = os.path.join(self.work, f"{name}.out")
        argv = [self.launcher,
                *(["--trace-out", trace_out] if trace_out else []), "--",
                "--cookbook", inputs.COOKBOOK, "--jobs", "1",
                os.path.join(self.work, "tree")]
        child = run.spawn(argv, out, os.path.join(self.work, f"{name}.err"),
                          run.CLI_TIMEOUT)
        with open(out, "rb") as handle:
            return child.code, handle.read()

    def test_traced_cli_output_and_parse_crosscheck(self):
        trace_out = os.path.join(self.work, "trace.json")
        plain = self._cold_pass("plain")
        traced = self._cold_pass("traced", trace_out)
        self.assertEqual(plain[0], 0)
        self.assertEqual(plain, traced)
        with open(trace_out, encoding="utf-8") as handle:
            data = json.load(handle)
        traced_parse = run.self_seconds(data["trace"], "lexer") \
            + run.self_seconds(data["trace"], "parser")
        ratio = traced_parse / data["registry_parse_s"]
        self.assertLess(abs(ratio - 1.0), PARSE_TOLERANCE,
                        f"traced lexer+parser / registry parse = {ratio:.3f}")

    def test_fails_without_program_sources(self):
        bare = os.path.join(self.work, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold_cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class InputsTest(unittest.TestCase):

    def test_seed_fixes_inputs(self):
        def digest(seed):
            tree = inputs.make_tree(seed)
            return inputs.inputs_sha256(tree, inputs.edit_stream(seed, tree))

        self.assertEqual(digest(5), digest(5))
        self.assertNotEqual(digest(5), digest(6))
        self.assertNotEqual(digest(5), digest(inputs.HELD_OUT_SEED))

    def test_stream_mixes_fresh_edits_and_undos(self):
        tree = inputs.make_tree(5)
        stream = inputs.edit_stream(5, tree, rounds=400)
        seen = {name: {text} for name, text in tree.items()}
        undos = 0
        for name, text in stream:
            undos += text in seen[name]
            seen[name].add(text)
        self.assertAlmostEqual(undos / len(stream), inputs.UNDO_SHARE,
                               delta=0.08)


class BenchmarkJsonTest(unittest.TestCase):

    def test_names_and_units_match_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
