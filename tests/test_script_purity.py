"""One purity rule for every reuse path.

A ``script:python`` rule that mutates its patch's namespace (a counter, a
list of seen names) makes each file's outcome depend on the files before
it.  The pipeline digests the namespace around every session of a
script-bearing patch; forked workers, incremental splicing and the
transform memo all follow that one check.  The contract under test: every
reuse path gives the bytes a cold serial run gives, diagnostics included,
and names the impure patch.
"""

import pytest

from repro import PatchSet, SemanticPatch
from repro.engine.memo import TransformMemo
from repro.engine.scripting import namespace_digest

from test_incremental import assert_results_identical

#: numbers every rewritten call in visit order: work3() in the last of four
#: files becomes work3_4() serially, work3_1() in a worker of its own
COUNTING = """@initialize:python@ @@
SEEN = [0]

@r@
identifier fn =~ "^work";
expression list el;
position p;
@@
fn@p(el)

@script:python s@
fn << r.fn;
nf;
@@
SEEN[0] += 1
coccinelle.nf = cocci.make_ident("%s_%d" % (fn, SEEN[0]))

@e@
identifier r.fn;
identifier s.nf;
position r.p;
@@
- fn@p
+ nf
"""

#: counts only calls of count_me(): pure on a tree without one
COUNT_ME = """@initialize:python@ @@
SEEN = []
NEW = {"work0": "job0", "work1": "job1", "work2": "job2", "work3": "job3",
       "count_me": "counted"}

@r@
identifier fn =~ "^(work|count_me)";
position p;
@@
fn@p(...)

@script:python s@
fn << r.fn;
nf;
@@
if fn == "count_me":
    SEEN.append(fn)
coccinelle.nf = cocci.make_ident(NEW[fn])

@e@
identifier r.fn;
identifier s.nf;
position r.p;
@@
- fn@p
+ nf

@finalize:python@ @@
print("counted", len(SEEN))
"""

FILES = {f"f{i}.c": f"void g{i}(void) {{ work{i}(1); }}\n" for i in range(4)}


def _counting():
    return PatchSet([SemanticPatch.from_string(COUNTING, name="count")])


def assert_same_as_cold(result, cold, context):
    assert_results_identical(result, cold, context)
    assert result.diagnostics == cold.diagnostics, context
    assert result.impure_patches == cold.impure_patches == ["count"], context


class TestMutatingScripts:
    """Every reuse path gives the cold serial bytes for a counting script."""

    @pytest.fixture
    def cold(self):
        cold = _counting().apply(dict(FILES))
        assert cold["f3.c"].text == "void g3(void) { work3_4(1); }\n"
        warnings = [d.message for d in cold.diagnostics]
        assert len(warnings) == 1 and "'count'" in warnings[0]
        return cold

    def test_parallel_run(self, cold):
        result = _counting().apply(dict(FILES), jobs=4)
        assert result.stats.jobs_used == 1
        assert_same_as_cold(result, cold, "jobs=4")

    def test_serial_run_with_a_memo(self, cold, tmp_path):
        memo = TransformMemo(path=tmp_path / "memo")
        for attempt in range(2):
            result = _counting().apply(dict(FILES), memo=memo)
            assert_same_as_cold(result, cold, f"memo {attempt}")
        assert len(memo) == 0  # no impure session was stored

    def test_since_after_editing_the_last_file(self, cold):
        edited = dict(FILES, **{"f3.c": FILES["f3.c"] + "int tail;\n"})
        fresh = _counting().apply(dict(edited))
        result = _counting().apply(dict(edited), since=cold)
        assert "impure" in result.incremental.fallback
        assert result["f3.c"].text == \
            "void g3(void) { work3_4(1); }\nint tail;\n"
        assert_same_as_cold(result, fresh, "since, last file edited")

    def test_since_after_removing_the_first_call(self, cold):
        edited = dict(FILES, **{"f0.c": "void g0(void) { }\n"})
        fresh = _counting().apply(dict(edited))
        result = _counting().apply(dict(edited), since=cold)
        assert result["f3.c"].text == "void g3(void) { work3_3(1); }\n"
        assert_same_as_cold(result, fresh, "since, first call removed")


class TestReusedPipeline:
    def test_each_run_starts_from_a_fresh_namespace(self):
        """A pipeline object run again after an impure run gives the cold
        bytes, not a continuation of the last run's counter."""
        from repro.engine.incremental import IncrementalPipeline

        patch = SemanticPatch.from_string(COUNTING, name="count")
        pipeline = IncrementalPipeline([patch.ast], names=["count"])
        cold = _counting().apply(dict(FILES))
        first = pipeline.run(dict(FILES))
        again = pipeline.run(dict(FILES), since=first)
        assert "impure" in again.incremental.fallback
        for result in (first, again):
            assert_same_as_cold(result, cold, "reused pipeline")


class TestSpliceDiscard:
    """A pure prior result splices until a re-run file turns impure; then
    the spliced run is discarded and re-run serially from fresh engines."""

    def _patchset(self):
        return PatchSet([SemanticPatch.from_string(COUNT_ME, name="count_me")])

    def test_impure_rerun_discards_the_splice(self):
        prior = self._patchset().apply(dict(FILES))
        assert prior.impure_patches == []
        edited = dict(FILES, **{"f1.c": "void g1(void) { count_me(); }\n"})
        cold = self._patchset().apply(dict(edited))
        assert cold.impure_patches == ["count_me"]
        result = self._patchset().apply(dict(edited), since=prior)
        assert "mutated" in result.incremental.fallback
        assert result.incremental.files_reused == 0
        assert result["f1.c"].text == "void g1(void) { counted(); }\n"
        assert_results_identical(result, cold, "discarded splice")
        assert result.diagnostics == cold.diagnostics
        assert result.impure_patches == ["count_me"]

    def test_pure_rerun_keeps_the_splice(self):
        prior = self._patchset().apply(dict(FILES))
        edited = dict(FILES, **{"f1.c": "void g1(void) { work1(2); }\n"})
        cold = self._patchset().apply(dict(edited))
        result = self._patchset().apply(dict(edited), since=prior)
        assert result.incremental.fallback is None
        assert result.incremental.files_reused == 3
        assert_results_identical(result, cold, "pure splice")


class TestMemoAnsweredParallelRuns:
    """With ``jobs > 1`` and a memo, the parent answers warm files itself
    and runs a lone cold file serially.  An impure session there re-runs
    the pass only when a memo answer skipped past it."""

    def _patchset(self, text):
        return PatchSet([SemanticPatch.from_string(text, name="count_me")])

    def test_an_impure_lone_cold_file_runs_initialize_once(self, tmp_path):
        log = tmp_path / "initialize.log"
        text = COUNT_ME.replace(
            "SEEN = []\n",
            f"SEEN = []\nopen({str(log)!r}, 'a').write('ran\\n')\n", 1)
        memo = TransformMemo()
        self._patchset(text).apply(dict(FILES), jobs=2, memo=memo)
        log.write_text("")
        files = dict(FILES, **{"f4.c": "void g4(void) { count_me(1); }\n"})
        result = self._patchset(text).apply(dict(files), jobs=2, memo=memo)
        assert log.read_text() == "ran\n"
        assert result.stats.memo_hits == 4
        assert result.stats.jobs_used == 1
        cold = self._patchset(text).apply(dict(files))
        assert_results_identical(result, cold, "lone cold file")
        assert result.diagnostics == cold.diagnostics
        assert result.impure_patches == cold.impure_patches == ["count_me"]

    def test_memo_answers_after_an_impure_session_are_redone(self):
        """The impure file comes first: the warm files after it were
        answered for the namespace it then changed, so the pass re-runs
        serially and they see the count a serial run gives them."""
        text = COUNT_ME.replace("cocci.make_ident(NEW[fn])",
                                'cocci.make_ident("%s_%d" % (NEW[fn], '
                                'len(SEEN)))')
        memo = TransformMemo()
        warm = self._patchset(text).apply(dict(FILES), jobs=2, memo=memo)
        assert warm["f0.c"].text == "void g0(void) { job0_0(1); }\n"
        files = {"a.c": "void g(void) { count_me(1); }\n", **FILES}
        result = self._patchset(text).apply(dict(files), jobs=2, memo=memo)
        assert result["f0.c"].text == "void g0(void) { job0_1(1); }\n"
        cold = self._patchset(text).apply(dict(files))
        assert_results_identical(result, cold, "impure file first")
        assert result.impure_patches == cold.impure_patches == ["count_me"]


class TestNamespaceDigest:
    def _namespace(self, code: str) -> dict:
        namespace = {"__builtins__": __builtins__}
        exec(compile(code, "<initialize:test>", "exec"), namespace)
        return namespace

    def test_equal_across_namespaces_built_alike(self):
        code = ("import re\nTABLE = {'a': 'b', 'c': [1, 2.5, None]}\n"
                "KEYS = {'x', 'y', 'z'}\nPAT = re.compile('w+', re.I)\n"
                "def look(k, d=TABLE):\n"
                "    return [d[x] for x in k if x in d]\n")
        assert namespace_digest(self._namespace(code)) == \
            namespace_digest(self._namespace(code)) is not None

    def test_sees_mutation_through_aliases_defaults_and_closures(self):
        code = ("SEEN = [0]\nALIAS = SEEN\n"
                "def bump(box=SEEN):\n    box[0] += 1\n"
                "def make():\n    cell = {}\n"
                "    def inner():\n        return cell\n    return inner\n"
                "INNER = make()\n")
        namespace = self._namespace(code)
        before = namespace_digest(namespace)
        namespace["ALIAS"][0] += 1
        after_alias = namespace_digest(namespace)
        namespace["INNER"]()["k"] = 1  # mutate the closure cell's dict
        after_cell = namespace_digest(namespace)
        assert len({before, after_alias, after_cell}) == 3

    def test_distinguishes_aliasing_from_equal_copies(self):
        shared = self._namespace("A = [1]\nB = A\n")
        copied = self._namespace("A = [1]\nB = [1]\n")
        assert namespace_digest(shared) != namespace_digest(copied)

    def test_undescribable_values_give_none(self):
        assert namespace_digest(self._namespace(
            "class Box:\n    pass\nBOX = Box()\n")) is None
        assert namespace_digest(self._namespace("APPEND = [].append\n")) \
            is None

    def test_cycles_terminate(self):
        namespace = self._namespace("LOOP = []\nLOOP.append(LOOP)\n")
        assert namespace_digest(namespace) is not None
