"""Machine-patch frontend suites: parsers, locators, differential oracle.

Four tiers, per ISSUE acceptance:

* **parser** — each format (JSON ops / 'ap' / SEARCH-REPLACE blocks) parses
  its aliases and rejects malformed input with a :class:`FrontendParseError`
  carrying a line number, never a traceback out of the engine;
* **locator** — whitespace-resilient matching, ambiguity detection,
  occurrence/anchor disambiguation, ``old_hash`` verification, and the
  all-or-nothing guarantee (a failed op leaves the file byte-identical);
* **differential** — on a well-formed corpus every frontend's engine
  application is byte-identical to the exact search/replace oracle
  (:class:`repro.baselines.textual.ReferencePatcher`); on a reformatted
  corpus the oracle goes blind while the frontends still apply;
* **integration** — frontend patches flow through prefilter on/off, the
  transform memo, incremental ``since=`` splicing, multi-process workers,
  mixed SMPL+frontend pipelines, ``PatchSet.from_any``, the CLI's
  ``--patch-file``, and the daemon (inline specs and parsed patches).
"""

import json

import pytest

from frontend_corpus import (CORPUS, PATCH_FILENAMES, PATCH_TEXTS,
                             REFERENCE_PAIRS, codebase, frontend_patch,
                             reformatted_codebase)
from repro import (CodeBase, FrontendParseError, PatchSet, SemanticPatch)
from repro.baselines.textual import ReferencePatcher
from repro.cli.spatch import main as spatch_main
from repro.engine.memo import TransformMemo
from repro.engine.report import result_payload
from repro.errors import patch_error_line
from repro.frontends import (WIRE_KINDS, detect_format, parse_patch_text,
                             sha256_hex)
from repro.frontends.core import interior_words
from repro.obs import Capture
from repro.server.client import RemoteClient, RemoteError
from repro.server.daemon import PatchDaemon
from repro.server.service import PatchService

FORMATS = list(WIRE_KINDS)


def apply_ops(ops, files, **kwargs):
    """One jsonops patch over a dict codebase; returns the PatchResult."""
    patch = SemanticPatch.from_text(json.dumps(ops), format="jsonops")
    return patch.apply(CodeBase.from_files(files), **kwargs)


def diag_messages(result, name):
    return [str(d) for d in result.files[name].diagnostics]


# ---------------------------------------------------------------------------
# format detection
# ---------------------------------------------------------------------------

class TestDetectFormat:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_suffix_hint_wins(self, fmt):
        assert detect_format(PATCH_TEXTS[fmt], PATCH_FILENAMES[fmt]) == fmt

    @pytest.mark.parametrize("name", ["p.cocci", "p.smpl"])
    def test_smpl_suffixes(self, name):
        assert detect_format("@r@ @@\n- old();\n", name) == "smpl"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_content_shape_without_name(self, fmt):
        assert detect_format(PATCH_TEXTS[fmt]) == fmt

    def test_smpl_content_shape(self):
        assert detect_format("@r@ @@\n- old();\n+ new_call();\n") == "smpl"

    def test_undetectable_raises(self):
        with pytest.raises(FrontendParseError):
            detect_format("just some prose, nothing machine-shaped\n")


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

class TestJsonOpsParser:
    def test_basic_and_rule_names(self):
        ast = parse_patch_text(PATCH_TEXTS["jsonops"], format="jsonops")
        rules = ast.patch_rules()
        assert [r.name for r in rules] == ["op1", "op2"]
        assert all(r.is_textual for r in rules)
        assert ast.format == "jsonops"
        assert ast.source_text == PATCH_TEXTS["jsonops"]

    def test_key_aliases(self):
        text = json.dumps([{"op": "replace", "old": "a();", "new": "b();",
                            "path": "x.c", "nth": 2}])
        rule = parse_patch_text(text, format="jsonops").patch_rules()[0]
        assert rule.op.action == "replace"
        assert rule.op.search == "a();"
        assert rule.op.replacement == "b();"
        assert rule.op.file == "x.c"
        assert rule.op.occurrence == 2

    def test_operations_wrapper(self):
        text = json.dumps({"operations": [
            {"action": "delete", "search": "a();"}]})
        assert len(parse_patch_text(text, format="jsonops").patch_rules()) == 1

    def test_insert_anchor_shorthand(self):
        text = json.dumps([{"action": "insert_after", "anchor": "a();",
                            "replace": "b();"}])
        rule = parse_patch_text(text, format="jsonops").patch_rules()[0]
        assert rule.op.search == "a();"

    def test_bad_json_reports_line(self):
        with pytest.raises(FrontendParseError) as exc:
            parse_patch_text("[\n {\"action\": }\n]", format="jsonops")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("ops, needle", [
        ([{"action": "replace", "search": "a", "replace": "b",
           "frobnicate": 1}], "frobnicate"),
        ([{"action": "transmogrify", "search": "a"}], "unknown action"),
        ([{"action": "replace", "replace": "b"}], "search"),
        ([{"action": "rewrite_file", "replace": "b"}], "file"),
        ([{"action": "replace", "search": "a", "replace": "b",
           "old_hash": "xyz"}], "old_hash"),
        ([{"action": "replace", "search": "a", "replace": "b",
           "occurrence": -1}], "occurrence"),
        ([{"action": "replace", "search": "a", "replace": "b",
           "occurrence": "first"}], "occurrence"),
        (["not-an-object"], "object"),
        ([], "empty"),
    ])
    def test_malformed_operations(self, ops, needle):
        with pytest.raises(FrontendParseError) as exc:
            parse_patch_text(json.dumps(ops), format="jsonops")
        assert needle in str(exc.value)

    def test_scalar_top_level_rejected(self):
        with pytest.raises(FrontendParseError):
            parse_patch_text('"just a string"', format="jsonops")


class TestApParser:
    def test_basic_and_rule_names(self):
        ast = parse_patch_text(PATCH_TEXTS["ap"], format="ap")
        rules = ast.patch_rules()
        assert [r.name for r in rules] == ["change1", "change2"]
        assert rules[0].op.anchor == "int main(void)\n"
        assert rules[0].op.search == "double acc = 0.0;\n"
        assert rules[1].op.file == "beta.c"
        assert rules[1].op.action == "insert_after"

    def test_field_aliases_and_quotes(self):
        text = ("changes:\n"
                "  - action: replace\n"
                "    find: \"a();\"\n"
                "    replacement: 'b();'\n"
                "    occurrence: 2\n")
        rule = parse_patch_text(text, format="ap").patch_rules()[0]
        assert rule.op.search == "a();"
        assert rule.op.replacement == "b();"
        assert rule.op.occurrence == 2

    def test_block_scalar_chomping(self):
        text = ("changes:\n"
                "  - action: delete\n"
                "    snippet: |-\n"
                "      a();\n")
        rule = parse_patch_text(text, format="ap").patch_rules()[0]
        assert rule.op.search == "a();"  # |- strips the final newline

    def test_comments_and_preamble_tolerated(self):
        text = ("# generated by a tool\n"
                "version: 1\n"
                "description: demo\n"
                "changes:\n"
                "  # first change\n"
                "  - action: delete\n"
                "    snippet: 'a();'\n")
        assert len(parse_patch_text(text, format="ap").patch_rules()) == 1

    @pytest.mark.parametrize("text, needle", [
        ("changes:\n", "change"),
        ("changes:\n  - action: delete\n    wibble: 'x'\n", "wibble"),
        ("changes:\n  - snippet: 'a();'\n", "action"),
        ("changes:\n  - action: delete\n    snippet: 'a'\n"
         "    snippet: 'b'\n", "snippet"),
    ])
    def test_malformed_documents(self, text, needle):
        with pytest.raises(FrontendParseError) as exc:
            parse_patch_text(text, format="ap")
        assert needle in str(exc.value)

    def test_error_carries_line_number(self):
        text = "changes:\n  - action: delete\n    wibble: 'x'\n"
        with pytest.raises(FrontendParseError) as exc:
            parse_patch_text(text, format="ap")
        assert exc.value.line == 3


class TestBlocksParser:
    def test_basic_and_sticky_file_header(self):
        ast = parse_patch_text(PATCH_TEXTS["blocks"], format="blocks")
        rules = ast.patch_rules()
        assert [r.name for r in rules] == ["block1", "block2"]
        # the File: header sticks to every following block
        assert rules[0].op.file == "alpha.c"
        assert rules[1].op.file == "alpha.c"

    def test_empty_replace_is_delete(self):
        text = ("<<<<<<< SEARCH\n"
                "a();\n"
                "=======\n"
                ">>>>>>> REPLACE\n")
        rule = parse_patch_text(text, format="blocks").patch_rules()[0]
        assert rule.op.action == "delete"

    def test_markdown_file_header(self):
        text = ("### File: sub/dir/x.c\n"
                "<<<<<<< SEARCH\n"
                "a();\n"
                "=======\n"
                "b();\n"
                ">>>>>>> REPLACE\n")
        rule = parse_patch_text(text, format="blocks").patch_rules()[0]
        assert rule.op.file == "sub/dir/x.c"

    @pytest.mark.parametrize("text, needle", [
        ("<<<<<<< SEARCH\n=======\nb();\n>>>>>>> REPLACE\n", "empty"),
        ("<<<<<<< SEARCH\na();\n=======\nb();\n", "REPLACE terminator"),
        ("=======\n", "outside a SEARCH block"),
        ("prose only, no blocks\n", "no SEARCH"),
        ("<<<<<<< SEARCH\na();\n>>>>>>> REPLACE\n", "divider"),
    ])
    def test_malformed_blocks(self, text, needle):
        with pytest.raises(FrontendParseError) as exc:
            parse_patch_text(text, format="blocks")
        assert needle in str(exc.value)


# ---------------------------------------------------------------------------
# locator semantics
# ---------------------------------------------------------------------------

SRC = ("int f(void) {\n"
       "    call(1);\n"
       "    call(2);\n"
       "    return 0;\n"
       "}\n")


class TestLocator:
    def test_ambiguous_snippet_fails_closed(self):
        result = apply_ops([{"action": "replace", "search": "call(",
                             "replace": "invoke("}], {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("ambiguous snippet" in m for m in diag_messages(result, "a.c"))

    def test_occurrence_disambiguates(self):
        result = apply_ops([{"action": "replace", "search": "call(",
                             "replace": "invoke(", "occurrence": 2}],
                           {"a.c": SRC})
        assert "call(1);" in result.files["a.c"].text
        assert "invoke(2);" in result.files["a.c"].text

    def test_occurrence_out_of_range_fails_closed(self):
        result = apply_ops([{"action": "replace", "search": "call(",
                             "replace": "invoke(", "occurrence": 9}],
                           {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("out of range" in m for m in diag_messages(result, "a.c"))

    def test_resilient_match_needs_word_boundaries(self):
        # " turn = 0;" fails exactly and must NOT locate inside the larger
        # identifier "returning" when matched resiliently — the leading
        # whitespace demands a word boundary before "turn"
        src = "int f(void) {\n    returning = 0;\n}\n"
        result = apply_ops([{"action": "replace", "search": " turn = 0;",
                             "replace": " turn = 1;", "file": "a.c"}],
                           {"a.c": src})
        assert result.files["a.c"].text == src
        assert any("snippet not found" in m for m in diag_messages(result, "a.c"))
        # positive control: the full identifier locates despite the spacing
        result = apply_ops([{"action": "replace",
                             "search": " returning  =  0;",
                             "replace": " returning = 1;", "file": "a.c"}],
                           {"a.c": src})
        assert "returning = 1;" in result.files["a.c"].text

    def test_resilient_match_spans_whitespace(self):
        src = "int  x =\n    1;\n"
        result = apply_ops([{"action": "replace", "search": "int x = 1;",
                             "replace": "int x = 2;"}], {"a.c": src})
        assert result.files["a.c"].text == "int x = 2;\n"

    def test_anchor_scopes_the_search(self):
        result = apply_ops([{"action": "replace", "search": "call(2);",
                             "replace": "invoke(2);", "anchor": "call(1);"}],
                           {"a.c": SRC})
        assert "invoke(2);" in result.files["a.c"].text

    def test_ambiguous_anchor_fails_closed(self):
        result = apply_ops([{"action": "replace", "search": "return 0;",
                             "replace": "return 1;", "anchor": "call("}],
                           {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("ambiguous anchor" in m for m in diag_messages(result, "a.c"))

    def test_unscoped_miss_is_silent_no_match(self):
        result = apply_ops([{"action": "replace", "search": "absent();",
                             "replace": "x();"}], {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert diag_messages(result, "a.c") == []
        assert result.files["a.c"].total_matches == 0

    def test_file_scoped_miss_is_an_error(self):
        result = apply_ops([{"action": "replace", "search": "absent();",
                             "replace": "x();", "file": "a.c"}], {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("snippet not found" in m for m in diag_messages(result, "a.c"))

    def test_old_hash_accepts_exact_span(self):
        ok = sha256_hex("call(1);")[:16]
        result = apply_ops([{"action": "replace", "search": "call(1);",
                             "replace": "invoke(1);", "old_hash": ok}],
                           {"a.c": SRC})
        assert "invoke(1);" in result.files["a.c"].text

    def test_stale_old_hash_fails_closed(self):
        stale = sha256_hex("something else")[:16]
        result = apply_ops([{"action": "replace", "search": "call(1);",
                             "replace": "invoke(1);", "old_hash": stale}],
                           {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("stale old_hash" in m for m in diag_messages(result, "a.c"))

    def test_delete_removes_whole_lines(self):
        result = apply_ops([{"action": "delete", "search": "call(1);"}],
                           {"a.c": SRC})
        assert result.files["a.c"].text == SRC.replace("    call(1);\n", "")

    def test_insert_after_adopts_indentation(self):
        result = apply_ops([{"action": "insert_after", "search": "call(2);",
                             "replace": "call(3);"}], {"a.c": SRC})
        assert "    call(2);\n    call(3);\n" in result.files["a.c"].text

    def test_insert_before(self):
        result = apply_ops([{"action": "insert_before", "search": "call(1);",
                             "replace": "setup();"}], {"a.c": SRC})
        assert "    setup();\n    call(1);\n" in result.files["a.c"].text

    def test_rewrite_file_with_hash(self):
        new = "int f(void) { return 1; }\n"
        result = apply_ops([{"action": "rewrite_file", "file": "a.c",
                             "replace": new,
                             "old_hash": sha256_hex(SRC)[:16]}],
                           {"a.c": SRC, "b.c": "int g;\n"})
        assert result.files["a.c"].text == new
        assert result.files["b.c"].text == "int g;\n"

    def test_rewrite_file_stale_hash_fails_closed(self):
        result = apply_ops([{"action": "rewrite_file", "file": "a.c",
                             "replace": "x\n",
                             "old_hash": sha256_hex("other")[:16]}],
                           {"a.c": SRC})
        assert result.files["a.c"].text == SRC
        assert any("stale old_hash" in m for m in diag_messages(result, "a.c"))


class TestAllOrNothing:
    OPS = [
        {"action": "replace", "search": "call(1);", "replace": "invoke(1);"},
        {"action": "replace", "search": "call(2);", "replace": "invoke(2);",
         "old_hash": sha256_hex("stale text")[:16]},
    ]

    def test_failed_op_reverts_the_whole_file(self):
        result = apply_ops(self.OPS, {"a.c": SRC})
        file_result = result.files["a.c"]
        # op1 succeeded, op2 failed: the file must be byte-identical, with
        # no surviving rule reports — only the error diagnostic remains
        assert file_result.text == SRC
        assert not file_result.changed
        assert file_result.rule_reports == []
        assert any("stale old_hash" in str(d) for d in file_result.diagnostics)

    def test_other_files_still_apply(self):
        result = apply_ops(self.OPS, {"a.c": SRC, "b.c": "call(1);\n"})
        assert result.files["a.c"].text == SRC
        assert result.files["b.c"].text == "invoke(1);\n"


# ---------------------------------------------------------------------------
# differential vs the exact-replacement oracle
# ---------------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_byte_identical_on_well_formed_corpus(self, fmt):
        engine = PatchSet([frontend_patch(fmt)]).apply(codebase())
        oracle = ReferencePatcher(REFERENCE_PAIRS[fmt]).run(codebase())
        for name in CORPUS:
            assert engine.files[name].text == oracle.text(name), (fmt, name)
        assert oracle.replacements == len(REFERENCE_PAIRS[fmt])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_changes_are_real(self, fmt):
        engine = PatchSet([frontend_patch(fmt)]).apply(codebase())
        assert any(f.changed for f in engine.files.values())

    def test_oracle_goes_blind_on_reformatted_corpus(self):
        oracle = ReferencePatcher(REFERENCE_PAIRS["jsonops"]) \
            .run(reformatted_codebase())
        assert oracle.replacements == 0

    def test_frontends_survive_reformatting(self):
        # ap and blocks locate resiliently where the oracle found nothing
        res = PatchSet([frontend_patch("ap")]).apply(reformatted_codebase())
        assert "double acc = 1.0;" in res.files["alpha.c"].text
        assert "#include <string.h>" in res.files["beta.c"].text
        res = PatchSet([frontend_patch("blocks")]).apply(reformatted_codebase())
        assert "sum = %f" in res.files["alpha.c"].text
        assert "2.125" in res.files["alpha.c"].text

    def test_old_hash_is_stricter_than_resilience(self):
        # the hashed jsonops op *finds* the reformatted snippet but the
        # hash no longer matches the located bytes: fail closed, loudly
        res = PatchSet([frontend_patch("jsonops")]) \
            .apply(reformatted_codebase())
        assert res.files["alpha.c"].text == reformatted_codebase()["alpha.c"]
        assert any("stale old_hash" in str(d)
                   for d in res.files["alpha.c"].diagnostics)
        # the unhashed, file-scoped op still applies in its own file
        assert "(i * i) + 1" in res.files["beta.c"].text


# ---------------------------------------------------------------------------
# engine integration: prefilter, memo, incremental, workers, mixed pipelines
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_prefilter_parity(self, fmt):
        on = PatchSet([frontend_patch(fmt)]).apply(codebase(), prefilter=True)
        off = PatchSet([frontend_patch(fmt)]).apply(codebase(),
                                                    prefilter=False)
        for name in CORPUS:
            assert on.files[name].text == off.files[name].text
            assert diag_messages(on, name) == diag_messages(off, name)

    def test_prefilter_never_gates_file_scoped_errors(self):
        # a file-scoped miss must diagnose identically with the prefilter
        # on — gating would silently swallow the error
        ops = [{"action": "replace", "search": "nowhere_to_be_found();",
                "replace": "x();", "file": "alpha.c"}]
        on = apply_ops(ops, dict(CORPUS), prefilter=True)
        off = apply_ops(ops, dict(CORPUS), prefilter=False)
        assert diag_messages(on, "alpha.c") == diag_messages(off, "alpha.c")
        assert any("snippet not found" in m
                   for m in diag_messages(on, "alpha.c"))

    def test_interior_words_exclude_edge_fragments(self):
        # edge words may be fragments of larger identifiers in the target,
        # so only interior words are sound prefilter requirements
        words = interior_words("acc += legacy_scale((double) i);")
        assert {"legacy_scale", "double"} <= words
        assert "acc" not in words  # first word: an edge fragment risk

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_parallel_workers_parity(self, fmt):
        serial = PatchSet([frontend_patch(fmt)]).apply(codebase())
        parallel = PatchSet([frontend_patch(fmt)]).apply(codebase(), jobs=2)
        for name in CORPUS:
            assert serial.files[name].text == parallel.files[name].text

    def test_memo_replays_byte_identically(self):
        memo = TransformMemo()
        patch = frontend_patch("blocks")
        with Capture() as counts:
            first = PatchSet([patch]).apply(codebase(), memo=memo)
            second = PatchSet([patch]).apply(codebase(), memo=memo)
        assert memo.counters(counts)["hits"] > 0
        for name in CORPUS:
            assert first.files[name].text == second.files[name].text

    def test_incremental_splice_parity(self):
        patch = frontend_patch("jsonops")
        base = PatchSet([patch]).apply(codebase())
        edited = dict(CORPUS)
        edited["alpha.c"] += "/* trailing edit */\n"
        warm = PatchSet([patch]).apply(CodeBase.from_files(edited),
                                       since=base)
        cold = PatchSet([patch]).apply(CodeBase.from_files(edited))
        assert warm.incremental.files_reused == 1
        for name in edited:
            assert warm.files[name].text == cold.files[name].text

    def test_mixed_smpl_and_frontend_pipeline_runs_in_order(self):
        smpl = SemanticPatch.from_string(
            "@r@ @@\n- old();\n+ new_call();\n", name="rename.cocci")
        follow = SemanticPatch.from_text(json.dumps([
            {"action": "replace", "search": "new_call();",
             "replace": "new_call(1);"}]), format="jsonops", name="ops.json")
        result = PatchSet([smpl, follow]).apply(
            {"a.c": "void f(void) { old(); }\n"})
        # the frontend op matches text the SMPL patch introduced, proving
        # the two stages interleave in declaration order
        assert result.files["a.c"].text == "void f(void) { new_call(1); }\n"


# ---------------------------------------------------------------------------
# PatchSet.from_any
# ---------------------------------------------------------------------------

class TestFromAny:
    def test_mixed_sources(self, tmp_path):
        # blocks goes first: jsonops and blocks both rewrite the same
        # return line, so the later jsonops op simply no-matches there
        # while its beta.c op still applies
        blocks = tmp_path / "edit.blocks"
        blocks.write_text(PATCH_TEXTS["blocks"])
        ps = PatchSet.from_any([
            str(blocks),                               # path to a file
            PATCH_TEXTS["ap"],                         # inline text (has \n)
            frontend_patch("jsonops"),                 # parsed patch
        ])
        assert len(ps.patches) == 3
        result = ps.apply(codebase())
        assert "sum = %f" in result.files["alpha.c"].text   # blocks
        assert "2.125" in result.files["alpha.c"].text      # blocks
        assert "acc = 1.0" in result.files["alpha.c"].text  # ap
        assert "(i * i) + 1" in result.files["beta.c"].text  # jsonops

    def test_single_source(self):
        ps = PatchSet.from_any(PATCH_TEXTS["blocks"])
        assert len(ps.patches) == 1

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            PatchSet.from_any(42)


# ---------------------------------------------------------------------------
# CLI --patch-file
# ---------------------------------------------------------------------------

def write_corpus(tmp_path):
    for name, text in CORPUS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in CORPUS]


class TestCliPatchFile:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_diff_and_exit_zero(self, fmt, tmp_path, capsys):
        patch_file = tmp_path / PATCH_FILENAMES[fmt]
        patch_file.write_text(PATCH_TEXTS[fmt])
        targets = write_corpus(tmp_path)
        rc = spatch_main(["--patch-file", str(patch_file), *targets])
        captured = capsys.readouterr()
        assert rc == 0
        assert "---" in captured.out and "+++" in captured.out

    def test_in_place_matches_engine(self, tmp_path, capsys):
        patch_file = tmp_path / "edit.blocks"
        patch_file.write_text(PATCH_TEXTS["blocks"])
        targets = write_corpus(tmp_path)
        rc = spatch_main(["--patch-file", str(patch_file), "--in-place",
                          *targets])
        assert rc == 0
        engine = PatchSet([frontend_patch("blocks")]).apply(codebase())
        for name in CORPUS:
            assert (tmp_path / name).read_text() == engine.files[name].text

    def test_in_place_stale_hash_leaves_target_byte_identical(
            self, tmp_path, capsys):
        # satellite regression: a failing frontend op must never leave a
        # half-applied file behind in --in-place mode
        ops = [
            {"action": "replace", "search": "return value * 2.0;",
             "replace": "return value * 3.0;"},
            {"action": "replace", "search": "printf",
             "replace": "fprintf",
             "old_hash": sha256_hex("stale")[:16]},
        ]
        patch_file = tmp_path / "ops.json"
        patch_file.write_text(json.dumps(ops))
        target = tmp_path / "alpha.c"
        target.write_text(CORPUS["alpha.c"])
        rc = spatch_main(["--patch-file", str(patch_file), "--in-place",
                          str(target)])
        capsys.readouterr()
        assert rc == 1  # nothing applied
        assert target.read_text() == CORPUS["alpha.c"]

    def test_interleaves_with_sp_file_in_argument_order(self, tmp_path,
                                                        capsys):
        cocci = tmp_path / "rename.cocci"
        cocci.write_text("@r@ @@\n- old();\n+ new_call();\n")
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps([
            {"action": "replace", "search": "new_call();",
             "replace": "new_call(2);"}]))
        target = tmp_path / "a.c"
        target.write_text("void f(void) { old(); }\n")
        rc = spatch_main(["--sp-file", str(cocci), "--patch-file", str(ops),
                          "--in-place", str(target)])
        capsys.readouterr()
        assert rc == 0
        assert target.read_text() == "void f(void) { new_call(2); }\n"


# ---------------------------------------------------------------------------
# server parity
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    daemon = PatchDaemon(f"unix:{tmp_path}/spatchd.sock",
                         PatchService(max_workspaces=8))
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


def canonical(payload):
    trimmed = {key: value for key, value in payload.items()
               if key not in ("profile", "workspace")}
    return json.dumps(trimmed, sort_keys=True)


class TestServerFrontends:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_inline_spec_matches_local_run(self, fmt, daemon):
        patch = frontend_patch(fmt)
        local = result_payload(PatchSet([patch]).apply(codebase()), [patch],
                               include_texts=True)
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", codebase())
            remote = client.apply(
                "w", [{"kind": fmt, "name": PATCH_FILENAMES[fmt],
                       "text": PATCH_TEXTS[fmt]}], texts=True)
        assert canonical(remote) == canonical(local)

    def test_parsed_patch_travels_as_its_own_format(self, daemon):
        # a SemanticPatch parsed from a frontend file ships its original
        # source text under its frontend kind and round-trips exactly
        patch = frontend_patch("ap")
        local = result_payload(PatchSet([patch]).apply(codebase()), [patch],
                               include_texts=True)
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            client.sync_codebase("w", codebase())
            remote = client.apply("w", [patch], texts=True)
        assert canonical(remote) == canonical(local)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bad_inline_spec_diagnostic_matches_local(self, fmt, daemon):
        bad = {"jsonops": "[{\"action\": }]",
               "ap": "changes:\n  - action: delete\n    wibble: 'x'\n",
               "blocks": "<<<<<<< SEARCH\na\n=======\nb\n"}[fmt]
        try:
            SemanticPatch.from_text(bad, format=fmt, name="inline")
        except Exception as exc:
            expected = patch_error_line("inline", exc)
        else:  # pragma: no cover - the specs above must not parse
            pytest.fail("expected the bad spec to fail locally")
        with RemoteClient(daemon.address) as client:
            client.open_workspace("w")
            with pytest.raises(RemoteError) as remote_exc:
                client.apply("w", [{"kind": fmt, "name": "inline",
                                    "text": bad}])
        assert remote_exc.value.kind == "bad-patch"
        assert remote_exc.value.message == expected
