"""Tests for environment-chain candidates in rule dependencies.

``FileSession._base_environments`` attempts a rule once per environment
exported by the *latest* rule in its inheritance chain — and rules named in
``depends on`` count as chain candidates too, so a script rule that filtered
an earlier rule's environments (``cocci.include_match(False)``) restricts the
rules downstream of it.  That dep-candidate path had no direct coverage.
"""

from repro import apply_patch
from repro.api import SemanticPatch


FILTER_CHAIN = """\
@a@
identifier f;
@@
marked(f);

@script:python s depends on a@
f << a.f;
@@
if f == "bad":
    cocci.include_match(False)

@b depends on s@
identifier a.f;
@@
- marked(f);
+ kept(f);
"""

CODE = "void t(void) { marked(good); marked(bad); }\n"


class TestDependencyChainFiltering:
    def test_script_filter_restricts_downstream_rule(self):
        """'b' depends on 's', so it must run only under the environments the
        script kept — 'bad' survives untouched."""
        result = apply_patch(FILTER_CHAIN, CODE)
        assert "kept(good);" in result.text
        assert "marked(bad);" in result.text
        assert result.matches_of("b") == 1

    def test_without_filter_both_environments_flow_through(self):
        patch = FILTER_CHAIN.replace('if f == "bad":\n    cocci.include_match(False)',
                                     "pass")
        result = apply_patch(patch, CODE)
        assert "kept(good);" in result.text and "kept(bad);" in result.text
        assert result.matches_of("b") == 2

    def test_script_dropping_every_environment_blocks_dependent_rule(self):
        patch = FILTER_CHAIN.replace('if f == "bad":\n    cocci.include_match(False)',
                                     "cocci.include_match(False)")
        result = apply_patch(patch, CODE)
        # 's' exported nothing, so it never counts as applied and 'b' must not run
        assert "kept(" not in result.text
        assert result.matches_of("b") == 0

    def test_depends_on_without_inheritance_uses_plain_environment(self):
        """A dependent rule with no inherited metavariables still runs once
        per export of its dependency — but binds its own metavariables."""
        patch = ("@first@\nidentifier f;\n@@\nmarked(f);\n\n"
                 "@second depends on first@ @@\n- also_present();\n")
        code = "void t(void) { marked(x); also_present(); }\n"
        result = apply_patch(patch, code)
        assert "also_present" not in result.text

    def test_chain_preserved_through_driver_prefilter(self):
        """The chain semantics must be identical when the prefilter gates
        rules: gating 'b' in a file without 'marked' must not disturb other
        files."""
        patch = SemanticPatch.from_string(FILTER_CHAIN)
        files = {"has.c": CODE, "hasnot.c": "void u(void) { unrelated(); }\n"}
        filtered = patch.apply(dict(files), prefilter=True)
        baseline = patch.apply(dict(files), prefilter=False)
        for name in files:
            assert filtered[name].text == baseline[name].text
            assert filtered[name].rule_reports == baseline[name].rule_reports
