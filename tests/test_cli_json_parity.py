"""Single-patch CLI parity: ``repro-spatch --sp-file X --json`` is a
one-patch pipeline run, so its stdout is byte-identical to
``PatchSet([X])`` rendered through
:func:`~repro.engine.report.result_payload` — for every cookbook patch
over its workload, with the prefilter on and off and with one and four
jobs.  (``--profile`` is left out: its section is volatile by design.)
"""

import pytest

from repro import CodeBase, PatchSet, SemanticPatch
from repro.cli.spatch import main as spatch_main
from repro.options import SpatchOptions
from repro.engine.report import dumps, result_payload

from test_prefilter import COOKBOOK_WORKLOADS, _cookbook_patch

CONFIGS = [(True, 1), (False, 1), (True, 4), (False, 4)]


@pytest.mark.parametrize("prefilter,jobs", CONFIGS,
                         ids=[f"prefilter_{'on' if p else 'off'}-jobs{j}"
                              for p, j in CONFIGS])
@pytest.mark.parametrize("name", sorted(COOKBOOK_WORKLOADS))
def test_cli_json_matches_patchset_payload(name, prefilter, jobs, tmp_path,
                                           capsys):
    cookbook_patch = _cookbook_patch(name)
    cocci = tmp_path / f"{name}.cocci"
    cocci.write_text(cookbook_patch.ast.source_text)
    root = tmp_path / "src"
    COOKBOOK_WORKLOADS[name]().write_to(root)
    cxx = cookbook_patch.options.cxx

    argv = ["--json", "--sp-file", str(cocci), "--jobs", str(jobs)]
    if cxx is not None:
        argv.append(f"--c++={cxx}")
    if not prefilter:
        argv.append("--no-prefilter")
    rc = spatch_main(argv + [str(root)])
    out = capsys.readouterr().out

    # the same patch file and tree, loaded the way the CLI loads them
    patch = SemanticPatch.from_path(cocci, options=SpatchOptions(cxx=cxx))
    tree = CodeBase.from_dir(root)
    files = {str(root / filename): text for filename, text in tree.items()}
    result = PatchSet([patch]).apply(CodeBase.from_files(files), jobs=jobs,
                                     prefilter=prefilter)
    payload = result_payload(result, [patch])
    assert out == dumps(payload) + "\n"
    assert rc == payload["exit_status"]
    assert payload["summary"]["files"] == len(files)
