"""Local and ``--server`` runs of ``repro-spatch`` print the same bytes.

Both paths end in one result payload, rendered by one function, so for
every output flag set the two runs must agree on stdout, stderr, the exit
code and the bytes ``--in-place`` writes.  The only server-side field is
the ``"workspace"`` echo of a ``--json`` line, which is stripped before
comparing.  The ``unsorted`` layout names its targets out of name order
(``z.c a.c``): per-file output follows the targets, not the sorted keys
of a JSON round trip.

A plain run never touches the server layer: importing the CLI loads no
``repro.server`` module (``--server`` imports its client on demand).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli.spatch import main as spatch_main
from repro.engine.report import dumps
from repro.server.daemon import PatchDaemon
from repro.server.service import PatchService

SMPL = ("@r1@ @@\n- old();\n+ new_call();\n\n"
        "@r2@ @@\n- legacy();\n+ modern();\n")

FILES = {
    "z.c": "void f(void) { old(); legacy(); }\n",
    "a.c": "void g(void) { old(); old(); }\n",
    "idle.c": "int idle;\n",
}

FLAG_SETS = {
    "plain": [],
    "report": ["--report"],
    "json": ["--json"],
    "in_place": ["--in-place"],
    "json_in_place": ["--json", "--in-place"],
    "verbose": ["--verbose"],
}


@pytest.fixture
def daemon(tmp_path):
    daemon = PatchDaemon(f"unix:{tmp_path}/spatchd.sock", PatchService())
    daemon.serve_in_thread()
    yield daemon
    daemon.shutdown()


def write_tree(root):
    root.mkdir(exist_ok=True)
    for name, text in FILES.items():
        (root / name).write_text(text)


def run(argv, root, capsys):
    """One CLI run over a fresh copy of the tree: exit code, stdout,
    stderr and the bytes of every file afterwards."""
    write_tree(root)
    code = spatch_main(argv)
    captured = capsys.readouterr()
    written = {name: (root / name).read_bytes() for name in FILES}
    return code, captured.out, captured.err, written


def without_workspace(out: str) -> str:
    payload = json.loads(out)
    payload.pop("workspace")
    return dumps(payload) + "\n"


@pytest.mark.parametrize("layout", ["directory", "unsorted"])
@pytest.mark.parametrize("flags", list(FLAG_SETS.values()),
                         ids=list(FLAG_SETS))
def test_local_and_server_runs_print_the_same(flags, layout, daemon,
                                              tmp_path, capsys):
    root = tmp_path / "src"
    cocci = tmp_path / "rename.cocci"
    cocci.write_text(SMPL)
    targets = [str(root)] if layout == "directory" \
        else [str(root / "z.c"), str(root / "a.c")]
    argv = ["--sp-file", str(cocci), *flags, *targets]

    local = run(argv, root, capsys)
    remote = run(["--server", daemon.address, *argv], root, capsys)

    code, out, err, written = remote
    if "--json" in flags:
        out = without_workspace(out)
    assert (code, out, err, written) == local
    assert local[0] == 0
    assert "Traceback" not in local[2]
    if "--in-place" in flags:
        assert b"new_call" in local[3]["z.c"]
    if layout == "unsorted" and ("--report" in flags or "--verbose" in flags):
        lines = [line for line in local[2].splitlines() if ": rule " in line]
        assert lines[0].startswith(f"#   {root / 'z.c'}: ")


def test_cli_import_loads_no_server_module():
    """Importing the CLI loads no server, frontend, watch or journal
    module: each is imported only by the flag that needs it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli.spatch; "
         "print(sorted(name for name in sys.modules "
         "if name.startswith(('repro.server', 'repro.frontends')) "
         "or name in ('repro.watch', 'repro.obs.journal')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("module", ["repro.cli.spatch", "repro.cli.spatchd"])
def test_module_entry_point_writes_nothing_to_stderr(module):
    """``python -m`` runs the module without a runpy warning: the package
    does not import its entry-point modules ahead of them."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    ran = subprocess.run([sys.executable, "-m", module, "--version"],
                         env=env, capture_output=True, text=True)
    assert ran.returncode == 0
    assert ran.stdout.startswith(f"repro-{module.rsplit('.', 1)[1]} ")
    assert ran.stderr == ""


@pytest.mark.parametrize("flags", [["--json"], ["--report"]],
                         ids=["json", "report"])
def test_increment_lines_count_alike_local_and_server(flags, daemon,
                                                      tmp_path, capsys):
    """An added ``++i;`` and a removed ``--i;`` at column 0 count as one
    line each, not as file headers, in the local and the served summary."""
    root = tmp_path / "src"
    root.mkdir()
    (root / "a.c").write_text("void f(int i) {\n--i;\n}\n")
    cocci = tmp_path / "inc.cocci"
    cocci.write_text("@r@\nidentifier x;\n@@\n- --x;\n+ ++x;\n")
    argv = ["--sp-file", str(cocci), *flags, str(root / "a.c")]

    outputs = []
    for prefix in ([], ["--server", daemon.address]):
        assert spatch_main([*prefix, *argv]) == 0
        captured = capsys.readouterr()
        out = without_workspace(captured.out) if prefix and "--json" in flags \
            else captured.out
        outputs.append((out, captured.err))
    assert outputs[0] == outputs[1]
    out, err = outputs[0]
    if "--json" in flags:
        summary = json.loads(out)["summary"]
        assert (summary["lines_added"], summary["lines_removed"]) == (1, 1)
    else:
        assert "matches: 1  +1 -1" in err
