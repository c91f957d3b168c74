"""Local and ``--server`` runs of ``repro-spatch`` print the same bytes.

Both paths end in one result payload, rendered by one function, so for
every output flag set the two runs must agree on stdout, stderr, the exit
code and the bytes ``--in-place`` writes.  The only server-side field is
the ``"workspace"`` echo of a ``--json`` line, which is stripped before
comparing.  The ``unsorted`` layout names its targets out of name order
(``z.c a.c``): per-file output follows the targets, not the sorted keys
of a JSON round trip.

``--profile`` prints one format in both modes: the run's profile payload
as ``# section.key: value`` lines, with the same stats, parse-cache and
matcher keys whether the run was local, in a daemon or in a daemon's
fleet worker.

A plain run never touches the server layer: importing the CLI loads no
``repro.server`` module (``--server`` imports its client on demand).  Nor
does a plain cookbook run load the transform memo, the incremental layer,
the fork pool's ``multiprocessing`` or the span tracer: each is imported by
the flag that uses it, and each such flag prints what the plain run does.
"""

import ast
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

from profile_text import PROFILE_LINE

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


#: runs ``repro-spatch`` in a fresh process, then writes the names of the
#: modules it loaded as the last line of stderr
_MODULE_PROBE = ("import sys\n"
                 "from repro.cli.spatch import main\n"
                 "code = main(sys.argv[1:])\n"
                 "sys.stdout.flush()\n"
                 "print(sorted(sys.modules), file=sys.stderr)\n"
                 "sys.exit(code)\n")

#: what a plain cookbook run must not load (the incremental layer serves
#: ``since=`` re-applies: --watch rounds and the daemon)
_ON_DEMAND = {"repro.engine.memo", "repro.engine.incremental",
              "multiprocessing", "repro.obs.trace"}


@pytest.fixture(scope="module")
def cookbook_tree(tmp_path_factory):
    from repro.workloads import cuda_app, openmp_kernels

    root = tmp_path_factory.mktemp("cookbook") / "tree"
    codebases = [openmp_kernels.generate(n_files=2, kernels_per_file=2,
                                         regions_per_file=2, seed=9),
                 cuda_app.generate(n_files=1, seed=1)]
    for codebase in codebases:
        for name, text in codebase.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return root


def probe_cookbook_run(flags, tree):
    """``repro-spatch --cookbook full_modernization FLAGS TREE`` in a
    fresh process: exit code, stdout and the set of loaded modules."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    ran = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, "--cookbook",
         "full_modernization", *flags, str(tree)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    modules = set(ast.literal_eval(ran.stderr.splitlines()[-1]))
    return ran.returncode, ran.stdout, modules


@pytest.fixture(scope="module")
def plain_cookbook_run(cookbook_tree):
    return probe_cookbook_run([], cookbook_tree)


def test_plain_cookbook_run_loads_only_what_it_uses(plain_cookbook_run):
    code, out, modules = plain_cookbook_run
    assert code == 0 and out.startswith("--- a/")
    assert modules.isdisjoint(_ON_DEMAND)
    assert "repro.engine.compile" in modules


@pytest.mark.parametrize("flag, value, loads", [
    ("--memo-dir", "MEMO", "repro.engine.memo"),
    ("--jobs", "2", "multiprocessing"),
    ("--trace", "TRACE", "repro.obs.trace")], ids=["memo-dir", "jobs", "trace"])
def test_each_flag_loads_its_layer_and_prints_the_same(
        flag, value, loads, cookbook_tree, plain_cookbook_run, tmp_path):
    flags = [flag, str(tmp_path / value) if value.isupper() else value]
    code, out, modules = probe_cookbook_run(flags, cookbook_tree)
    assert (code, out) == plain_cookbook_run[:2]
    assert loads in modules
    if flag == "--memo-dir":
        # a second process answers every session from the memo directory
        assert probe_cookbook_run(flags, cookbook_tree)[:2] == (code, out)


def test_json_run_carries_the_plain_diffs(cookbook_tree, plain_cookbook_run):
    code, out, modules = probe_cookbook_run(["--json"], cookbook_tree)
    payload = json.loads(out)
    assert code == payload["exit_status"] == plain_cookbook_run[0]
    assert "".join(payload["files"][name].get("diff", "")
                   for name in sorted(payload["files"])) \
        == plain_cookbook_run[1]
    assert modules.isdisjoint(_ON_DEMAND)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_local_and_server_profiles_print_alike(workers, tmp_path, capsys):
    """One ``--profile`` renderer: local lines and the lines of a daemon's
    profile (in-process with ``workers=1``, from a fleet worker with
    ``workers=2``) share the format and the stats, parse-cache and
    matcher keys."""
    daemon = PatchDaemon(f"unix:{tmp_path}/profile.sock",
                         PatchService(workers=workers))
    daemon.serve_in_thread()
    root = tmp_path / "src"
    cocci = tmp_path / "rename.cocci"
    cocci.write_text(SMPL)
    argv = ["--sp-file", str(cocci), "--profile", str(root)]
    try:
        local = run(argv, root, capsys)
        remote = run(["--server", daemon.address, *argv], root, capsys)
    finally:
        daemon.shutdown()

    keys = []
    for code, out, err, _written in (local, remote):
        assert (code, out) == local[:2] and code == 0
        lines = err.splitlines()
        assert lines and all(PROFILE_LINE.match(line) for line in lines), err
        keys.append([line.split(":")[0] for line in lines
                     if line.startswith(("# stats.", "# parse_cache.",
                                         "# matcher."))])
    assert keys[0] == keys[1] and "# stats.files_total" in keys[0]
