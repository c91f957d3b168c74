"""Launcher for one ``repro-spatch`` process of the ``cold_cli`` workload.

It imports ``repro.cli.spatch`` and calls ``main`` directly, because
``python -m repro.cli.spatch`` prints a runpy ``RuntimeWarning`` on every
run.  With ``--trace-out FILE`` as the first arguments it installs the
layer wrappers before calling ``main`` and writes the span totals, the
moment ``main`` could start and the registry's parse-phase seconds to
FILE::

    python3 perfbench/cli_child.py [--trace-out FILE] -- SPATCH-ARGS...
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli.spatch import main as spatch_main

    ready = time.monotonic()
    if trace_out is None:
        return spatch_main(argv)

    from repro.obs import registry
    from tracer import Tracer, repro_targets

    tracer = Tracer(repro_targets())
    tracer.install()
    try:
        code = spatch_main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        parse = registry.phase_summaries().get("parse") or {}
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"ready": ready, "trace": tracer.summary(),
                       "registry_parse_s": parse.get("sum", 0.0)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
