"""Reference answers for the loop workloads, computed outside the timed region.

    python3 perfbench/reference.py --seed N --first A --stop B --out FILE

Rebuilds the seeded tree and edit stream, applies edits ``[0, A)`` to the
tree, runs the cookbook cold on that state with a local in-process
``IncrementalPipeline``, then chains it through edits ``[A, B)``.  FILE
receives the payload digest of the start state (and, for ``A == 0``, the
query answer for the unchanged tree) and one digest per edit.  ``run.py``
runs two of these side by side on the two halves of the rounds; the
second half's cold start must equal the first half's chained end.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def digests(seed: int, first: int, stop: int) -> dict:
    from repro.cookbook import full_modernization_pipeline
    from repro.engine.cache import TreeCache
    from repro.engine.incremental import IncrementalPipeline
    from repro.engine.memo import TransformMemo
    from repro.server.protocol import result_payload

    import inputs
    from loop_child import payload_digest

    tree = inputs.make_tree(seed)
    stream = inputs.edit_stream(seed, tree)
    patches = list(full_modernization_pipeline())
    pipeline = IncrementalPipeline(
        [patch.ast for patch in patches],
        options=[patch.options for patch in patches],
        names=[patch.name for patch in patches],
        jobs=1, prefilter=True, tree_cache=TreeCache(), memo=TransformMemo())
    files = dict(tree)
    for name, text in stream[:first]:
        files[name] = text
    result = pipeline.run(files)
    out = {"start": payload_digest(result_payload(result, patches)),
           "digests": []}
    if first == 0:
        out["query"] = payload_digest(result_payload(result, patches,
                                                     include_diff=False))
    for name, text in stream[first:stop]:
        files = {**files, name: text}
        result = pipeline.run(files, since=result)
        out["digests"].append(payload_digest(result_payload(result,
                                                            patches)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--stop", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(digests(args.seed, args.first, args.stop), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
