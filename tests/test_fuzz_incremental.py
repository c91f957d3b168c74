"""Randomized edit-script differential fuzzer for incremental application.

Every hand-written incremental test checks one scenario; this file checks
*sequences*.  A seeded RNG generates an edit script — random tree edits
(change / add / delete / touch) interleaved with patch-list edits (append /
drop / reorder / modify-SMPL) — and replays it as an edit-apply loop where
each step's result seeds the next step's ``since=``.  After every step the
incremental result must be **byte-identical** to a cold run over the same
tree and patch list: texts, per-rule reports (combined and per patch),
coverage stats, exit codes and reuse records, across prefilter on/off ×
jobs 1/4.  The chaining matters: a step may exercise whole-set splicing,
prefix splicing with suffix replay, per-file demotion or a cold fallback,
and any state a previous step corrupted would surface here.

Every step additionally re-runs with the **transform memo** enabled — a
fresh :class:`~repro.engine.memo.TransformMemo` instance over one on-disk
directory shared by the *whole* sweep (every seed, step and configuration
writes and reads the same entry files, like fleet processes sharing a
cache dir).  Each such run exercises both tiers — cold memory tier warm
disk tier on entry, promote-to-memory plus duplicate-content hits within
the step — and must be byte-identical to the cold run: if the memo key
(content hash, patch fingerprint, mode flags) ever under-discriminated,
cross-seed or cross-config contamination would surface here as a
differential failure.  ``REPRO_FUZZ_MEMO_DIR`` pins the directory (the CI
smoke/nightly jobs do; default: a per-test temporary directory).

The patch pool is a rename lattice — ``{token}_{g}() -> {token}_{g+1}()``
— so patches compose into order-sensitive chains (a reorder or a dropped
middle patch genuinely changes the output, not just the bookkeeping).  Two
tokens are rewritten by ``script:python`` rules: ``table`` through a
translation table its initialize rule sets up (a pure script, which the
memo and the splice reuse), ``count`` by numbering every match in visit
order (an impure script, which every reuse path must detect).  Every
result is compared with a cold *serial* run, so a forked or spliced run
that let a counting script see the files out of order shows up here.

Seed control:

* default (PR CI / local runs): a quick ``SMOKE_SEEDS``-seed sweep per
  configuration;
* ``REPRO_FUZZ_SECONDS=N``: keep consuming seeds until the time budget is
  spent (the nightly job's mode) — the budget is split across the four
  configurations.

On failure the offending seed (and the op sequence it generated) is
printed so the case can be replayed locally::

    REPRO_FUZZ_SEED=<seed> PYTHONPATH=src python -m pytest \
        tests/test_fuzz_incremental.py -k jobs1
"""

import os
import random
import time

import pytest

from repro import CodeBase, PatchSet, SemanticPatch

from test_incremental import assert_results_identical

#: the rename lattice the random patch lists draw from (see SCRIPTED)
TOKENS = ("alpha", "beta", "gamma", "delta", "table", "count")
#: generations per token (a patch rewrites generation g to g+1)
GENERATIONS = 3

#: edit steps per seed (each step = one mutation + one differential check)
STEPS_PER_SEED = 5
#: seeds per configuration in the default quick sweep; 10 is the smallest
#: range whose scripts collectively reach every op (checked by
#: test_fuzz_ops_all_reachable — 5 seeds never generate an ``add``)
SMOKE_SEEDS = 10

#: nightly mode: spend this many seconds sweeping seeds (0 = quick sweep)
FUZZ_SECONDS = float(os.environ.get("REPRO_FUZZ_SECONDS", "0") or 0)
#: replay hook: run exactly this seed (printed by a failing sweep)
FUZZ_SEED = os.environ.get("REPRO_FUZZ_SEED")
#: pin the shared memo directory (CI does; default: per-test tmp dir)
FUZZ_MEMO_DIR = os.environ.get("REPRO_FUZZ_MEMO_DIR")

CONFIGS = [(True, 1), (False, 1), (True, 4), (False, 4)]
CONFIG_IDS = [f"prefilter_{'on' if p else 'off'}-jobs{j}" for p, j in CONFIGS]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

#: identifier regex, initialize rule and renaming script of the
#: script-driven tokens: a pure translation-table lookup of one generation,
#: and an impure counter of every lattice call that renames the ``count``
#: ones by their number (its outputs leave the lattice, so no later patch
#: matches them)
SCRIPTED = {
    "table": ("^table_{gen}$", 'TABLE = {{"table_{gen}": "table_{next}"}}',
              "coccinelle.nf = cocci.make_ident(TABLE[fn])"),
    "count": ("^[a-z]+_[0-9]+$", "SEEN = [0]",
              "SEEN[0] += 1\n"
              "cocci.include_match(fn.startswith('count_'))\n"
              'coccinelle.nf = cocci.make_ident("%s_n%d" % (fn, SEEN[0]))'),
}


def _patch_text(token: str, gen: int) -> str:
    if token not in SCRIPTED:
        return (f"@r_{token}_{gen}@ @@\n"
                f"- {token}_{gen}();\n"
                f"+ {token}_{gen + 1}();\n")
    regex, setup, script = SCRIPTED[token]
    return (f"@initialize:python@ @@\n"
            f"{setup.format(gen=gen, next=gen + 1)}\n\n"
            f"@m@\nidentifier fn =~ \"{regex.format(gen=gen)}\";\n"
            f"position p;\n@@\n"
            f"fn@p(...)\n\n"
            f"@script:python s@\nfn << m.fn;\nnf;\n@@\n{script}\n\n"
            f"@e@\nidentifier m.fn;\nidentifier s.nf;\nposition m.p;\n@@\n"
            f"- fn@p\n+ nf\n")


def _build_patchset(descs: list[tuple[str, int]]) -> PatchSet:
    return PatchSet([SemanticPatch.from_string(_patch_text(token, gen),
                                               name=f"{token}{gen}")
                     for token, gen in descs])


def _new_file(rng: random.Random, index: int) -> str:
    calls = "\n".join(
        f"    {rng.choice(TOKENS)}_{rng.randrange(GENERATIONS)}();"
        for _ in range(rng.randrange(1, 5)))
    return f"void fn_{index}(void) {{\n{calls}\n}}\n"


def _init_case(rng: random.Random,
               ) -> tuple[dict[str, str], list[tuple[str, int]]]:
    """One seed's starting tree and patch list (shared by the differential
    loop and the reachability meta-check so the two cannot drift)."""
    files = {f"f{index}.c": _new_file(rng, index)
             for index in range(rng.randrange(2, 5))}
    descs = [(rng.choice(TOKENS), rng.randrange(GENERATIONS))
             for _ in range(rng.randrange(1, 4))]
    return files, descs


def _mutate(rng: random.Random, files: dict[str, str],
            descs: list[tuple[str, int]], step: int) -> str:
    """One random edit-script step, applied in place; returns the op name."""
    ops = ["change", "add", "touch", "append", "modify"]
    if len(files) > 1:
        ops.append("delete")
    if len(descs) > 1:
        ops.extend(["drop", "reorder"])
    op = rng.choice(ops)
    if op == "change":
        name = rng.choice(sorted(files))
        token = rng.choice(TOKENS)
        files[name] += (f"\nvoid probe_{step}(void) {{\n"
                        f"    {token}_{rng.randrange(GENERATIONS)}();\n}}\n")
    elif op == "add":
        files[f"added_{step}.c"] = _new_file(rng, 100 + step)
    elif op == "delete":
        del files[rng.choice(sorted(files))]
    elif op == "touch":
        name = rng.choice(sorted(files))
        files[name] = files[name][:]  # content-identical rewrite
    elif op == "append":
        descs.append((rng.choice(TOKENS), rng.randrange(GENERATIONS)))
    elif op == "drop":
        descs.pop(rng.randrange(len(descs)))
    elif op == "reorder":
        i, j = rng.sample(range(len(descs)), 2)
        descs[i], descs[j] = descs[j], descs[i]
    elif op == "modify":
        index = rng.randrange(len(descs))
        token, gen = descs[index]
        descs[index] = (token, (gen + 1) % GENERATIONS)
    return op


# ---------------------------------------------------------------------------
# the differential loop
# ---------------------------------------------------------------------------

def _run_fuzz_case(seed: int, prefilter: bool, jobs: int,
                   memo_dir: str) -> None:
    from repro.engine.memo import TransformMemo
    from repro.server.protocol import exit_status

    rng = random.Random(seed)
    files, descs = _init_case(rng)
    history: list[str] = []
    result = None
    for step in range(STEPS_PER_SEED):
        history.append(_mutate(rng, files, descs, step))
        patchset = _build_patchset(descs)
        cold = patchset.apply(CodeBase.from_files(dict(files)),
                              jobs=1, prefilter=prefilter)
        incremental = patchset.apply(CodeBase.from_files(dict(files)),
                                     jobs=jobs, prefilter=prefilter,
                                     since=result)
        # a fresh memo instance per step = a fresh process warm-starting
        # from the sweep-shared disk tier (memory tier fills within the run)
        memo = TransformMemo(path=memo_dir)
        memoized = patchset.apply(CodeBase.from_files(dict(files)),
                                  jobs=jobs, prefilter=prefilter, memo=memo)
        try:
            # a None since (first step) is a plain cold run, no wrapper
            assert (incremental.incremental is not None) == (result is not None)
            context = f"seed={seed} step={step} ops={history} descs={descs}"
            assert_results_identical(incremental, cold, context)
            assert_results_identical(memoized, cold, "memo " + context)
            for run in (incremental, memoized):
                assert run.diagnostics == cold.diagnostics, context
                assert run.impure_patches == cold.impure_patches, context
            patches = list(patchset)
            assert exit_status(memoized, patches) \
                == exit_status(incremental, patches) \
                == exit_status(cold, patches), context
        except AssertionError:
            print(f"\nFUZZ FAILURE: seed={seed} prefilter={prefilter} "
                  f"jobs={jobs} step={step} ops={history} descs={descs}\n"
                  f"replay: REPRO_FUZZ_SEED={seed} PYTHONPATH=src "
                  f"python -m pytest tests/test_fuzz_incremental.py")
            raise
        result = incremental


@pytest.mark.parametrize("prefilter,jobs", CONFIGS, ids=CONFIG_IDS)
def test_fuzz_edit_scripts(prefilter, jobs, tmp_path):
    memo_dir = FUZZ_MEMO_DIR or str(tmp_path / "memo")
    if FUZZ_SEED is not None:
        _run_fuzz_case(int(FUZZ_SEED), prefilter, jobs, memo_dir)
        return
    if FUZZ_SECONDS > 0:
        deadline = time.monotonic() + FUZZ_SECONDS / len(CONFIGS)
        seed = 0
        while time.monotonic() < deadline:
            _run_fuzz_case(seed, prefilter, jobs, memo_dir)
            seed += 1
        assert seed >= SMOKE_SEEDS, \
            f"budget {FUZZ_SECONDS}s too small to beat the quick sweep"
        print(f"\nfuzz({CONFIG_IDS[CONFIGS.index((prefilter, jobs))]}): "
              f"{seed} seeds x {STEPS_PER_SEED} steps within budget")
    else:
        for seed in range(SMOKE_SEEDS):
            _run_fuzz_case(seed, prefilter, jobs, memo_dir)


def test_fuzz_ops_all_reachable():
    """Meta-check: the quick sweep's seeds collectively exercise *every* op
    — a sweep that never adds a file (or never reorders patches) would
    silently stop covering that incremental path in PR CI."""
    seen: set[str] = set()
    for seed in range(SMOKE_SEEDS):
        rng = random.Random(seed)
        files, descs = _init_case(rng)
        for step in range(STEPS_PER_SEED):
            seen.add(_mutate(rng, files, descs, step))
    assert {"append", "drop", "reorder", "modify",
            "change", "add", "delete", "touch"} <= seen, seen
