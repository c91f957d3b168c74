"""Shared fixtures and reporting helpers for the experiment benchmarks.

Each ``bench_*`` file regenerates one experiment of EXPERIMENTS.md: it builds
the synthetic workload standing in for the code base the paper refers to,
applies the corresponding cookbook semantic patch under ``pytest-benchmark``
timing, asserts the qualitative *shape* the paper claims (who wins / what is
transformed / what is preserved), and prints the measured rows so they can be
copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis import format_table, render_experiment, terseness  # noqa: E402


#: moderate workload sizes so the full harness runs in seconds, not minutes
SIZES = {"files": 3, "loops": 6}


@pytest.fixture(autouse=True)
def _cold_parse_cache():
    """Start every experiment with a cold process-wide parse-tree cache so
    one benchmark's parses never subsidise another's timings.  (Warm rounds
    *within* one pytest-benchmark measurement are steady-state behaviour and
    intentionally kept.)"""
    from repro.engine.cache import DEFAULT_TREE_CACHE

    DEFAULT_TREE_CACHE.clear()
    yield


def emit(title: str, claim: str, rows, columns=None) -> None:
    """Print one experiment block (captured by ``--benchmark-only -s``)."""
    print()
    print(render_experiment(title, claim, rows, columns=columns))


@pytest.fixture(scope="session")
def openmp_workload():
    from repro.workloads import openmp_kernels

    return openmp_kernels.generate(n_files=SIZES["files"], kernels_per_file=4,
                                   regions_per_file=3, seed=42)


@pytest.fixture(scope="session")
def gadget_workload():
    from repro.workloads import gadget

    return gadget.generate(n_files=SIZES["files"], loops_per_file=SIZES["loops"],
                           grid_kernels_per_file=2, seed=42)


@pytest.fixture(scope="session")
def multiversion_workload():
    from repro.workloads import multiversion_app

    return multiversion_app.generate(n_files=SIZES["files"], clone_sets_per_file=4, seed=42)


@pytest.fixture(scope="session")
def unrolled_workload():
    from repro.workloads import unrolled

    return unrolled.generate(n_files=SIZES["files"], unrolled_per_file=5,
                             impostors_per_file=2, plain_per_file=2, seed=42)


@pytest.fixture(scope="session")
def cuda_workload():
    from repro.workloads import cuda_app

    return cuda_app.generate(n_files=SIZES["files"], drivers_per_file=3,
                             adversarial=True, seed=42)


@pytest.fixture(scope="session")
def openacc_workload():
    from repro.workloads import openacc_app

    return openacc_app.generate(n_files=SIZES["files"], loops_per_file=5,
                                adversarial=True, seed=42)


@pytest.fixture(scope="session")
def rawloops_workload():
    from repro.workloads import rawloops

    return rawloops.generate(n_files=SIZES["files"], searches_per_file=5,
                             counters_per_file=2, seed=42)


@pytest.fixture(scope="session")
def kokkos_workload():
    from repro.workloads import kokkos_exercise

    return kokkos_exercise.generate(n_files=2)


@pytest.fixture(scope="session")
def librsb_workload():
    from repro.workloads import librsb_like

    return librsb_like.generate(n_files=2)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Fold the engine's per-phase timing histograms (parse, prefilter,
    match, transform, memo, splice, sync — count/sum/mean and interpolated
    p50/p90/p99 each) into any saved ``--benchmark-json`` file, so a BENCH
    artifact records not just how long each experiment took but where the
    engine spent the time."""
    from repro.obs import registry as _obs

    output_json["repro_phases"] = _obs.phase_summaries()
