"""The paper's HPC refactoring use cases as ready-to-apply semantic patches.

Each module corresponds to one use case of Section 3 of the paper (plus the
AoS→SoA case study of Section 2 / [ML21]) and exposes:

* the semantic patch as written in the paper (``paper_listing()``), kept as
  close to the published listing as the reproduction allows,
* a parameterised builder returning a :class:`repro.SemanticPatch`, typically
  with configuration hooks the paper mentions in prose (marker API to use,
  architectures to clone for, translation dictionaries, ...).

============================  =========================================================
module                        paper use case
============================  =========================================================
``instrumentation``           Interfacing with an instrumentation API (LIKWID et al.)
``declare_variant``           OpenMP ``declare variant`` function cloning
``multiversioning``           Function cloning / ``target`` attributes
``bloat_removal``             Bloat and clone removal
``unrolling``                 Removal of explicit loop unrolling (rules p0, p1+r1)
``mdspan``                    Advanced expression modification (multi-index subscripts)
``cuda_hip``                  Translation of very similar APIs (CUDA → HIP)
``openacc_openmp``            Translation of directive-based APIs (OpenACC → OpenMP)
``stl_modernize``             Introduction of modern C++ STL constructs (std::find)
``kokkos_lambda``             Introduction of APIs enclosing lambdas (Kokkos)
``compiler_workaround``       Workarounds for occasional compiler bugs (LIBRSB)
``aos_soa``                   AoS → SoA case study (GADGET, [ML21])
============================  =========================================================
"""

import importlib
from typing import Optional

# the twelve patches of builders(); the AoS -> SoA case study derives its
# patch from a code base and is imported on first use (see __getattr__)
from . import (
    bloat_removal,
    compiler_workaround,
    cuda_hip,
    declare_variant,
    instrumentation,
    kokkos_lambda,
    mdspan,
    multiversioning,
    openacc_openmp,
    stl_modernize,
    unrolling,
)

__all__ = [
    "aos_soa", "bloat_removal", "compiler_workaround", "cuda_hip",
    "declare_variant", "instrumentation", "kokkos_lambda", "mdspan",
    "multiversioning", "openacc_openmp", "stl_modernize", "unrolling",
    "builders", "full_modernization_pipeline",
]


def __getattr__(name: str):
    if name != "aos_soa":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)


def builders() -> dict:
    """The canonical ``name -> zero-argument builder`` table of the twelve
    ready-to-apply cookbook patches (the CLI's ``--cookbook`` names and the
    order :func:`full_modernization_pipeline` applies them in)."""
    return {
        "likwid_instrumentation": instrumentation.likwid_patch,
        "declare_variant": declare_variant.declare_variant_patch,
        "target_multiversioning": multiversioning.clone_with_target_attributes,
        "bloat_removal": bloat_removal.remove_obsolete_clones,
        "reroll_p0": unrolling.reroll_patch_p0,
        "reroll_p1r1": unrolling.reroll_patch_p1_r1,
        "mdspan_multiindex": mdspan.multiindex_patch,
        "cuda_to_hip": cuda_hip.cuda_to_hip_patch,
        "acc_to_omp": openacc_openmp.acc_to_omp_patch,
        "raw_loop_to_find": stl_modernize.raw_loop_to_find_patch,
        "kokkos_lambda": kokkos_lambda.kokkos_patch,
        "gcc_workaround": compiler_workaround.gcc_workaround_patch,
    }


def full_modernization_pipeline(*, mdspan_arrays: Optional[dict] = None):
    """The whole cookbook as one :class:`~repro.api.PatchSet`: every
    ready-to-apply use-case patch, in the canonical :func:`builders` order,
    batch-applied in a single pipeline pass.

    ``mdspan_arrays`` optionally redirects the mdspan multi-index patch at
    specific ``{array_name: rank}`` pairs (the default targets the literal
    array ``a`` of the paper's listing).
    """
    from ..api import PatchSet

    patches = []
    for name, builder in builders().items():
        if name == "mdspan_multiindex" and mdspan_arrays is not None:
            patches.append(mdspan.multiindex_patch_for_arrays(mdspan_arrays))
        else:
            patches.append(builder())
    return PatchSet(patches, name="full-modernization")
