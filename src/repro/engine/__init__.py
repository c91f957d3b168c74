"""Matching and transformation engine for semantic patches.

Layered as pipeline → prefilter → cache → session → matcher/transform: the
:class:`PatchPipeline` orchestrates one or more patches over whole code
bases (prefilter skipping, parse caching, optional parallel workers), each
:class:`FileSession` applies the rule sequence to one file, and
:class:`Engine` is the per-patch state (script namespace, compiled
matchers) a pipeline holds for each of its patches.
"""

import importlib

#: exported name -> the submodule defining it.  The package imports a
#: submodule on first use of one of its names, so a plain run never loads
#: the memo, the incremental layer or the fork pool it does not use.
_EXPORTS = {
    **dict.fromkeys(("BoundValue", "Env", "Position", "EMPTY_ENV"),
                    "bindings"),
    **dict.fromkeys(("Deletion", "EditSet", "Insertion"), "edits"),
    **dict.fromkeys(("Correspondence", "MatchInstance", "MState"), "matcher"),
    **dict.fromkeys(("Transformer", "FreshNameRegistry"), "transform"),
    **dict.fromkeys(("CocciHelpers", "ScriptRunner", "TaggedValue"),
                    "scripting"),
    **dict.fromkeys(("FileResult", "PatchResult", "RuleReport"), "report"),
    **dict.fromkeys(("DEFAULT_TREE_CACHE", "TreeCache", "content_sha1"),
                    "cache"),
    **dict.fromkeys(("MemoEntry", "TransformMemo"), "memo"),
    "FileSession": "session",
    **dict.fromkeys(("PatchPrefilter", "required_tokens", "scan_token_set"),
                    "prefilter"),
    "Engine": "engine",
    **dict.fromkeys(("FileRecord", "PatchPipeline", "PipelinePrefilter",
                     "PipelineResult", "PipelineStats", "patch_fingerprint",
                     "patchset_fingerprint", "resolve_jobs"), "pipeline"),
    **dict.fromkeys(("IncrementalPipeline", "IncrementalStats"),
                    "incremental"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
