"""Matching and transformation engine for semantic patches.

Layered as pipeline → prefilter → cache → session → matcher/transform: the
:class:`PatchPipeline` orchestrates one or more patches over whole code
bases (prefilter skipping, parse caching, optional parallel workers), each
:class:`FileSession` applies the rule sequence to one file, and
:class:`Engine` is the per-patch state (script namespace, compiled
matchers) a pipeline holds for each of its patches.
"""

from .bindings import BoundValue, Env, Position, EMPTY_ENV
from .edits import Deletion, EditSet, Insertion
from .matcher import Correspondence, MatchInstance, MState
from .transform import Transformer, FreshNameRegistry
from .scripting import CocciHelpers, ScriptRunner, TaggedValue
from .report import FileResult, PatchResult, RuleReport
from .cache import DEFAULT_TREE_CACHE, TreeCache, content_sha1
from .memo import MemoEntry, TransformMemo
from .session import FileSession
from .prefilter import PatchPrefilter, required_tokens, scan_token_set
from .engine import Engine
from .pipeline import (FileRecord, PatchPipeline, PipelinePrefilter,
                       PipelineResult, PipelineStats, patch_fingerprint,
                       patchset_fingerprint, resolve_jobs)
from .incremental import IncrementalPipeline, IncrementalStats

__all__ = [
    "BoundValue", "Env", "Position", "EMPTY_ENV",
    "Deletion", "EditSet", "Insertion",
    "Correspondence", "MatchInstance", "MState",
    "Transformer", "FreshNameRegistry",
    "CocciHelpers", "ScriptRunner", "TaggedValue",
    "FileResult", "PatchResult", "RuleReport",
    "DEFAULT_TREE_CACHE", "TreeCache", "content_sha1",
    "MemoEntry", "TransformMemo",
    "FileSession",
    "PatchPrefilter", "required_tokens", "scan_token_set",
    "Engine",
    "FileRecord", "PatchPipeline", "PipelinePrefilter", "PipelineResult",
    "PipelineStats", "patch_fingerprint",
    "patchset_fingerprint", "resolve_jobs",
    "IncrementalPipeline", "IncrementalStats",
]
