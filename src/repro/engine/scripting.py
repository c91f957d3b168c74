"""Support for ``initialize:python`` / ``script:python`` / ``finalize:python``
rules.

A script rule runs once per environment exported by the rules it imports
metavariables from.  Inside the script two objects are available, mirroring
Coccinelle's Python API as used in the paper:

``cocci``
    helper constructors — ``make_ident``, ``make_type``, ``make_expr``,
    ``make_stmt``, ``make_pragmainfo`` — plus ``include_match(False)`` to
    drop the current environment.
``coccinelle``
    a namespace on which the script assigns the metavariables it declared
    (``coccinelle.nf = cocci.make_ident(...)``).

A script that raises (for example a ``KeyError`` when looking up a function
that is not in its translation dictionary) simply drops the environment, with
a diagnostic; this is what makes the CUDA→HIP toy patch of the paper only
rename the functions present in its dictionary.

Per-file scripts share the patch's namespace, so a script that mutates it
(a counter, a list of seen names) makes a file's outcome depend on the files
before it.  The pipeline digests the namespace (:func:`namespace_digest`)
before and after every session of a script-bearing patch; a session that
changed it is *impure*, and every reuse path trusts only pure sessions.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
import types
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from ..errors import Diagnostic, ScriptRuleError
from ..smpl.ast import ScriptRule
from .bindings import BoundValue, Env


class _Opaque(Exception):
    """A namespace value that :func:`namespace_digest` cannot describe."""


#: immutable scalars, rendered without ``repr`` (hex for numbers)
_SCALARS = {type(None): str, bool: str, int: hex, float: float.hex,
            str: str, bytes: bytes.hex}


def _import_path(value) -> Optional[str]:
    """``module.qualname`` when that name imports back to ``value`` itself
    (builtins, library functions and classes), else ``None``."""
    module, qualname = getattr(value, "__module__", None), \
        getattr(value, "__qualname__", None)
    if not isinstance(module, str) or not isinstance(qualname, str):
        return None
    target = sys.modules.get(module)
    for part in qualname.split("."):
        target = getattr(target, part, None)
    return f"{module}.{qualname}" if target is value else None


class _Describer:
    """Renders a namespace by content.  Mutable objects are numbered in
    visit order, so aliasing and cycles are described without ``id()``."""

    def __init__(self, root: dict):
        self.root = root
        self.parts: list[str] = []
        self.seen: dict[int, int] = {}
        self.alive: list = []  # keeps visited ids from being reused

    def put(self, tag: str, text: str = "") -> None:
        self.parts.append(f"{tag}:{len(text)}:{text}")

    def hexdigest(self) -> str:
        return hashlib.sha1("\x00".join(self.parts).encode(
            "utf-8", "surrogatepass")).hexdigest()

    def describe(self, value) -> None:
        kind = type(value)
        if kind in _SCALARS:
            self.put(kind.__name__, _SCALARS[kind](value))
        elif kind is tuple:
            self.put("tuple", str(len(value)))
            for item in value:
                self.describe(item)
        elif kind is frozenset:
            self.unordered(value)
        elif kind is types.CodeType:
            self.put("code", "/".join(map(str, (
                value.co_name, value.co_argcount, value.co_posonlyargcount,
                value.co_kwonlyargcount, value.co_flags, value.co_code.hex(),
                value.co_names, value.co_varnames, value.co_freevars,
                value.co_cellvars))))
            self.describe(value.co_consts)
        elif kind is types.ModuleType:
            self.put("module", value.__name__)
        elif kind is re.Pattern:
            self.put("pattern", str(value.flags))
            self.describe(value.pattern)
        elif kind in (type, types.FunctionType, types.BuiltinFunctionType) \
                and (path := _import_path(value)):
            self.put("ref", path)
        elif id(value) in self.seen:
            self.put("alias", str(self.seen[id(value)]))
        else:
            self.seen[id(value)] = len(self.seen)
            self.alive.append(value)
            self.mutable(kind, value)

    def mutable(self, kind, value) -> None:
        if kind is list:
            self.put("list", str(len(value)))
            for item in value:
                self.describe(item)
        elif kind is set:
            self.unordered(value)
        elif kind is dict:
            self.put("dict", str(len(value)))
            for key, item in value.items():
                self.describe(key)
                self.describe(item)
        elif kind is types.FunctionType and value.__globals__ is self.root:
            self.put("function", value.__qualname__)
            for part in (value.__code__, value.__defaults__,
                         value.__kwdefaults__, value.__dict__):
                self.describe(part)
            for cell in value.__closure__ or ():
                try:
                    self.describe(cell.cell_contents)
                except ValueError:  # an empty cell
                    self.put("empty")
        else:
            raise _Opaque(kind.__name__)

    def unordered(self, values) -> None:
        """Set order follows string hashing, which differs between
        processes: describe each element on its own and sort."""
        digests = []
        for item in values:
            walker = _Describer(self.root)
            walker.describe(item)
            digests.append(walker.hexdigest())
        self.put("set", ",".join(sorted(digests)))


def namespace_digest(namespace: dict) -> Optional[str]:
    """A digest of a script namespace's contents, ``__builtins__`` excluded,
    equal across engines and processes for equal contents.  Functions are
    described by their code, defaults and closure cells; modules, library
    functions and classes by their import path.  ``None`` when some value
    cannot be described by content (an instance of a script-defined class,
    a bound method, ...): the caller must then treat the state as changed."""
    walker = _Describer(namespace)
    try:
        walker.describe({name: value for name, value in namespace.items()
                         if name != "__builtins__"})
    except (_Opaque, RecursionError):
        return None
    return walker.hexdigest()


@dataclass
class TaggedValue:
    """A value created by one of the ``cocci.make_*`` helpers."""

    kind: str
    text: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


class CocciHelpers:
    """The ``cocci`` object exposed to python rules."""

    def __init__(self) -> None:
        self._include_match = True

    # constructors ---------------------------------------------------------

    @staticmethod
    def make_ident(text: str) -> TaggedValue:
        return TaggedValue(kind="identifier", text=str(text))

    @staticmethod
    def make_type(text: str) -> TaggedValue:
        return TaggedValue(kind="type", text=str(text))

    @staticmethod
    def make_expr(text: str) -> TaggedValue:
        return TaggedValue(kind="expression", text=str(text))

    @staticmethod
    def make_stmt(text: str) -> TaggedValue:
        return TaggedValue(kind="statement", text=str(text))

    @staticmethod
    def make_pragmainfo(text: str) -> TaggedValue:
        return TaggedValue(kind="pragmainfo", text=str(text))

    # control -----------------------------------------------------------------

    def include_match(self, keep: bool) -> None:
        self._include_match = bool(keep)


@dataclass
class ScriptOutcome:
    """The result of running one script rule over the inherited environments."""

    environments: list[Env] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    ran: bool = False


#: script sources whose code objects :func:`_code` keeps, process-wide
MAX_COMPILED_SCRIPTS = 256


@functools.lru_cache(maxsize=MAX_COMPILED_SCRIPTS)
def _code(source: str, label: str) -> types.CodeType:
    """``source`` compiled once: a code object is immutable, so every run,
    environment and engine executes the same one in its own namespace.
    ``dont_inherit`` keeps this module's ``__future__`` flags out of user
    code, so a script means the same whoever compiles it first."""
    return compile(source, label, "exec", dont_inherit=True)


class ScriptRunner:
    """Executes python rules with a namespace shared across the whole patch
    application (so ``initialize:python`` rules can set up dictionaries used
    by later ``script:python`` rules).  Each rule's source is compiled once
    (see :func:`_code`); ``initialize`` and ``finalize`` rules still execute
    once per invocation, and ``script:python`` rules once per environment."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.globals: dict = {"__builtins__": __builtins__}
        self._initialized_rules: set[str] = set()

    # -- initialize / finalize ---------------------------------------------------

    def run_initialize(self, rule: ScriptRule) -> list[Diagnostic]:
        if not self.enabled:
            return [Diagnostic(severity="warning",
                               message=f"python scripting disabled; skipping {rule.name}")]
        if rule.name in self._initialized_rules:
            return []
        self._initialized_rules.add(rule.name)
        try:
            exec(_code(rule.code, f"<initialize:{rule.name}>"), self.globals)
        except Exception as exc:  # noqa: BLE001 - surfaced as a diagnostic
            return [Diagnostic(severity="error",
                               message=f"initialize rule {rule.name} failed: {exc!r}")]
        return []

    def run_finalize(self, rule: ScriptRule) -> list[Diagnostic]:
        if not self.enabled:
            return []
        try:
            exec(_code(rule.code, f"<finalize:{rule.name}>"), self.globals)
        except Exception as exc:  # noqa: BLE001
            return [Diagnostic(severity="error",
                               message=f"finalize rule {rule.name} failed: {exc!r}")]
        return []

    # -- per-environment scripts ----------------------------------------------------

    def run_script(self, rule: ScriptRule, environments: list[Env]) -> ScriptOutcome:
        outcome = ScriptOutcome()
        if not self.enabled:
            outcome.diagnostics.append(Diagnostic(
                severity="warning",
                message=f"python scripting disabled; rule {rule.name} skipped"))
            return outcome

        label = f"<script:{rule.name}>"
        for env in environments:
            local_ns: dict = {}
            missing = False
            for local, source_rule, source_name in rule.imports:
                bound = env.get(f"{source_rule}.{source_name}") or env.get(source_name)
                if bound is None:
                    missing = True
                    break
                local_ns[local] = bound.render()
            if missing:
                continue

            cocci = CocciHelpers()
            coccinelle = SimpleNamespace()
            local_ns["cocci"] = cocci
            local_ns["coccinelle"] = coccinelle

            # a single namespace (shared globals + per-environment locals) so
            # that functions defined inside the script see both its imports
            # and the dictionaries set up by initialize rules
            namespace = dict(self.globals)
            namespace.update(local_ns)
            try:
                exec(_code(rule.code, label), namespace)
            except Exception as exc:  # noqa: BLE001 - drop this environment
                outcome.diagnostics.append(Diagnostic(
                    severity="info",
                    message=(f"script rule {rule.name} dropped an environment: "
                             f"{type(exc).__name__}: {exc}")))
                continue
            local_ns = namespace

            if not cocci._include_match:
                continue

            extended: Optional[Env] = env
            ok = True
            for out_name in rule.outputs:
                raw = getattr(coccinelle, out_name, local_ns.get(out_name))
                if raw is None:
                    outcome.diagnostics.append(Diagnostic(
                        severity="warning",
                        message=(f"script rule {rule.name} did not define metavariable "
                                 f"{out_name!r}; environment dropped")))
                    ok = False
                    break
                if isinstance(raw, TaggedValue):
                    value = BoundValue(kind=raw.kind, text=raw.text, source_text=raw.text)
                else:
                    value = BoundValue(kind="identifier", text=str(raw), source_text=str(raw))
                extended = extended.bind(f"{rule.name}.{out_name}", value)
                if extended is None:
                    ok = False
                    break
            if ok and extended is not None:
                outcome.environments.append(extended)

        outcome.ran = True
        return outcome
