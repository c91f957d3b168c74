"""A mini C interpreter over :mod:`repro.lang` ASTs.

Its purpose is semantics-preservation checking: the paper argues that
semantic-patch-driven refactorings (AoS→SoA, unroll removal, instrumentation)
keep the original behaviour, and the benchmarks verify that claim by running
the original and the transformed workload on this interpreter and comparing
observable results.

Supported subset (enough for every synthetic workload):

* functions, parameters (scalars and pointer/array parameters, passed by
  reference as Python lists),
* declarations with initialisers, multi-dimensional arrays, structs,
* ``if``/``for``/``while``/``do``/``break``/``continue``/``return``,
* arithmetic / comparison / logical / bit operators, compound assignment,
  increment/decrement, ternary, casts, ``sizeof`` (constant 8),
* simple object-like ``#define`` constants,
* a handful of builtins: ``sqrt``, ``fabs``, ``cos``, ``sin``, ``exp``,
  ``printf`` (output captured), ``malloc``/``free``,
  ``omp_get_thread_num``/``omp_get_num_threads``.

Pragmas are ignored (sequential execution), function calls introduced by
instrumentation (``LIKWID_MARKER_*``) are counted, and unknown statements
raise :class:`~repro.errors.InterpreterError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from ..api import CodeBase
from ..errors import InterpreterError
from ..lang import ast_nodes as A
from ..lang.parser import ParseTree, parse_source
from ..options import SpatchOptions, DEFAULT_OPTIONS
from .values import (
    BreakSignal, ContinueSignal, LValue, ReturnSignal, Scope, StructValue,
    binary_op, default_value, make_array, truthy,
)


_DEFINE_RE = re.compile(r"#\s*define\s+(\w+)\s+(.+)$")


@dataclass
class CallRecord:
    """One recorded call to a marker/instrumentation function."""

    name: str
    args: tuple[Any, ...] = ()


class Interpreter:
    """Interpret the functions of one code base."""

    #: calls recorded rather than executed (instrumentation markers)
    RECORDED_CALLS = ("LIKWID_MARKER_START", "LIKWID_MARKER_STOP",
                      "LIKWID_MARKER_INIT", "LIKWID_MARKER_CLOSE",
                      "SCOREP_USER_REGION_BY_NAME_BEGIN", "SCOREP_USER_REGION_BY_NAME_END",
                      "CALI_MARK_BEGIN", "CALI_MARK_END")

    def __init__(self, codebase: "CodeBase | dict[str, str] | str",
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 defines: Optional[dict[str, Any]] = None,
                 max_steps: int = 5_000_000):
        if isinstance(codebase, str):
            files = {"<input.c>": codebase}
        elif isinstance(codebase, CodeBase):
            files = dict(codebase.files)
        else:
            files = dict(codebase)
        self.options = options
        self.max_steps = max_steps
        self.steps = 0
        self.output: list[str] = []
        self.marker_calls: list[CallRecord] = []

        self.trees: dict[str, ParseTree] = {
            name: parse_source(text, name=name, options=options)
            for name, text in files.items()
        }
        self.defines: dict[str, Any] = dict(defines or {})
        self.functions: dict[str, A.FunctionDef] = {}
        self.struct_defs: dict[str, dict[str, tuple[str, list[int]]]] = {}
        self.globals = Scope()
        self._collect_defines()
        self._collect_structs()
        self._collect_functions()
        self._allocate_globals()

    # ------------------------------------------------------------------ setup --

    def _collect_defines(self) -> None:
        for tree in self.trees.values():
            for node in tree.unit.decls:
                if isinstance(node, A.DefineDirective):
                    match = _DEFINE_RE.match(node.raw.replace("# ", "#"))
                    if not match:
                        continue
                    name, value = match.group(1), match.group(2).strip()
                    if name in self.defines:
                        continue
                    try:
                        self.defines[name] = int(value, 0)
                    except ValueError:
                        try:
                            self.defines[name] = float(value)
                        except ValueError:
                            pass  # function-like or non-numeric macro: ignored

    def _collect_structs(self) -> None:
        for tree in self.trees.values():
            for node in tree.unit.decls:
                if isinstance(node, A.StructDef) and node.keyword in ("struct", "union"):
                    fields: dict[str, tuple[str, list[int]]] = {}
                    for member in node.members:
                        mtype = member.type.text if member.type else "double"
                        for d in member.declarators:
                            dims = [self._const_dim(a, tree) for a in d.arrays]
                            fields[d.name] = (mtype, dims)
                    name = node.name or node.typedef_name
                    self.struct_defs[name] = fields
                    if node.typedef_name:
                        self.struct_defs[node.typedef_name] = fields

    def _const_dim(self, expr: Optional[A.Expr], tree: ParseTree) -> int:
        if expr is None:
            return 0
        value = self._eval_const(expr)
        if value is None:
            raise InterpreterError(
                f"array dimension {tree.node_text(expr)!r} is not a constant")
        return int(value)

    def _eval_const(self, expr: A.Expr) -> Optional[float]:
        if isinstance(expr, A.Literal) and expr.category in ("int", "float"):
            return float(expr.value.rstrip("uUlLfF") or 0)
        if isinstance(expr, A.Ident):
            return self.defines.get(expr.name)
        if isinstance(expr, A.BinaryOp):
            left = self._eval_const(expr.left)
            right = self._eval_const(expr.right)
            if left is None or right is None:
                return None
            return binary_op(expr.op, left, right)
        if isinstance(expr, A.Paren):
            return self._eval_const(expr.expr)
        return None

    def _collect_functions(self) -> None:
        for tree in self.trees.values():
            for node in tree.unit.decls:
                if isinstance(node, A.FunctionDef) and node.body is not None:
                    self.functions[node.name] = node

    def _allocate_globals(self) -> None:
        for tree in self.trees.values():
            for node in tree.unit.decls:
                if not isinstance(node, A.Declaration) or node.is_typedef:
                    continue
                if "extern" in node.specifiers and node.declarators and \
                        all(d.init is None for d in node.declarators):
                    # extern declarations only introduce names; the defining
                    # declaration allocates (or we allocate lazily if absent)
                    pass
                type_text = node.type.text if node.type else "double"
                for d in node.declarators:
                    if not d.name or self.globals.has(d.name):
                        continue
                    dims = [self._const_dim(a, tree) if a is not None else 0
                            for a in d.arrays]
                    self.globals.declare(d.name, self._make_object(type_text, dims, d.init))

    def _make_object(self, type_text: str, dims: list[int], init: Optional[A.Expr]) -> Any:
        struct = self._struct_of(type_text)
        if dims and any(dims):
            if struct is not None:
                return [self._new_struct(struct) for _ in range(dims[0])] if len(dims) == 1 \
                    else make_array(dims, 0.0)
            return make_array(dims, default_value(type_text))
        if struct is not None:
            return self._new_struct(struct)
        if init is not None:
            return None  # caller evaluates
        return default_value(type_text)

    def _struct_of(self, type_text: str) -> Optional[str]:
        words = type_text.split()
        if "struct" in words:
            idx = words.index("struct")
            if idx + 1 < len(words):
                return words[idx + 1]
        for word in words:
            if word in self.struct_defs:
                return word
        return None

    def _new_struct(self, struct_name: str) -> StructValue:
        fields = {}
        for fname, (ftype, dims) in self.struct_defs.get(struct_name, {}).items():
            if dims and any(dims):
                fields[fname] = make_array(dims, default_value(ftype))
            else:
                fields[fname] = default_value(ftype)
        return StructValue(struct_name=struct_name, fields=fields)

    # ------------------------------------------------------------------ public --

    def function_names(self) -> list[str]:
        return sorted(self.functions)

    def get_global(self, name: str) -> Any:
        return self.globals.lookup(name)

    def call(self, name: str, *args: Any) -> Any:
        """Call a function defined in the code base with Python values."""
        if name not in self.functions:
            raise InterpreterError(f"no function named {name!r}")
        fn = self.functions[name]
        scope = self.globals.child()
        params = [p for p in (fn.params.params if fn.params else [])
                  if isinstance(p, A.Param) and p.name]
        if len(args) != len(params):
            raise InterpreterError(
                f"{name} expects {len(params)} argument(s), got {len(args)}")
        for param, value in zip(params, args):
            scope.declare(param.name, value)
        try:
            self._exec_stmt(fn.body, scope)
        except ReturnSignal as ret:
            return ret.value
        return None

    # ------------------------------------------------------------------ statements --

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(f"execution exceeded {self.max_steps} steps")

    def _exec_stmt(self, stmt: A.Node, scope: Scope) -> None:
        self._tick()
        if isinstance(stmt, A.CompoundStmt):
            inner = scope.child()
            for child in stmt.stmts:
                self._exec_stmt(child, inner)
        elif isinstance(stmt, A.ExprStmt):
            self._eval(stmt.expr, scope)
        elif isinstance(stmt, A.DeclStmt):
            self._exec_declaration(stmt.decl, scope)
        elif isinstance(stmt, A.Declaration):
            self._exec_declaration(stmt, scope)
        elif isinstance(stmt, A.IfStmt):
            if truthy(self._eval(stmt.cond, scope)):
                self._exec_stmt(stmt.then, scope)
            elif stmt.orelse is not None:
                self._exec_stmt(stmt.orelse, scope)
        elif isinstance(stmt, A.ForStmt):
            self._exec_for(stmt, scope)
        elif isinstance(stmt, A.RangeForStmt):
            self._exec_range_for(stmt, scope)
        elif isinstance(stmt, A.WhileStmt):
            while truthy(self._eval(stmt.cond, scope)):
                self._tick()
                try:
                    self._exec_stmt(stmt.body, scope)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        elif isinstance(stmt, A.DoWhileStmt):
            while True:
                self._tick()
                try:
                    self._exec_stmt(stmt.body, scope)
                except BreakSignal:
                    break
                except ContinueSignal:
                    pass
                if not truthy(self._eval(stmt.cond, scope)):
                    break
        elif isinstance(stmt, A.ReturnStmt):
            raise ReturnSignal(self._eval(stmt.value, scope) if stmt.value is not None else None)
        elif isinstance(stmt, A.BreakStmt):
            raise BreakSignal()
        elif isinstance(stmt, A.ContinueStmt):
            raise ContinueSignal()
        elif isinstance(stmt, (A.PragmaDirective, A.IncludeDirective, A.DefineDirective,
                               A.OtherDirective, A.EmptyStmt)):
            return
        elif isinstance(stmt, A.RawStmt):
            raise InterpreterError(f"cannot interpret statement: {stmt.text[:60]!r}")
        else:
            raise InterpreterError(f"unsupported statement kind {stmt.kind}")

    def _exec_declaration(self, decl: A.Declaration, scope: Scope) -> None:
        type_text = decl.type.text if decl.type else "double"
        for d in decl.declarators:
            if not d.name:
                continue
            dims = []
            for a in d.arrays:
                dims.append(0 if a is None else int(self._eval(a, scope)))
            if d.init is not None and not dims:
                value = self._eval(d.init, scope)
                if "int" in type_text and isinstance(value, float):
                    value = int(value)
                scope.declare(d.name, value)
            elif d.init is not None and dims:
                if isinstance(d.init, A.InitList):
                    items = [self._eval(i, scope) for i in d.init.items]
                    items += [default_value(type_text)] * (dims[0] - len(items))
                    scope.declare(d.name, items[: dims[0]] if dims[0] else items)
                else:
                    scope.declare(d.name, make_array(dims, default_value(type_text)))
            else:
                scope.declare(d.name, self._make_object(type_text, dims, None)
                              if (dims and any(dims)) or self._struct_of(type_text)
                              else default_value(type_text))

    def _exec_for(self, stmt: A.ForStmt, scope: Scope) -> None:
        loop_scope = scope.child()
        if stmt.init is not None:
            self._exec_stmt(stmt.init, loop_scope) if isinstance(stmt.init, (A.DeclStmt, A.ExprStmt)) \
                else self._eval(stmt.init, loop_scope)
        while True:
            self._tick()
            if stmt.cond is not None and not truthy(self._eval(stmt.cond, loop_scope)):
                break
            try:
                if stmt.body is not None:
                    self._exec_stmt(stmt.body, loop_scope)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if stmt.step is not None:
                self._eval(stmt.step, loop_scope)

    def _exec_range_for(self, stmt: A.RangeForStmt, scope: Scope) -> None:
        iterable = self._eval(stmt.iterable, scope)
        if not isinstance(iterable, list):
            raise InterpreterError("range-for requires an array value")
        loop_scope = scope.child()
        for index in range(len(iterable)):
            self._tick()
            loop_scope.declare(stmt.var, iterable[index])
            try:
                if stmt.body is not None:
                    self._exec_stmt(stmt.body, loop_scope)
            except BreakSignal:
                break
            except ContinueSignal:
                continue
            if stmt.reference:
                iterable[index] = loop_scope.lookup(stmt.var)

    # ------------------------------------------------------------------ expressions --

    def _eval(self, expr: Optional[A.Node], scope: Scope) -> Any:
        self._tick()
        if expr is None:
            return None
        if isinstance(expr, A.Literal):
            return self._literal(expr)
        if isinstance(expr, A.Ident):
            return self._ident(expr.name, scope)
        if isinstance(expr, A.Paren):
            return self._eval(expr.expr, scope)
        if isinstance(expr, A.BinaryOp):
            if expr.op == "&&":
                return 1 if truthy(self._eval(expr.left, scope)) and \
                    truthy(self._eval(expr.right, scope)) else 0
            if expr.op == "||":
                return 1 if truthy(self._eval(expr.left, scope)) or \
                    truthy(self._eval(expr.right, scope)) else 0
            return binary_op(expr.op, self._eval(expr.left, scope),
                             self._eval(expr.right, scope))
        if isinstance(expr, A.UnaryOp):
            return self._unary(expr, scope)
        if isinstance(expr, A.Assignment):
            return self._assign(expr, scope)
        if isinstance(expr, A.Ternary):
            return self._eval(expr.then, scope) if truthy(self._eval(expr.cond, scope)) \
                else self._eval(expr.orelse, scope)
        if isinstance(expr, A.Subscript):
            return self._lvalue(expr, scope).load()
        if isinstance(expr, A.Member):
            return self._lvalue(expr, scope).load()
        if isinstance(expr, A.Call):
            return self._call(expr, scope)
        if isinstance(expr, A.Cast):
            value = self._eval(expr.expr, scope)
            ttext = expr.type.text if expr.type else "double"
            if "int" in ttext or ttext in ("long", "size_t", "char"):
                return int(value)
            return float(value)
        if isinstance(expr, A.SizeofExpr):
            return 8
        if isinstance(expr, A.CommaExpr):
            result = None
            for item in expr.items:
                result = self._eval(item, scope)
            return result
        if isinstance(expr, A.InitList):
            return [self._eval(i, scope) for i in expr.items]
        if isinstance(expr, A.KernelLaunch):
            # execute the kernel body once per "thread" is out of scope for
            # behaviour checks; record it like a marker call instead
            self.marker_calls.append(CallRecord(name="<kernel launch>"))
            return 0
        raise InterpreterError(f"unsupported expression kind {expr.kind}")

    def _literal(self, expr: A.Literal) -> Any:
        if expr.category == "int":
            return int(expr.value.rstrip("uUlL"), 0)
        if expr.category == "float":
            return float(expr.value.rstrip("fFlL"))
        if expr.category == "string":
            raw = expr.value[1:-1]
            return (raw.replace("\\n", "\n").replace("\\t", "\t")
                    .replace('\\"', '"').replace("\\\\", "\\"))
        if expr.category == "char":
            inner = expr.value[1:-1]
            return ord(inner.replace("\\n", "\n").replace("\\t", "\t")[0]) if inner else 0
        if expr.category == "bool":
            return 1 if expr.value == "true" else 0
        if expr.category == "null":
            return 0
        return 0

    def _ident(self, name: str, scope: Scope) -> Any:
        if scope.has(name):
            return scope.lookup(name)
        if name in self.defines:
            return self.defines[name]
        if name == "__func__":
            return "<func>"
        raise InterpreterError(f"undefined identifier {name!r}")

    def _unary(self, expr: A.UnaryOp, scope: Scope) -> Any:
        if expr.op in ("++", "--"):
            lval = self._lvalue(expr.operand, scope)
            old = lval.load()
            new = old + 1 if expr.op == "++" else old - 1
            lval.store(new)
            return new if expr.prefix else old
        value = self._eval(expr.operand, scope)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "!":
            return 0 if truthy(value) else 1
        if expr.op == "~":
            return ~int(value)
        if expr.op == "*":
            # dereferencing a "pointer" (list): first element
            return value[0] if isinstance(value, list) else value
        if expr.op == "&":
            # address-of: arrays/structs are reference values already
            return value
        raise InterpreterError(f"unsupported unary operator {expr.op!r}")

    def _assign(self, expr: A.Assignment, scope: Scope) -> Any:
        lval = self._lvalue(expr.target, scope)
        value = self._eval(expr.value, scope)
        if expr.op == "=":
            lval.store(value)
            return value
        op = expr.op[:-1]
        new = binary_op(op, lval.load(), value)
        lval.store(new)
        return new

    def _lvalue(self, expr: A.Node, scope: Scope) -> LValue:
        if isinstance(expr, A.Ident):
            return scope.lvalue(expr.name)
        if isinstance(expr, A.Paren):
            return self._lvalue(expr.expr, scope)
        if isinstance(expr, A.UnaryOp) and expr.op == "*":
            base = self._eval(expr.operand, scope)
            if isinstance(base, list):
                return LValue(container=base, key=0)
            raise InterpreterError("cannot dereference a non-array value")
        if isinstance(expr, A.Subscript):
            base = self._eval(expr.base, scope)
            if not isinstance(base, list):
                raise InterpreterError("subscript of a non-array value")
            container = base
            indices = [int(self._eval(i, scope)) for i in expr.indices]
            for idx in indices[:-1]:
                container = container[idx]
                if not isinstance(container, list):
                    raise InterpreterError("too many subscripts")
            index = indices[-1]
            if index < 0 or index >= len(container):
                raise InterpreterError(
                    f"array index {index} out of bounds (size {len(container)})")
            return LValue(container=container, key=index)
        if isinstance(expr, A.Member):
            base = self._eval(expr.base, scope)
            if expr.op == "->" and isinstance(base, list):
                base = base[0]
            if not isinstance(base, StructValue):
                raise InterpreterError("member access on a non-struct value")
            return LValue(container=base, key=expr.name)
        raise InterpreterError(f"expression kind {expr.kind} is not assignable")

    # ------------------------------------------------------------------ calls --

    _BUILTINS = {
        "sqrt": math.sqrt, "fabs": abs, "abs": abs, "cos": math.cos, "sin": math.sin,
        "exp": math.exp, "log": math.log, "pow": pow, "floor": math.floor,
        "ceil": math.ceil, "fmax": max, "fmin": min,
    }

    def _call(self, expr: A.Call, scope: Scope) -> Any:
        if not isinstance(expr.func, A.Ident):
            raise InterpreterError("only direct calls are supported")
        name = expr.func.name.split("::")[-1]
        if name in self.RECORDED_CALLS:
            args = tuple(self._safe_eval(a, scope) for a in expr.args)
            self.marker_calls.append(CallRecord(name=name, args=args))
            return 0
        args = [self._eval(a, scope) for a in expr.args]
        if name in self.functions:
            return self.call(name, *args)
        if name in self._BUILTINS:
            return self._BUILTINS[name](*args)
        if name == "printf":
            self.output.append(self._format_printf(args))
            return 0
        if name in ("malloc", "calloc"):
            count = int(args[0] // 8) if name == "malloc" else int(args[0])
            return make_array([max(count, 1)], 0.0)
        if name in ("free", "srand", "omp_set_num_threads"):
            return 0
        if name in ("omp_get_thread_num",):
            return 0
        if name in ("omp_get_num_threads", "omp_get_max_threads"):
            return 1
        raise InterpreterError(f"call to unknown function {name!r}")

    def _safe_eval(self, expr: A.Node, scope: Scope) -> Any:
        try:
            return self._eval(expr, scope)
        except InterpreterError:
            return None

    @staticmethod
    def _format_printf(args: list[Any]) -> str:
        if not args:
            return ""
        fmt = str(args[0])
        values = args[1:]
        fmt = fmt.replace("%lf", "%f").replace("%lu", "%d").replace("%ld", "%d")
        try:
            return fmt % tuple(values)
        except (TypeError, ValueError):
            return fmt


def run_function(code: "CodeBase | str", name: str, *args: Any,
                 options: SpatchOptions = DEFAULT_OPTIONS,
                 defines: Optional[dict[str, Any]] = None) -> Any:
    """One-shot helper: build an interpreter and call ``name(*args)``."""
    interp = Interpreter(code, options=options, defines=defines)
    return interp.call(name, *args)
