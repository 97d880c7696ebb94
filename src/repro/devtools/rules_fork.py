"""FS-series rules: process-pool / fork-boundary safety.

Scope: files named by ``[forksafety]`` in ``hotpaths.toml`` (the
process tier, :mod:`repro.core.procpool`).  The contract these rules
machine-check is the one the module docstring there states in prose —
workers bootstrap from the snapshot manifest, never from pickles:

* ``FS201`` — a declared worker-side function mutates a module-level
  global that is not an allowlisted per-process bootstrap slot.  Under
  the ``fork`` start method such writes silently diverge between parent
  and children; under ``spawn`` they are silently lost.
* ``FS202`` — an unpicklable (or must-not-pickle) value rides a task
  payload: a lambda or ``self`` passed to ``submit(...)``, a value in
  ``initargs=...``, or a name locally bound from ``open(...)``/
  ``mmap.mmap(...)`` or a declared live-handle factory (the heap and
  page-store constructors, ``np.memmap``).  Live handles
  must be reopened worker-side from the snapshot path instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint import Finding, ModuleContext, Rule, register

#: attribute calls that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "update", "append", "extend", "add", "pop", "popitem", "clear",
    "setdefault", "insert", "remove", "discard", "sort", "reverse",
})

#: factories whose return values must never cross the pickle boundary,
#: on top of whatever the config declares.
BUILTIN_UNPICKLABLE_FACTORIES = frozenset({"open", "mmap.mmap"})


def _local_bindings(func: ast.AST) -> set[str]:
    """Names bound inside the function (params + assignments) that
    shadow module globals — unless declared ``global``."""
    globals_declared: set[str] = set()
    bound: set[str] = set()
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    arguments = func.args
    for arg in (arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs):
        bound.add(arg.arg)
    if arguments.vararg:
        bound.add(arguments.vararg.arg)
    if arguments.kwarg:
        bound.add(arguments.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif (isinstance(node, (ast.AnnAssign, ast.AugAssign))
              and isinstance(node.target, ast.Name)):
            bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name):
                bound.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        bound.add(element.id)
    return bound - globals_declared


def _mutated_globals(func: ast.AST, module_names: set[str]
                     ) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(global name, offending node)`` for each in-place
    mutation of a module-level name inside ``func``."""
    local = _local_bindings(func)
    globals_declared: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)

    def is_global(name: str) -> bool:
        if name in globals_declared:
            return name in module_names or True
        return name in module_names and name not in local

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                # name[...] = / name.attr = on a module global
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global(target.value.id)):
                    yield target.value.id, node
                elif (isinstance(target, ast.Attribute)
                      and isinstance(target.value, ast.Name)
                      and is_global(target.value.id)):
                    yield target.value.id, node
                elif (isinstance(target, ast.Name)
                      and target.id in globals_declared):
                    yield target.id, node
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if (isinstance(target, ast.Name)
                    and target.id in globals_declared):
                yield target.id, node
            elif (isinstance(target, (ast.Subscript, ast.Attribute))
                  and isinstance(target.value, ast.Name)
                  and is_global(target.value.id)):
                yield target.value.id, node
        elif isinstance(node, ast.Call):
            func_node = node.func
            if (isinstance(func_node, ast.Attribute)
                    and func_node.attr in MUTATING_METHODS
                    and isinstance(func_node.value, ast.Name)
                    and is_global(func_node.value.id)):
                yield func_node.value.id, node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global(target.value.id)):
                    yield target.value.id, node


@register
class WorkerGlobalMutationRule(Rule):
    code = "FS201"
    name = "worker-global-mutation"
    description = ("worker-side function mutates a module global outside "
                   "the allowlisted per-process bootstrap slots.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        fork = module.config.forksafety
        if not fork.covers(module.path):
            return
        allowed = set(fork.allowed_worker_globals)
        module_names = module.module_level_names()
        for qual, func in module.functions():
            if qual not in fork.worker_functions:
                continue
            for name, node in _mutated_globals(func, module_names):
                if name in allowed:
                    continue
                yield self.finding(
                    module, node,
                    f"{qual}: mutates module global {name!r} worker-side "
                    f"(not in allowed_worker_globals; fork/spawn "
                    f"divergence)")


def _dotted_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _handle_bound_names(func: ast.AST, factories: set[str]) -> set[str]:
    """Local names assigned from a live-handle factory call (including
    ``with open(...) as handle``)."""
    names: set[str] = set()

    def from_call(value: ast.expr) -> bool:
        return (isinstance(value, ast.Call)
                and _dotted_name(value.func) in factories)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and from_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and from_call(node.value)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (from_call(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)):
                    names.add(item.optional_vars.id)
    return names


@register
class PickledHandleRule(Rule):
    code = "FS202"
    name = "handle-in-task-payload"
    description = ("lambda/self/live file-or-store handle in a submit() "
                   "payload or initargs; workers must reopen from the "
                   "snapshot path.")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        fork = module.config.forksafety
        if not fork.covers(module.path):
            return
        factories = (set(fork.unpicklable_factories)
                     | set(BUILTIN_UNPICKLABLE_FACTORIES))
        for qual, func in module.functions():
            handles = _handle_bound_names(func, factories)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                payload: list[ast.expr] = []
                where = None
                func_name = (_dotted_name(node.func) or "").rsplit(".", 1)[-1]
                if func_name == "submit":
                    payload = list(node.args)
                    where = "submit() payload"
                for keyword in node.keywords:
                    if keyword.arg == "initargs":
                        elts = (keyword.value.elts
                                if isinstance(keyword.value,
                                              (ast.Tuple, ast.List))
                                else [keyword.value])
                        for value in elts:
                            yield from self._check_value(
                                module, qual, value, "initargs", handles,
                                factories)
                for value in payload:
                    yield from self._check_value(module, qual, value, where,
                                                 handles, factories)

    def _check_value(self, module: ModuleContext, qual: str,
                     value: ast.expr, where: str | None, handles: set[str],
                     factories: set[str]) -> Iterator[Finding]:
        if isinstance(value, ast.Starred):
            value = value.value
        if isinstance(value, ast.Lambda):
            yield self.finding(
                module, value,
                f"{qual}: lambda in {where} (not picklable)")
        elif isinstance(value, ast.Name):
            if value.id == "self":
                yield self.finding(
                    module, value,
                    f"{qual}: 'self' in {where} (pickles live index/store "
                    f"state across the fork boundary)")
            elif value.id in handles:
                yield self.finding(
                    module, value,
                    f"{qual}: {value.id!r} (a live handle) in {where}; "
                    f"pass the snapshot path and reopen worker-side")
        elif (isinstance(value, ast.Call)
              and _dotted_name(value.func) in factories):
            yield self.finding(
                module, value,
                f"{qual}: {_dotted_name(value.func)}(...) result in "
                f"{where}; pass the snapshot path and reopen worker-side")
