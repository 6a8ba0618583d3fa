"""Concurrency lints (rule family ``concurrency.*``).

Engine code runs on more than one host thread at once: the serving
engine evaluates batches on its own thread while callers run other
simulations, and a shared :class:`~repro.engine.memo.IntermediateCache`
hands one intermediate to every operator and run that reuses it.  That
is safe only if engine code follows the repo's concurrency idioms --
one lock per shared structure, every mutation under it, kernels
touching nothing but their inputs.  Four lints:

* ``concurrency.self-mutation`` (error) -- a kernel method
  (``evaluate`` / ``work_profile`` / ``mask``) writes ``self``.  One
  operator instance is evaluated for many partitions and submissions;
  instance state is shared state.
* ``concurrency.global-write`` (error) -- a ``global`` rebind in a
  pool-reachable module outside a ``with <lock>:`` block.
* ``concurrency.lock-discipline`` (error) -- ``<lock>.acquire()``
  without a matching ``release()`` in a ``finally`` block.  The repo
  idiom is ``with self._lock:`` (see ``IntermediateCache``); a bare
  acquire leaks the lock on any exception path.
* ``concurrency.unlocked-shared-state`` (error) -- a class that owns a
  ``_lock`` mutates its shared attributes outside ``with self._lock:``
  in some method (``__init__`` excepted: the object is not yet shared
  while it is being constructed).
"""

from __future__ import annotations

import ast

from .framework import CodeContext, CodeRule
from .purity import _CONTAINER_MUTATORS, _MUTATING_METHODS, KERNEL_METHODS
from .source import (
    SourceModule,
    dotted_name,
    enclosing_with_lock,
    root_name,
    walk_with_stack,
)

#: Module families whose code can run on more than one host thread.
POOL_REACHABLE_PREFIXES = (
    "repro.operators",
    "repro.engine",
    "repro.storage",
)

_SELF_MUTATORS = _MUTATING_METHODS | _CONTAINER_MUTATORS


def _is_self_attr_store(target: ast.AST) -> bool:
    return root_name(target) == "self" and isinstance(
        target, (ast.Attribute, ast.Subscript)
    )


def _class_owns_lock(cls: ast.ClassDef) -> bool:
    """Whether the class binds ``self._lock`` anywhere."""
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Attribute)
                and t.attr == "_lock"
                and root_name(t) == "self"
                for t in node.targets
            )
        ):
            return True
    return False


def _receiver_mentions_lock(node: ast.AST) -> bool:
    name = dotted_name(node)
    return name is not None and "lock" in name.lower()


class ConcurrencyRule(CodeRule):
    """The ``concurrency.*`` family."""

    name = "concurrency"

    def _pool_reachable(self, module: SourceModule) -> bool:
        # Fixture files outside the repro package are always checked so
        # the analyzer can be exercised on synthetic bad kernels.
        if not module.name.startswith("repro."):
            return True
        return module.name.startswith(POOL_REACHABLE_PREFIXES)

    def run(self, ctx: CodeContext) -> None:
        module = ctx.module
        pool_reachable = self._pool_reachable(module)
        for cls in module.classes():
            self._check_kernel_self_mutation(ctx, cls)
            if _class_owns_lock(cls):
                self._check_lock_class(ctx, cls)
        for node, stack in walk_with_stack(module.tree):
            if isinstance(node, ast.FunctionDef):
                self._check_lock_discipline(ctx, node)
            if pool_reachable and isinstance(node, ast.Global):
                self._check_global_write(ctx, node, stack)

    # -- kernels must not write self -----------------------------------
    def _check_kernel_self_mutation(
        self, ctx: CodeContext, cls: ast.ClassDef
    ) -> None:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name not in KERNEL_METHODS:
                continue
            for node in ast.walk(item):
                line: int | None = None
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(_is_self_attr_store(t) for t in targets):
                        line = node.lineno
                elif isinstance(node, ast.AugAssign) and _is_self_attr_store(
                    node.target
                ):
                    line = node.lineno
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SELF_MUTATORS
                    and root_name(node.func.value) == "self"
                ):
                    line = node.lineno
                if line is not None:
                    ctx.emit(
                        "concurrency.self-mutation",
                        "error",
                        f"{cls.name}.{item.name} mutates operator instance "
                        "state; one instance serves many partitions "
                        "concurrently",
                        line=line,
                        hint="return the value instead, or move the state "
                        "into the evaluation inputs",
                    )

    # -- global rebinds need the lock ----------------------------------
    def _check_global_write(
        self, ctx: CodeContext, node: ast.Global, stack: list[ast.AST]
    ) -> None:
        func = next(
            (
                f
                for f in reversed(stack)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            None,
        )
        if func is None:
            return
        names = set(node.names)
        for stmt, inner_stack in walk_with_stack(func):
            is_write = (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id in names
                    for t in stmt.targets
                )
            ) or (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in names
            )
            if is_write and not enclosing_with_lock(inner_stack):
                ctx.emit(
                    "concurrency.global-write",
                    "error",
                    f"unlocked write to module global "
                    f"{', '.join(sorted(names))} in {func.name}; other "
                    "host threads read this concurrently",
                    line=stmt.lineno,
                    hint="guard the write with a module-level lock "
                    "(with _lock: ...)",
                )

    # -- bare acquire without finally-release --------------------------
    def _check_lock_discipline(
        self, ctx: CodeContext, func: ast.FunctionDef
    ) -> None:
        acquires: list[ast.Call] = []
        released_in_finally = False
        for node, stack in walk_with_stack(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _receiver_mentions_lock(node.func.value)
            ):
                continue
            if node.func.attr == "acquire":
                acquires.append(node)
            elif node.func.attr == "release":
                released_in_finally = any(
                    isinstance(frame, ast.Try)
                    and any(
                        node in ast.walk(stmt) for stmt in frame.finalbody
                    )
                    for frame in stack
                ) or released_in_finally
        if acquires and not released_in_finally:
            for call in acquires:
                ctx.emit(
                    "concurrency.lock-discipline",
                    "error",
                    f"{func.name} acquires a lock without releasing it "
                    "in a finally block",
                    line=call.lineno,
                    hint="prefer `with lock:`; it releases on every exit "
                    "path",
                )

    # -- lock-owning classes mutate only under the lock ----------------
    def _check_lock_class(self, ctx: CodeContext, cls: ast.ClassDef) -> None:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                continue
            for node, stack in walk_with_stack(item):
                line: int | None = None
                what = ""
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    stores = [t for t in targets if _is_self_attr_store(t)]
                    if stores:
                        line = node.lineno
                        what = ast.unparse(stores[0])
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SELF_MUTATORS
                    and root_name(node.func.value) == "self"
                ):
                    line = node.lineno
                    what = ast.unparse(node.func.value)
                if line is not None and not enclosing_with_lock(stack):
                    ctx.emit(
                        "concurrency.unlocked-shared-state",
                        "error",
                        f"{cls.name}.{item.name} mutates {what} outside "
                        "`with self._lock:` although the class owns a lock",
                        line=line,
                        hint="take the lock around every mutation, or "
                        "document and remove the lock if the class is "
                        "single-threaded",
                    )
