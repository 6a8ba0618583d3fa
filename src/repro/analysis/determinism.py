"""Determinism lints (rule family ``determinism.*``).

The engine's core guarantee is that a plan's result -- and its
canonical trace -- is bit-identical across repeated runs and hosts.
Anything that leaks host state into computed values breaks that
silently.  Four lints:

* ``determinism.unseeded-rng`` (error) -- ``np.random.default_rng()``
  with no seed, any legacy ``np.random.*`` module-level call, or a
  stdlib ``random.*`` draw.  All randomness in the repo flows from
  ``Config.seed`` through explicit ``Generator`` objects.
* ``determinism.host-time`` (warn) -- ``time.time`` / ``perf_counter``
  / ``datetime.now`` outside the host-only module families (observe's
  host spans, the bench harness, the analyzer itself).  Host clocks
  must never feed simulated time, canonical traces, or cache keys.
* ``determinism.id-key`` (error) -- an ``id(...)`` call outside the
  host-only families.  CPython ids are allocation addresses: two runs of
  the same plan produce different ids, so an id-derived key poisons
  memo fingerprints and canonical output.
* ``determinism.set-iteration`` (warn) -- iterating (or ``list()`` /
  ``"".join()``-ing) a syntactic set expression without ``sorted()``.
  Set iteration order depends on insertion history and hash seeds; in
  canonical output paths it must be sorted first.
"""

from __future__ import annotations

import ast

from .framework import CodeContext, CodeRule
from .source import call_name, walk_with_stack

#: Module-name prefixes allowed to read host clocks / use id().
HOST_ONLY_PREFIXES = (
    "repro.observe",
    # The live serving engine stamps host_batch_ms on responses -- a
    # host-side observability field, stripped from every deterministic
    # surface (canonical bytes, ServeReport goldens).
    "repro.serve.engine",
    "repro.bench",
    "repro.analysis",
    "repro.cli",
)

_HOST_TIME_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "perf_counter", "perf_counter_ns", "monotonic",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now",
    "datetime.datetime.utcnow", "date.today", "datetime.date.today",
}

#: Seeded construction entry points of the new numpy RNG API.
_SEEDED_RNG_FUNCS = {"default_rng", "Generator", "SeedSequence",
                     "PCG64", "Philox", "SFC64", "MT19937"}

_STDLIB_RANDOM_DRAWS = {
    "random", "randint", "randrange", "getrandbits", "uniform", "choice",
    "choices", "sample", "shuffle", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular",
}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule(CodeRule):
    """The ``determinism.*`` family over every analyzed module."""

    name = "determinism"

    def _host_only(self, module_name: str) -> bool:
        return module_name.startswith(HOST_ONLY_PREFIXES)

    def run(self, ctx: CodeContext) -> None:
        host_only = self._host_only(ctx.module.name)
        for node, stack in walk_with_stack(ctx.module.tree):
            if isinstance(node, ast.Call):
                self._check_call(ctx, node, stack, host_only)
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                ctx.emit(
                    "determinism.set-iteration",
                    "warn",
                    "iteration over a set: order depends on hash seeds "
                    "and insertion history",
                    line=node.lineno,
                    hint="wrap the iterable in sorted(...) before any "
                    "order-sensitive use",
                )

    def _check_call(
        self,
        ctx: CodeContext,
        node: ast.Call,
        stack: list[ast.AST],
        host_only: bool,
    ) -> None:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")

        # -- unseeded / legacy RNG ------------------------------------
        if len(parts) >= 2 and parts[0] in ("np", "numpy") and (
            parts[1] == "random"
        ):
            func = parts[-1]
            if func == "random" and len(parts) == 2:
                pass  # bare `np.random` is not a call target
            elif func in _SEEDED_RNG_FUNCS:
                if not node.args and not node.keywords:
                    ctx.emit(
                        "determinism.unseeded-rng",
                        "error",
                        f"{name}() without a seed draws from OS entropy",
                        line=node.lineno,
                        hint="thread the seed from Config.seed (see "
                        "Config.rng / derive_seed)",
                    )
            else:
                ctx.emit(
                    "determinism.unseeded-rng",
                    "error",
                    f"legacy global-state RNG call {name}()",
                    line=node.lineno,
                    hint="use an explicit np.random.default_rng(seed) "
                    "Generator",
                )
        elif parts[0] == "random" and len(parts) == 2 and (
            parts[1] in _STDLIB_RANDOM_DRAWS
        ):
            ctx.emit(
                "determinism.unseeded-rng",
                "error",
                f"stdlib global-state RNG call {name}()",
                line=node.lineno,
                hint="use an explicit seeded np.random Generator",
            )

        # -- host clocks ----------------------------------------------
        elif name in _HOST_TIME_CALLS and not host_only:
            ctx.emit(
                "determinism.host-time",
                "warn",
                f"host clock read {name}() outside the host-only module "
                "families",
                line=node.lineno,
                hint="simulated time comes from the scheduler; host "
                "timings belong in repro.observe / repro.bench",
            )

        # -- id()-derived keys ----------------------------------------
        elif (
            name == "id"
            and not host_only
            and len(node.args) == 1
            and not node.keywords
        ):
            ctx.emit(
                "determinism.id-key",
                "error",
                "id(...) is an allocation address: it differs across "
                "runs and poisons fingerprints/cache keys",
                line=node.lineno,
                hint="key on a stable identity (Column.uid, PlanNode.nid) "
                "instead",
            )

        # -- unsorted set consumption ---------------------------------
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
            and _is_set_expr(node.args[0])
        ) or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            ctx.emit(
                "determinism.set-iteration",
                "warn",
                "materializing a set without sorting: element order "
                "depends on hash seeds",
                line=node.lineno,
                hint="use sorted(...) when the order can reach output "
                "or a cache key",
            )
