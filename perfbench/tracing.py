"""Span tracing at the layer boundaries of ``repro``, from outside the program.

The timed runs never import this module's wrappers: they call the program
through :class:`NullProbe`, which forwards every call unchanged.  The traced
run installs a :class:`Tracer`, which replaces the public entry points of
each layer (a class attribute or a module-level name that a caller looks up
at call time) with a wrapper recording one span per call:

* name -- ``<layer>.<boundary>``, the layer being the ``repro`` subpackage;
* start and end -- ``time.perf_counter()`` seconds;
* parent -- the span open when the call started (one thread, so spans nest);
* op -- the id of the adaptive run, execution or serve run in progress.

Spans live in flat in-memory arrays and are written out once, at the end.
A span's self time is its duration minus the time its direct children cover,
so the self times of all spans, plus the self time of the root span (the
benchmark's own code, reported as ``trace.unattributed_ms``), add up to the
traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

ROOT = "trace.wall"
CHECK = "bench.check"

#: (module, owner attribute or None for the module itself, attribute, span).
#: Module-level functions are patched in the module that *calls* them, since
#: callers bind the name at import time.
BOUNDARIES: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.mutation", "PlanMutator", "mutate", "core.mutate"),
    ("repro.core.mutation", None, "analyze_plan", "plan.analyze"),
    ("repro.cluster.adaptive", None, "analyze_plan", "plan.analyze"),
    ("repro.plan.graph", "Plan", "nodes", "plan.nodes"),
    ("repro.plan.graph", "Plan", "fingerprints", "plan.fingerprints"),
    ("repro.engine.scheduler", "Simulator", "run", "engine.simulate"),
    ("repro.engine.scheduler", "Simulator", "submit", "engine.submit"),
    ("repro.engine.machine", "MachineState", "compute_rate",
     "engine.machine.compute_rate"),
    ("repro.engine.memo", "IntermediateCache", "peek", "engine.memo"),
    ("repro.engine.memo", "IntermediateCache", "get", "engine.memo"),
    ("repro.engine.memo", "IntermediateCache", "put", "engine.memo"),
    ("repro.engine.scheduler", None, "compute_work", "costmodel.compute_work"),
    ("repro.sql.planner", None, "plan_sql", "sql.plan"),
    ("repro.workloads.tpch", None, "plan_sql", "sql.plan"),
    ("repro.serve.scheduler", "FairScheduler", "offer", "serve.admission"),
    ("repro.serve.scheduler", "FairScheduler", "pump", "serve.admission"),
    ("repro.serve.scheduler", "FairScheduler", "release", "serve.admission"),
    ("repro.cluster.adaptive", "ClusterMutator", "mutate", "cluster.mutate"),
    ("repro.cluster.adaptive", None, "cluster_execute", "cluster.execute"),
    ("repro.cluster.executor", None, "cluster_execute", "cluster.execute"),
    ("repro.workloads.tpch", "TpchDataset", "_generate", "workloads.generate"),
    ("repro.cluster.workload", "ScaleoutWorkload", "__post_init__",
     "workloads.generate"),
)

#: Operator kinds whose evaluation time is reported on its own.
OPERATOR_KINDS = (
    "select", "fetch", "join", "semijoin", "groupby",
    "aggregate", "calc", "pack", "slice", "sort",
)


class NullProbe:
    """The untraced probe: calls go straight through, nothing is recorded."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def next_op(self) -> None:
        pass

    def quiet(self) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class Tracer:
    """Records one span per call at every patched layer boundary."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op = 0
        self._quiet = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Every IntermediateCache / PlanCache built while installed.
        self.memos: list[Any] = []
        self.plan_caches: list[Any] = []

    # -- recording -----------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.op.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = perf_counter()

    def _span(self, nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        if self._quiet:
            return fn(*args, **kwargs)
        return self._span(self._intern(name), fn, args, kwargs)

    def next_op(self) -> None:
        """Start a new adaptive run, execution or serve run."""
        self._op += 1

    @contextlib.contextmanager
    def quiet(self) -> Iterator[None]:
        """One ``bench.check`` span; the layers called inside are not split out."""
        if self._quiet:
            yield
            return
        idx = self._open(self._intern(CHECK))
        self._quiet += 1
        try:
            yield
        finally:
            self._quiet -= 1
            self._close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._quiet:
                return fn(*args, **kwargs)
            return self._span(nid, fn, args, kwargs)

        return traced

    def _wrap_by_kind(self, prefix: str, fn: Callable) -> Callable:
        """Operator methods: the span is named after the receiver's kind."""

        @functools.wraps(fn)
        def traced(op: Any, *args: Any, **kwargs: Any) -> Any:
            if self._quiet:
                return fn(op, *args, **kwargs)
            nid = self._intern(f"{prefix}:{op.kind}")
            return self._span(nid, fn, (op, *args), kwargs)

        return traced

    def _registering(self, sink: list, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            fn(obj, *args, **kwargs)
            if not self._quiet:
                sink.append(obj)

        return init

    # -- installation --------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every boundary for the duration of the block."""
        try:
            for module_name, owner_name, attr, span in BOUNDARIES:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                # vars(): a boundary must be defined on the owner itself, not
                # inherited, or the parent's method would be patched onto it.
                self._patch(owner, attr, self.wrap(span, vars(owner)[attr]))
            # The imports above loaded every operator module, the cluster's
            # network operators included.
            from repro.operators.base import Operator

            for cls in _subclasses(Operator):
                for method, prefix in (
                    ("evaluate", "operators.evaluate"),
                    ("work_profile", "operators.work_profile"),
                ):
                    if method in cls.__dict__:
                        wrapped = self._wrap_by_kind(prefix, cls.__dict__[method])
                        self._patch(cls, method, wrapped)
            from repro.engine.memo import IntermediateCache
            from repro.sql.planner import PlanCache

            for cls, sink in ((IntermediateCache, self.memos),
                              (PlanCache, self.plan_caches)):
                init = cls.__dict__["__init__"]
                self._patch(cls, "__init__", self._registering(sink, init))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    covered = np.bincount(
        spans["parent"] + 1, weights=duration, minlength=len(duration) + 1
    )[1:]
    return duration - covered


class SpanTable:
    """Per-name aggregates over one trace."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]) -> None:
        self.names = list(names)
        self.spans = spans
        self.duration = spans["end"] - spans["start"]
        self.self_s = self_times(spans)
        self.root = int(np.flatnonzero(spans["parent"] < 0)[0])

    def _mask(self, match: Callable[[str], bool]) -> tuple[np.ndarray, np.ndarray]:
        wanted = np.array([match(n) for n in self.names] + [False], dtype=bool)
        return wanted[self.spans["name"]], wanted

    def stats(self, match: Callable[[str], bool]) -> tuple[int, float, float]:
        """(outermost calls, inclusive ms of those, self ms of all).

        A call nested in another call of the same group (an operator calling
        its parent class's method, say) is counted once.
        """
        mask, wanted = self._mask(match)
        parent_names = np.where(
            self.spans["parent"] >= 0,
            self.spans["name"][np.maximum(self.spans["parent"], 0)],
            len(self.names),
        )
        outer = mask & ~wanted[parent_names]
        return (
            int(outer.sum()),
            float(self.duration[outer].sum() * 1000.0),
            float(self.self_s[mask].sum() * 1000.0),
        )

    def by_name(self, name: str) -> tuple[int, float, float]:
        return self.stats(lambda n: n == name)

    def by_prefix(self, prefix: str) -> tuple[int, float, float]:
        return self.stats(lambda n: n.startswith(prefix))

    @property
    def wall_ms(self) -> float:
        return float(self.duration[self.root] * 1000.0)

    @property
    def unattributed_ms(self) -> float:
        return float(self.self_s[self.root] * 1000.0)

    def layer_self_ms(self) -> dict[str, float]:
        """Self ms per layer (the span name's first component), root excluded."""
        layers: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name == ROOT:
                continue
            layer = name.split(".", 1)[0]
            total = float(self.self_s[self.spans["name"] == nid].sum() * 1000.0)
            layers[layer] = layers.get(layer, 0.0) + total
        return layers

    def rows(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive ms, self ms), by self time descending."""
        out = []
        for name in self.names:
            if name == ROOT:
                continue
            calls, incl, own = self.by_name(name)
            out.append((name, calls, incl, own))
        return sorted(out, key=lambda row: -row[3])

    def well_formed(self, slack: float = 1e-9) -> list[str]:
        """Problems with the span tree: children outside parents, negative self."""
        problems = []
        start, end, parent = self.spans["start"], self.spans["end"], self.spans["parent"]
        child = parent >= 0
        p = parent[child]
        if np.any(start[child] < start[p] - slack) or np.any(end[child] > end[p] + slack):
            problems.append("a child span lies outside its parent")
        if np.any(end < start):
            problems.append("a span ends before it starts")
        if np.any(self.self_s < -slack):
            problems.append("a span has negative self time")
        if int((~child).sum()) != 1:
            problems.append("the trace does not have exactly one root span")
        return problems
