"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the one place the engine's previously ad-hoc stat dicts
(:class:`~repro.engine.memo.CacheStats`,
:class:`~repro.chaos.faults.FaultStats`,
:class:`~repro.concurrency.WorkloadReport`) publish into when an
:class:`~repro.observe.Observer` is attached; the stat classes remain as
compatibility shims and the reconciliation tests assert both views
agree.

Determinism contract: every instrument that feeds the *canonical*
export is updated in dispatch order, from simulated quantities only, so
exported values are bit-identical across repeated seeded runs.
Host-side measurements (the live server's counters) are registered
with ``host=True`` and excluded from canonical output, exactly like host
timestamps on spans.

Histograms use **fixed, explicit bucket bounds** -- never quantiles or
adaptive bounds -- so their exported shape is a pure function of the
observed values.
"""

from __future__ import annotations

from ..errors import ObserveError

#: Default simulated-duration buckets (seconds): task runtimes span
#: microseconds (tiny selects) to whole seconds (saturated joins).
DURATION_BUCKETS = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObserveError(f"counters only go up (inc by {amount})")
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bound histogram: per-bucket counts plus sum and count.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit ``+Inf`` bucket catches the rest.  Exported bucket counts
    are cumulative, Prometheus-style.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds:
            raise ObserveError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObserveError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket edge, ending with the total."""
        out = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out


class _Family:
    """One metric name: its type, help text, and labeled children."""

    __slots__ = ("name", "kind", "help", "host", "bounds", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        host: bool,
        bounds: tuple[float, ...] | None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.host = host
        self.bounds = bounds
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Named, optionally labeled instruments with deterministic export."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        host: bool,
        bounds: tuple[float, ...] | None = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, host, bounds)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ObserveError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if bounds is not None and family.bounds != bounds:
            raise ObserveError(f"metric {name!r} re-registered with new buckets")
        return family

    def counter(
        self, name: str, help: str = "", *, host: bool = False, **labels: str
    ) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        family = self._family(name, "counter", help, host)
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = Counter()
            family.children[key] = child
        return child  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", *, host: bool = False, **labels: str
    ) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        family = self._family(name, "gauge", help, host)
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = Gauge()
            family.children[key] = child
        return child  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DURATION_BUCKETS,
        help: str = "",
        *,
        host: bool = False,
        **labels: str,
    ) -> Histogram:
        """Get or create the fixed-bucket histogram ``name``."""
        bounds = tuple(float(b) for b in buckets)
        family = self._family(name, "histogram", help, host, bounds)
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            child = Histogram(bounds)
            family.children[key] = child
        return child  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def collect(self, *, host: bool = True) -> dict:
        """Every metric value, keyed ``name{label="v",...}``, sorted.

        ``host=False`` drops host-side families -- the canonical,
        worker-invariant view golden fixtures are built from.
        """
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.host and not host:
                continue
            for key in sorted(family.children):
                child = family.children[key]
                label_text = ",".join(f'{k}="{v}"' for k, v in key)
                full = f"{name}{{{label_text}}}" if label_text else name
                if isinstance(child, Histogram):
                    out[full] = {
                        "buckets": dict(
                            zip(
                                [str(b) for b in child.bounds] + ["+Inf"],
                                child.cumulative(),
                            )
                        ),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    out[full] = child.value  # type: ignore[union-attr]
        return out

    def to_prometheus(self, *, host: bool = True) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.host and not host:
                continue
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                labels = ",".join(f'{k}="{v}"' for k, v in key)
                if isinstance(child, Histogram):
                    extra = f",{labels}" if labels else ""
                    for bound, count in zip(
                        [repr(b) for b in child.bounds] + ["+Inf"],
                        child.cumulative(),
                    ):
                        lines.append(
                            f'{name}_bucket{{le="{bound}"{extra}}} {count}'
                        )
                    suffix = f"{{{labels}}}" if labels else ""
                    lines.append(f"{name}_sum{suffix} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    suffix = f"{{{labels}}}" if labels else ""
                    value = child.value  # type: ignore[union-attr]
                    lines.append(f"{name}{suffix} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry(families={len(self._families)}, series={len(self)})"


def _fmt(value: float) -> str:
    """Integer-valued floats print as integers (stable, readable)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
