"""A process-wide metrics registry: counters, gauges, histograms.

Where :mod:`repro.core.trace` answers "where did *this* decision spend
its time", the metrics registry answers "what has this *process* been
doing": cache hit rates, decisions served, budget consumption, engine
queue waits.  Metric objects are cheap, thread-safe, and always on -
an increment is one short critical section - and the whole registry
serializes to JSON through :meth:`MetricsRegistry.snapshot` (the CLI's
``--emit-metrics PATH`` and the bench smoke's artifact).

Naming convention: dotted ``subsystem.metric`` names, e.g.
``decision_cache.hits``, ``circle_cache.misses``,
``engine.batch_deduped``, ``budget.exceeded``, ``resilience.retries``,
``faults.worker-crash``.  The registry creates metrics on first use, so
readers never race creators.

Per-object stats (:class:`~repro.core.decisioncache.DecisionCacheStats`,
``CircleCache.hits``/``misses``, and each engine's ``stats``) count one
object's work; the registry counts the whole process, across instances.
The two overlap but neither is a view of the other: the cache's hits and
misses have registry twins, while, for instance,
:class:`~repro.core.parallel.EngineStats` ``decisions`` and
``batch_requests`` exist only per engine.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, delta: int = 1) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int:
        return self._value

    def as_json(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, delta: float = 1.0) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def as_json(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution summary with a bounded reservoir.

    Exact ``count``/``total``/``min``/``max``; quantiles are computed
    from the most recent ``reservoir`` observations, which keeps memory
    constant for long-lived services while staying exact for the short
    bursts benchmarks measure.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_recent", "_lock")

    def __init__(self, name: str, reservoir: int = 1024) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent: Deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._recent.append(value)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile of the recent reservoir (``0 <= q <= 1``)."""
        with self._lock:
            data = sorted(self._recent)
        if not data:
            return None
        index = min(len(data) - 1, max(0, round(q * (len(data) - 1))))
        return data[index]

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @property
    def reservoir_dropped(self) -> int:
        """Observations no longer in the quantile reservoir.

        Non-zero means the quantiles cover only the most recent
        ``len(_recent)`` observations - long-run snapshots advertise
        their reservoir bias instead of hiding it.
        """
        return self.count - len(self._recent)

    def as_json(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "reservoir_dropped": self.reservoir_dropped,
        }


class MetricsRegistry:
    """Named metrics, created on first use, snapshotted as JSON.

    One process-wide instance (:func:`metrics_registry`) backs all the
    kernel's instrumentation; tests may build private registries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._derived: Dict[str, Callable[[], float]] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def counter_value(self, name: str) -> int:
        """A counter's current value without creating it (0 when absent).

        Lets tests and reports probe e.g. ``resilience.retries`` or
        ``faults.worker-crash`` without materializing zero-valued metrics
        in every snapshot.
        """
        with self._lock:
            metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def register_derived(self, name: str, supplier: Callable[[], float]) -> None:
        """Expose an externally-maintained value as a counter at snapshot
        time.

        The hottest code paths (the circle-operator cache's per-reduction
        hit/miss counts) already maintain exact counters under their own
        lock; incrementing a registry counter there too would double the
        locking per call.  A derived metric is instead *read* from its
        owner whenever a snapshot is taken - same numbers in the JSON,
        zero cost on the hot path.
        """
        with self._lock:
            self._derived[name] = supplier

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's current value as one JSON-serializable dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            derived = dict(self._derived)
        counter_values: Dict[str, Any] = {
            n: m.as_json() for n, m in counters.items()
        }
        for name, supplier in derived.items():
            counter_values[name] = supplier()
        return {
            "counters": dict(sorted(counter_values.items())),
            "gauges": {n: m.as_json() for n, m in sorted(gauges.items())},
            "histograms": {n: m.as_json() for n, m in sorted(histograms.items())},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every metric (tests; production registries only grow)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry all kernel instrumentation records into.
METRICS = MetricsRegistry()


def metrics_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return METRICS


def emit_metrics(path: str) -> Dict[str, Any]:
    """Write the process-wide snapshot to ``path`` (the CLI's
    ``--emit-metrics``); returns the snapshot.

    Missing parent directories are created - an operator pointing
    ``--emit-metrics`` into a fresh run directory should get a snapshot,
    not a ``FileNotFoundError``.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    snapshot = METRICS.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot
