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

Each event is counted once.  An object that keeps per-object stats (a
:class:`~repro.core.decisioncache.DecisionCache`, the circle-operator
memo, an engine, a server, a navigator) counts into its own record, and
the registry *reads* those records through a :class:`StatsFamily`: the
exported counter ``prefix + field`` is the field's sum over every
record of the kind ever built, never decreasing.  Only counts without a
per-object home (``dimsat.decisions``, ``budget.*``, ``audit.*``,
``faults.*``, ...) are registry :class:`Counter` objects.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from collections import deque
from dataclasses import fields
from typing import Any, Deque, Dict, List, Optional, TypeVar

R = TypeVar("R")


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


class StatsFamily:
    """The registry's view of one kind of per-object stats record.

    An owner keeps its counts in a plain dataclass record and increments
    them under its own synchronization; the family only reads them.  It
    exports each integer field of the record as the counter
    ``prefix + field``: the sum over the live records plus a retired
    total.  A record's counts move into the retired total when its owner
    is garbage-collected or :meth:`reset` zeroes them, so an exported
    count never decreases.
    """

    def __init__(self, prefix: str, record_type: type) -> None:
        self.prefix = prefix
        self.fields = tuple(
            f.name for f in fields(record_type) if type(f.default) is int
        )
        self._lock = threading.Lock()
        self._live: Dict[int, Any] = {}
        self._retired = dict.fromkeys(self.fields, 0)
        #: Records whose owner was collected.  Appended by a finalizer,
        #: which may run on any thread, including one inside
        #: :meth:`totals` (a garbage collection), so never under the lock.
        self._dead: Deque[Any] = deque()

    def track(self, owner: object, record: R) -> R:
        """Export ``record``'s counts until ``owner`` is collected;
        returns ``record``."""
        weakref.finalize(owner, self._dead.append, record).atexit = False
        with self._lock:
            self._retire_dead()
            self._live[id(record)] = record
        return record

    def reset(self, record: object) -> None:
        """Zero ``record``'s counters, moving them into the retired
        total (an owner's ``clear()``, with the owner's lock held)."""
        with self._lock:
            for name in self.fields:
                self._retired[name] += getattr(record, name)
                setattr(record, name, 0)

    def _retire_dead(self) -> None:
        """Fold the collected owners' records into the retired total
        (lock held)."""
        while self._dead:
            record = self._dead.popleft()
            del self._live[id(record)]
            for name in self.fields:
                self._retired[name] += getattr(record, name)

    def totals(self) -> Dict[str, int]:
        """Every exported counter's current value."""
        with self._lock:
            self._retire_dead()
            totals = dict(self._retired)
            for record in self._live.values():
                for name in self.fields:
                    totals[name] += getattr(record, name)
        return {self.prefix + name: value for name, value in totals.items()}


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
        self._families: List[StatsFamily] = []

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

        Lets tests and reports probe e.g.
        ``maintenance.edit_decision_fallbacks`` or ``faults.worker-crash``
        without materializing zero-valued metrics in every snapshot.
        Stats-family counters are read through :meth:`snapshot`.
        """
        with self._lock:
            metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def stats_family(self, prefix: str, record_type: type) -> StatsFamily:
        """Export every ``record_type`` record an owner
        :meth:`~StatsFamily.track`-s as counters named ``prefix + field``
        (see :class:`StatsFamily`).  Declared once per record kind, at
        import; :meth:`reset` keeps it."""
        family = StatsFamily(prefix, record_type)
        with self._lock:
            self._families.append(family)
        return family

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's current value as one JSON-serializable dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            families = list(self._families)
        counter_values: Dict[str, Any] = {
            n: m.as_json() for n, m in counters.items()
        }
        for family in families:
            counter_values.update(family.totals())
        return {
            "counters": dict(sorted(counter_values.items())),
            "gauges": {n: m.as_json() for n, m in sorted(gauges.items())},
            "histograms": {n: m.as_json() for n, m in sorted(histograms.items())},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every counter, gauge and histogram (tests; production
        registries only grow).  Stats families stay declared."""
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
