"""Metrics registry tests: counters, gauges, histograms, snapshots."""

from __future__ import annotations

import gc
import json
import sys
import threading
from dataclasses import dataclass

from repro.core.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    emit_metrics,
    metrics_registry,
)


class TestCounter:
    def test_counts_monotonically(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.as_json() == 5

    def test_thread_safe_under_contention(self):
        c = Counter("c")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_inc_adjusts(self):
        g = Gauge("g")
        g.inc(2.0)
        g.inc(-0.5)
        assert g.value == 1.5


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            h.observe(value)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.min == 1.0 and h.max == 4.0

    def test_quantiles_from_the_reservoir(self):
        h = Histogram("h")
        for value in range(1, 101):
            h.observe(float(value))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) in (50.0, 51.0)

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean is None
        assert h.quantile(0.5) is None
        data = h.as_json()
        assert data["count"] == 0 and data["p95"] is None

    def test_reservoir_is_bounded_but_aggregates_stay_exact(self):
        h = Histogram("h", reservoir=16)
        for value in range(1000):
            h.observe(float(value))
        assert h.count == 1000
        assert h.min == 0.0 and h.max == 999.0
        # Quantiles reflect only the most recent window.
        assert h.quantile(0.0) >= 984.0

    def test_as_json_carries_p99_and_reservoir_dropped(self):
        h = Histogram("h", reservoir=16)
        for value in range(1, 101):
            h.observe(float(value))
        data = h.as_json()
        assert data["p99"] == h.quantile(0.99)
        # 100 observations into a 16-slot reservoir: 84 fell out, and
        # the snapshot advertises the quantile bias instead of hiding it.
        assert data["reservoir_dropped"] == 84
        assert h.reservoir_dropped == 84

    def test_unbounded_reservoir_reports_zero_dropped(self):
        h = Histogram("h")
        for value in (1.0, 2.0):
            h.observe(value)
        assert h.as_json()["reservoir_dropped"] == 0


class TestRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("wait_ms").observe(1.25)
        document = json.loads(registry.to_json())
        assert document == registry.snapshot()
        assert document["counters"] == {"hits": 3}
        assert document["gauges"] == {"depth": 2.5}
        assert document["histograms"]["wait_ms"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_process_wide_registry_is_a_singleton(self):
        assert metrics_registry() is METRICS


@dataclass
class _Counts:
    hits: int = 0
    started: float = 0.0


class _Owner:
    pass


class TestStatsFamily:
    def test_exports_the_sum_of_every_record_ever_tracked(self):
        registry = MetricsRegistry()
        family = registry.stats_family("owner.", _Counts)
        first, second = _Owner(), _Owner()
        record = family.track(first, _Counts())
        family.track(second, _Counts()).hits += 3
        record.hits += 2
        # Only integer fields are counters.
        assert registry.snapshot()["counters"] == {"owner.hits": 5}
        family.reset(record)
        assert record.hits == 0
        assert registry.snapshot()["counters"] == {"owner.hits": 5}
        record.hits += 1
        del first, record
        gc.collect()
        assert registry.snapshot()["counters"] == {"owner.hits": 6}
        registry.reset()
        assert registry.snapshot()["counters"] == {"owner.hits": 6}

    def test_totals_never_fall_under_concurrent_churn(self):
        """Owners built, counted and collected on 8 threads (half of them
        in reference cycles, so a collection may run a finalizer inside
        a snapshot) while another thread reads: every reading is at
        least the one before, and the end total loses no count."""
        registry = MetricsRegistry()
        family = registry.stats_family("owner.", _Counts)
        threads, per_thread = 8, 300
        stop = threading.Event()
        readings = []

        def churn(index):
            for round_index in range(per_thread):
                owner = _Owner()
                if round_index % 2:
                    owner.cycle = owner
                family.track(owner, _Counts()).hits += index + 1
                del owner

        def read():
            while not stop.is_set():
                readings.append(registry.snapshot()["counters"]["owner.hits"])
                if len(readings) % 50 == 0:
                    gc.collect()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            workers = [
                threading.Thread(target=churn, args=(i,)) for i in range(threads)
            ]
            reader.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
            stop.set()
            reader.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(worker.is_alive() for worker in workers)
        assert readings == sorted(readings)
        gc.collect()
        expected = per_thread * sum(range(1, threads + 1))
        assert registry.snapshot()["counters"]["owner.hits"] == expected

    def test_process_totals_never_fall(self, loc_schema):
        """Clearing a cache and collecting an engine move their counts
        into the retired totals: nothing the registry reported is lost."""
        from repro.core.compile import CompiledArtifactStore, CompiledDecisionEngine
        from repro.core.decisioncache import DecisionCache

        def counters():
            return METRICS.snapshot()["counters"]

        cache = DecisionCache()
        engine = CompiledDecisionEngine(cache=cache, store=CompiledArtifactStore())
        before = counters()
        engine.dimsat(loc_schema, "Store")
        engine.dimsat(loc_schema, "Store")
        during = counters()
        for name, delta in (
            ("decision_cache.hits", 1),
            ("decision_cache.misses", 1),
            ("compiled.compiled_decisions", 1),
            ("compiled.artifact_misses", 1),
        ):
            assert during[name] - before[name] == delta, name
        cache.clear()
        assert cache.stats.hits == 0
        assert counters() == during
        del engine, cache
        gc.collect()
        assert counters() == during


class TestEmit:
    def test_emit_metrics_writes_valid_json(self, tmp_path):
        METRICS.counter("test_metrics.emitted").inc()
        path = tmp_path / "metrics.json"
        snapshot = emit_metrics(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == snapshot
        assert on_disk["counters"]["test_metrics.emitted"] >= 1

    def test_emit_metrics_creates_parent_directories(self, tmp_path):
        path = tmp_path / "ci" / "artifacts" / "metrics.json"
        snapshot = emit_metrics(str(path))
        assert json.loads(path.read_text()) == snapshot

    def test_kernel_work_lands_in_the_registry(self):
        from repro.core.dimsat import dimsat
        from repro.generators.random_schema import (
            RandomSchemaConfig,
            schemas_by_size,
        )

        before = METRICS.counter("dimsat.decisions").value
        schema = schemas_by_size([5], RandomSchemaConfig(seed=11))[5]
        bottoms = sorted(schema.hierarchy.bottom_categories())
        dimsat(schema, bottoms[0])
        assert METRICS.counter("dimsat.decisions").value == before + 1
