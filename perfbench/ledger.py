"""Turn a traced run's spans and counter snapshots into per-layer metrics.

Each request's wall time is split among layers by *deepest active span*:
at every instant between send and reply, the time goes to the innermost
span that is open for that request (on any thread), so parallel branches
are counted once and the rows of one request add up to its latency.
Time inside the server's window that no span covers is the server's own
loop; time outside it is the client's (generator plus loopback).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import percentile

#: Every layer that gets a ``<layer>.self_ms`` row, outermost first.
LAYERS = (
    "wire", "server", "resilience", "parallel", "decisioncache",
    "dimsat", "implication", "summarizability", "compile", "satsolver",
    "maintenance", "provenance", "navigator", "cubeview",
)

Span = Sequence[object]  # (id, name, layer, start, end, request id, parent id)


def attribute(
    spans: List[Span], sent: float, replied: float, loop_layer: Optional[str]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Seconds per layer and per span name for one request."""
    by_layer: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, float] = defaultdict(float)
    latency = replied - sent
    if not spans:
        by_layer["client"] += latency
        return by_layer, by_name
    known = {span[0]: span for span in spans}
    depth: Dict[object, int] = {}
    for span in spans:
        level, parent = 0, span[6]
        while parent in known and level < 64:
            level += 1
            parent = known[parent][6]
        depth[span[0]] = level
    events = []
    for span in spans:
        events.append((span[3], 1, span))
        events.append((span[4], 0, span))
    events.sort(key=lambda event: (event[0], event[1]))
    window_start, window_end = events[0][0], events[-1][0]
    active: Dict[object, Span] = {}
    previous = window_start
    for moment, opening, span in events:
        if moment > previous:
            if active:
                deepest = max(active.values(), key=lambda s: depth[s[0]])
                by_layer[deepest[2]] += moment - previous  # type: ignore[index]
                by_name[deepest[1]] += moment - previous  # type: ignore[index]
            elif loop_layer is not None:
                by_layer[loop_layer] += moment - previous
            previous = moment
        if opening:
            active[span[0]] = span
        else:
            active.pop(span[0], None)
    inside = window_end - window_start
    by_layer["client"] += max(0.0, latency - inside)
    return by_layer, by_name


def breakdown(
    requests: Iterable[Tuple[int, float, float]],
    spans: Iterable[Span],
    loop_layer: Optional[str] = "server",
) -> Dict[str, object]:
    """Per-layer mean ms per request over all requests, plus the rows of
    the requests around the median latency (the ledger check)."""
    per_request: Dict[object, List[Span]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            per_request[span[5]].append(span)
    inclusive: Dict[str, List[float]] = defaultdict(list)
    rows: List[Tuple[float, Dict[str, float], Dict[str, float]]] = []
    for request_id, sent, replied in requests:
        mine = per_request.get(request_id, [])
        for span in mine:
            inclusive[span[1]].append((span[4] - span[3]) * 1000.0)  # type: ignore[operator]
        layers, names = attribute(mine, sent, replied, loop_layer)
        rows.append(((replied - sent) * 1000.0, layers, names))
    count = len(rows)
    layer_ms: Dict[str, float] = defaultdict(float)
    name_ms: Dict[str, float] = defaultdict(float)
    for _latency, layers, names in rows:
        for layer, seconds in layers.items():
            layer_ms[layer] += seconds * 1000.0 / count
        for name, seconds in names.items():
            name_ms[name] += seconds * 1000.0 / count
    latencies = [row[0] for row in rows]
    median = statistics.median(latencies)
    low, high = percentile(latencies, 45), percentile(latencies, 55)
    band = [row for row in rows if low <= row[0] <= high]
    band_ms: Dict[str, float] = defaultdict(float)
    for _latency, layers, _names in band:
        for layer, seconds in layers.items():
            band_ms[layer] += seconds * 1000.0 / len(band)
    return {
        "requests": count,
        "layer_ms": dict(layer_ms),
        "name_ms": dict(name_ms),
        "median_latency_ms": median,
        "mean_latency_ms": statistics.fmean(latencies),
        "median_band_ms": dict(band_ms),
        "median_band_requests": len(band),
        "inclusive_mean_ms": {
            name: statistics.fmean(values) for name, values in inclusive.items()
        },
    }


def _delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return float(after.get(key, 0.0)) - float(before.get(key, 0.0))


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer_metrics(
    result: Dict[str, object],
    before: Dict[str, float],
    after: Dict[str, float],
    setup_counters: Dict[str, float],
    setup_spans: Iterable[Span],
) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric.

    ``result`` is :func:`breakdown`'s output for the timed requests;
    ``before``/``after`` are counter snapshots around the timed phase.
    """
    n = max(1, int(result["requests"]))  # type: ignore[arg-type]
    layer_ms: Dict[str, float] = result["layer_ms"]  # type: ignore[assignment]
    name_ms: Dict[str, float] = result["name_ms"]  # type: ignore[assignment]

    def d(key: str) -> float:
        return _delta(before, after, key)

    lookups = d("decisioncache.hits") + d("decisioncache.misses")
    tasks = d("parallel.tasks_dispatched")
    solves = d("satsolver.solves")
    circle = d("dimsat.circle_hits") + d("dimsat.circle_misses")
    compiled = d("compile.compiled_decisions") + d("compile.fallbacks")
    store = d("compile.store_hits") + d("compile.store_misses")
    inclusive: Dict[str, float] = result["inclusive_mean_ms"]  # type: ignore[assignment]
    moved, dropped = d("decisioncache.rekeyed"), d("decisioncache.invalidations")
    queries = d("navigator.queries")
    load_ms = sum(
        ((float(s[4]) - float(s[3])) * 1000.0 for s in setup_spans if s[1] == "cachestore.load"),
        0.0,
    )
    metrics: Dict[str, Tuple[float, str]] = {
        "wire.encode_ms": (name_ms.get("wire.encode", 0.0), "ms"),
        "wire.decode_ms": (name_ms.get("wire.decode", 0.0), "ms"),
        "wire.bytes_per_req": (d("wire.bytes") / n, "B/req"),
        "server.queue_wait_ms": (name_ms.get("server.queue", 0.0), "ms"),
        "server.busy": (d("server.busy"), "count"),
        "server.errors": (d("server.errors"), "count"),
        "resilience.retries": (d("resilience.retries"), "count"),
        "resilience.degraded": (d("resilience.degraded"), "count"),
        "resilience.unknown": (d("resilience.unknown"), "count"),
        "decisioncache.lookups": (lookups / n, "1/req"),
        "decisioncache.hit_pct": (_pct(d("decisioncache.hits"), lookups), "%"),
        "decisioncache.rekeyed": (moved, "count"),
        "decisioncache.dropped_on_edit": (dropped, "count"),
        "decisioncache.evictions": (d("decisioncache.evictions"), "count"),
        "cachestore.load_ms": (load_ms, "ms"),
        "cachestore.entries_verified": (
            setup_counters.get("cachestore.entries_verified", 0.0), "count"
        ),
        "cachestore.entries_dropped": (
            setup_counters.get("cachestore.entries_dropped", 0.0), "count"
        ),
        "parallel.tasks_dispatched": (tasks / n, "1/req"),
        "parallel.tasks_cancelled": (d("parallel.tasks_cancelled") / n, "1/req"),
        "parallel.useful_task_pct": (
            _pct(tasks - d("parallel.tasks_cancelled"), tasks), "%"
        ),
        "parallel.queue_wait_ms": (
            d("parallel.queue_wait_ms") / d("parallel.tasks") if d("parallel.tasks") else 0.0,
            "ms",
        ),
        "dimsat.calls": (d("dimsat.calls") / n, "1/req"),
        "dimsat.expand_calls": (d("dimsat.expand_calls") / n, "1/req"),
        "dimsat.check_calls": (d("dimsat.check_calls") / n, "1/req"),
        "dimsat.circle_hit_pct": (_pct(d("dimsat.circle_hits"), circle), "%"),
        "dimsat.into_pruned": (d("dimsat.into_pruned") / n, "1/req"),
        "compile.artifacts_built": (d("compile.artifacts_built"), "count"),
        "compile.build_ms": (name_ms.get("compile.build", 0.0), "ms"),
        "compile.decide_ms": (name_ms.get("compile.decide", 0.0), "ms"),
        "compile.fallback_pct": (_pct(d("compile.fallbacks"), compiled), "%"),
        "compile.store_hit_pct": (_pct(d("compile.store_hits"), store), "%"),
        "satsolver.solves": (solves / n, "1/req"),
        "satsolver.conflicts_per_solve": (
            d("satsolver.conflicts") / solves if solves else 0.0, "count"
        ),
        "satsolver.propagations_per_solve": (
            d("satsolver.propagations") / solves if solves else 0.0, "count"
        ),
        "satsolver.learned_clauses": (d("satsolver.learned_clauses"), "count"),
        "maintenance.edit_ms": (inclusive.get("maintenance.edit", 0.0), "ms"),
        "provenance.survival_pct": (_pct(moved, moved + dropped), "%"),
        "navigator.answer_ms": (inclusive.get("navigator.answer", 0.0), "ms"),
        "navigator.rows_read_per_query": (
            d("navigator.rows_read") / queries if queries else 0.0, "rows"
        ),
        "navigator.plan_rewritten_pct": (_pct(d("navigator.rewrites"), queries), "%"),
        "navigator.plan_base_scan_pct": (_pct(d("navigator.base_scans"), queries), "%"),
        "navigator.checks_per_query": (
            d("navigator.checks") / queries if queries else 0.0, "1/query"
        ),
        "cubeview.scan_ms": (name_ms.get("cubeview.scan", 0.0), "ms"),
        "cubeview.recombine_ms": (name_ms.get("cubeview.recombine", 0.0), "ms"),
        "client.ms": (layer_ms.get("client", 0.0), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_ms.get(layer, 0.0), "ms")
    band: Dict[str, float] = result["median_band_ms"]  # type: ignore[assignment]
    band_sum = sum(band.values())
    median = float(result["median_latency_ms"])  # type: ignore[arg-type]
    metrics["ledger.median_latency_ms"] = (median, "ms")
    metrics["ledger.median_band_sum_ms"] = (band_sum, "ms")
    metrics["ledger.gap_pct"] = (_pct(abs(band_sum - median), median), "%")
    metrics["ledger.requests"] = (float(n), "count")
    return metrics
