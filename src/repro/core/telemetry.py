"""Telemetry export: ship spans, metrics, and audit records off-process.

PR 3 gave the kernel spans (:mod:`repro.core.trace`) and metrics
(:mod:`repro.core.metrics`), but both live in in-memory ring buffers
that die with the process.  The ROADMAP's production target needs
telemetry that can be *shipped, stored, replayed, and compared across
runs*.  This module is that shipping layer:

* :class:`BackgroundWriter` - a bounded buffer drained by one daemon
  thread.  Producers (the instrumented hot paths) pay one length check
  plus a lock-free ``deque.append`` and never wait - serialization and
  file writes happen on the drain thread.  When the buffer is full the
  record is **dropped and counted** (``telemetry.dropped_records``),
  because a decision service must never stall behind its own
  observability.
* :class:`TelemetryPipeline` - one per telemetry directory.  Streams
  finished spans/events to ``spans.jsonl`` / ``events.jsonl`` (the
  :class:`~repro.core.trace.SpanSink` protocol), audit records to
  ``audit.jsonl`` with the ``schemas.jsonl`` sidecar (the
  :class:`~repro.core.auditlog.AuditSink` protocol; the sidecar, one
  entry per fingerprint that every record of it needs, is written
  synchronously and never dropped), and at
  :meth:`~TelemetryPipeline.finalize` renders three derived artifacts:

  - ``metrics.json`` - the :meth:`MetricsRegistry.snapshot` document;
  - ``metrics.prom`` - the same snapshot in Prometheus text exposition
    format (:func:`render_prometheus`), scrape-ready;
  - ``trace.json`` - the tracer's spans in Chrome trace-event format
    (:func:`render_chrome_trace`), so a DIMSAT decision opens as a
    flamegraph in ``chrome://tracing`` or Perfetto.

* :func:`render_report` - the ``repro-olap report --telemetry DIR``
  renderer: p50/p95/p99 per decision kind from the audit log, cache hit
  rates and circuit-breaker counters from the metrics snapshot, top
  spans by total time.

The CLI's global ``--telemetry-dir DIR`` constructs a pipeline,
:meth:`installs <TelemetryPipeline.install>` it (tracer sink + audit
log), and finalizes it after the command; with the flag absent nothing
here ever runs and the instrumented sites cost one attribute check.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, IO, List, Optional, Sequence, Tuple

from repro.core.auditlog import AUDIT
from repro.core.metrics import METRICS
from repro.core.trace import TRACER
from repro.errors import ReproError

_M_DROPPED = METRICS.counter("telemetry.dropped_records")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) by nearest-rank on a sorted copy."""
    if not values:
        return None
    data = sorted(values)
    index = min(len(data) - 1, max(0, round(q * (len(data) - 1))))
    return data[index]


# ----------------------------------------------------------------------
# The bounded background writer
# ----------------------------------------------------------------------


class BackgroundWriter:
    """One daemon thread draining ``(handle, record)`` work items.

    ``submit`` never blocks and never serializes: the hot path pays a
    length check plus one ``deque.append`` (atomic under the GIL - no
    lock, no condition-variable wakeup).  The drain thread does the
    ``json.dumps`` and the file writes in batches.  The bound is *soft*:
    when the buffer is at ``maxsize`` the record is dropped and counted;
    racing producers can overshoot by a handful of records, which is an
    acceptable trade for a lock-free enqueue.

    The drain thread *yields to the decision path*: while the buffer is
    still growing (producers are mid-burst) it backs off instead of
    competing for the interpreter, and catches up in idle gaps - unless
    the backlog crosses the high-water mark (3/4 of ``maxsize``), at
    which point it drains at full speed to protect the bound.
    :meth:`flush` and :meth:`close` always drain at full speed.

    ``autostart=False`` exists for tests that need deterministic
    buffer-full behavior: nothing is drained until :meth:`start`.
    """

    #: How long the drain thread sleeps when the buffer is empty.
    _IDLE_SLEEP_S = 0.001
    #: How long it backs off while producers are actively appending.
    _BACKOFF_S = 0.002
    #: Records written per drain step outside fast mode, so a drain that
    #: collides with the start of a burst yields after one small batch.
    _BATCH = 128

    def __init__(self, maxsize: int = 8192, autostart: bool = True) -> None:
        self._maxsize = maxsize
        self._high_water = max(1, (maxsize * 3) // 4)
        self._buffer: Deque[Tuple[IO[str], object]] = deque()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._stop = False
        self._busy = False
        self._fast = False
        self._paused = False
        self.dropped = 0
        self.written = 0
        if autostart:
            self.start()

    def start(self) -> None:
        with self._lock:
            if self._thread is None:
                self._stop = False
                self._thread = threading.Thread(
                    target=self._drain, name="telemetry-writer", daemon=True
                )
                self._thread.start()
                # The drain thread is a daemon, so an interpreter exit
                # without an explicit close would discard whatever is
                # still buffered.  The atexit hook drains first; close()
                # unregisters it, so an explicit close stays the common
                # path and the hook is the abnormal-exit safety net.
                atexit.register(self.close)

    def submit(self, handle: IO[str], record: object) -> None:
        """Enqueue one record (a JSON-ready mapping, or a pre-rendered
        string); drop (and count) instead of blocking when full."""
        if len(self._buffer) >= self._maxsize:
            self.dropped += 1
            _M_DROPPED.inc()
            return
        self._buffer.append((handle, record))

    def channel(self, handle: IO[str]):
        """A bound single-argument enqueue for one stream.

        The returned callable is the cheapest producer path this writer
        offers - the buffer, its ``append``, the bound, and the handle
        are closed over, so a hot-path enqueue is one call, one length
        check, and one atomic append.  The pipeline binds its sink
        protocol methods to these."""
        buffer = self._buffer
        append = buffer.append
        maxsize = self._maxsize

        def submit(record: object) -> None:
            if len(buffer) >= maxsize:
                self.dropped += 1
                _M_DROPPED.inc()
            else:
                append((handle, record))

        return submit

    def _write_one(self, handle: IO[str], record: object) -> None:
        try:
            if not isinstance(record, str):
                as_dict = getattr(record, "as_dict", None)
                if as_dict is not None:
                    record = as_dict()
                record = json.dumps(record, separators=(",", ":"))
            handle.write(record + "\n")
            self.written += 1
        except (ValueError, OSError, TypeError):
            # A closed/failing handle or an unserializable record must
            # not kill the drain thread; the record is lost and counted.
            self.dropped += 1
            _M_DROPPED.inc()

    def _drain(self) -> None:
        last_len = 0
        while True:
            n = len(self._buffer)
            if not n:
                if self._stop:
                    return
                self._busy = False
                last_len = 0
                time.sleep(self._IDLE_SLEEP_S)
                continue
            fast = self._fast or self._stop or n >= self._high_water
            if not fast and self._paused:
                time.sleep(self._BACKOFF_S)
                continue
            if not fast and n > last_len:
                # Producers are mid-burst: let the backlog build rather
                # than competing with the decision path for the
                # interpreter.  The high-water mark caps the deferral.
                last_len = n
                time.sleep(self._BACKOFF_S)
                continue
            self._busy = True
            for _ in range(n if fast else self._BATCH):
                try:
                    handle, record = self._buffer.popleft()
                except IndexError:
                    break
                self._write_one(handle, record)
            # Re-checked against the post-batch length, so a burst that
            # started mid-batch triggers the backoff on the next pass.
            last_len = len(self._buffer)
            self._busy = False

    def pause(self) -> None:
        """Keep the drain thread idle (records buffer, nothing is
        written) until :meth:`resume`.  :meth:`flush` and :meth:`close`
        still drain - the pause only yields the steady-state thread.
        Benchmarks use this to price the producer side in isolation;
        the high-water mark still forces a drain if the buffer fills."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def flush(self) -> None:
        """Block until everything buffered so far has been written."""
        self.start()
        self._fast = True
        try:
            while self._buffer or self._busy:
                time.sleep(self._IDLE_SLEEP_S)
        finally:
            self._fast = False

    def close(self) -> None:
        """Drain the buffer and stop the writer thread.  Idempotent, and
        unregisters the interpreter-exit safety net."""
        self.start()
        self.flush()
        self._stop = True
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
        atexit.unregister(self.close)


# ----------------------------------------------------------------------
# Renderers: Prometheus text exposition, Chrome trace events
# ----------------------------------------------------------------------


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """A metric name sanitized to the Prometheus grammar."""
    sanitized = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in name.replace(".", "_").replace("-", "_")
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """A :meth:`MetricsRegistry.snapshot` document in Prometheus text
    exposition format (version 0.0.4).

    Counters (stats-family counters included) become ``counter`` samples,
    gauges ``gauge`` samples, histograms ``summary`` samples with
    ``{quantile=...}`` labels plus ``_sum``/``_count`` (and a
    ``_reservoir_dropped`` gauge advertising quantile bias).
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            q_value = data.get(q_key)
            if q_value is not None:
                lines.append(
                    f'{prom}{{quantile="{q_label}"}} {_prom_value(q_value)}'
                )
        lines.append(f"{prom}_sum {_prom_value(data.get('total', 0.0))}")
        lines.append(f"{prom}_count {_prom_value(data.get('count', 0))}")
        dropped = data.get("reservoir_dropped")
        if dropped:
            lines.append(f"# TYPE {prom}_reservoir_dropped gauge")
            lines.append(f"{prom}_reservoir_dropped {_prom_value(dropped)}")
    return "\n".join(lines) + "\n"


def render_chrome_trace(
    spans: Sequence[Dict[str, Any]],
    events: Sequence[Dict[str, Any]] = (),
    pid: Optional[int] = None,
) -> Dict[str, Any]:
    """Tracer spans/events as a Chrome trace-event document.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps, so ``chrome://tracing`` / Perfetto renders a DIMSAT
    decision as a flamegraph: ``dimsat.decide`` on top, its
    ``dimsat.check`` branches nested below, per worker-thread track.
    Point events become thread-scoped instants (``"ph": "i"``).
    """
    process = os.getpid() if pid is None else pid
    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        args = dict(span.get("attrs", {}))
        args["span_id"] = span.get("span_id")
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        if span.get("error"):
            args["error"] = span["error"]
        trace_events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": span["start_ms"] * 1000.0,
                "dur": (span.get("duration_ms") or 0.0) * 1000.0,
                "pid": process,
                "tid": span.get("tid") or 0,
                "args": args,
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event["name"],
                "cat": event["name"].split(".", 1)[0],
                "ph": "i",
                "s": "p",
                "ts": event["time_ms"] * 1000.0,
                "pid": process,
                "tid": 0,
                "args": dict(event.get("attrs", {})),
            }
        )
    trace_events.sort(key=lambda e: e["ts"])
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

#: File names a telemetry directory contains.
SPANS_FILE = "spans.jsonl"
EVENTS_FILE = "events.jsonl"
AUDIT_FILE = "audit.jsonl"
SCHEMAS_FILE = "schemas.jsonl"
METRICS_JSON_FILE = "metrics.json"
METRICS_PROM_FILE = "metrics.prom"
CHROME_TRACE_FILE = "trace.json"
MANIFEST_FILE = "MANIFEST.json"


class TelemetryPipeline:
    """Everything ``--telemetry-dir DIR`` turns on, in one object.

    Implements both sink protocols: the tracer's
    (:meth:`export_span` / :meth:`export_event`) and the audit log's
    (:meth:`export_audit` / :meth:`export_schema`).  All four stream
    through one :class:`BackgroundWriter`, so the hot path pays one
    non-blocking enqueue per record (the writer serializes off-thread).

    Use as a context manager, or :meth:`install` / :meth:`finalize`
    explicitly.
    """

    def __init__(self, directory: str, max_queue: int = 8192) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._writer = BackgroundWriter(maxsize=max_queue)
        self._handles: Dict[str, IO[str]] = {}
        for filename in (SPANS_FILE, EVENTS_FILE, AUDIT_FILE, SCHEMAS_FILE):
            self._handles[filename] = open(
                os.path.join(directory, filename), "w", encoding="utf-8"
            )
        #: Serializes :meth:`export_schema`'s synchronous writes.
        self._schemas_lock = threading.Lock()
        self._installed = False
        self._tracer_was_enabled = False
        self._finalized = False
        # The sink protocol methods are bound per-stream writer channels:
        # a finished span/event/audit record costs the instrumented
        # thread exactly one closure call (length check + atomic append).
        self.export_span = self._writer.channel(self._handles[SPANS_FILE])
        self.export_event = self._writer.channel(self._handles[EVENTS_FILE])
        self.export_audit = self._writer.channel(self._handles[AUDIT_FILE])

    @property
    def writer(self) -> BackgroundWriter:
        """The shared background writer (e.g. for pause/resume)."""
        return self._writer

    # -- sink protocols -------------------------------------------------

    # ``export_span`` (a finished TraceSpan, rendered on the drain
    # thread), ``export_event``, and ``export_audit`` are bound in
    # ``__init__`` as writer channels - see
    # :meth:`BackgroundWriter.channel`.

    def export_schema(self, fingerprint: str, schema_json: str) -> None:
        """Write one schema sidecar entry synchronously.

        The audit log sends each fingerprint once, and every audit record
        of that schema needs the entry to replay, so it must never be
        dropped the way a record in a full writer buffer is.  Once per
        fingerprint, a locked write and flush are cheap."""
        line = json.dumps(
            {"fingerprint": fingerprint, "schema_json": schema_json},
            separators=(",", ":"),
        )
        handle = self._handles[SCHEMAS_FILE]
        with self._schemas_lock:
            try:
                handle.write(line + "\n")
                handle.flush()
            except (ValueError, OSError):
                # A finalized pipeline or a failing disk: the entry is
                # lost and counted, and the decision is not failed for it.
                self._writer.dropped += 1
                _M_DROPPED.inc()

    # -- lifecycle ------------------------------------------------------

    def install(self) -> "TelemetryPipeline":
        """Wire this pipeline into the process-wide tracer and audit log.

        Also registers an interpreter-exit finalize: the writer's drain
        thread is a daemon and the stream handles are buffered, so a
        process that ends without an explicit :meth:`finalize` (uncaught
        exception, ``sys.exit`` deep in a library) would otherwise lose
        its tail of spans and audit records.  An explicit finalize
        unregisters the hook; running it twice is a no-op either way.
        """
        if self._installed:
            return self
        self._tracer_was_enabled = TRACER.enabled
        TRACER.sink = self
        TRACER.enable()
        AUDIT.attach(self)
        self._installed = True
        atexit.register(self._atexit_finalize)
        return self

    def _atexit_finalize(self) -> None:
        try:
            self.finalize()
        except Exception:  # pragma: no cover - best-effort at shutdown
            pass

    def flush(self) -> None:
        """Drain the queue and flush every stream to disk."""
        self._writer.flush()
        for handle in self._handles.values():
            try:
                handle.flush()
            except ValueError:  # pragma: no cover - already closed
                pass

    def finalize(self) -> Dict[str, Any]:
        """Detach, drain, render the derived artifacts, close the files.

        Returns the manifest document (also written to ``MANIFEST.json``):
        the artifact list plus the drop counters that tell a reader
        whether the streams are complete.
        """
        if self._finalized:
            return self._manifest()
        atexit.unregister(self._atexit_finalize)
        if self._installed:
            if AUDIT.sink is self:
                AUDIT.detach()
            if TRACER.sink is self:
                TRACER.sink = None
            if not self._tracer_was_enabled:
                TRACER.disable()
            self._installed = False

        try:
            snapshot = METRICS.snapshot()
            with open(
                os.path.join(self.directory, METRICS_JSON_FILE), "w", encoding="utf-8"
            ) as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            with open(
                os.path.join(self.directory, METRICS_PROM_FILE), "w", encoding="utf-8"
            ) as handle:
                handle.write(render_prometheus(snapshot))
            trace_doc = render_chrome_trace(TRACER.spans(), TRACER.events())
            with open(
                os.path.join(self.directory, CHROME_TRACE_FILE), "w", encoding="utf-8"
            ) as handle:
                json.dump(trace_doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
        finally:
            # A failed render (a full disk, say) must not strand the
            # streams: drain the writer and close every handle regardless.
            self._writer.close()
            for handle in self._handles.values():
                try:
                    handle.flush()
                    handle.close()
                except ValueError:  # pragma: no cover - already closed
                    pass
            self._finalized = True
        manifest = self._manifest()
        with open(
            os.path.join(self.directory, MANIFEST_FILE), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return manifest

    def _manifest(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "files": sorted(
                name
                for name in os.listdir(self.directory)
                if os.path.isfile(os.path.join(self.directory, name))
            ),
            "records_written": self._writer.written,
            "records_dropped": self._writer.dropped,
            "tracer_dropped_spans": TRACER.dropped_spans,
            "tracer_dropped_events": TRACER.dropped_events,
        }

    def __enter__(self) -> "TelemetryPipeline":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.finalize()


# ----------------------------------------------------------------------
# The operator report (``repro-olap report --telemetry DIR``)
# ----------------------------------------------------------------------


def _load_jsonl(path: str) -> List[Dict[str, Any]]:
    if not os.path.exists(path):
        return []
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    return f"{hits / total:.1%}" if total else "n/a"


def render_report(directory: str) -> str:
    """A text report over one telemetry directory.

    Sections: per-decision-kind latency quantiles and cache hit rates
    (from ``audit.jsonl``), process-wide cache / resilience counters
    (from ``metrics.json``), and the top spans by total time (from
    ``spans.jsonl``).
    """
    if not os.path.isdir(directory):
        raise ReproError(f"telemetry directory {directory!r} does not exist")
    audit = _load_jsonl(os.path.join(directory, AUDIT_FILE))
    spans = _load_jsonl(os.path.join(directory, SPANS_FILE))
    metrics_path = os.path.join(directory, METRICS_JSON_FILE)
    snapshot: Dict[str, Any] = {}
    if os.path.exists(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)

    lines: List[str] = [f"telemetry report: {directory}"]

    lines.append("")
    lines.append("decisions (audit log):")
    if audit:
        by_kind: Dict[str, Dict[str, Any]] = {}
        for record in audit:
            row = by_kind.setdefault(
                record["kind"],
                {"count": 0, "hits": 0, "unknown": 0, "durations": []},
            )
            row["count"] += 1
            if record.get("cache_hit"):
                row["hits"] += 1
            if record.get("status") == "unknown":
                row["unknown"] += 1
            elif not record.get("cache_hit"):
                row["durations"].append(record.get("duration_ms", 0.0))
        header = (
            f"  {'kind':<14} {'count':>7} {'hit rate':>9} {'unknown':>8}"
            f" {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
        )
        lines.append(header)
        for kind, row in sorted(by_kind.items()):
            durations = row["durations"]
            p50 = percentile(durations, 0.50)
            p95 = percentile(durations, 0.95)
            p99 = percentile(durations, 0.99)
            lines.append(
                f"  {kind:<14} {row['count']:>7}"
                f" {_rate(row['hits'], row['count'] - row['hits']):>9}"
                f" {row['unknown']:>8}"
                + "".join(
                    f" {q:>9.3f}" if q is not None else f" {'n/a':>9}"
                    for q in (p50, p95, p99)
                )
            )
    else:
        lines.append("  (no audit records)")

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("")
        lines.append("caches (process-wide metrics):")
        lines.append(
            "  decision cache  hit rate "
            + _rate(
                counters.get("decision_cache.hits", 0),
                counters.get("decision_cache.misses", 0),
            )
            + f"  (evictions {counters.get('decision_cache.evictions', 0)},"
            f" store failures {counters.get('decision_cache.store_failures', 0)})"
        )
        lines.append(
            "  edit survival   rekeyed "
            f"{counters.get('decision_cache.rekeyed', 0)} verdicts across "
            f"{counters.get('decision_cache.invalidations', 0)} invalidations"
            f"  (self-evictions {counters.get('decision_cache.self_evictions', 0)},"
            f" persisted loads {counters.get('cache_persist.loaded_entries', 0)})"
        )
        lines.append(
            "  compiled tier   artifact hit rate "
            + _rate(
                counters.get("compiled.artifact_hits", 0),
                counters.get("compiled.artifact_misses", 0),
            )
            + f"  (decisions {counters.get('compiled.compiled_decisions', 0)},"
            f" fallbacks {counters.get('compiled.fallbacks', 0)},"
            f" invalidations {counters.get('compiled.artifact_invalidations', 0)})"
        )
        lines.append("")
        lines.append("resilience:")
        lines.append(
            f"  retries {counters.get('resilience.retries', 0)}"
            f"  degraded {counters.get('resilience.degraded_sequential', 0)}"
            f"  unknown {counters.get('resilience.unknown_verdicts', 0)}"
            f"  breaker trips {counters.get('resilience.breaker_trips', 0)}"
            f"  open skips {counters.get('resilience.breaker_open_skips', 0)}"
        )
        lines.append(
            f"  telemetry dropped records "
            f"{counters.get('telemetry.dropped_records', 0)}"
        )

    if spans:
        totals: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = totals.setdefault(
                span["name"], {"count": 0.0, "total_ms": 0.0, "max_ms": 0.0}
            )
            duration = span.get("duration_ms") or 0.0
            row["count"] += 1
            row["total_ms"] += duration
            row["max_ms"] = max(row["max_ms"], duration)
        lines.append("")
        lines.append("top spans (by total time):")
        top = sorted(
            totals.items(), key=lambda kv: kv[1]["total_ms"], reverse=True
        )[:8]
        for name, row in top:
            lines.append(
                f"  {name:<28} count={row['count']:<7.0f}"
                f" total={row['total_ms']:>9.3f} ms max={row['max_ms']:.3f} ms"
            )
    return "\n".join(lines)
