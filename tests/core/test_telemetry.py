"""Telemetry export tests: the background writer, the renderers, the
pipeline end-to-end, and the operator report."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.core.auditlog import verify_audit_log
from repro.core.decisioncache import DecisionCache
from repro.core.implication import is_implied
from repro.core.telemetry import (
    BackgroundWriter,
    TelemetryPipeline,
    percentile,
    render_chrome_trace,
    render_prometheus,
    render_report,
)
from repro.core.trace import TRACER
from repro.errors import ReproError
from repro.generators.location import location_schema


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.5) in (50.0, 51.0)

    def test_order_does_not_matter(self):
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0


class TestBackgroundWriter:
    def test_writes_records_as_compact_jsonl(self):
        handle = io.StringIO()
        writer = BackgroundWriter(autostart=False)
        writer.submit(handle, {"b": 2, "a": 1})
        writer.submit(handle, "prerendered")
        writer.start()
        writer.close()
        lines = handle.getvalue().splitlines()
        assert json.loads(lines[0]) == {"b": 2, "a": 1}
        assert lines[1] == "prerendered"
        assert writer.written == 2 and writer.dropped == 0

    def test_defers_as_dict_to_the_drain_thread(self):
        class Lazy:
            rendered = 0

            def as_dict(self):
                Lazy.rendered += 1
                return {"lazy": True}

        handle = io.StringIO()
        writer = BackgroundWriter(autostart=False)
        writer.submit(handle, Lazy())
        assert Lazy.rendered == 0  # the hot path never serialized
        writer.start()
        writer.close()
        assert json.loads(handle.getvalue()) == {"lazy": True}

    def test_full_buffer_drops_and_counts(self):
        handle = io.StringIO()
        writer = BackgroundWriter(maxsize=4, autostart=False)
        for i in range(10):
            writer.submit(handle, {"i": i})
        assert writer.dropped == 6
        writer.start()
        writer.close()
        assert writer.written == 4

    def test_unserializable_record_is_dropped_not_fatal(self):
        handle = io.StringIO()
        writer = BackgroundWriter(autostart=False)
        writer.submit(handle, {"bad": {1, 2}})  # sets are not JSON
        writer.submit(handle, {"good": True})
        writer.start()
        writer.close()
        assert writer.dropped == 1
        assert json.loads(handle.getvalue()) == {"good": True}

    def test_pause_buffers_until_resume(self):
        handle = io.StringIO()
        writer = BackgroundWriter()
        writer.pause()
        writer.submit(handle, {"x": 1})
        time.sleep(0.02)
        assert handle.getvalue() == ""  # nothing drained while paused
        writer.resume()
        writer.flush()
        assert json.loads(handle.getvalue()) == {"x": 1}
        writer.close()

    def test_flush_drains_even_while_paused(self):
        handle = io.StringIO()
        writer = BackgroundWriter()
        writer.pause()
        writer.submit(handle, {"x": 1})
        writer.flush()  # flush overrides the pause
        assert json.loads(handle.getvalue()) == {"x": 1}
        writer.close()

    def test_channel_is_a_bound_enqueue(self):
        handle = io.StringIO()
        writer = BackgroundWriter(maxsize=2, autostart=False)
        submit = writer.channel(handle)
        submit({"a": 1})
        submit({"a": 2})
        submit({"a": 3})  # over the bound
        assert writer.dropped == 1
        writer.start()
        writer.close()
        assert writer.written == 2


class TestAtexitSafetyNet:
    """Records enqueued immediately before interpreter exit must reach
    disk even when nobody calls ``close()`` / ``finalize()`` - the drain
    thread is a daemon, so without the atexit hook they would vanish."""

    def _run(self, code: str, *argv: str):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd="/root/repo",
            timeout=60,
        )

    def test_unclosed_writer_flushes_at_exit(self, tmp_path):
        out = tmp_path / "records.jsonl"
        proc = self._run(
            "import sys\n"
            "from repro.core.telemetry import BackgroundWriter\n"
            "handle = open(sys.argv[1], 'w', encoding='utf-8')\n"
            "writer = BackgroundWriter()\n"
            "writer.pause()  # keep everything buffered until exit\n"
            "for i in range(50):\n"
            "    writer.submit(handle, {'i': i})\n"
            "# ... and exit without close(): the atexit hook must drain.\n",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        assert json.loads(lines[-1]) == {"i": 49}

    def test_unfinalized_pipeline_lands_its_records(self, tmp_path):
        from repro.io.json_io import schema_to_json

        schema_path = tmp_path / "schema.json"
        schema_path.write_text(schema_to_json(location_schema()))
        directory = tmp_path / "telemetry"
        proc = self._run(
            "import sys\n"
            "from repro.core.implication import is_implied\n"
            "from repro.core.telemetry import TelemetryPipeline\n"
            "from repro.io.json_io import schema_from_json\n"
            "schema = schema_from_json(open(sys.argv[2]).read())\n"
            "pipeline = TelemetryPipeline(sys.argv[1]).install()\n"
            "is_implied(schema, 'Store.City.Country')\n"
            "# No finalize(), no close(): exit right on top of the buffer.\n",
            str(directory),
            str(schema_path),
        )
        assert proc.returncode == 0, proc.stderr
        audit = (directory / "audit.jsonl").read_text().splitlines()
        assert any(json.loads(line)["kind"] == "implies" for line in audit)
        spans = (directory / "spans.jsonl").read_text().splitlines()
        assert spans  # the tracer's spans were drained too
        # The atexit path runs the full finalize, manifest included.
        manifest = json.loads((directory / "MANIFEST.json").read_text())
        assert manifest["records_dropped"] == 0

    def test_explicit_finalize_keeps_exit_quiet(self, tmp_path):
        """finalize() then interpreter exit: the hook is unregistered /
        idempotent, so nothing re-renders or raises at shutdown."""
        directory = tmp_path / "telemetry"
        proc = self._run(
            "import sys\n"
            "from repro.core.telemetry import TelemetryPipeline\n"
            "pipeline = TelemetryPipeline(sys.argv[1]).install()\n"
            "manifest = pipeline.finalize()\n"
            "print('finalized', len(manifest['files']))\n",
            str(directory),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "finalized" in proc.stdout

    def test_close_is_idempotent_with_the_hook(self):
        writer = BackgroundWriter()
        writer.close()
        writer.close()  # second close (what the hook amounts to): no-op
        assert writer.dropped == 0


class TestRenderPrometheus:
    SNAPSHOT = {
        "counters": {"decision_cache.hits": 7},
        "gauges": {"queue.depth": 2.5},
        "histograms": {
            "dimsat.duration_ms": {
                "count": 10,
                "total": 12.5,
                "p50": 1.0,
                "p95": 2.0,
                "p99": 3.0,
                "reservoir_dropped": 4,
            }
        },
    }

    def test_exposition_format(self):
        text = render_prometheus(self.SNAPSHOT)
        assert "# TYPE repro_decision_cache_hits counter" in text
        assert "repro_decision_cache_hits 7" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2.5" in text
        assert "# TYPE repro_dimsat_duration_ms summary" in text
        assert 'repro_dimsat_duration_ms{quantile="0.99"} 3.0' in text
        assert "repro_dimsat_duration_ms_sum 12.5" in text
        assert "repro_dimsat_duration_ms_count 10" in text
        assert "repro_dimsat_duration_ms_reservoir_dropped 4" in text

    def test_names_are_sanitized(self):
        text = render_prometheus({"counters": {"1weird-name!": 1}})
        assert "repro__1weird_name_ 1" in text

    def test_none_quantiles_are_omitted(self):
        text = render_prometheus(
            {"histograms": {"empty": {"count": 0, "total": 0.0, "p50": None}}}
        )
        assert "quantile" not in text
        assert "repro_empty_count 0" in text


class TestRenderChromeTrace:
    def test_spans_become_complete_events(self):
        document = render_chrome_trace(
            [
                {
                    "span_id": 2,
                    "parent_id": 1,
                    "tid": 7,
                    "name": "dimsat.check",
                    "start_ms": 1.5,
                    "duration_ms": 0.25,
                    "error": None,
                    "attrs": {"category": "Store"},
                }
            ],
            pid=42,
        )
        (event,) = document["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 1500.0 and event["dur"] == 250.0
        assert event["pid"] == 42 and event["tid"] == 7
        assert event["cat"] == "dimsat"
        assert event["args"]["category"] == "Store"
        assert event["args"]["parent_id"] == 1

    def test_events_become_instants_sorted_by_time(self):
        document = render_chrome_trace(
            [
                {
                    "span_id": 1,
                    "parent_id": None,
                    "tid": 0,
                    "name": "b",
                    "start_ms": 2.0,
                    "duration_ms": 1.0,
                    "error": None,
                    "attrs": {},
                }
            ],
            [{"name": "a.hit", "time_ms": 1.0, "span_id": 1, "attrs": {}}],
        )
        phases = [e["ph"] for e in document["traceEvents"]]
        assert phases == ["i", "X"]  # the earlier instant sorts first


@pytest.fixture()
def telemetry_run(tmp_path):
    """One real decision workload exported through a pipeline; yields
    the directory and the finalize manifest."""
    schema = location_schema()
    directory = tmp_path / "telemetry"
    pipeline = TelemetryPipeline(str(directory))
    pipeline.install()
    try:
        cache = DecisionCache()
        for _ in range(2):  # second pass hits the cache
            is_implied(schema, "Store -> City", cache=cache)
            is_implied(schema, "City -> Province", cache=cache)
    finally:
        manifest = pipeline.finalize()
        TRACER.clear()
    return directory, manifest


class TestTelemetryPipeline:
    def test_writes_every_artifact(self, telemetry_run):
        directory, manifest = telemetry_run
        for name in (
            "spans.jsonl",
            "events.jsonl",
            "audit.jsonl",
            "schemas.jsonl",
            "metrics.json",
            "metrics.prom",
            "trace.json",
            "MANIFEST.json",
        ):
            assert (directory / name).exists(), name
        assert manifest["records_written"] > 0
        assert manifest["records_dropped"] == 0
        assert set(manifest["files"]) == set(manifest["files"])

    def test_audit_records_carry_hit_flags(self, telemetry_run):
        directory, _ = telemetry_run
        records = [
            json.loads(line)
            for line in (directory / "audit.jsonl").read_text().splitlines()
        ]
        assert len(records) == 4
        assert [r["cache_hit"] for r in records] == [False, False, True, True]
        assert {r["kind"] for r in records} == {"implies"}
        fingerprint = location_schema().fingerprint()
        assert {r["fingerprint"] for r in records} == {fingerprint}

    def test_schema_sidecar_written_once_per_fingerprint(self, telemetry_run):
        directory, _ = telemetry_run
        sidecar = [
            json.loads(line)
            for line in (directory / "schemas.jsonl").read_text().splitlines()
        ]
        assert len(sidecar) == 1
        assert sidecar[0]["fingerprint"] == location_schema().fingerprint()

    def test_schema_sidecar_survives_a_full_writer_buffer(self, tmp_path):
        """The sidecar entry is written once per fingerprint; a writer
        buffer that is full at that moment must not lose it, or every
        record of the schema fails ``audit-verify`` as unreplayable."""
        schema = location_schema()
        directory = tmp_path / "telemetry"
        pipeline = TelemetryPipeline(str(directory))
        pipeline.install()
        try:
            cache = DecisionCache()
            maxsize = pipeline.writer._maxsize
            pipeline.writer._maxsize = 0  # full for the first decision only
            try:
                is_implied(schema, "Store -> City", cache=cache)
            finally:
                pipeline.writer._maxsize = maxsize
            is_implied(schema, "City -> Province", cache=cache)
        finally:
            pipeline.finalize()
            TRACER.clear()
        report = verify_audit_log(str(directory))
        assert report.records == 2
        assert (report.schemas, report.missing_schemas) == (1, 0)
        assert report.ok

    def test_spans_are_json_documents(self, telemetry_run):
        directory, _ = telemetry_run
        spans = [
            json.loads(line)
            for line in (directory / "spans.jsonl").read_text().splitlines()
        ]
        assert spans and {"implication.decide"} <= {s["name"] for s in spans}

    def test_chrome_trace_is_loadable(self, telemetry_run):
        directory, _ = telemetry_run
        document = json.loads((directory / "trace.json").read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_detaches_on_finalize(self, telemetry_run):
        from repro.core.auditlog import AUDIT

        assert TRACER.sink is None
        assert AUDIT.enabled is False and AUDIT.sink is None

    def test_finalize_is_idempotent(self, tmp_path):
        pipeline = TelemetryPipeline(str(tmp_path / "t"))
        first = pipeline.finalize()
        second = pipeline.finalize()
        assert first["directory"] == second["directory"]


class TestRenderReport:
    def test_report_sections(self, telemetry_run):
        directory, _ = telemetry_run
        text = render_report(str(directory))
        assert "decisions (audit log):" in text
        assert "implies" in text
        assert "top spans (by total time):" in text
        assert "caches (process-wide metrics):" in text

    def test_every_counter_the_report_reads_is_exported(self):
        """A renamed counter would read as a silent 0 in the report."""
        import inspect
        import re

        import repro.core.cachestore  # noqa: F401 - declares cache_persist.*
        from repro.core.metrics import METRICS

        names = re.findall(
            r"counters\.get\(\s*[\"']([^\"']+)[\"']",
            inspect.getsource(render_report),
        )
        assert len(names) >= 15
        counters = METRICS.snapshot()["counters"]
        assert [name for name in names if name not in counters] == []

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ReproError):
            render_report(str(tmp_path / "nope"))

    def test_empty_directory_renders_placeholders(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        text = render_report(str(directory))
        assert "(no audit records)" in text
