"""Audit-log tests: recording through the instrumented decision sites,
the schema sidecar, and replay verification."""

from __future__ import annotations

import json

import pytest

from repro.core.auditlog import (
    AUDIT,
    AuditLog,
    load_audit_records,
    load_schema_sidecar,
    verify_audit_log,
)
from repro.core.decisioncache import DecisionCache
from repro.core.implication import is_implied
from repro.core.resilience import build_engine
from repro.core.summarizability import is_summarizable_in_schema
from repro.errors import ReproError
from repro.generators.location import location_schema
from repro.io.json_io import schema_to_json


class CollectingSink:
    """An in-memory AuditSink."""

    def __init__(self):
        self.records = []
        self.schemas = []

    def export_audit(self, record):
        self.records.append(record)

    def export_schema(self, fingerprint, schema_json):
        self.schemas.append((fingerprint, schema_json))


@pytest.fixture()
def audit_sink():
    """The process-wide log attached to a collecting sink, detached after."""
    sink = CollectingSink()
    AUDIT.attach(sink)
    try:
        yield sink
    finally:
        AUDIT.detach()


class TestRecording:
    def test_disabled_by_default(self):
        log = AuditLog()
        assert log.enabled is False and log.sink is None

    def test_cache_decisions_record_hit_flags(self, audit_sink):
        schema = location_schema()
        cache = DecisionCache()
        assert is_implied(schema, "Store -> City", cache=cache)
        assert is_implied(schema, "Store -> City", cache=cache)
        first, second = audit_sink.records
        assert first["cache_hit"] is False and second["cache_hit"] is True
        assert first["kind"] == second["kind"] == "implies"
        assert first["verdict"] is True and second["verdict"] is True
        assert first["status"] == "ok"
        assert first["fingerprint"] == schema.fingerprint()
        assert first["duration_ms"] >= 0.0
        # The hit re-serves the same canonical request.
        assert first["request"] == second["request"]

    def test_summarizability_decisions_are_recorded(self, audit_sink):
        schema = location_schema()
        cache = DecisionCache()
        is_summarizable_in_schema(schema, "Country", ("City",), cache=cache)
        # The decision (and any sub-decisions it memoized) all landed.
        kinds = {record["kind"] for record in audit_sink.records}
        assert "summarizable" in kinds

    def test_schema_sidecar_once_per_fingerprint(self, audit_sink):
        schema = location_schema()
        cache = DecisionCache()
        is_implied(schema, "Store -> City", cache=cache)
        is_implied(schema, "City -> Province", cache=cache)
        assert len(audit_sink.schemas) == 1
        fingerprint, schema_json = audit_sink.schemas[0]
        assert fingerprint == schema.fingerprint()
        # The sidecar JSON really is the replayable schema.
        assert json.loads(schema_json)

    def test_record_unknown_persists_the_attempt_ladder(self, audit_sink):
        schema = location_schema()
        AUDIT.record_unknown(
            schema,
            ("implies", "Store -> City"),
            attempts=3,
            failures=[
                {"rung": "parallel", "error": "WorkerCrash"},
                {"rung": "sequential", "error": "WorkerCrash"},
            ],
            duration_ms=1.25,
        )
        (record,) = audit_sink.records
        assert record["status"] == "unknown"
        assert record["verdict"] is None
        assert record["attempts"] == 3
        assert [f["rung"] for f in record["failures"]] == [
            "parallel",
            "sequential",
        ]

    @pytest.mark.parametrize("backend", ["sequential", "compiled"])
    def test_uncached_engines_record_every_decision(
        self, backend, audit_sink, tmp_path
    ):
        """Without a cache the engine itself audits: each single decision
        leaves exactly one record, and the log replays clean."""
        schema = location_schema()
        engine = build_engine(backend, cache=None)
        assert engine.dimsat(schema, "Store").satisfiable
        assert engine.implies(schema, "Store -> City").implied
        assert engine.is_summarizable(schema, "Country", ["City"])
        kinds = [record["kind"] for record in audit_sink.records]
        assert kinds == ["dimsat", "implies", "summarizable"]
        assert not any(record["cache_hit"] for record in audit_sink.records)
        report = verify_audit_log(
            str(_write_log(tmp_path, audit_sink.records, schema))
        )
        assert report.ok and report.verified == 3

    def test_detached_log_records_nothing(self):
        schema = location_schema()
        cache = DecisionCache()
        assert AUDIT.enabled is False
        is_implied(schema, "Store -> City", cache=cache)
        # Nothing to assert on a sink - there is none; the call not
        # raising is the contract (one attribute check, no work).


def _write_log(tmp_path, records, schema=None):
    """An audit.jsonl + schemas.jsonl pair a verify run can replay."""
    schema = schema or location_schema()
    directory = tmp_path / "log"
    directory.mkdir(exist_ok=True)
    (directory / "audit.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    (directory / "schemas.jsonl").write_text(
        json.dumps(
            {
                "fingerprint": schema.fingerprint(),
                "schema_json": schema_to_json(schema),
            }
        )
        + "\n"
    )
    return directory


def _record(schema, seq=1, verdict=True, **overrides):
    base = {
        "seq": seq,
        "ts": 0.0,
        "kind": "implies",
        "fingerprint": schema.fingerprint(),
        "request": ["implies", "Store -> City"],
        "options": [],
        "verdict": verdict,
        "status": "ok",
        "duration_ms": 0.1,
        "cache_hit": False,
    }
    base.update(overrides)
    return base


class TestVerify:
    def test_clean_log_replays_with_zero_divergences(self, tmp_path):
        schema = location_schema()
        directory = _write_log(
            tmp_path,
            [_record(schema, seq=1), _record(schema, seq=2, cache_hit=True)],
        )
        report = verify_audit_log(str(directory))
        assert report.ok
        assert report.records == 2 and report.verified == 2
        assert report.schemas == 1
        assert report.divergences == []

    def test_accepts_the_audit_file_itself(self, tmp_path):
        schema = location_schema()
        directory = _write_log(tmp_path, [_record(schema)])
        report = verify_audit_log(str(directory / "audit.jsonl"))
        assert report.ok and report.verified == 1

    def test_tampered_verdict_is_a_divergence(self, tmp_path):
        schema = location_schema()
        directory = _write_log(tmp_path, [_record(schema, verdict=False)])
        report = verify_audit_log(str(directory))
        assert not report.ok
        (divergence,) = report.divergences
        assert divergence.recorded is False and divergence.replayed is True
        assert "DIVERGED" in report.render()

    def test_unknown_and_options_records_are_skipped(self, tmp_path):
        schema = location_schema()
        directory = _write_log(
            tmp_path,
            [
                _record(schema, seq=1, status="unknown", verdict=None),
                _record(schema, seq=2, options=["exhaustive"]),
                _record(schema, seq=3),
            ],
        )
        report = verify_audit_log(str(directory))
        assert report.ok
        assert report.skipped_unknown == 1
        assert report.skipped_options == 1
        assert report.verified == 1

    def test_missing_schema_fails_verification(self, tmp_path):
        schema = location_schema()
        directory = _write_log(
            tmp_path, [_record(schema, fingerprint="deadbeef" * 8)]
        )
        report = verify_audit_log(str(directory))
        assert not report.ok
        assert report.missing_schemas == 1

    def test_every_decision_kind_replays(self, tmp_path):
        schema = location_schema()
        directory = _write_log(
            tmp_path,
            [
                _record(schema, seq=1),
                _record(
                    schema,
                    seq=2,
                    kind="dimsat",
                    request=["dimsat", "Store"],
                ),
                _record(
                    schema,
                    seq=3,
                    kind="summarizable",
                    request=["summarizable", "Country", ["City"]],
                ),
            ],
        )
        report = verify_audit_log(str(directory))
        assert report.ok and report.verified == 3

    def test_corrupt_record_is_an_error(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ReproError, match="corrupt audit record"):
            load_audit_records(str(path))

    def test_sidecar_fingerprint_mismatch_is_an_error(self, tmp_path):
        schema = location_schema()
        path = tmp_path / "schemas.jsonl"
        path.write_text(
            json.dumps(
                {
                    "fingerprint": "deadbeef" * 8,
                    "schema_json": schema_to_json(schema),
                }
            )
            + "\n"
        )
        with pytest.raises(ReproError, match="fingerprint"):
            load_schema_sidecar(str(path))

    def test_replay_does_not_feed_the_active_log(self, tmp_path, audit_sink):
        """Verification re-decides on the kernel; with telemetry live
        those decisions must not append to the log being verified."""
        schema = location_schema()
        directory = _write_log(tmp_path, [_record(schema)])
        before = len(audit_sink.records)
        report = verify_audit_log(str(directory))
        assert report.ok
        assert len(audit_sink.records) == before
        assert AUDIT.enabled is True  # restored afterwards
