"""A durable per-decision audit log, and its replay verifier.

The constraint literature treats a verdict as an *artifact*: Ghozzi et
al. model constraints as part of the multidimensional schema a consumer
can hold the system to, and Bertossi & Milani's ontological model makes
every query answer justifiable against the constraint theory.  A
production decision service therefore needs more than in-memory stats -
it needs a durable record of **every** dimsat / implication /
summarizability verdict it ever served, carrying enough context to
re-derive that verdict from scratch.  This module provides exactly that:

* :class:`AuditLog` - a process-wide recorder.  When enabled (the CLI's
  ``--telemetry-dir``, or :func:`repro.core.telemetry.TelemetryPipeline.
  install`), every decision that flows through the
  :class:`~repro.core.decisioncache.DecisionCache`, the uncached engine
  path (:func:`repro.core.parallel.serve`), or the resilience ladder's
  UNKNOWN rung appends one JSONL record with the schema fingerprint, the
  canonical request, the verdict, the duration, the cache-hit flag, and
  - for UNKNOWNs - the full :class:`~repro.core.resilience.AttemptRecord`
  ladder.  Disabled (the default), every instrumented site costs one
  attribute read.
* A **schema sidecar**: the first record for each schema fingerprint also
  persists that schema's canonical JSON to ``schemas.jsonl``, so the log
  is self-contained - no live process or original input file is needed to
  replay it.
* :func:`verify_audit_log` - observability doubling as correctness
  tooling: re-decides every logged entry against the plain sequential
  kernel and reports any byte-level divergence between the recorded and
  the recomputed verdict (the CLI's ``repro-olap audit-verify``).

Records never block the hot path: the sink (the telemetry pipeline's
bounded background writer) drops and counts instead of waiting.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.metrics import METRICS
from repro.errors import ReproError

_M_RECORDS = METRICS.counter("audit.records")
_M_UNKNOWN_RECORDS = METRICS.counter("audit.unknown_records")
_M_SCHEMAS = METRICS.counter("audit.schemas_persisted")


class AuditSink(Protocol):
    """Where audit records go (implemented by the telemetry pipeline)."""

    def export_audit(self, record: Dict[str, Any]) -> None: ...

    def export_schema(self, fingerprint: str, schema_json: str) -> None: ...


def _verdict_of(value: object) -> bool:
    """The boolean verdict inside a decision result.

    Accepts the raw payloads the decision surfaces produce: booleans,
    :class:`~repro.core.dimsat.DimsatResult` and
    :class:`~repro.core.implication.ImplicationResult`.
    """
    if isinstance(value, bool):
        return value
    satisfiable = getattr(value, "satisfiable", None)
    if satisfiable is not None:
        return bool(satisfiable)
    implied = getattr(value, "implied", None)
    if implied is not None:
        return bool(implied)
    raise ReproError(f"cannot extract a verdict from {type(value).__name__}")


def _request_json(request: Sequence[object]) -> List[object]:
    """The canonical request as a JSON-ready list (tuples become lists)."""
    return [list(part) if isinstance(part, tuple) else part for part in request]


class AuditLog:
    """The process-wide decision audit recorder.

    Starts disabled; the instrumented sites check :attr:`enabled` (one
    attribute read) before doing any work.  :meth:`attach` wires a sink
    and enables recording; :meth:`detach` disables it again.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sink: Optional[AuditSink] = None
        self._lock = threading.Lock()
        self._seen_schemas: set = set()
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, sink: AuditSink) -> None:
        with self._lock:
            self.sink = sink
            self._seen_schemas = set()
            self._seq = itertools.count(1)
        self.enabled = True

    def detach(self) -> None:
        self.enabled = False
        with self._lock:
            self.sink = None
            self._seen_schemas = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_decision(
        self,
        schema: object,
        request: Sequence[object],
        options_key: Tuple[object, ...],
        result: object,
        duration_ms: float,
        cache_hit: bool,
    ) -> None:
        """One served verdict (the common case)."""
        self._emit(
            schema,
            request,
            options_key,
            verdict=_verdict_of(result),
            status="ok",
            duration_ms=duration_ms,
            cache_hit=cache_hit,
        )

    def record_unknown(
        self,
        schema: object,
        request: Sequence[object],
        attempts: int,
        failures: Sequence[object],
        duration_ms: float = 0.0,
    ) -> None:
        """A decision every resilience rung failed to serve.

        ``failures`` are :class:`~repro.core.resilience.AttemptRecord`
        instances (or plain dicts); the full ladder is persisted so the
        UNKNOWN can be justified later.
        """
        self._emit(
            schema,
            request,
            (),
            verdict=None,
            status="unknown",
            duration_ms=duration_ms,
            cache_hit=False,
            attempts=attempts,
            failures=[
                f.as_dict() if hasattr(f, "as_dict") else dict(f)  # type: ignore[call-overload]
                for f in failures
            ],
        )
        _M_UNKNOWN_RECORDS.inc()

    def _emit(
        self,
        schema: object,
        request: Sequence[object],
        options_key: Tuple[object, ...],
        verdict: Optional[bool],
        status: str,
        duration_ms: float,
        cache_hit: bool,
        attempts: Optional[int] = None,
        failures: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        sink = self.sink
        if sink is None:
            return
        fingerprint: str = schema.fingerprint()  # type: ignore[attr-defined]
        self._persist_schema(schema, fingerprint, sink)
        record: Dict[str, Any] = {
            "seq": next(self._seq),
            "ts": time.time(),
            "kind": str(request[0]),
            "fingerprint": fingerprint,
            "request": _request_json(request),
            "options": list(options_key),
            "verdict": verdict,
            "status": status,
            "duration_ms": duration_ms,
            "cache_hit": cache_hit,
        }
        if attempts is not None:
            record["attempts"] = attempts
        if failures is not None:
            record["failures"] = failures
        sink.export_audit(record)
        _M_RECORDS.inc()

    def _persist_schema(
        self, schema: object, fingerprint: str, sink: AuditSink
    ) -> None:
        """Write the schema sidecar entry the first time a fingerprint
        shows up, making the log replayable without the original files."""
        if fingerprint in self._seen_schemas:  # lock-free fast path
            return
        with self._lock:
            if fingerprint in self._seen_schemas:
                return
            self._seen_schemas.add(fingerprint)
        from repro.io.json_io import schema_to_json

        sink.export_schema(fingerprint, schema_to_json(schema))  # type: ignore[arg-type]
        _M_SCHEMAS.inc()


#: The process-wide audit log every decision surface records into.
AUDIT = AuditLog()


def audit_log() -> AuditLog:
    """The process-wide :class:`AuditLog`."""
    return AUDIT


# ----------------------------------------------------------------------
# Replay verification (``repro-olap audit-verify``)
# ----------------------------------------------------------------------


@dataclass
class Divergence:
    """One replayed record whose verdict does not match the log."""

    seq: object
    kind: str
    fingerprint: str
    request: List[object]
    recorded: Optional[bool]
    replayed: Optional[bool]

    def describe(self) -> str:
        return (
            f"record seq={self.seq} {self.kind} {self.request!r} "
            f"(schema {str(self.fingerprint)[:12]}): recorded "
            f"{json.dumps(self.recorded)} != replayed {json.dumps(self.replayed)}"
        )


@dataclass
class AuditVerifyReport:
    """What :func:`verify_audit_log` found."""

    records: int = 0
    verified: int = 0
    skipped_unknown: int = 0
    skipped_options: int = 0
    missing_schemas: int = 0
    schemas: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.missing_schemas == 0

    def render(self) -> str:
        lines = [
            "audit-verify:",
            f"  records          {self.records}",
            f"  schemas          {self.schemas}",
            f"  replayed         {self.verified}",
            f"  skipped UNKNOWN  {self.skipped_unknown}",
            f"  skipped options  {self.skipped_options}",
            f"  missing schemas  {self.missing_schemas}",
            f"  divergences      {len(self.divergences)}",
        ]
        for divergence in self.divergences[:20]:
            lines.append(f"  DIVERGED: {divergence.describe()}")
        return "\n".join(lines)


def _replay(schema: object, request: Sequence[object]) -> bool:
    """Recompute one request on the plain sequential kernel, uncached:
    the reference decision of the audit replay, the cache-load replay
    and the soak's oracle."""
    from repro.core.summarizability import decide

    return _verdict_of(decide(schema, request, cache=None))  # type: ignore[arg-type]


def load_audit_records(audit_path: str) -> List[Dict[str, Any]]:
    """Parse one audit JSONL file (blank lines tolerated)."""
    records = []
    with open(audit_path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{audit_path}:{line_no}: corrupt audit record: {error}"
                )
    return records


def load_schema_sidecar(schemas_path: str) -> Dict[str, object]:
    """Rebuild ``fingerprint -> DimensionSchema`` from ``schemas.jsonl``.

    Every rebuilt schema's recomputed fingerprint must match the recorded
    one - a mismatch means the sidecar is corrupt and replay would verify
    the wrong schema.
    """
    from repro.io.json_io import schema_from_json

    schemas: Dict[str, object] = {}
    with open(schemas_path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            schema = schema_from_json(entry["schema_json"])
            recomputed = schema.fingerprint()
            if recomputed != entry["fingerprint"]:
                raise ReproError(
                    f"{schemas_path}:{line_no}: schema sidecar fingerprint "
                    f"mismatch ({entry['fingerprint'][:12]} recorded, "
                    f"{recomputed[:12]} recomputed)"
                )
            schemas[entry["fingerprint"]] = schema
    return schemas


def verify_audit_log(
    audit_path: str, schemas_path: Optional[str] = None
) -> AuditVerifyReport:
    """Replay every logged decision against the sequential kernel.

    ``audit_path`` may be the ``audit.jsonl`` file or the telemetry
    directory containing it; ``schemas_path`` defaults to the
    ``schemas.jsonl`` sidecar next to the audit file.  Replay compares
    the canonical JSON encoding of the recorded and recomputed verdicts
    - any byte difference is a :class:`Divergence`.

    Records are skipped (and counted) when there is nothing sound to
    replay: UNKNOWN outcomes carry no verdict, and records decided under
    non-default :class:`~repro.core.dimsat.DimsatOptions` would need
    those options to reproduce byte-identically.
    """
    import os

    if os.path.isdir(audit_path):
        directory = audit_path
        audit_path = os.path.join(directory, "audit.jsonl")
        if schemas_path is None:
            schemas_path = os.path.join(directory, "schemas.jsonl")
    if schemas_path is None:
        schemas_path = os.path.join(os.path.dirname(audit_path), "schemas.jsonl")

    records = load_audit_records(audit_path)
    schemas = load_schema_sidecar(schemas_path)
    report = AuditVerifyReport(records=len(records), schemas=len(schemas))

    # Replay must not feed the audit log it is replaying (the CLI runs
    # verification with telemetry enabled), so recording is suspended.
    was_enabled = AUDIT.enabled
    AUDIT.enabled = False
    # A private memo avoids re-deciding duplicated records while keeping
    # the replay independent of the process-wide cache's contents: every
    # distinct question is still recomputed from scratch once.
    memo: Dict[Tuple[object, ...], bool] = {}
    try:
        for record in records:
            if record.get("status") == "unknown":
                report.skipped_unknown += 1
                continue
            if record.get("options"):
                report.skipped_options += 1
                continue
            schema = schemas.get(record["fingerprint"])
            if schema is None:
                report.missing_schemas += 1
                continue
            request = record["request"]
            key = (record["fingerprint"], json.dumps(request, sort_keys=True))
            if key in memo:
                replayed = memo[key]
            else:
                replayed = _replay(schema, request)
                memo[key] = replayed
            report.verified += 1
            recorded_bytes = json.dumps(record["verdict"]).encode("utf-8")
            replayed_bytes = json.dumps(replayed).encode("utf-8")
            if recorded_bytes != replayed_bytes:
                report.divergences.append(
                    Divergence(
                        seq=record.get("seq"),
                        kind=record["kind"],
                        fingerprint=record["fingerprint"],
                        request=request,
                        recorded=record["verdict"],
                        replayed=replayed,
                    )
                )
    finally:
        AUDIT.enabled = was_enabled
    return report
