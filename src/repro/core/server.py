"""The long-lived decision server: warm state as shared infrastructure.

Every prior layer made decisions cheaper to *re-serve* - compiled
artifacts, the persistent :class:`~repro.core.decisioncache.DecisionCache`,
provenance-scoped rekeying across edits - but a CLI invocation still pays
process startup and dies with its warm state.  :class:`DecisionServer`
keeps that state resident: one process, one shared
:class:`~repro.core.resilience.ResilientDecisionEngine`, many concurrent
clients over the :mod:`repro.core.wire` protocol.  Unless told otherwise
it serves through :func:`~repro.core.resilience.build_engine`'s default,
the compiled tier (:mod:`repro.core.compile`), which falls back to the
interpreted kernel on schemas it cannot compile; the ``stats`` op names
the engine and, for the compiled tier, counts those fallbacks.

Architecture
------------

* **One asyncio event loop** (stdlib only) accepts connections and runs
  each connection's frame loop serially; concurrency comes from
  multiplexing connections, exactly like the classic single-threaded
  reactor in front of a worker pool.
* **Misses run off-loop; verdicts the cache already holds are answered
  on the loop.**  A computed decision is synchronous, CPU-bound work, so
  it runs in a bounded ``ThreadPoolExecutor`` (the compiled tier's
  per-root solver is locked for exactly this multi-threaded use).  Every
  decision is deterministic over an immutable, fingerprinted schema, so
  serving a cached verdict is one dictionary lookup: the loop resolves a
  ``decide``, ``implies`` or ``summarizable`` request once, and when
  :meth:`~repro.core.resilience.ResilientDecisionEngine.would_hit` says
  the verdict is held it answers in place, skipping the two thread
  handoffs.  ``navigate``, ``load-schema``, ``edit``, requests whose
  circuit breaker is not closed and requests that fail to resolve always
  take the executor.
* **Backpressure is typed, never wrong.**  Past ``max_inflight``
  concurrently executing decisions the server answers ``status="busy"``
  *without evaluating the request* - a BUSY can always be retried and
  can never stand in for a verdict.  Per-decision ceilings ride on the
  engine's own :class:`~repro.core.budget.DecisionBudget` on either
  engine (the compiled tier charges it while building a root and inside
  every SAT solve): a decision the budget stopped on every resilience
  rung comes back ``status="budget-exceeded"``, and one every rung
  failed for any other reason ``status="unknown"``, both with their
  failure provenance.
* **Schemas are tenants, keyed by fingerprint.**  ``load-schema``
  registers a schema and returns its fingerprint; every decision op
  names the fingerprint it runs against.  An ``edit`` produces a new
  immutable schema under a *new* fingerprint (the old one stays
  registered and correct - immutable schemas cannot go stale), rekeying
  the shared cache's surviving verdicts via the provenance layer, so
  connected clients keep their warm hits across the edit.
* **The ops surface is the telemetry pipeline.**  Connections emit
  paired ``server.connect``/``server.disconnect`` events; every request
  runs inside a ``server.request`` span on the thread that serves it -
  its executor thread for a miss, the loop for a cached verdict (the
  tracer's span stack is thread-local, and an inline request completes
  before the loop yields, so spans nest correctly on either);
  every served verdict auto-records on the audit log through the cache
  layer, replayable by ``repro-olap audit-verify``.
* **Warm state survives shutdown** - graceful (``shutdown`` op) *and*
  signalled (SIGINT/SIGTERM): the cache is persisted to ``cache_dir``
  with the merge-on-save discipline, so a sidecar CLI sharing the
  directory is never overwritten away.

``repro-olap serve`` wraps this class; ``repro-olap call`` and
:class:`repro.core.client.DecisionClient` speak to it.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.core.compile import CompiledDecisionEngine
from repro.core.decisioncache import DecisionCache
from repro.core.metrics import METRICS
from repro.core.request import resolve_request
from repro.core.resilience import (
    AttemptRecord,
    ResilientDecisionEngine,
    build_engine,
)
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.core.wire import (
    WireError,
    error_response,
    read_frame_async,
    write_frame_async,
)
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError

if TYPE_CHECKING:
    from repro.core.cachestore import LoadReport

__all__ = ["DecisionServer", "ServerStats", "DECISION_OPS", "ALL_OPS"]

#: Ops that evaluate decisions (and therefore honor the BUSY gate).
DECISION_OPS = ("decide", "implies", "summarizable", "navigate")
#: Every op the server answers.
ALL_OPS = DECISION_OPS + ("load-schema", "edit", "stats", "shutdown")
#: The ops the loop answers itself when the verdict is cached: each is
#: one decision.  ``navigate`` may check up to C(n, 3) source sets, so it
#: always takes the executor.
_INLINE_OPS = ("decide", "implies", "summarizable")
#: The request-document key under which the loop hands one of those ops
#: its schema and resolved request.  Not a string, so no wire document
#: can carry it.
_PREPARED = object()


def _unavailable_status(failures: Sequence[AttemptRecord]) -> str:
    """The typed status of a decision no resilience rung answered:
    ``budget-exceeded`` when the budget stopped every attempt (a retry
    with a larger budget is sound), ``unknown`` otherwise."""
    if failures and all(f.error_type == "BudgetExceeded" for f in failures):
        return "budget-exceeded"
    return "unknown"


@dataclass
class ServerStats:
    """Cumulative counters across one server's lifetime."""

    started_monotonic: float = 0.0
    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    busy_responses: int = 0
    errors: int = 0
    #: Cached verdicts answered on the event loop, without the executor.
    inline_hits: int = 0
    served: Dict[str, int] = field(default_factory=dict)

    def count(self, op: str) -> None:
        self.requests += 1
        self.served[op] = self.served.get(op, 0) + 1


_STATS = METRICS.stats_family("server.", ServerStats)


class DecisionServer:
    """A multi-client decision service over one shared resilient engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.resilience.ResilientDecisionEngine`
        serving every verdict.  A plain engine (sequential / compiled)
        is wrapped, so the degradation ladder is always in front of
        clients: a worker crash degrades, it never disconnects.  The
        default is :func:`~repro.core.resilience.build_engine`'s
        default, the compiled engine.
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read
        :attr:`port` after :meth:`start`.
    cache_dir:
        When set, the engine's decision cache is loaded from here at
        startup (replay-verified) and persisted back on *every* stop
        path - graceful ``shutdown`` op, SIGINT, SIGTERM.
    max_inflight:
        Concurrently *executing* decisions past which decision ops get
        ``status="busy"``.  Also sizes the executor, so the gate bounds
        both queue depth and thread count.  Misses run off-loop and hold
        a slot; verdicts the cache already holds are answered on the loop
        and take none, since each completes before the loop yields.  The
        gate is checked first either way.
    verify_cache_on_load:
        Replay loaded entries against the sequential kernel before
        serving them (the persistent cache's default posture).
    """

    def __init__(
        self,
        engine: Optional[ResilientDecisionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        max_inflight: int = 8,
        verify_cache_on_load: bool = True,
    ) -> None:
        if not isinstance(engine, ResilientDecisionEngine):
            engine = ResilientDecisionEngine(
                engine if engine is not None else build_engine()
            )
        if max_inflight < 1:
            raise ReproError("max_inflight must be at least 1")
        self.engine = engine
        self.host = host
        self._requested_port = port
        self.cache_dir = cache_dir
        self.max_inflight = max_inflight
        self.verify_cache_on_load = verify_cache_on_load
        self.stats = _STATS.track(self, ServerStats())
        #: fingerprint -> registered immutable schema (the tenant registry).
        self._schemas: Dict[str, DimensionSchema] = {}
        self._schemas_lock = threading.Lock()
        #: Serializes ``edit`` ops; decisions on immutable schema objects
        #: run concurrently with edits safely.
        self._edit_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="decision"
        )
        self._inflight = 0  # touched only on the event loop thread
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._saved = False
        #: What :meth:`start` loaded from ``cache_dir`` (``None`` until then,
        #: or when the store could not be read).
        self.load_report: Optional[LoadReport] = None
        #: Set once the socket is bound - lets a thread that launched
        #: :meth:`run` in the background wait for :attr:`port`.
        self.started = threading.Event()
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # The tenant registry
    # ------------------------------------------------------------------

    @property
    def cache(self) -> Optional[DecisionCache]:
        """The decision cache behind the engine (shared by every client)."""
        return self.engine.engine.cache

    def register_schema(self, schema: DimensionSchema) -> str:
        """Register a schema; returns its fingerprint (idempotent)."""
        fingerprint = schema.fingerprint()
        with self._schemas_lock:
            self._schemas.setdefault(fingerprint, schema)
        return fingerprint

    def _schema_for(self, document: Dict[str, Any]) -> DimensionSchema:
        fingerprint = document.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise ReproError("request carries no schema fingerprint")
        with self._schemas_lock:
            schema = self._schemas.get(fingerprint)
        if schema is None:
            raise ReproError(
                f"unknown schema fingerprint {fingerprint[:12]!r} "
                "(load-schema first)"
            )
        return schema

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, load the persistent cache, arm the signal
        handlers.  Returns once :attr:`port` is live."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self.cache_dir and self.cache is not None:
            from repro.core.cachestore import CacheStoreError, load_cache

            try:
                self.load_report = load_cache(
                    self.cache,
                    self.cache_dir,
                    verify_replay=self.verify_cache_on_load,
                )
            except CacheStoreError:
                # A bad cache file costs a cold start, never the server.
                pass
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        sockets = self._server.sockets or []
        for sock in sockets:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.port = sock.getsockname()[1]
                break
        self.stats.started_monotonic = time.monotonic()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or non-POSIX loop: CLI layer copes
        self.started.set()

    def request_shutdown(self) -> None:
        """Begin a graceful stop; safe from signal handlers and from
        other threads (the ``shutdown`` op and SIGINT both land here)."""
        loop = self._loop
        if loop is None or self._stop_event is None:
            return
        self._stopping = True
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._stop_event.set()
        else:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                # The loop already closed: the server is stopped, and a
                # late shutdown request (second signal, belt-and-braces
                # caller cleanup) must be a no-op, not a crash.
                pass

    async def wait_stopped(self) -> None:
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()

    async def stop(self) -> None:
        """Stop accepting, drain the executor, persist the warm state."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain connections before the loop closes: closing each writer
        # EOFs its reader, so idle connection loops end cleanly here
        # instead of as cancellations at loop teardown.  Cancellation is
        # only the fallback for a handler that will not drain.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=5.0
            )
            for task in pending:  # pragma: no cover - wedged handler
                task.cancel()
            if pending:  # pragma: no cover
                await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._persist()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                if self._loop is not None:
                    self._loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # pragma: no cover - mirrors the add-side fallback

    def _persist(self) -> None:
        """Save the cache (merge-on-save, idempotent per stop)."""
        if self._saved or not self.cache_dir or self.cache is None:
            return
        from repro.core.cachestore import save_cache
        from repro.core.faults import CacheStoreFault

        try:
            save_cache(self.cache, self.cache_dir)
            self._saved = True
        except (CacheStoreFault, OSError):
            # A failed save only costs the next process a cold start.
            pass

    def run(self) -> None:
        """Blocking convenience: start, serve until stopped, clean up.

        SIGINT/SIGTERM trigger the same graceful path as the
        ``shutdown`` op, so a Ctrl-C mid-traffic still persists the
        cache.  Suitable as a plain ``Thread`` target in tests (the
        signal handlers degrade to no-ops off the main thread).
        """
        asyncio.run(self._run_async())

    async def _run_async(self) -> None:
        await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        self.stats.connections_opened += 1
        if TRACER.enabled:
            TRACER.event("server.connect", peer=str(peer))
        try:
            while not self._stopping:
                try:
                    request = await read_frame_async(reader)
                except WireError as error:
                    # A torn or malformed frame poisons this connection
                    # only; answer once (best effort) and hang up.
                    try:
                        await write_frame_async(
                            writer, error_response("?", str(error))
                        )
                    except (ConnectionError, WireError, OSError):
                        pass
                    break
                if request is None:  # clean EOF between frames
                    break
                response = await self._handle_request(request)
                try:
                    await write_frame_async(writer, response)
                except (ConnectionError, OSError):
                    break
                if request.get("op") == "shutdown":
                    break
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            self.stats.connections_closed += 1
            if TRACER.enabled:
                TRACER.event("server.disconnect", peer=str(peer))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A task cancelled by stop() re-raises at this await; the
                # socket is closed either way.
                pass

    async def _handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        request_id = request.get("id")
        extra = {} if request_id is None else {"id": request_id}
        if not isinstance(op, str) or op not in ALL_OPS:
            self.stats.errors += 1
            return error_response(
                str(op), f"unknown op {op!r} (known: {', '.join(ALL_OPS)})",
                **extra,
            )
        self.stats.count(op)
        if op == "stats":
            return {"op": op, "status": "ok", **self._stats_payload(), **extra}
        if op == "shutdown":
            # Answer first, then stop: the client gets its ack even
            # though the listener is about to close.
            assert self._loop is not None
            self._loop.call_soon(self.request_shutdown)
            return {"op": op, "status": "ok", "stopping": True, **extra}
        if op in DECISION_OPS and self._inflight >= self.max_inflight:
            # The typed BUSY: nothing was evaluated, retrying is sound.
            self.stats.busy_responses += 1
            return {
                "op": op,
                "status": "busy",
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                **extra,
            }
        if op in _INLINE_OPS and self._cached(op, request):
            # A held verdict is one dictionary lookup: answered here, by
            # the same code an executor thread would run.  It takes no
            # ``max_inflight`` slot, since it completes before the loop
            # yields.  Should another thread evict or invalidate the key
            # before the lookup, the decision is computed here instead:
            # still the kernel's verdict, audited as a miss, and rare
            # enough that no lock guards against it.
            self.stats.inline_hits += 1
            payload = self._serve_sync(op, request)
        else:
            assert self._loop is not None
            self._inflight += 1
            try:
                payload = await self._loop.run_in_executor(
                    self._executor, self._serve_sync, op, request
                )
            finally:
                self._inflight -= 1
        if payload.get("status") == "error":
            self.stats.errors += 1
        payload.update(extra)
        return payload

    def _cached(self, op: str, request: Dict[str, Any]) -> bool:
        """Resolve a single-decision op on the loop and report whether the
        engine holds its verdict.  The schema and resolved request ride
        on the document to the op, so it parses nothing again on either
        path."""
        try:
            prepared = self._prepare(op, request)
        except Exception:  # noqa: BLE001 - re-raised on the executor path
            # The executor path prepares the request again and answers
            # the error exactly as it always has.
            return False
        request[_PREPARED] = prepared
        return self.engine.would_hit(*prepared)

    # ------------------------------------------------------------------
    # Request execution (executor threads, or the loop for cached verdicts)
    # ------------------------------------------------------------------

    def _serve_sync(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request, synchronously: on an executor thread, or on the
        loop for a verdict the cache holds.  Returns a complete response
        document; exceptions become typed statuses."""
        with TRACER.span("server.request", op=op) as span:
            try:
                result = self._dispatch_sync(op, request)
            except BudgetExceeded as error:
                span.set(status="budget-exceeded")
                return {
                    "op": op,
                    "status": "budget-exceeded",
                    "error": str(error),
                }
            except DecisionUnavailable as error:
                status = _unavailable_status(error.failures)
                span.set(status=status)
                return {
                    "op": op,
                    "status": status,
                    "error": str(error),
                    "failures": [
                        record.as_dict() for record in error.failures
                    ],
                }
            except (ReproError, ValueError, KeyError, TypeError) as error:
                span.set(status="error")
                return error_response(op, error)
            span.set(status="ok")
            return {"op": op, "status": "ok", **result}

    def _dispatch_sync(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "load-schema":
            return self._op_load_schema(request)
        if op == "edit":
            return self._op_edit(request)
        if op == "navigate":
            return self._op_navigate(self._schema_for(request), request)
        prepared = request.pop(_PREPARED, None)
        schema, resolved = prepared or self._prepare(op, request)
        if op == "decide":
            return self._op_decide(schema, resolved)
        if op == "implies":
            return self._op_implies(schema, resolved)
        if op == "summarizable":
            return self._op_summarizable(schema, resolved)
        raise ReproError(f"unroutable op {op!r}")  # pragma: no cover

    def _prepare(
        self, op: str, request: Dict[str, Any]
    ) -> Tuple[DimensionSchema, Tuple[Any, ...]]:
        """A single-decision op's schema and resolved request (see
        :func:`~repro.core.request.resolve_request`); a malformed request
        raises."""
        schema = self._schema_for(request)
        if op == "decide":
            raw = request.get("request")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ReproError(
                    'decide needs request=["dimsat"|"implies"|"summarizable", ...]'
                )
            decision = [
                tuple(part) if isinstance(part, list) else part for part in raw
            ]
        elif op == "implies":
            constraint = request.get("constraint")
            if not isinstance(constraint, str):
                raise ReproError("implies needs constraint (textual syntax)")
            decision = ["implies", constraint]
        else:
            target = request.get("target")
            sources = request.get("sources")
            if not isinstance(target, str) or not isinstance(sources, list):
                raise ReproError("summarizable needs target and sources=[...]")
            decision = ["summarizable", target, sources]
        return schema, resolve_request(decision)

    def _op_load_schema(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.io.json_io import schema_from_json

        text = request.get("schema_json")
        if not isinstance(text, str):
            raise ReproError("load-schema needs schema_json (a JSON string)")
        schema = schema_from_json(text)
        fingerprint = self.register_schema(schema)
        return {
            "fingerprint": fingerprint,
            "categories": len(schema.hierarchy.categories),
            "constraints": len(schema.constraints),
        }

    # The three single-decision ops take the resolved request.

    def _op_decide(
        self, schema: DimensionSchema, request: Tuple[Any, ...]
    ) -> Dict[str, Any]:
        outcome = self.engine.decide(schema, request)
        if outcome.unknown:
            return {
                "status": _unavailable_status(outcome.failures),
                "verdict": None,
                "attempts": outcome.attempts,
                "failures": [f.as_dict() for f in outcome.failures],
            }
        return {
            "verdict": outcome.verdict,
            "rung": outcome.rung,
            "attempts": outcome.attempts,
        }

    def _op_implies(
        self, schema: DimensionSchema, request: Tuple[Any, ...]
    ) -> Dict[str, Any]:
        result = self.engine.implies(schema, request[1])
        payload: Dict[str, Any] = {"verdict": bool(result.implied)}
        if not result.implied and result.counterexample is not None:
            payload["counterexample"] = str(result.counterexample)
        return payload

    def _op_summarizable(
        self, schema: DimensionSchema, request: Tuple[Any, ...]
    ) -> Dict[str, Any]:
        _kind, target, sources = request
        verdict = self.engine.is_summarizable(schema, target, sources)
        return {
            "verdict": bool(verdict),
            "target": target,
            "sources": list(sources),
        }

    def _op_navigate(
        self, schema: DimensionSchema, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The schema-level aggregate-navigation plan (Section 6 without
        the data): answer a query at ``target`` from the ``materialized``
        category views.  The search is the navigator's
        :func:`~repro.olap.navigator.cheapest_rewriting` with every view
        costing nothing, so its order is set size, then names: every
        client sees byte-identical plans."""
        from repro.olap.navigator import cheapest_rewriting

        target = request.get("target")
        materialized = request.get("materialized")
        max_sources = request.get("max_sources", 3)
        if not isinstance(target, str) or not isinstance(materialized, list):
            raise ReproError("navigate needs target and materialized=[...]")
        if target in materialized:
            return {
                "plan": "materialized",
                "target": target,
                "sources": [target],
                "checked": 0,
            }
        hierarchy = schema.hierarchy
        sizes = {c: 0 for c in materialized if c in hierarchy.categories}
        checked = 0

        def proven(sources: frozenset) -> bool:
            nonlocal checked
            checked += 1
            return self.engine.is_summarizable(schema, target, sources)

        found = cheapest_rewriting(hierarchy, target, sizes, int(max_sources), proven)
        return {
            "plan": "base-scan" if found is None else "rewritten",
            "target": target,
            "sources": [] if found is None else list(found[0]),
            "checked": checked,
        }

    def _op_edit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One schema mutation; returns the *new* fingerprint.

        The editor works on the server's cache.  An edit that provably
        keeps the set of instances (an implied constraint added, or one
        the rest implies dropped) moves every cached verdict and the
        compiled artifact to the new fingerprint, so the new tenant is
        served warm; the implication it decides to prove this is cached
        and audited like any served verdict.  That decision runs under
        the edit lock, so it is bounded by the editor's own fixed node
        budget (not ``--budget-ms``, which bounds served decisions), and
        it runs only when the process-wide artifact store holds an
        artifact for the replaced version - on the compiled engine, any
        tenant already decided on.  Any other edit, or a decision that
        runs out or faults, moves only the verdicts whose dependency
        cone it left untouched.  The stats op counts the model-preserving
        edits and the fallbacks under ``maintenance``.

        The old fingerprint stays registered: its schema object is
        immutable, so in-flight and follow-up decisions against it stay
        correct - they are just served cold once the shared cache has
        rekeyed its verdicts to the new fingerprint.
        """
        from repro.olap.maintenance import SchemaEditor

        action = request.get("action")
        with self._edit_lock:
            schema = self._schema_for(request)
            editor = SchemaEditor(schema, cache=self.cache)
            if action == "add-constraint":
                edited = editor.add_constraint(request["constraint"])
            elif action == "drop-constraint":
                edited = editor.drop_constraint(request["constraint"])
            elif action == "add-edge":
                edited = editor.add_edge(request["child"], request["parent"])
            elif action == "drop-edge":
                edited = editor.drop_edge(request["child"], request["parent"])
            elif action == "add-category":
                edited = editor.add_category(
                    request["category"],
                    request.get("parents", ()),
                    request.get("children", ()),
                )
            elif action == "drop-category":
                edited = editor.drop_category(request["category"])
            else:
                raise ReproError(
                    f"unknown edit action {action!r} (known: add-constraint, "
                    "drop-constraint, add-edge, drop-edge, add-category, "
                    "drop-category)"
                )
            new_fingerprint = self.register_schema(edited)
        return {
            "fingerprint": new_fingerprint,
            "replaced": schema.fingerprint(),
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def _stats_payload(self) -> Dict[str, Any]:
        cache = self.cache
        cache_stats: Dict[str, Any] = {}
        if cache is not None:
            cache_stats = dict(cache.stats.as_dict())
            cache_stats["entries"] = len(cache)
        return {
            "uptime_s": round(
                time.monotonic() - self.stats.started_monotonic, 3
            ),
            "requests": self.stats.requests,
            "served": dict(sorted(self.stats.served.items())),
            "busy_responses": self.stats.busy_responses,
            "errors": self.stats.errors,
            "inline_hits": self.stats.inline_hits,
            "maintenance": {
                "model_preserving_edits": METRICS.counter_value(
                    "maintenance.model_preserving_edits"
                ),
                "edit_decision_fallbacks": METRICS.counter_value(
                    "maintenance.edit_decision_fallbacks"
                ),
            },
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "connections_open": (
                self.stats.connections_opened - self.stats.connections_closed
            ),
            "connections_total": self.stats.connections_opened,
            "schemas": len(self._schemas),
            "cache": cache_stats,
            "resilience": {
                "decisions": self.engine.stats.decisions,
                "retries": self.engine.stats.retries,
                "degraded_sequential": self.engine.stats.degraded_sequential,
                "unknown_verdicts": self.engine.stats.unknown_verdicts,
            },
            "engine": self._engine_payload(),
        }

    def _engine_payload(self) -> Dict[str, Any]:
        """The serving engine's name; for the compiled tier also its
        kernel fallbacks and its artifact store's counters."""
        engine = self.engine.engine
        payload: Dict[str, Any] = {"name": engine.name}
        if isinstance(engine, CompiledDecisionEngine):
            store = engine.store.stats
            payload["fallbacks"] = engine.stats.fallbacks
            payload["artifacts"] = {
                "hits": store.hits,
                "misses": store.misses,
                "compile_failures": store.compile_failures,
            }
        return payload
