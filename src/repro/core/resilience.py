"""A resilient decision service: retries, circuit breaking, degradation.

The decision engines (:class:`~repro.core.parallel.ParallelDecisionEngine`,
:class:`~repro.core.compile.CompiledDecisionEngine`) answer heavy
traffic fast, but a crashed or hung decision, or a flaky cache store,
takes a whole request (or batch) down with an exception.  Bertossi &
Milani's ontological multidimensional model treats inconsistency as a
first-class *answerable* state rather than a crash; this module gives
the decision stack the same property.  :class:`ResilientDecisionEngine`
wraps an engine with a three-rung **degradation ladder**:

1. **parallel** - the wrapped engine (batching, dedup), with
   per-decision retry: exponential backoff, deterministic jitter, a
   configurable attempt cap.  Transient failures (``OSError``, injected
   faults, broken executors) are retried; everything else is not.
2. **sequential** - the in-process sequential kernel with a fresh
   budget, also retried.  A :class:`CircuitBreaker` per schema
   fingerprint sends traffic straight here while the parallel rung
   keeps failing, and lets it back after a cooldown.
3. **UNKNOWN** - a typed verdict-free outcome
   (:class:`DecisionOutcome` with ``status="unknown"``, or a raised
   :class:`~repro.errors.DecisionUnavailable`) carrying the full failure
   provenance: one :class:`AttemptRecord` per failed attempt.

Two invariants, extending the budget layer's:

* **never wrong** - a verdict is either computed by a sound kernel path
  or not returned at all; no rung ever guesses;
* **caches stay verdict-clean** - a faulted or aborted decision never
  stores anything in the :class:`~repro.core.decisioncache.DecisionCache`
  (the fault-injection hammer in ``tests/test_resilience_differential.py``
  asserts exactly this).

With no faults present the resilient engine is observationally identical
to the plain engines - the differential suite proves verdict
byte-identity, and the bench gate caps the fault-free overhead at 5%.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.constraints.parser import parse
from repro.core.auditlog import AUDIT, _verdict_of
from repro.core.budget import DecisionBudget
from repro.core.compile import CompiledDecisionEngine
from repro.core.decisioncache import USE_DEFAULT_CACHE
from repro.core.dimsat import DimsatResult
from repro.core.implication import ImplicationResult
from repro.core.metrics import METRICS
from repro.core.parallel import (
    ParallelDecisionEngine,
    RequestKey,
    _decide,
    normalize_request,
)
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError

_M_RETRIES = METRICS.counter("resilience.retries")
_M_DEGRADED = METRICS.counter("resilience.degraded_sequential")
_M_UNKNOWN = METRICS.counter("resilience.unknown_verdicts")
_M_BREAKER_TRIPS = METRICS.counter("resilience.breaker_trips")
_M_BREAKER_SKIPS = METRICS.counter("resilience.breaker_open_skips")
_H_ATTEMPTS = METRICS.histogram("resilience.attempts_per_decision")

#: Failures worth retrying: transient OS-level trouble (which injected
#: worker faults subclass) and broken executors.  Everything else is
#: either a sound typed abort (``BudgetExceeded``, degradable but not
#: retryable - the same ceilings would abort again) or a caller bug
#: (``SchemaError`` etc., re-raised untouched).
RETRYABLE_ERRORS = (OSError, TimeoutError, BrokenExecutor)


def classify_failure(error: BaseException) -> str:
    """``"retryable"``, ``"degradable"``, or ``"fatal"`` for one failure."""
    if isinstance(error, BudgetExceeded):
        return "degradable"
    if isinstance(error, RETRYABLE_ERRORS):
        return "retryable"
    return "fatal"


@dataclass(frozen=True)
class AttemptRecord:
    """Provenance of one failed attempt at a decision."""

    #: ``"parallel"`` or ``"sequential"`` - the ladder rung that failed.
    rung: str
    #: 0-based attempt index within the rung.
    attempt: int
    #: Exception class name (``"InjectedFault"``, ``"BudgetExceeded"`` ...).
    error_type: str
    #: The exception's message.
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rung": self.rung,
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass(frozen=True)
class DecisionOutcome:
    """The resilient engine's answer to one decision request.

    ``status`` is ``"ok"`` (``verdict`` is the sound boolean) or
    ``"unknown"`` (``verdict`` is ``None``; every rung failed and
    ``failures`` says how).  ``rung`` names the ladder rung that produced
    the verdict; ``attempts`` counts every attempt made, successful or
    not.
    """

    verdict: Optional[bool]
    status: str
    rung: str
    attempts: int
    failures: Tuple[AttemptRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "status": self.status,
            "rung": self.rung,
            "attempts": self.attempts,
            "failures": [record.as_dict() for record in self.failures],
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` caps attempts *per rung*.  The delay before retry
    ``n`` is ``base_delay_ms * 2**n`` (clamped to ``max_delay_ms``)
    stretched by up to ``jitter`` of itself; the stretch is a pure
    CRC32 function of ``(token, attempt)``, so a retry schedule replays
    identically - no wall-clock randomness in the decision path.
    """

    max_attempts: int = 3
    base_delay_ms: float = 1.0
    max_delay_ms: float = 50.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be at least 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ReproError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("jitter must be in [0, 1]")

    def delay_ms(self, attempt: int, token: int = 0) -> float:
        base = min(self.max_delay_ms, self.base_delay_ms * (2**attempt))
        draw = zlib.crc32(f"{token}:{attempt}".encode("utf-8")) % 1000 / 1000.0
        return base * (1.0 + self.jitter * draw)


class CircuitBreaker:
    """A per-key (schema fingerprint) breaker over the parallel rung.

    ``failure_threshold`` consecutive parallel-rung failures for one key
    open the circuit: traffic for that key skips straight to the
    sequential rung (no retry churn on a schema that keeps failing).
    After ``cooldown_ms`` the circuit half-opens - the next decision
    probes the parallel rung again; success closes the circuit, failure
    re-opens it for another cooldown.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_ms: float = 1000.0
    ) -> None:
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be at least 1")
        if cooldown_ms < 0:
            raise ReproError("cooldown_ms must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._lock = threading.Lock()
        #: key -> [consecutive failures, opened_at monotonic seconds or None]
        self._state: Dict[str, List[Optional[float]]] = {}

    def allow(self, key: str) -> bool:
        """May the parallel rung be tried for this key right now?"""
        with self._lock:
            state = self._state.get(key)
            if state is None or state[1] is None:
                return True
            if (time.monotonic() - state[1]) * 1000.0 >= self.cooldown_ms:
                # Half-open: let traffic probe the parallel rung; the next
                # record_success/record_failure settles the circuit.
                state[1] = None
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            self._state.pop(key, None)

    def record_failure(self, key: str) -> None:
        tripped = False
        with self._lock:
            state = self._state.setdefault(key, [0, None])
            state[0] += 1  # type: ignore[operator]
            if state[0] >= self.failure_threshold and state[1] is None:  # type: ignore[operator]
                state[1] = time.monotonic()
                tripped = True
        if tripped:
            _M_BREAKER_TRIPS.inc()

    def state(self, key: str) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` for one key."""
        with self._lock:
            state = self._state.get(key)
            if state is None:
                return "closed"
            if state[1] is None:
                return "closed"
            if (time.monotonic() - state[1]) * 1000.0 >= self.cooldown_ms:
                return "half-open"
            return "open"


@dataclass
class ResilienceStats:
    """Cumulative counters for one :class:`ResilientDecisionEngine`."""

    decisions: int = 0
    retries: int = 0
    degraded_sequential: int = 0
    unknown_verdicts: int = 0
    breaker_open_skips: int = 0


class ResilientDecisionEngine:
    """The degradation-ladder wrapper around a decision engine.

    Parameters
    ----------
    engine:
        The wrapped engine (a
        :class:`~repro.core.parallel.ParallelDecisionEngine` or a
        :class:`~repro.core.compile.CompiledDecisionEngine`); a
        ``ParallelDecisionEngine`` built from ``engine_kwargs`` when
        omitted.
    retry:
        The :class:`RetryPolicy` (attempt cap, backoff, jitter).
    breaker:
        The :class:`CircuitBreaker` guarding the parallel rung.
    engine_kwargs:
        Forwarded to :class:`ParallelDecisionEngine` when ``engine`` is
        ``None`` (``budget``, ``options``, ``cache``).

    The single-decision surface (:meth:`dimsat`, :meth:`implies`,
    :meth:`is_summarizable`, ...) mirrors the wrapped engine's but raises
    :class:`~repro.errors.DecisionUnavailable` instead of transient
    errors; the batch surface adds :meth:`decide_many_outcomes`, whose
    per-request :class:`DecisionOutcome` records are never exceptions -
    the form a service loop wants.
    """

    def __init__(
        self,
        engine: Optional[ParallelDecisionEngine] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        **engine_kwargs: Any,
    ) -> None:
        if engine is not None and engine_kwargs:
            raise ReproError(
                "pass either a prebuilt engine or engine kwargs, not both"
            )
        self.engine = engine if engine is not None else ParallelDecisionEngine(
            **engine_kwargs
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.stats = ResilienceStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        self.engine.shutdown(wait_for_tasks)

    def __enter__(self) -> "ResilientDecisionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def _sleep(self, rung_attempt: int, token: int) -> None:
        delay = self.retry.delay_ms(rung_attempt, token)
        if delay > 0:
            time.sleep(delay / 1000.0)

    def _run_rung(
        self,
        rung: str,
        run: Callable[[], Any],
        failures: List[AttemptRecord],
        token: int,
    ) -> Tuple[bool, Any, int]:
        """Run one ladder rung with retries.

        Returns ``(succeeded, value, attempts_made)``.  Fatal errors are
        re-raised; degradable errors (budget aborts) end the rung after
        one attempt - the same ceilings would abort again.
        """
        attempts = 0
        for attempt in range(self.retry.max_attempts):
            attempts += 1
            try:
                return True, run(), attempts
            except Exception as exc:
                kind = classify_failure(exc)
                if kind == "fatal":
                    raise
                failures.append(
                    AttemptRecord(rung, attempt, type(exc).__name__, str(exc))
                )
                if kind == "degradable":
                    break
                if attempt + 1 < self.retry.max_attempts:
                    self.stats.retries += 1
                    _M_RETRIES.inc()
                    if TRACER.enabled:
                        TRACER.event(
                            "resilience.retry",
                            rung=rung,
                            attempt=attempt,
                            error=type(exc).__name__,
                        )
                    self._sleep(attempt, token)
        return False, None, attempts

    def _ladder(
        self,
        schema: DimensionSchema,
        request: Tuple[Any, ...],
        parallel_run: Callable[[], Any],
    ) -> Any:
        """Single-decision ladder; raises ``DecisionUnavailable`` at the
        bottom.  The sequential rung decides ``request`` through the
        wrapped engine's inline kernel path; ``request`` is also recorded
        on the audit log when every rung fails (successful rungs are
        audited at the cache/kernel layer they answer from)."""
        self.stats.decisions += 1
        label = request[0]
        fingerprint = schema.fingerprint()
        token = zlib.crc32(f"{label}:{fingerprint}".encode("utf-8"))
        failures: List[AttemptRecord] = []
        total_attempts = 0
        with TRACER.span("resilience.decide", kind=label) as span:
            if self.breaker.allow(fingerprint):
                ok, value, attempts = self._run_rung(
                    "parallel", parallel_run, failures, token
                )
                total_attempts += attempts
                if ok:
                    self.breaker.record_success(fingerprint)
                    span.set(rung="parallel", attempts=total_attempts)
                    _H_ATTEMPTS.observe(total_attempts)
                    return value
                self.breaker.record_failure(fingerprint)
            else:
                self.stats.breaker_open_skips += 1
                _M_BREAKER_SKIPS.inc()
                failures.append(
                    AttemptRecord(
                        "parallel", 0, "CircuitOpen",
                        f"circuit open for schema {fingerprint[:12]}",
                    )
                )
            self.stats.degraded_sequential += 1
            _M_DEGRADED.inc()
            if TRACER.enabled:
                TRACER.event("resilience.degrade", kind=label, to="sequential")
            ok, value, attempts = self._run_rung(
                "sequential",
                lambda: _decide(self.engine, schema, request),
                failures,
                token ^ 0x5E0,
            )
            total_attempts += attempts
            if ok:
                span.set(rung="sequential", attempts=total_attempts)
                _H_ATTEMPTS.observe(total_attempts)
                return value
            self.stats.unknown_verdicts += 1
            _M_UNKNOWN.inc()
            _H_ATTEMPTS.observe(total_attempts)
            span.set(rung="unknown", attempts=total_attempts)
            if TRACER.enabled:
                TRACER.event(
                    "resilience.unknown", kind=label, attempts=total_attempts
                )
            if AUDIT.enabled:
                AUDIT.record_unknown(
                    schema, normalize_request(request), total_attempts, failures
                )
        raise DecisionUnavailable(
            f"{label} decision unavailable after {total_attempts} attempts "
            f"({', '.join(sorted({f.error_type for f in failures}))})",
            tuple(failures),
        )

    # ------------------------------------------------------------------
    # Single decisions (mirror the wrapped engine's surface)
    # ------------------------------------------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability through the ladder."""
        return self._ladder(
            schema,
            ("dimsat", category),
            lambda: self.engine.dimsat(schema, category),
        )

    def is_satisfiable(self, schema: DimensionSchema, category: Category) -> bool:
        return self.dimsat(schema, category).satisfiable

    def implies(
        self, schema: DimensionSchema, constraint: object
    ) -> ImplicationResult:
        """``ds |= alpha`` through the ladder (the constraint is parsed
        once, here)."""
        node = parse(constraint) if isinstance(constraint, str) else constraint
        return self._ladder(
            schema,
            ("implies", node),
            lambda: self.engine.implies(schema, node),
        )

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1 through the ladder."""
        source_key = tuple(sorted(set(sources)))
        return self._ladder(
            schema,
            ("summarizable", target, source_key),
            lambda: self.engine.is_summarizable(schema, target, source_key),
        )

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------

    def decide(
        self, schema: DimensionSchema, request: Sequence[object]
    ) -> DecisionOutcome:
        """One request as a :class:`DecisionOutcome` (never raises for
        service faults)."""
        return self.decide_many_outcomes([(schema, request)])[0]

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Boolean verdicts aligned with the input order.

        Drop-in for :meth:`ParallelDecisionEngine.decide_many`; raises
        :class:`~repro.errors.DecisionUnavailable` when any decision
        degraded to UNKNOWN (use :meth:`decide_many_outcomes` to keep the
        rest of the batch).
        """
        outcomes = self.decide_many_outcomes(items)
        unknown = [o for o in outcomes if o.unknown]
        if unknown:
            raise DecisionUnavailable(
                f"{len(unknown)} of {len(outcomes)} batch decisions "
                "unavailable after retries and sequential fallback",
                unknown[0].failures,
            )
        return [o.verdict for o in outcomes]  # type: ignore[misc]

    def decide_many_outcomes(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[DecisionOutcome]:
        """The batch ladder: every request gets an outcome, never an
        exception (service faults; malformed requests still raise).

        Round 1 sends the whole batch through the wrapped engine's
        :meth:`~repro.core.parallel.ParallelDecisionEngine.try_decide_many`
        (deduped, concurrent); failed requests are retried as shrinking
        sub-batches with backoff, then degraded to the sequential kernel,
        then - only if that also fails - answered UNKNOWN with their full
        failure provenance.
        """
        pairs = list(items)
        self.stats.decisions += len(pairs)
        outcomes: List[Optional[DecisionOutcome]] = [None] * len(pairs)
        failures: List[List[AttemptRecord]] = [[] for _ in pairs]
        attempts_made = [0] * len(pairs)

        # Partition by breaker state up front: open circuits go straight
        # to the sequential rung.
        parallel_pending: List[int] = []
        sequential_pending: List[int] = []
        for index, (schema, _request) in enumerate(pairs):
            if self.breaker.allow(schema.fingerprint()):
                parallel_pending.append(index)
            else:
                self.stats.breaker_open_skips += 1
                _M_BREAKER_SKIPS.inc()
                failures[index].append(
                    AttemptRecord(
                        "parallel", 0, "CircuitOpen",
                        f"circuit open for schema {schema.fingerprint()[:12]}",
                    )
                )
                sequential_pending.append(index)

        # Rung 1: the parallel engine, whole-batch, retried in rounds.
        for attempt in range(self.retry.max_attempts):
            if not parallel_pending:
                break
            sub = [pairs[i] for i in parallel_pending]
            results = self.engine.try_decide_many(sub)
            retry_round: List[int] = []
            for index, result in zip(parallel_pending, results):
                attempts_made[index] += 1
                schema = pairs[index][0]
                if not isinstance(result, BaseException):
                    outcomes[index] = DecisionOutcome(
                        verdict=bool(result),
                        status="ok",
                        rung="parallel",
                        attempts=attempts_made[index],
                        failures=tuple(failures[index]),
                    )
                    self.breaker.record_success(schema.fingerprint())
                    continue
                kind = classify_failure(result)
                if kind == "fatal":
                    raise result
                failures[index].append(
                    AttemptRecord(
                        "parallel", attempt, type(result).__name__, str(result)
                    )
                )
                self.breaker.record_failure(schema.fingerprint())
                if kind == "retryable" and attempt + 1 < self.retry.max_attempts:
                    retry_round.append(index)
                    self.stats.retries += 1
                    _M_RETRIES.inc()
                else:
                    sequential_pending.append(index)
            parallel_pending = retry_round
            if parallel_pending and attempt + 1 < self.retry.max_attempts:
                if TRACER.enabled:
                    TRACER.event(
                        "resilience.retry",
                        rung="parallel",
                        attempt=attempt,
                        requests=len(parallel_pending),
                    )
                self._sleep(attempt, token=attempt)

        # Rung 2: the sequential kernel, per request, retried.
        for index in sorted(sequential_pending):
            schema, request = pairs[index]
            key: RequestKey = normalize_request(request)
            self.stats.degraded_sequential += 1
            _M_DEGRADED.inc()
            if TRACER.enabled:
                TRACER.event(
                    "resilience.degrade", kind=str(key[0]), to="sequential"
                )
            token = zlib.crc32(repr(key).encode("utf-8"))
            ok, value, attempts = self._run_rung(
                "sequential",
                lambda: _verdict_of(_decide(self.engine, schema, key)),
                failures[index],
                token,
            )
            attempts_made[index] += attempts
            if ok:
                outcomes[index] = DecisionOutcome(
                    verdict=bool(value),
                    status="ok",
                    rung="sequential",
                    attempts=attempts_made[index],
                    failures=tuple(failures[index]),
                )
            else:
                self.stats.unknown_verdicts += 1
                _M_UNKNOWN.inc()
                if TRACER.enabled:
                    TRACER.event(
                        "resilience.unknown",
                        kind=str(key[0]),
                        attempts=attempts_made[index],
                    )
                if AUDIT.enabled:
                    AUDIT.record_unknown(
                        schema, key, attempts_made[index], failures[index]
                    )
                outcomes[index] = DecisionOutcome(
                    verdict=None,
                    status="unknown",
                    rung="unknown",
                    attempts=attempts_made[index],
                    failures=tuple(failures[index]),
                )

        for index, outcome in enumerate(outcomes):
            assert outcome is not None, f"request {index} left undecided"
            _H_ATTEMPTS.observe(outcome.attempts)
        return outcomes  # type: ignore[return-value]

    def report(self) -> str:
        """A human-readable stats block."""
        lines = [
            "resilient engine:",
            f"  decisions            {self.stats.decisions}",
            f"  retries              {self.stats.retries}",
            f"  degraded sequential  {self.stats.degraded_sequential}",
            f"  unknown verdicts     {self.stats.unknown_verdicts}",
            f"  breaker open skips   {self.stats.breaker_open_skips}",
        ]
        return "\n".join(lines)


#: The engines :func:`build_engine` builds, by name: the interpreted
#: kernel behind batch dedup, and the compiled tier.
_ENGINES = {
    engine.name: engine
    for engine in (ParallelDecisionEngine, CompiledDecisionEngine)
}
ENGINE_NAMES = tuple(_ENGINES)


def build_engine(
    name: str = "compiled",
    budget: Optional[DecisionBudget] = None,
    retries: Optional[int] = None,
    cache: object = USE_DEFAULT_CACHE,
) -> Any:
    """Build a decision engine by name: the one constructor behind the
    CLI, the soak, the decision server and the OLAP layers' ``engine=``
    strings, and the one place the default engine is named.

    ``compiled`` (the default) is the
    :class:`~repro.core.compile.CompiledDecisionEngine`, which falls back
    to the interpreted kernel on schemas it cannot compile;
    ``sequential`` is the :class:`ParallelDecisionEngine` (the
    interpreted kernel on the calling thread, with batch dedup).
    ``budget`` is the per-decision budget template.  With ``retries`` the
    engine is wrapped in a :class:`ResilientDecisionEngine` allowing that
    many attempts per ladder rung; without, it is returned bare, so
    failures surface as the engine raises them.
    """
    if name not in _ENGINES:
        raise ReproError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
        )
    engine = _ENGINES[name](budget=budget, cache=cache)
    if retries is None:
        return engine
    return ResilientDecisionEngine(
        engine, retry=RetryPolicy(max_attempts=max(1, retries))
    )
