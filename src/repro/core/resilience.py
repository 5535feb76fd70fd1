"""A resilient decision service: retries, circuit breaking, degradation.

The decision engines (:class:`~repro.core.parallel.ParallelDecisionEngine`,
:class:`~repro.core.compile.CompiledDecisionEngine`) answer heavy
traffic fast, but a crashed or hung decision, or a flaky cache store,
takes a whole request (or batch) down with an exception.  Bertossi &
Milani's ontological multidimensional model treats inconsistency as a
first-class *answerable* state rather than a crash; this module gives
the decision stack the same property.  :class:`ResilientDecisionEngine`
wraps an engine with a three-rung **degradation ladder**, which every
decision walks once - a single call, :meth:`ResilientDecisionEngine.decide`,
or each unique request of a batch:

1. **parallel** - the wrapped engine, asked the one request, with
   retry: exponential backoff, deterministic jitter, a configurable
   attempt cap.  Transient failures (``OSError``, injected faults,
   broken executors) are retried; everything else is not.
2. **sequential** - the in-process sequential kernel with a fresh
   budget, also retried.  A :class:`CircuitBreaker` per schema
   fingerprint, checked per request, sends traffic straight here while
   the parallel rung keeps failing, and lets it back after a cooldown.
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
from repro.core.auditlog import AUDIT, _verdict_of
from repro.core.budget import DecisionBudget
from repro.core.compile import CompiledDecisionEngine
from repro.core.decisioncache import USE_DEFAULT_CACHE
from repro.core.dimsat import DimsatResult
from repro.core.implication import ImplicationResult
from repro.core.metrics import METRICS
from repro.core.parallel import ParallelDecisionEngine, _decide, ask, decide_batch
from repro.core.request import normalize_request, request_key, resolve_request
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError

_M_BREAKER_TRIPS = METRICS.counter("resilience.breaker_trips")
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


def _settle(
    span: Any,
    verdict: Optional[bool],
    rung: str,
    attempts: int,
    failures: List[AttemptRecord],
) -> DecisionOutcome:
    """The outcome of a finished ladder walk (``verdict`` ``None``:
    UNKNOWN)."""
    span.set(rung=rung, attempts=attempts)
    _H_ATTEMPTS.observe(attempts)
    status = "unknown" if verdict is None else "ok"
    return DecisionOutcome(verdict, status, rung, attempts, tuple(failures))


def _unavailable(label: str, outcome: DecisionOutcome) -> DecisionUnavailable:
    """The error the raising surfaces report for an UNKNOWN outcome."""
    error_types = sorted({record.error_type for record in outcome.failures})
    return DecisionUnavailable(
        f"{label} decision unavailable after {outcome.attempts} attempts "
        f"({', '.join(error_types)})",
        outcome.failures,
    )


@dataclass
class ResilienceStats:
    """Cumulative counters for one :class:`ResilientDecisionEngine`."""

    decisions: int = 0
    retries: int = 0
    degraded_sequential: int = 0
    unknown_verdicts: int = 0
    breaker_open_skips: int = 0


_STATS = METRICS.stats_family("resilience.", ResilienceStats)


class ResilientDecisionEngine:
    """The degradation-ladder wrapper around a decision engine.

    Parameters
    ----------
    engine:
        The wrapped engine (a
        :class:`~repro.core.parallel.ParallelDecisionEngine` or a
        :class:`~repro.core.compile.CompiledDecisionEngine`, usually from
        :func:`build_engine`).
    retry:
        The :class:`RetryPolicy` (attempt cap, backoff, jitter).
    breaker:
        The :class:`CircuitBreaker` guarding the parallel rung.

    The three decision procedures (:meth:`dimsat`, :meth:`implies`,
    :meth:`is_summarizable`) mirror the wrapped engine's but raise
    :class:`~repro.errors.DecisionUnavailable` instead of transient
    errors, so the batch functions of :mod:`repro.core.parallel` serve
    this engine as they serve a bare one (an UNKNOWN request's slot
    holds its ``DecisionUnavailable``).  :meth:`decide` and
    :meth:`decide_many_outcomes` return :class:`DecisionOutcome` records
    instead of exceptions - the form a service loop wants.
    """

    def __init__(
        self,
        engine: Any,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.engine = engine
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.stats = _STATS.track(self, ResilienceStats())

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def _run_rung(
        self,
        rung: str,
        run: Callable[[], Any],
        failures: List[AttemptRecord],
        label: str,
        fingerprint: str,
    ) -> Tuple[bool, Any, int]:
        """Run one ladder rung with retries.

        Returns ``(succeeded, value, attempts_made)``.  Fatal errors are
        re-raised; degradable errors (budget aborts) end the rung after
        one attempt - the same ceilings would abort again.  The backoff
        jitter token is a CRC32 of the rung, request kind and schema
        fingerprint, computed only when a retry sleeps.
        """
        for attempt in range(self.retry.max_attempts):
            try:
                return True, run(), attempt + 1
            except Exception as exc:
                kind = classify_failure(exc)
                if kind == "fatal":
                    raise
                failures.append(
                    AttemptRecord(rung, attempt, type(exc).__name__, str(exc))
                )
                if kind == "degradable":
                    return False, None, attempt + 1
                if attempt + 1 < self.retry.max_attempts:
                    self.stats.retries += 1
                    if TRACER.enabled:
                        TRACER.event(
                            "resilience.retry",
                            rung=rung,
                            attempt=attempt,
                            error=type(exc).__name__,
                        )
                    token = zlib.crc32(
                        f"{rung}:{label}:{fingerprint}".encode("utf-8")
                    )
                    delay = self.retry.delay_ms(attempt, token)
                    if delay > 0:
                        time.sleep(delay / 1000.0)
        return False, None, self.retry.max_attempts

    def _ladder(
        self, schema: DimensionSchema, request: Tuple[Any, ...]
    ) -> Tuple[Any, DecisionOutcome]:
        """Walk the rungs for one resolved request (see
        :func:`~repro.core.request.resolve_request`): every decision of
        this engine, single or batched, goes through here.

        Returns the answering rung's result (``None`` for UNKNOWN) and the
        request's :class:`DecisionOutcome`.  An UNKNOWN is recorded on the
        audit log (successful rungs are audited at the cache/kernel layer
        they answer from).
        """
        self.stats.decisions += 1
        label = request[0]
        fingerprint = schema.fingerprint()
        failures: List[AttemptRecord] = []
        with TRACER.span("resilience.decide", kind=label) as span:
            if self.breaker.allow(fingerprint):
                ok, value, attempts = self._run_rung(
                    "parallel",
                    lambda: ask(self.engine, schema, request),
                    failures,
                    label,
                    fingerprint,
                )
                if ok:
                    self.breaker.record_success(fingerprint)
                    return value, _settle(
                        span, _verdict_of(value), "parallel", attempts, failures
                    )
                self.breaker.record_failure(fingerprint)
            else:
                attempts = 0
                self.stats.breaker_open_skips += 1
                failures.append(
                    AttemptRecord(
                        "parallel", 0, "CircuitOpen",
                        f"circuit open for schema {fingerprint[:12]}",
                    )
                )
            self.stats.degraded_sequential += 1
            if TRACER.enabled:
                TRACER.event("resilience.degrade", kind=label, to="sequential")
            ok, value, tried = self._run_rung(
                "sequential",
                lambda: _decide(self.engine, schema, request),
                failures,
                label,
                fingerprint,
            )
            attempts += tried
            if ok:
                return value, _settle(
                    span, _verdict_of(value), "sequential", attempts, failures
                )
            self.stats.unknown_verdicts += 1
            if TRACER.enabled:
                TRACER.event("resilience.unknown", kind=label, attempts=attempts)
            if AUDIT.enabled:
                AUDIT.record_unknown(
                    schema, normalize_request(request), attempts, failures
                )
            return None, _settle(span, None, "unknown", attempts, failures)

    @property
    def cache(self) -> Any:
        """The wrapped engine's decision cache (read-only)."""
        return self.engine.cache

    def would_hit(self, schema: DimensionSchema, request: Tuple[Any, ...]) -> bool:
        """Whether the ladder would answer the resolved ``request`` from
        the wrapped engine's cache, computing nothing: the breaker is
        closed for the schema and the cache holds the request's key.

        A closed breaker is required because the sequential rung passes
        the fault checkpoint, which may sleep, before its lookup.  The
        answer is a hint, not a reservation: another thread may evict or
        invalidate the key before the lookup, and the request is then
        computed.  The decision server uses it to answer cached verdicts
        on its event loop.
        """
        cache = self.cache
        if cache is None:
            return False
        fingerprint = schema.fingerprint()
        return (
            self.breaker.state(fingerprint) == "closed"
            and cache.peek((fingerprint,) + request_key(request)) is not None
        )

    def _answer(self, schema: DimensionSchema, request: Tuple[Any, ...]) -> Any:
        """One request's result through the ladder; raises
        :class:`~repro.errors.DecisionUnavailable` on UNKNOWN."""
        value, outcome = self._ladder(schema, request)
        if outcome.unknown:
            raise _unavailable(request[0], outcome)
        return value

    # ------------------------------------------------------------------
    # Single decisions (mirror the wrapped engine's surface)
    # ------------------------------------------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability through the ladder."""
        return self._answer(schema, ("dimsat", category))

    def implies(
        self, schema: DimensionSchema, constraint: object
    ) -> ImplicationResult:
        """``ds |= alpha`` through the ladder (the constraint is parsed
        once, here)."""
        return self._answer(schema, resolve_request(("implies", constraint)))

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1 through the ladder."""
        return self._answer(
            schema, resolve_request(("summarizable", target, sources))
        )

    # ------------------------------------------------------------------
    # Outcomes and batches
    # ------------------------------------------------------------------

    def decide(
        self, schema: DimensionSchema, request: Sequence[object]
    ) -> DecisionOutcome:
        """One request as a :class:`DecisionOutcome` (never raises for
        service faults; a malformed request still raises)."""
        return self._ladder(schema, resolve_request(request))[1]

    def decide_many_outcomes(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[DecisionOutcome]:
        """Every request's :class:`DecisionOutcome`, never an exception
        for service faults (malformed requests and fatal errors still
        raise).

        The batch is deduped by
        :func:`~repro.core.parallel.decide_batch`, and each unique
        request walks the ladder once, exactly as :meth:`decide` would:
        duplicated requests share one outcome.
        """
        outcomes, deduped = decide_batch(
            items, lambda schema, request: self._ladder(schema, request)[1]
        )
        self.stats.decisions += deduped
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
