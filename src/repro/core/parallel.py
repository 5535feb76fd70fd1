"""The sequential decision engine over the satisfiability kernel, and
the request plumbing every engine shares.

The paper reduces every decision to one sequential primitive: Theorem 2
turns implication into unsatisfiability of the root in
``(G, SIGMA | {NOT alpha})``, Theorem 1 turns summarizability into one
implication test per bottom category, and Theorem 3 makes satisfiability
a DIMSAT search for a frozen dimension.  :class:`ParallelDecisionEngine`
runs those reductions as the kernel implements them, on the caller's
thread: an engine is its three procedures ``dimsat``, ``implies`` and
``is_summarizable``.

Concurrency comes from the caller: the decision server runs concurrent
requests on its own executor, and every one of them warms the same
shared :class:`~repro.core.decisioncache.DecisionCache`.  The kernel is
pure Python, so a pool inside one decision would only add scheduling
cost under the GIL.

Every engine takes one path per request.  A request is canonicalized
by :func:`~repro.core.request.resolve_request` and keyed by
:func:`~repro.core.request.request_key`; :func:`serve` looks it up in
the engine's cache and, on a miss, runs it as one :func:`computed`
decision.  Batches have one implementation for every engine:
:func:`decide_many` and :func:`try_decide_many` take a whole batch of
``(schema, request)`` pairs, :func:`decide_batch` deduplicates it by
schema fingerprint and memo key (the keys the
:class:`~repro.core.decisioncache.DecisionCache` uses), and :func:`ask`
puts each unique request to the engine's own single-decision methods,
so a batch request takes exactly the path of the same single call.

Robustness
----------

Only a *computed* decision passes the per-decision fault checkpoint and
gets a fresh :class:`~repro.core.budget.DecisionBudget` from the engine's
template, whose use is published when the decision finishes
(:func:`computed`, once per decision).  A verdict served from the cache
reaches none of it, whether it was asked singly or in a batch.
Node/time ceilings raise :class:`~repro.errors.BudgetExceeded` (never a
wrong verdict, never a cache entry).  The resilience ladder's sequential
rung (:func:`_decide`) is the one path that passes the checkpoint before
its cache lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.core.auditlog import AUDIT, _verdict_of
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import (
    USE_DEFAULT_CACHE,
    DecisionCache,
    memoize_or_audit,
    resolve_cache,
)
from repro.core.dimsat import DimsatResult, dimsat
from repro.core.faults import FAULTS
from repro.core.implication import ImplicationResult, implies
from repro.core.metrics import METRICS
from repro.core.request import request_key, resolve_request
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.core.summarizability import _compute, _is_summarizable_uncached
from repro.errors import DecisionUnavailable

_M_BATCH_REQUESTS = METRICS.counter("engine.batch_requests")
_M_BATCH_DEDUPED = METRICS.counter("engine.batch_deduped")


def computed(
    template: Optional[DecisionBudget],
    run: Callable[[Optional[DecisionBudget]], Any],
    checkpoint: bool = True,
) -> Any:
    """One computed decision: the fault checkpoint, then ``run(budget)``
    under a fresh copy of the budget ``template`` (``None``: unbounded),
    whose use is published once the decision finishes.

    Every engine's miss path runs through here, and so does the ladder's
    sequential rung, which passes ``checkpoint=False`` because it took
    its checkpoint before the cache lookup.
    """
    if checkpoint:
        FAULTS.worker()
    budget = None if template is None else template.fresh()
    result = run(budget)
    if budget is not None:
        budget.publish()
    return result


def serve(
    engine: Any,
    schema: DimensionSchema,
    request: Tuple[Any, ...],
    run: Callable[[Optional[DecisionBudget]], Any],
    checkpoint: bool = True,
) -> Any:
    """One resolved request on ``engine``: a lookup in its cache (or, with
    no cache, an audit record of the computed verdict), and on a miss
    ``run`` as one :func:`computed` decision under the engine's budget
    template."""
    if engine.cache is None and not AUDIT.enabled:
        # Nothing will consume the memo key; skip serializing it.
        return computed(engine.budget_template, run, checkpoint)
    compute = partial(computed, engine.budget_template, run, checkpoint)
    return memoize_or_audit(engine.cache, schema, request_key(request), compute)


def ask(engine: Any, schema: DimensionSchema, request: Sequence[object]) -> object:
    """Ask ``engine`` one request through its own ``dimsat``, ``implies``
    or ``is_summarizable``: the one place a request is dispatched by kind
    onto an engine.

    ``request`` is well-formed (a resolved or normalized request, or the
    raw form of one).  Returns the engine's result: a
    :class:`~repro.core.dimsat.DimsatResult`, an
    :class:`~repro.core.implication.ImplicationResult`, or the
    summarizability boolean.
    """
    kind = request[0]
    if kind == "dimsat":
        return engine.dimsat(schema, request[1])
    if kind == "implies":
        return engine.implies(schema, request[1])
    return engine.is_summarizable(schema, request[1], request[2])


def try_ask(engine: Any, schema: DimensionSchema, request: Sequence[object]) -> object:
    """The verdict of :func:`ask`, or the exception the decision raised:
    the bare engines' per-request step of :func:`decide_batch`, so one
    failed decision does not take down the rest of the batch."""
    try:
        return _verdict_of(ask(engine, schema, request))
    except Exception as exc:  # noqa: BLE001 - contained per request
        return exc


def decide_batch(
    items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    decide: Callable[[DimensionSchema, Tuple[Any, ...]], object],
) -> Tuple[List[object], int]:
    """Answer a batch with one ``decide(schema, request)`` call per
    distinct request: the batch path of every engine.

    Requests are resolved (see :func:`resolve_request`) and deduped by
    ``(schema fingerprint, memo key)``, so each distinct
    question is decided once per batch and duplicated requests share one
    answer.  Returns the answers aligned with the input order, and the
    number of requests the dedup answered; both counts go to the
    ``engine.batch_requests`` and ``engine.batch_deduped`` metrics.
    Malformed requests raise before anything is decided.
    """
    pairs = [(schema, resolve_request(request)) for schema, request in items]
    ukeys = [(schema.fingerprint(), request_key(request)) for schema, request in pairs]
    unique = dict(zip(ukeys, pairs))
    deduped = len(pairs) - len(unique)
    _M_BATCH_REQUESTS.inc(len(pairs))
    _M_BATCH_DEDUPED.inc(deduped)
    if TRACER.enabled:
        TRACER.event(
            "engine.batch", requests=len(pairs), unique=len(unique), deduped=deduped
        )
    answered = {
        ukey: decide(schema, request) for ukey, (schema, request) in unique.items()
    }
    return [answered[ukey] for ukey in ukeys], deduped


def raise_first_failure(results: List[object]) -> List[bool]:
    """:func:`decide_many` over :func:`try_decide_many`: the verdicts,
    or the first failure raised."""
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results  # type: ignore[return-value]


def unknown_as_none(results: List[object]) -> List[Optional[bool]]:
    """:func:`try_decide_many` results as verdicts, with ``None``
    (UNKNOWN) for each :class:`~repro.errors.DecisionUnavailable`; any
    other failure raises, as :func:`decide_many` does."""
    for result in results:
        if isinstance(result, BaseException) and not isinstance(
            result, DecisionUnavailable
        ):
            raise result
    return [
        None if isinstance(result, DecisionUnavailable) else result  # type: ignore[misc]
        for result in results
    ]


def try_decide_many(
    engine: Any, items: Iterable[Tuple[DimensionSchema, Sequence[object]]]
) -> List[object]:
    """Answer a batch of ``(schema, request)`` pairs on ``engine``, any
    engine, bare or resilient: per request, aligned with the input order,
    the verdict or the exception its decision raised (see
    :func:`decide_batch` and :func:`try_ask`).

    A resilient engine's single methods raise
    :class:`~repro.errors.DecisionUnavailable` for UNKNOWN, so its slots
    hold that; a bare engine's hold the fault itself.
    """
    return decide_batch(items, partial(try_ask, engine))[0]


def decide_many(
    engine: Any, items: Iterable[Tuple[DimensionSchema, Sequence[object]]]
) -> List[bool]:
    """:func:`try_decide_many` as booleans; the first failed request's
    exception (a budget abort, a fault, an UNKNOWN) raises instead."""
    return raise_first_failure(try_decide_many(engine, items))


@dataclass
class EngineStats:
    """Cumulative counters for one :class:`ParallelDecisionEngine`."""

    #: Decisions asked (single calls and the unique requests of batches).
    decisions: int = 0


_STATS = METRICS.stats_family("engine.", EngineStats)


class ParallelDecisionEngine:
    """The interpreted kernel's three decision procedures, with
    per-decision budgets.

    Parameters
    ----------
    budget:
        A :class:`~repro.core.budget.DecisionBudget` *template*: every
        decision gets a ``fresh()`` copy, so the ceilings are per
        decision, not per engine lifetime.
    cache:
        The :class:`~repro.core.decisioncache.DecisionCache` verdicts are
        memoized in (default: the process-wide one; ``None`` disables
        caching, and the audit log then records each computed verdict).

    Every search runs under default
    :class:`~repro.core.dimsat.DimsatOptions`, so the engine's verdicts
    share their cache keys with the kernel's entry points and replay
    under ``repro-olap audit-verify``.  The engine is thread-safe and
    can be shared.
    """

    #: Its :func:`~repro.core.resilience.build_engine` name.
    name = "sequential"

    def __init__(
        self,
        budget: Optional[DecisionBudget] = None,
        cache: object = USE_DEFAULT_CACHE,
    ) -> None:
        self.budget_template = budget
        self.cache: Optional[DecisionCache] = resolve_cache(cache)
        self.stats = _STATS.track(self, EngineStats())
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Names the benchmark's tracer (``perfbench/tracer.py``) looks up
    # ------------------------------------------------------------------

    def _get_executor(self) -> None:
        """Always ``None``: the engine owns no pool.  Kept only because the
        benchmark's tracer (``perfbench/tracer.py``) looks it up by name
        when it installs its hooks."""
        return None

    def try_decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[object]:
        """The module's :func:`try_decide_many` on this engine.  Kept only
        because the benchmark's tracer (``perfbench/tracer.py``) looks it
        up by name when it installs its hooks."""
        return try_decide_many(self, items)

    # ------------------------------------------------------------------
    # Single decisions: one cache lookup, then the reduction on a miss
    # ------------------------------------------------------------------

    def _serve(
        self,
        schema: DimensionSchema,
        request: Tuple[Any, ...],
        fanout: Callable[..., Any],
    ) -> Any:
        """Count one decision and :func:`serve` ``request``, with
        ``fanout(schema, *query, budget)`` as its miss body."""
        with self._lock:
            self.stats.decisions += 1
        return serve(self, schema, request, partial(fanout, schema, *request[1:]))

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability (Theorem 3)."""
        return self._serve(schema, ("dimsat", category), self._dimsat_fanout)

    def implies(self, schema: DimensionSchema, constraint: object) -> ImplicationResult:
        """``ds |= alpha`` via Theorem 2."""
        request = resolve_request(("implies", constraint))
        return self._serve(schema, request, self._implies_fanout)

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one implication test per bottom category."""
        request = resolve_request(("summarizable", target, sources))
        return self._serve(schema, request, self._summarizable_fanout)

    # The three miss bodies, each the kernel's procedure under the
    # decision's budget.  Their names are kept for the benchmark's hooks
    # (``perfbench/tracer.py`` wraps them by name).

    def _dimsat_fanout(
        self,
        schema: DimensionSchema,
        category: Category,
        budget: Optional[DecisionBudget],
    ) -> DimsatResult:
        """Theorem 3: the DIMSAT search."""
        return dimsat(schema, category, None, budget)

    def _implies_fanout(
        self, schema: DimensionSchema, node: object, budget: Optional[DecisionBudget]
    ) -> ImplicationResult:
        """Theorem 2: the kernel's reduction onto DIMSAT over
        ``(G, SIGMA | {NOT alpha})``."""
        return implies(schema, node, None, None, budget)

    def _summarizable_fanout(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Tuple[Category, ...],
        budget: Optional[DecisionBudget],
    ) -> bool:
        """Theorem 1: the kernel's bottom loop, each bottom's implication
        test memoized in the engine's cache."""
        return _is_summarizable_uncached(
            schema, target, sources, None, self.cache, budget
        )


# ----------------------------------------------------------------------
# The resilience ladder's sequential rung
# ----------------------------------------------------------------------


def _decide(engine: Any, schema: DimensionSchema, request: Tuple[Any, ...]) -> object:
    """One resolved request on the interpreted kernel, through
    ``engine``'s cache and under a fresh copy of its budget: the
    sequential rung of the resilience ladder, over a parallel or a
    compiled engine.

    Returns the kernel's result: a
    :class:`~repro.core.dimsat.DimsatResult`, an
    :class:`~repro.core.implication.ImplicationResult`, or the
    summarizability boolean.
    """
    # Unlike the engines' own paths, this rung passes the fault checkpoint
    # *before* its cache lookup, once per attempt: an armed worker fault
    # then fails every rung of the ladder, cached or not.
    FAULTS.worker()
    run = partial(_compute, schema, request, None, engine.cache)
    return serve(engine, schema, request, run, checkpoint=False)
