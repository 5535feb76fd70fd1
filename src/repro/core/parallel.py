"""The batch decision engine over the satisfiability kernel.

The paper reduces every decision to one sequential primitive: Theorem 2
turns implication into unsatisfiability of the root in
``(G, SIGMA | {NOT alpha})``, Theorem 1 turns summarizability into one
implication test per bottom category, and Theorem 3 makes satisfiability
a DIMSAT search for a frozen dimension.  :class:`ParallelDecisionEngine`
runs those reductions as the kernel implements them, on the caller's
thread, and adds the one level the OLAP layers need most:
**request-level batching**.  ``decide_many`` takes a whole batch of
``(schema, query)`` pairs - the aggregate navigator's candidate sweep,
the view selector's trial evaluations, a service's queued traffic - and
deduplicates them by schema fingerprint and canonical query key (the same
keys the :class:`~repro.core.decisioncache.DecisionCache` uses), so each
distinct question is decided once per batch.

Concurrency comes from the caller: the decision server runs concurrent
requests on its own executor, and every one of them warms the same
shared :class:`~repro.core.decisioncache.DecisionCache`.  The kernel is
pure Python, so a pool inside one decision would only add scheduling
cost under the GIL.

The batch path is shared by every engine: :func:`decide_batch` dedups
a batch and :func:`ask` puts each unique request to the engine's own
single-decision methods, so a batch request takes exactly the path of
the same single call - one cache lookup first, the reduction only on a
miss.

Robustness
----------

Only a *computed* decision passes the per-decision fault checkpoint and
gets a fresh :class:`~repro.core.budget.DecisionBudget` from the engine's
template: the ``_*_fanout`` miss bodies run both, once per decision.  A
verdict served from the cache reaches neither, whether it was asked
singly or in a batch.  Node/time ceilings raise
:class:`~repro.errors.BudgetExceeded` (never a wrong verdict, never a
cache entry).  The resilience ladder's sequential rung (:func:`_decide`)
is the one path that passes the checkpoint before its cache lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.constraints.ast import Node
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.auditlog import _verdict_of
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import (
    USE_DEFAULT_CACHE,
    DecisionCache,
    _options_key,
    memoize_or_audit,
    resolve_cache,
)
from repro.core.dimsat import DimsatOptions, DimsatResult, dimsat
from repro.core.faults import FAULTS
from repro.core.implication import ImplicationResult, implies
from repro.core.metrics import METRICS
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.core.summarizability import (
    _check_categories,
    _is_summarizable_uncached,
    is_summarizable_in_schema,
)
from repro.errors import DecisionUnavailable, ReproError


#: A normalized decision request: ``("dimsat", category)``,
#: ``("implies", canonical_constraint_text)``, or
#: ``("summarizable", target, sorted_source_tuple)``.  The tuple is
#: hashable and doubles as the dedup key alongside the schema fingerprint.
RequestKey = Tuple[Any, ...]

#: Request kinds ``decide_many`` understands.
REQUEST_KINDS = ("dimsat", "implies", "summarizable")

_M_DEDUPED = METRICS.counter("engine.batch_deduped")


def normalize_request(request: Sequence[object]) -> RequestKey:
    """Canonicalize a decision request.

    Accepts ``("dimsat", category)``, ``("implies", constraint)`` (AST
    node or text), and ``("summarizable", target, sources)``.  The result
    is hashable and canonical: two requests asking the same question
    normalize to the same key, which is what the batch dedup and the
    decision cache key on.
    """
    return _key(resolve_request(request))


def resolve_request(request: Sequence[object]) -> Tuple[Any, ...]:
    """Validate a decision request into the form :func:`ask` takes: its
    normalized key, except that an implication carries its parsed
    constraint node (so the text is parsed once, and printed back only
    when a key is needed).  Malformed requests raise
    :class:`~repro.errors.ReproError` - they are caller bugs, not service
    faults."""
    if not request:
        raise ReproError("empty decision request")
    kind = request[0]
    if kind == "dimsat":
        if len(request) != 2:
            raise ReproError("dimsat requests are ('dimsat', category)")
        return ("dimsat", request[1])
    if kind == "implies":
        if len(request) != 2:
            raise ReproError("implication requests are ('implies', constraint)")
        constraint = request[1]
        if isinstance(constraint, str):
            constraint = parse(constraint)
        return ("implies", constraint)
    if kind == "summarizable":
        if len(request) != 3:
            raise ReproError(
                "summarizability requests are ('summarizable', target, sources)"
            )
        target, sources = request[1], request[2]
        return ("summarizable", target, tuple(sorted(set(sources))))  # type: ignore[arg-type]
    raise ReproError(
        f"unknown decision request kind {kind!r}; expected one of {REQUEST_KINDS}"
    )


def _key(request: Tuple[Any, ...]) -> RequestKey:
    """The normalized key of a resolved request."""
    if request[0] == "implies":
        return ("implies", unparse(request[1]))
    return request


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
    ``(schema fingerprint, normalized request)``, so each distinct
    question is decided once per batch and duplicated requests share one
    answer.  Returns the answers aligned with the input order, and the
    number of requests the dedup answered.  Malformed requests raise
    before anything is decided.
    """
    pairs = [(schema, resolve_request(request)) for schema, request in items]
    ukeys = [(schema.fingerprint(), _key(request)) for schema, request in pairs]
    unique = dict(zip(ukeys, pairs))
    deduped = len(pairs) - len(unique)
    _M_DEDUPED.inc(deduped)
    if TRACER.enabled:
        TRACER.event(
            "engine.batch", requests=len(pairs), unique=len(unique), deduped=deduped
        )
    answered = {
        ukey: decide(schema, request) for ukey, (schema, request) in unique.items()
    }
    return [answered[ukey] for ukey in ukeys], deduped


def raise_first_failure(results: List[object]) -> List[bool]:
    """``decide_many`` over ``try_decide_many``: the verdicts, or the
    first failure raised."""
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results  # type: ignore[return-value]


def unknown_as_none(results: List[object]) -> List[Optional[bool]]:
    """``try_decide_many`` results as verdicts, with ``None`` (UNKNOWN)
    for each :class:`~repro.errors.DecisionUnavailable`; any other
    failure raises, as ``decide_many`` does."""
    for result in results:
        if isinstance(result, BaseException) and not isinstance(
            result, DecisionUnavailable
        ):
            raise result
    return [
        None if isinstance(result, DecisionUnavailable) else result  # type: ignore[misc]
        for result in results
    ]


@dataclass
class EngineStats:
    """Cumulative counters for one :class:`ParallelDecisionEngine`."""

    #: Decisions asked (single calls and the unique requests of batches).
    decisions: int = 0
    #: Requests received by ``decide_many`` (before dedup).
    batch_requests: int = 0
    #: Requests answered by batch dedup instead of a decision.
    batch_deduped: int = 0


class ParallelDecisionEngine:
    """Batched decision serving with dedup and per-decision budgets.

    Parameters
    ----------
    budget:
        A :class:`~repro.core.budget.DecisionBudget` *template*: every
        decision gets a ``fresh()`` copy, so the ceilings are per
        decision, not per engine lifetime.
    options:
        :class:`~repro.core.dimsat.DimsatOptions` applied to every
        underlying search.
    cache:
        The :class:`~repro.core.decisioncache.DecisionCache` verdicts are
        memoized in (default: the process-wide one; ``None`` disables
        caching, and the audit log then records each computed verdict).

    The engine is thread-safe and can be shared.
    """

    #: Its :func:`~repro.core.resilience.build_engine` name.
    name = "sequential"

    def __init__(
        self,
        budget: Optional[DecisionBudget] = None,
        options: Optional[DimsatOptions] = None,
        cache: object = USE_DEFAULT_CACHE,
    ) -> None:
        self.budget_template = budget
        self.options = options
        self.cache: Optional[DecisionCache] = resolve_cache(cache)
        self.stats = EngineStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def _get_executor(self) -> None:
        """Always ``None``: the engine owns no pool.  Kept only because the
        benchmark's tracer (``perfbench/tracer.py``) looks it up by name
        when it installs its hooks."""
        return None

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        """No pools to tear down; present for engine-protocol parity."""

    def __enter__(self) -> "ParallelDecisionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _fresh_budget(self) -> Optional[DecisionBudget]:
        """A per-decision copy of the budget template (``None`` when the
        engine has no ceilings)."""
        if self.budget_template is None:
            return None
        return self.budget_template.fresh()

    def _count_decision(self) -> None:
        with self._lock:
            self.stats.decisions += 1

    # ------------------------------------------------------------------
    # Single decisions: one cache lookup, then the reduction on a miss
    # ------------------------------------------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability, memoized under the same cache key the
        sequential kernel uses."""
        self._count_decision()
        key = ("dimsat", category, _options_key(self.options))
        return memoize_or_audit(  # type: ignore[return-value]
            self.cache, schema, key, lambda: self._dimsat_fanout(schema, category)
        )

    def is_satisfiable(self, schema: DimensionSchema, category: Category) -> bool:
        return self.dimsat(schema, category).satisfiable

    def implies(self, schema: DimensionSchema, constraint: object) -> ImplicationResult:
        """``ds |= alpha`` via Theorem 2."""
        self._count_decision()
        node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        key = ("implies", unparse(node), _options_key(self.options))
        return memoize_or_audit(  # type: ignore[return-value]
            self.cache, schema, key, lambda: self._implies_fanout(schema, node)
        )

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one implication test per bottom category."""
        self._count_decision()
        source_key = tuple(sorted(set(sources)))
        _check_categories(schema.hierarchy, target, source_key)
        key = ("summarizable", target, source_key, _options_key(self.options))
        return memoize_or_audit(  # type: ignore[return-value]
            self.cache,
            schema,
            key,
            lambda: self._summarizable_fanout(schema, target, source_key),
        )

    # The three miss bodies.  Their names are kept for the benchmark's
    # hooks (``perfbench/tracer.py`` wraps them by name).

    def _computed(self, decide: Callable[[Optional[DecisionBudget]], Any]) -> Any:
        """Run one computed decision: the fault checkpoint, then ``decide``
        under a fresh budget."""
        FAULTS.worker()
        budget = self._fresh_budget()
        result = decide(budget)
        if budget is not None:
            budget.publish()
        return result

    def _dimsat_fanout(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Theorem 3: the DIMSAT search."""
        return self._computed(
            lambda budget: dimsat(schema, category, self.options, budget)
        )

    def _implies_fanout(self, schema: DimensionSchema, node: Node) -> ImplicationResult:
        """Theorem 2: the kernel's reduction onto DIMSAT over
        ``(G, SIGMA | {NOT alpha})``."""
        return self._computed(
            lambda budget: implies(schema, node, self.options, None, budget)
        )

    def _summarizable_fanout(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Tuple[Category, ...],
    ) -> bool:
        """Theorem 1: the kernel's bottom loop, each bottom's implication
        test memoized in the engine's cache."""
        return self._computed(
            lambda budget: _is_summarizable_uncached(
                schema, target, sources, self.options, self.cache, budget
            )
        )

    # ------------------------------------------------------------------
    # The batch API: cross-request dedup
    # ------------------------------------------------------------------

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Answer a batch of ``(schema, request)`` pairs with booleans
        aligned with the input order; see :func:`decide_batch`.

        A request that fails (a budget abort, a worker fault) raises; use
        :meth:`try_decide_many` when the batch must survive individual
        failures.
        """
        return raise_first_failure(self.try_decide_many(items))

    def try_decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[object]:
        """:meth:`decide_many` with per-request fault containment: each
        element is the verdict or the exception that request raised."""
        results, deduped = decide_batch(items, partial(try_ask, self))
        with self._lock:
            self.stats.batch_requests += len(results)
            self.stats.batch_deduped += deduped
        return results


# ----------------------------------------------------------------------
# The resilience ladder's sequential rung
# ----------------------------------------------------------------------


def _decide(engine: Any, schema: DimensionSchema, request: Sequence[object]) -> object:
    """One request on the calling thread through the kernel's entry
    points, with ``engine``'s cache, options and a fresh copy of its
    budget: the sequential rung of the resilience ladder, over a parallel
    or a compiled engine.

    ``request`` is a normalized key or an ``("implies", node)`` pair.
    Returns the kernel's result: a
    :class:`~repro.core.dimsat.DimsatResult`, an
    :class:`~repro.core.implication.ImplicationResult`, or the
    summarizability boolean.
    """
    # Unlike the engines' own paths, this rung passes the fault checkpoint
    # *before* its cache lookup, once per attempt: an armed worker fault
    # then fails every rung of the ladder, cached or not.
    FAULTS.worker()
    options, cache, budget = engine.options, engine.cache, engine._fresh_budget()
    if cache is not None:
        # The kernel's cached entry points audit inside the cache.
        return _dispatch(schema, request, options, cache, budget)
    key = normalize_request(request) + (_options_key(options),)
    return memoize_or_audit(
        None, schema, key, lambda: _dispatch(schema, request, options, None, budget)
    )


def _dispatch(
    schema: DimensionSchema,
    request: Sequence[object],
    options: Optional[DimsatOptions],
    cache: Optional[DecisionCache],
    budget: Optional[DecisionBudget],
) -> object:
    kind = request[0]
    if kind == "dimsat":
        if cache is not None:
            return cache.dimsat(schema, request[1], options, budget)
        return dimsat(schema, request[1], options, budget)
    if kind == "implies":
        return implies(schema, request[1], options, cache, budget)
    if kind == "summarizable":
        return is_summarizable_in_schema(
            schema, request[1], request[2], options, cache, budget
        )
    raise ReproError(f"unknown decision request kind {kind!r}")  # pragma: no cover
