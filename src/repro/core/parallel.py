"""The batch decision engine over the satisfiability kernel.

The paper reduces every decision to one sequential primitive: Theorem 2
turns implication into unsatisfiability of the root in
``(G, SIGMA | {NOT alpha})``, Theorem 1 turns summarizability into one
implication test per bottom category, and Theorem 3 makes satisfiability
a DIMSAT search for a frozen dimension.  :class:`ParallelDecisionEngine`
runs those reductions as they are, on the caller's thread, and adds the
one level the OLAP layers need most: **request-level batching**.
``decide_many`` takes a whole batch of ``(schema, query)`` pairs - the
aggregate navigator's candidate sweep, the view selector's trial
evaluations, a service's queued traffic - and deduplicates them by schema
fingerprint and canonical query key (the same keys the
:class:`~repro.core.decisioncache.DecisionCache` uses), so each distinct
question is decided once per batch.

Executor modes
--------------

``mode="thread"`` (default)
    Single decisions and batches run on the calling thread.  Concurrency
    comes from the caller: the decision server already runs concurrent
    requests on its own executor, and every one of them warms the same
    shared :class:`~repro.core.decisioncache.DecisionCache`.  The kernel is
    pure Python, so a pool of threads inside one decision would only add
    scheduling cost under the GIL.
``mode="process"``
    One shared :class:`~concurrent.futures.ProcessPoolExecutor` (sized by
    ``max_workers``) for ``decide_many``.  Schemas cross the boundary as
    their canonical JSON text (hierarchy + constraint *texts*), not as
    pickled ASTs: each worker re-parses and hash-conses the constraints
    into its own intern table, keyed by schema fingerprint, so a schema is
    re-interned once per worker no matter how many requests mention it.
    Single decisions run in-process.

Robustness
----------

Every decision computed (not answered from the cache) passes the
per-decision fault checkpoint once and gets a fresh
:class:`~repro.core.budget.DecisionBudget` from the engine's template:
node/time ceilings raise :class:`~repro.errors.BudgetExceeded` (never a
wrong verdict, never a cache entry).  When the process pool cannot be
created - or breaks mid-flight - the engine decides the batch in-process
and keeps answering.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import ALL, Category
from repro.constraints.ast import Node, Not
from repro.constraints.atoms import validate_constraint
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.auditlog import AUDIT, _verdict_of
from repro.core.budget import BudgetSpec, DecisionBudget
from repro.core.decisioncache import (
    USE_DEFAULT_CACHE,
    DecisionCache,
    _options_key,
    resolve_cache,
)
from repro.core.dimsat import DimsatOptions, DimsatResult, dimsat
from repro.core.faults import FAULTS
from repro.core.implication import ImplicationResult, implies, is_implied
from repro.core.metrics import METRICS
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.core.summarizability import (
    _check_categories,
    is_summarizable_in_schema,
    summarizability_constraints,
)
from repro.errors import ReproError


#: A normalized decision request: ``("dimsat", category)``,
#: ``("implies", canonical_constraint_text)``, or
#: ``("summarizable", target, sorted_source_tuple)``.  The tuple is
#: picklable (constraints travel as canonical text) and doubles as the
#: dedup key alongside the schema fingerprint.
RequestKey = Tuple[Any, ...]

#: Request kinds ``decide_many`` understands.
REQUEST_KINDS = ("dimsat", "implies", "summarizable")

_M_DISPATCHED = METRICS.counter("engine.tasks_dispatched")
_M_DEDUPED = METRICS.counter("engine.batch_deduped")


def normalize_request(request: Sequence[object]) -> RequestKey:
    """Canonicalize a decision request.

    Accepts ``("dimsat", category)``, ``("implies", constraint)`` (AST
    node or text), and ``("summarizable", target, sources)``.  The result
    is hashable, picklable, and canonical: two requests asking the same
    question normalize to the same key, which is what the batch dedup and
    the decision cache key on.
    """
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
        node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        return ("implies", unparse(node))
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


@dataclass
class EngineStats:
    """Cumulative counters for one :class:`ParallelDecisionEngine`."""

    #: Single decisions served (``dimsat``/``implies``/``is_summarizable``).
    decisions: int = 0
    #: Requests received by ``decide_many`` (before dedup).
    batch_requests: int = 0
    #: Requests answered by batch dedup instead of a decision.
    batch_deduped: int = 0
    #: Requests dispatched to the process pool.
    tasks_dispatched: int = 0
    #: Process-mode batches decided in-process because no pool was usable.
    sequential_fallbacks: int = 0


class ParallelDecisionEngine:
    """Batched decision serving with dedup and per-decision budgets.

    Parameters
    ----------
    max_workers:
        Process pool size (``mode="process"`` only); ``None`` uses
        ``os.cpu_count()``.  ``<= 1`` decides process-mode batches
        in-process.
    mode:
        ``"thread"`` (default: decide on the calling thread) or
        ``"process"`` (batches on a process pool) - see the module
        docstring for the trade-off.
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
        caching).  In process mode each worker additionally keeps its own
        process-wide cache warm.

    The engine is itself thread-safe and can be shared; use it as a
    context manager or call :meth:`shutdown` to release the process pool.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mode: str = "thread",
        budget: Optional[DecisionBudget] = None,
        options: Optional[DimsatOptions] = None,
        cache: object = USE_DEFAULT_CACHE,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ReproError(f"unknown executor mode {mode!r}")
        self.mode = mode
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.budget_template = budget
        self.options = options
        self.cache: Optional[DecisionCache] = resolve_cache(cache)
        self.stats = EngineStats()
        self._lock = threading.Lock()
        self._executor: Optional[Executor] = None
        self._executor_failed = False
        self._closed = False

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------

    def _get_executor(self) -> Optional[Executor]:
        """The shared process pool, or ``None`` when deciding in-process
        (always in thread mode)."""
        if (
            self.mode != "process"
            or self.max_workers <= 1
            or self._executor_failed
            or self._closed
        ):
            return None
        with self._lock:
            if self._executor is None:
                try:
                    FAULTS.pool_create()
                    self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
                except (OSError, RuntimeError):
                    # No processes available (sandboxes, resource limits):
                    # remember and decide in-process from now on.
                    self._executor_failed = True
                    return None
            return self._executor

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        """Release the process pool (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait_for_tasks)

    def __enter__(self) -> "ParallelDecisionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------

    def _fresh_budget(self) -> Optional[DecisionBudget]:
        """A per-decision copy of the budget template (``None`` when the
        engine has no ceilings)."""
        if self.budget_template is None:
            return None
        return self.budget_template.fresh()

    def _budget_spec(self) -> Optional[BudgetSpec]:
        if self.budget_template is None:
            return None
        return self.budget_template.spec()

    # ------------------------------------------------------------------
    # Single decisions: one cache lookup, then the reduction on a miss
    # ------------------------------------------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability, memoized under the same cache key the
        sequential kernel uses."""
        with self._lock:
            self.stats.decisions += 1
        if self.cache is not None:
            key = ("dimsat", category, _options_key(self.options))
            return self.cache.memoize(  # type: ignore[return-value]
                schema, key, lambda: self._dimsat_fanout(schema, category)
            )
        return self._dimsat_fanout(schema, category)

    def is_satisfiable(self, schema: DimensionSchema, category: Category) -> bool:
        return self.dimsat(schema, category).satisfiable

    def implies(self, schema: DimensionSchema, constraint: object) -> ImplicationResult:
        """``ds |= alpha`` via Theorem 2."""
        with self._lock:
            self.stats.decisions += 1
        node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        if self.cache is not None:
            key = ("implies", unparse(node), _options_key(self.options))
            return self.cache.memoize(  # type: ignore[return-value]
                schema, key, lambda: self._implies_fanout(schema, node)
            )
        return self._implies_fanout(schema, node)

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one implication test per bottom category."""
        with self._lock:
            self.stats.decisions += 1
        source_key = tuple(sorted(set(sources)))
        _check_categories(schema.hierarchy, target, source_key)
        if self.cache is not None:
            key = ("summarizable", target, source_key, _options_key(self.options))
            return self.cache.memoize(  # type: ignore[return-value]
                schema,
                key,
                lambda: self._summarizable_fanout(schema, target, source_key),
            )
        return self._summarizable_fanout(schema, target, source_key)

    def _dimsat_fanout(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Theorem 3: the DIMSAT search, after the fault checkpoint and
        under a fresh budget, on the calling thread.  The name is kept for
        the benchmark's hooks (``perfbench/tracer.py`` wraps it by name)."""
        FAULTS.worker()
        budget = self._fresh_budget()
        result = dimsat(schema, category, self.options, budget)
        if budget is not None:
            budget.publish()
        return result

    def _implies_fanout(self, schema: DimensionSchema, node: Node) -> ImplicationResult:
        """Theorem 2: ``ds |= alpha`` iff the root of ``alpha`` is
        unsatisfiable once ``NOT alpha`` joins the constraints.  The name
        is kept for the benchmark's hooks."""
        root = validate_constraint(schema.hierarchy, node)
        extended = schema.with_constraints([Not(node)])
        result = self._dimsat_fanout(extended, root)
        return ImplicationResult(
            implied=not result.satisfiable,
            counterexample=result.witness,
            dimsat_result=result,
        )

    def _summarizable_fanout(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Tuple[Category, ...],
    ) -> bool:
        """Theorem 1: the implication test of every bottom category, the
        first failing one settling "no".  The name is kept for the
        benchmark's hooks."""
        FAULTS.worker()
        budget = self._fresh_budget()
        verdict = all(
            is_implied(schema, node, self.options, cache=self.cache, budget=budget)
            for bottom, node in summarizability_constraints(
                schema.hierarchy, target, sources
            )
            if bottom != ALL
        )
        if budget is not None:
            budget.publish()
        return verdict

    # ------------------------------------------------------------------
    # The batch API: cross-request dedup
    # ------------------------------------------------------------------

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Answer a batch of ``(schema, request)`` pairs.

        Requests are normalized (see :func:`normalize_request`), deduped
        by ``(schema fingerprint, canonical request)`` so each distinct
        question is decided exactly once per batch, and the unique
        decisions run on the calling thread (process mode: on the pool),
        each inside its own fresh budget.  Verdicts come back as booleans
        aligned with the input order: satisfiable / implied /
        summarizable.

        A request that fails (a budget abort, a worker fault) raises; use
        :meth:`try_decide_many` when the batch must survive individual
        failures.
        """
        results = self.try_decide_many(items)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results  # type: ignore[return-value]

    def try_decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[object]:
        """:meth:`decide_many` with per-request fault containment.

        Each element of the returned list (aligned with the input order)
        is either the boolean verdict or the exception instance that
        request's decision raised - one failed decision does not take
        down the rest of the batch.  Malformed requests still raise
        immediately from :func:`normalize_request` (they are caller bugs,
        not service faults).  Duplicated requests share one decision, so
        they also share one failure.
        """
        pairs = [(schema, normalize_request(request)) for schema, request in items]
        unique: Dict[Tuple[str, RequestKey], List[int]] = {}
        order: List[Tuple[Tuple[str, RequestKey], DimensionSchema, RequestKey]] = []
        for index, (schema, key) in enumerate(pairs):
            ukey = (schema.fingerprint(), key)
            if ukey not in unique:
                unique[ukey] = []
                order.append((ukey, schema, key))
            unique[ukey].append(index)
        deduped = len(pairs) - len(order)
        with self._lock:
            self.stats.batch_requests += len(pairs)
            self.stats.batch_deduped += deduped
        _M_DEDUPED.inc(deduped)
        if TRACER.enabled:
            TRACER.event(
                "engine.batch", requests=len(pairs), unique=len(order), deduped=deduped
            )

        results: Dict[Tuple[str, RequestKey], object] = {}
        executor = self._get_executor()
        if executor is not None:
            self._decide_many_process(executor, order, results)
        elif self.mode == "process":
            self._note_fallback()
        # Thread mode decides everything here; process mode only what a
        # broken pool left undecided.
        for ukey, schema, key in order:
            if ukey not in results:
                try:
                    results[ukey] = _verdict_of(_decide_inline(self, schema, key))
                except Exception as exc:
                    results[ukey] = exc

        return [results[(schema.fingerprint(), key)] for schema, key in pairs]

    def _note_fallback(self) -> None:
        with self._lock:
            self.stats.sequential_fallbacks += 1

    def _decide_many_process(
        self,
        executor: Executor,
        order: List[Tuple[Tuple[str, RequestKey], DimensionSchema, RequestKey]],
        results: Dict[Tuple[str, RequestKey], object],
    ) -> None:
        """Dispatch a deduped batch to the process pool.

        Schemas travel as canonical JSON text; workers re-intern them once
        per fingerprint (see :func:`_process_decide`).  A broken pool
        marks the engine's pool failed and leaves the remaining requests
        for the caller to decide in-process; other per-task failures are
        captured into ``results`` for the caller to classify.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.io.json_io import schema_to_json

        spec = self._budget_spec()
        options = self.options
        try:
            futures = {
                executor.submit(
                    _process_decide,
                    schema_to_json(schema),
                    schema.fingerprint(),
                    key,
                    options,
                    spec,
                ): ukey
                for ukey, schema, key in order
            }
            with self._lock:
                self.stats.tasks_dispatched += len(futures)
            _M_DISPATCHED.inc(len(futures))
            for future, ukey in futures.items():
                try:
                    results[ukey] = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    results[ukey] = exc
        except BrokenProcessPool:
            with self._lock:
                self._executor_failed = True
            self._note_fallback()


# ----------------------------------------------------------------------
# Request execution (shared by the calling thread and process workers)
# ----------------------------------------------------------------------


def _decide_inline(engine: Any, schema: DimensionSchema, request: Sequence[object]) -> object:
    """One request on the calling thread through the sequential kernel,
    with ``engine``'s cache, options and a fresh copy of its budget.

    The batch path and the resilience ladder's sequential rung (over a
    parallel or a compiled engine) both decide here; ``request`` is a
    normalized key or an ``("implies", node)`` pair.  Returns the kernel's
    result: a :class:`~repro.core.dimsat.DimsatResult`, an
    :class:`~repro.core.implication.ImplicationResult`, or the
    summarizability boolean.
    """
    return _decide(schema, request, engine.options, engine.cache, engine._fresh_budget())


def _decide(
    schema: DimensionSchema,
    request: Sequence[object],
    options: Optional[DimsatOptions],
    cache: Optional[DecisionCache],
    budget: Optional[DecisionBudget],
) -> object:
    # The per-decision fault checkpoint: the batch path (in-process or a
    # process worker) and the ladder's sequential rung pass through here
    # once per decision, so injected worker faults hit every rung of the
    # resilience ladder uniformly.
    FAULTS.worker()
    if cache is not None or not AUDIT.enabled:
        # Cached decisions are audited inside DecisionCache.memoize
        # (which also knows the hit/miss flag); only the uncached path
        # needs a record here.
        return _dispatch(schema, request, options, cache, budget)
    start = time.perf_counter()
    result = _dispatch(schema, request, options, cache, budget)
    AUDIT.record_decision(
        schema,
        normalize_request(request),
        _options_key(options),
        result,
        (time.perf_counter() - start) * 1000.0,
        cache_hit=False,
    )
    return result


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


#: Worker-side schema memo: fingerprint -> re-interned schema.  Rebuilding
#: a schema from JSON re-parses and hash-conses every constraint into the
#: worker's intern table, so all the kernel's identity-keyed memos work;
#: doing it once per fingerprint makes repeat traffic on a schema free.
_WORKER_SCHEMAS: Dict[str, DimensionSchema] = {}


def _process_decide(
    schema_json: str,
    fingerprint: str,
    key: RequestKey,
    options: Optional[DimsatOptions],
    budget_spec: Optional[BudgetSpec],
) -> bool:
    """Decide one request inside a process-pool worker."""
    from repro.core.decisioncache import default_decision_cache
    from repro.io.json_io import schema_from_json

    schema = _WORKER_SCHEMAS.get(fingerprint)
    if schema is None:
        schema = schema_from_json(schema_json)
        _WORKER_SCHEMAS[fingerprint] = schema
    budget = DecisionBudget.from_spec(budget_spec)
    # Each worker keeps its own process-wide cache warm across requests.
    return _verdict_of(
        _decide(schema, key, options, default_decision_cache(), budget)
    )
