"""The aggregate navigator (Sections 1.2 and 6).

Kimball's *aggregate navigator* rewrites an incoming aggregate query to
use precomputed aggregate views instead of the base fact table.  The
paper's point is that in heterogeneous dimensions the rewriting is only
correct when the target category is *summarizable* from the materialized
categories - and that dimension constraints let the system decide this.

:class:`AggregateNavigator` implements that loop:

1. queries for a materialized category are answered directly;
2. otherwise it searches subsets of the materialized categories for one
   the target is summarizable from (Theorem 1) and recombines
   (Definition 6 RHS);
3. otherwise it falls back to a base-table scan (or raises when
   ``rewrites_only`` is set).

Summarizability can be checked at the *instance* level (valid for the
current data) or the *schema* level (valid for every instance of the
dimension schema - the safe choice when data evolves under the same
constraints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro._types import Category
from repro.core.compile import resolve_engine
from repro.core.decisioncache import USE_DEFAULT_CACHE
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.trace import TRACER
from repro.core.parallel import ParallelDecisionEngine, unknown_as_none
from repro.core.schema import DimensionSchema
from repro.core.summarizability import (
    is_summarizable_in_instance,
    is_summarizable_in_schema,
)
from repro.errors import NavigationError, OlapError
from repro.olap.aggregates import AggregateFunction
from repro.olap.cubeview import CubeView, cube_view, recombine
from repro.olap.facttable import FactTable

@dataclass(frozen=True)
class QueryPlan:
    """How a cube-view query was (or would be) answered.

    ``kind`` is ``"materialized"``, ``"rewritten"``, or ``"base-scan"``;
    ``sources`` lists the views a rewriting reads; ``cost`` counts the
    rows read under the standard row-count cost model.
    """

    kind: str
    target: Category
    sources: Tuple[Category, ...]
    cost: int


@dataclass
class NavigatorStats:
    """Cumulative counters across a navigator's lifetime."""

    queries: int = 0
    materialized_hits: int = 0
    rewrites: int = 0
    base_scans: int = 0
    rows_read: int = 0
    summarizability_checks: int = 0
    supersets_skipped: int = 0
    #: Batched checks a resilient engine answered UNKNOWN.  The navigator
    #: treats those as not-proven (a base scan is always correct) and
    #: never caches them, so a later healthy check can still prove them.
    unknown_verdicts: int = 0


_STATS = METRICS.stats_family("navigator.", NavigatorStats)


class AggregateNavigator:
    """Answers single-category cube views from materialized aggregates.

    Parameters
    ----------
    facts:
        The base fact table.
    schema:
        Optional dimension schema.  When given, summarizability is decided
        at the schema level (sound for any future instance); otherwise the
        current instance decides.
    max_rewrite_sources:
        Upper bound on how many views a rewriting may combine.
    rewrites_only:
        When true, a query with no correct rewriting raises
        :class:`NavigationError` instead of scanning the base table.
    cache:
        A :class:`~repro.core.decisioncache.DecisionCache` for schema-level
        summarizability verdicts (default: the process-wide one); pass
        ``None`` to disable it.
    engine:
        Optional :class:`~repro.core.parallel.ParallelDecisionEngine`,
        or the string ``"compiled"`` to decide through a
        :class:`~repro.core.compile.CompiledDecisionEngine` over the
        same cache.  When set (and ``schema`` is given), the rewriting
        search batches its candidate summarizability checks through
        :meth:`~repro.core.parallel.ParallelDecisionEngine.decide_many`
        instead of deciding them one by one.
    """

    def __init__(
        self,
        facts: FactTable,
        schema: Optional[DimensionSchema] = None,
        max_rewrite_sources: int = 3,
        rewrites_only: bool = False,
        cache: object = USE_DEFAULT_CACHE,
        engine: Optional[ParallelDecisionEngine] = None,
    ) -> None:
        self.facts = facts
        self.instance: DimensionInstance = facts.instance
        self.schema = schema
        self.max_rewrite_sources = max_rewrite_sources
        self.rewrites_only = rewrites_only
        self.cache = cache
        self.engine = resolve_engine(engine, cache)
        self.stats = _STATS.track(self, NavigatorStats())
        self._views: Dict[Tuple[Category, str, str], CubeView] = {}
        # Verdicts are keyed by a *context* - the schema fingerprint for
        # schema-level checks, an instance-identity marker otherwise - so
        # schema-level entries survive fact-table reloads while
        # instance-level entries die with the instance they judged.
        self._summarizable_cache: Dict[
            Tuple[object, Category, FrozenSet[Category]], bool
        ] = {}
        # Source sets proven summarizable per target, for the superset
        # short-circuit in the rewriting search.
        self._proven_sources: Dict[
            Tuple[object, Category], List[FrozenSet[Category]]
        ] = {}

    def _verdict_context(self) -> object:
        """The cache context current verdicts belong to."""
        if self.schema is not None:
            return self.schema.fingerprint()
        return ("instance", id(self.instance))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(
        self, category: Category, aggregate: AggregateFunction, measure: str
    ) -> CubeView:
        """Build and cache the cube view at ``category``."""
        key = (category, aggregate.name, measure)
        view = cube_view(self.facts, category, aggregate, measure)
        self._views[key] = view
        return view

    def materialized_categories(
        self, aggregate: AggregateFunction, measure: str
    ) -> List[Category]:
        """Categories with a stored view for this aggregate and measure."""
        return sorted(
            category
            for (category, agg_name, m) in self._views
            if agg_name == aggregate.name and m == measure
        )

    def drop(self, category: Category, aggregate: AggregateFunction, measure: str) -> None:
        """Discard a materialized view (no-op when absent)."""
        self._views.pop((category, aggregate.name, measure), None)

    def reload_facts(self, facts: FactTable) -> None:
        """Swap in a new fact table (e.g. a nightly reload) and rebuild
        every materialized view over it.

        Schema-level summarizability verdicts are keyed by schema
        fingerprint, so they survive the reload even when the new fact
        table carries a *rebuilt* (structurally equal) instance;
        instance-level verdicts are dropped with the instance that
        produced them.
        """
        if facts.instance.hierarchy != self.instance.hierarchy:
            raise OlapError("reloaded facts belong to a different dimension")
        old_context = ("instance", id(self.instance))
        self.facts = facts
        self.instance = facts.instance
        for key in [k for k in self._summarizable_cache if k[0] == old_context]:
            del self._summarizable_cache[key]
        for proven_key in [k for k in self._proven_sources if k[0] == old_context]:
            del self._proven_sources[proven_key]
        for category, agg_name, measure in list(self._views):
            view_key = (category, agg_name, measure)
            aggregate = self._views[view_key].aggregate
            self._views[view_key] = cube_view(
                self.facts, category, aggregate, measure
            )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def answer(
        self, category: Category, aggregate: AggregateFunction, measure: str
    ) -> Tuple[CubeView, QueryPlan]:
        """Answer ``CubeView(d, F, category, aggregate(measure))``.

        Returns the view together with the plan that produced it.
        """
        # Per-query span: which plan answered, at what row cost, and (via
        # the nested summarizability/implication/dimsat spans) where a
        # slow rewriting search spent its time.
        with TRACER.span(
            "navigator.answer", category=category, aggregate=aggregate.name
        ) as span:
            view, plan = self._answer(category, aggregate, measure)
            span.set(plan=plan.kind, cost=plan.cost)
        return view, plan

    def _answer(
        self, category: Category, aggregate: AggregateFunction, measure: str
    ) -> Tuple[CubeView, QueryPlan]:
        self.stats.queries += 1
        key = (category, aggregate.name, measure)
        stored = self._views.get(key)
        if stored is not None:
            self.stats.materialized_hits += 1
            plan = QueryPlan("materialized", category, (category,), cost=0)
            return stored, plan

        rewrite = self._find_rewriting(category, aggregate, measure)
        if rewrite is not None:
            sources, views = rewrite
            result = recombine(self.instance, category, views, aggregate)
            self.stats.rewrites += 1
            self.stats.rows_read += result.rows_scanned
            plan = QueryPlan("rewritten", category, sources, cost=result.rows_scanned)
            return result, plan

        if self.rewrites_only:
            raise NavigationError(
                f"no correct rewriting for category {category!r} from "
                f"{self.materialized_categories(aggregate, measure)}"
            )
        result = cube_view(self.facts, category, aggregate, measure)
        self.stats.base_scans += 1
        self.stats.rows_read += result.rows_scanned
        plan = QueryPlan("base-scan", category, (), cost=result.rows_scanned)
        return result, plan

    # ------------------------------------------------------------------
    # Rewriting search
    # ------------------------------------------------------------------

    def summarizable_many(
        self, queries: Iterable[Tuple[Category, Iterable[Category]]]
    ) -> List[bool]:
        """Batch-decide summarizability for many ``(target, sources)`` pairs.

        With a schema and an engine attached, the uncached pairs go out as
        one deduped ``try_decide_many`` batch; otherwise they are decided
        one by one.  Either way every verdict lands in the
        navigator's local caches, so a subsequent rewriting search finds
        them for free.  Returns verdicts aligned with the input order.
        """
        pairs = [(target, frozenset(sources)) for target, sources in queries]
        if self.schema is None or self.engine is None:
            return [self._is_summarizable(target, s) for target, s in pairs]
        context = self._verdict_context()
        missing: List[Tuple[Category, FrozenSet[Category]]] = []
        seen = set()
        for target, sources in pairs:
            key = (context, target, sources)
            if key not in self._summarizable_cache and (target, sources) not in seen:
                seen.add((target, sources))
                missing.append((target, sources))
        if missing:
            requests = [
                (self.schema, ("summarizable", target, sources))
                for target, sources in missing
            ]
            verdicts = unknown_as_none(self.engine.try_decide_many(requests))
            for (target, sources), verdict in zip(missing, verdicts):
                self.stats.summarizability_checks += 1
                if verdict is None:
                    # UNKNOWN is conservatively treated as not-proven *for
                    # this batch only* - nothing is cached for it, so no
                    # degraded verdict can ever stick.
                    self.stats.unknown_verdicts += 1
                    if TRACER.enabled:
                        TRACER.event(
                            "navigator.unknown",
                            target=target,
                            sources=sorted(sources),
                        )
                    continue
                self._summarizable_cache[(context, target, sources)] = verdict
                if verdict:
                    self._proven_sources.setdefault((context, target), []).append(
                        sources
                    )
        # ``.get(..., False)``: an UNKNOWN verdict has no cache entry and
        # reads as "not proven summarizable" - sound, because every caller
        # uses a positive verdict only to *replace* a base scan.
        return [
            self._summarizable_cache.get((context, target, sources), False)
            for target, sources in pairs
        ]

    def _is_summarizable(self, target: Category, sources: FrozenSet[Category]) -> bool:
        context = self._verdict_context()
        key = (context, target, sources)
        cached = self._summarizable_cache.get(key)
        if cached is not None:
            return cached
        self.stats.summarizability_checks += 1
        if self.schema is not None:
            verdict = is_summarizable_in_schema(
                self.schema, target, sources, cache=self.cache
            )
        else:
            verdict = is_summarizable_in_instance(self.instance, target, sources)
        self._summarizable_cache[key] = verdict
        if verdict:
            self._proven_sources.setdefault((context, target), []).append(sources)
        return verdict

    def _find_rewriting(
        self, target: Category, aggregate: AggregateFunction, measure: str
    ) -> Optional[Tuple[Tuple[Category, ...], List[CubeView]]]:
        """The cheapest proven-correct rewriting, if any.

        Candidate source sets are subsets of the materialized categories
        below the target, tried in order of increasing total view size so
        the first hit is also the cheapest under the row-count model.

        Strict supersets of an already-proven source set are skipped
        without a summarizability check: when the proven subset is itself
        available, its plan reads no more rows and sorts no later in the
        candidate order, so the superset's plan is never the answer.  This
        is plan-redundancy pruning, not verdict inference - summarizability
        is not monotone under adding sources, so a superset's *verdict*
        cannot be inferred and is simply never needed here.
        """
        available = [
            category
            for category in self.materialized_categories(aggregate, measure)
            if category != target
            and self.instance.hierarchy.reaches(category, target)
        ]
        available_set = frozenset(available)
        proven = [
            sources
            for sources in self._proven_sources.get(
                (self._verdict_context(), target), []
            )
            if sources <= available_set
        ]
        candidates: List[Tuple[int, Tuple[Category, ...]]] = []
        for size in range(1, min(self.max_rewrite_sources, len(available)) + 1):
            for combo in combinations(available, size):
                total = sum(
                    len(self._views[(c, aggregate.name, measure)]) for c in combo
                )
                candidates.append((total, combo))
        candidates.sort()
        batch_verdicts: Dict[FrozenSet[Category], bool] = {}
        if self.engine is not None and self.schema is not None and candidates:
            # Batch every candidate check through the engine up front: the
            # verdicts land in the local cache, so the cost-ordered loop
            # below only does lookups.  (This trades the sequential path's
            # first-hit early exit for one deduped concurrent batch.)
            todo = [
                combo
                for _total, combo in candidates
                if not any(subset < frozenset(combo) for subset in proven)
            ]
            verdicts = self.summarizable_many((target, combo) for combo in todo)
            batch_verdicts = {
                frozenset(combo): verdict
                for combo, verdict in zip(todo, verdicts)
            }
        for _total, combo in candidates:
            combo_set = frozenset(combo)
            if any(subset < combo_set for subset in proven):
                self.stats.supersets_skipped += 1
                continue
            # Read the batch result directly rather than through
            # ``_is_summarizable``: an UNKNOWN verdict left no cache entry,
            # and re-deciding it sequentially here would re-expose this
            # query to the very fault the ladder already degraded around.
            verdict = (
                batch_verdicts[combo_set]
                if combo_set in batch_verdicts
                else self._is_summarizable(target, combo_set)
            )
            if verdict:
                views = [self._views[(c, aggregate.name, measure)] for c in combo]
                return combo, views
        return None
