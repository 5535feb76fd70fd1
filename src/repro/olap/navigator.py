"""The aggregate navigator (Sections 1.2 and 6).

Kimball's *aggregate navigator* rewrites an incoming aggregate query to
use precomputed aggregate views instead of the base fact table.  The
paper's point is that in heterogeneous dimensions the rewriting is only
correct when the target category is *summarizable* from the materialized
categories - and that dimension constraints let the system decide this.

:class:`AggregateNavigator` implements that loop:

1. queries for a materialized category are answered directly;
2. otherwise it recombines (Definition 6 RHS) the cheapest set of
   materialized categories the target is proven summarizable from
   (Theorem 1), found by :func:`cheapest_rewriting` - the search view
   selection runs too; a tie in rows read goes to the smaller set;
3. otherwise it falls back to a base-table scan (or raises when
   ``rewrites_only`` is set).

Summarizability can be checked at the *instance* level (valid for the
current data) or the *schema* level (valid for every instance of the
dimension schema - the safe choice when data evolves under the same
constraints).  A schema-level check goes through the navigator's
decision engine, one check at a time in the search's cost order
(:func:`ask_summarizable`); an UNKNOWN answer means "not proven", so the
query falls back to the always-correct base scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro._types import Category
from repro.core.compile import resolve_engine
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.trace import TRACER
from repro.core.schema import DimensionSchema
from repro.core.summarizability import is_summarizable_in_instance
from repro.errors import DecisionUnavailable, NavigationError, OlapError
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
    #: Checks a resilient engine answered UNKNOWN.  The navigator treats
    #: those as not proven (a base scan is always correct) and never
    #: caches them, so a later healthy check can still prove them.
    unknown_verdicts: int = 0


_STATS = METRICS.stats_family("navigator.", NavigatorStats)


def ask_summarizable(
    engine: Any,
    schema: DimensionSchema,
    target: Category,
    sources: FrozenSet[Category],
) -> Optional[bool]:
    """One schema-level summarizability check through ``engine``: the
    verdict, or ``None`` when the engine answered UNKNOWN (a
    :class:`~repro.errors.DecisionUnavailable`).  Any other failure
    raises.

    The OLAP layers ask every schema-level check through here and share
    one rule for ``None``: it means "not proven", and the caller
    memoizes nothing for it, so a later healthy check can still prove
    the rewriting.  The resilient engine's ladder has already counted
    it (``resilience.unknown_verdicts``).
    """
    try:
        return engine.is_summarizable(schema, target, sources)
    except DecisionUnavailable:
        return None


def cheapest_rewriting(
    hierarchy: HierarchySchema,
    target: Category,
    sizes: Mapping[Category, int],
    max_sources: int,
    proven: Callable[[FrozenSet[Category]], bool],
) -> Optional[Tuple[Tuple[Category, ...], int]]:
    """The cheapest proven source set for ``target`` and its row cost, or
    ``None``.

    Candidates are the sets of 1..``max_sources`` categories of
    ``sizes`` strictly below ``target``, checked with ``proven`` in order
    of (summed size, set size, sorted names): the first proven set is
    the cheapest, a tie in rows read goes to the smaller set, and no set
    after it is checked, or even built.  Sizes are at least 0, so a
    proven set sorts before all of its supersets.
    """
    below = sorted(c for c in sizes if c != target and hierarchy.reaches(c, target))
    for cost, combo in _by_cost(below, sizes, max_sources):
        if proven(frozenset(combo)):
            return combo, cost
    return None


def _by_cost(
    below: List[Category], sizes: Mapping[Category, int], max_sources: int
) -> Iterator[Tuple[int, Tuple[Category, ...]]]:
    """The sets of 1..``max_sources`` categories of the sorted ``below``,
    with their summed sizes, in order of (summed size, set size, names).

    They are generated best-first from a heap seeded with the singletons;
    a popped set is extended only by categories after its last one, so
    each set is pushed once, by its prefix.  Sizes are at least 0, so a
    set never sorts before its prefix and the heap pops in sorted order:
    the caller pays only for the sets it reads.
    """
    if max_sources < 1:
        return
    heap = [(sizes[c], 1, (c,), index) for index, c in enumerate(below)]
    heapq.heapify(heap)
    while heap:
        cost, n, combo, last = heapq.heappop(heap)
        yield cost, combo
        if n < max_sources:
            for index in range(last + 1, len(below)):
                extra = below[index]
                heapq.heappush(heap, (cost + sizes[extra], n + 1, combo + (extra,), index))


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
    engine:
        The decision engine that answers schema-level checks: an engine
        object, or a :func:`~repro.core.resilience.build_engine` name.
        The default is ``build_engine()``, the compiled tier over the
        process-wide decision cache.  The rewriting search asks it one
        check at a time, in cost order, and stops at the first proven
        candidate.
    """

    def __init__(
        self,
        facts: FactTable,
        schema: Optional[DimensionSchema] = None,
        max_rewrite_sources: int = 3,
        rewrites_only: bool = False,
        engine: object = None,
    ) -> None:
        self.facts = facts
        self.instance: DimensionInstance = facts.instance
        self.schema = schema
        self.max_rewrite_sources = max_rewrite_sources
        self.rewrites_only = rewrites_only
        self.engine = resolve_engine(engine)
        self.stats = _STATS.track(self, NavigatorStats())
        self._views: Dict[Tuple[Category, str, str], CubeView] = {}
        # Verdicts of the current schema, or of the current instance when
        # there is none; a schema edit or (instance-level) a reload
        # clears them.
        self._verdicts: Dict[Tuple[Category, FrozenSet[Category]], bool] = {}

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

        Schema-level summarizability verdicts do not depend on the
        instance, so they survive the reload; instance-level verdicts are
        dropped with the instance that produced them.
        """
        if facts.instance.hierarchy != self.instance.hierarchy:
            raise OlapError("reloaded facts belong to a different dimension")
        self.facts = facts
        self.instance = facts.instance
        if self.schema is None:
            self._verdicts.clear()
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

    def _is_summarizable(self, target: Category, sources: FrozenSet[Category]) -> bool:
        key = (target, sources)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        self.stats.summarizability_checks += 1
        if self.schema is None:
            verdict = is_summarizable_in_instance(self.instance, target, sources)
        else:
            answer = ask_summarizable(self.engine, self.schema, target, sources)
            if answer is None:
                self.stats.unknown_verdicts += 1
                if TRACER.enabled:
                    TRACER.event(
                        "navigator.unknown", target=target, sources=sorted(sources)
                    )
                return False
            verdict = answer
        self._verdicts[key] = verdict
        return verdict

    def _find_rewriting(
        self, target: Category, aggregate: AggregateFunction, measure: str
    ) -> Optional[Tuple[Tuple[Category, ...], List[CubeView]]]:
        """The cheapest proven-correct rewriting, if any
        (:func:`cheapest_rewriting` over the stored views' sizes)."""
        views = {
            category: view
            for (category, agg_name, m), view in self._views.items()
            if agg_name == aggregate.name and m == measure
        }
        found = cheapest_rewriting(
            self.instance.hierarchy,
            target,
            {category: len(view) for category, view in views.items()},
            self.max_rewrite_sources,
            lambda sources: self._is_summarizable(target, sources),
        )
        if found is None:
            return None
        sources, _cost = found
        return sources, [views[c] for c in sources]
