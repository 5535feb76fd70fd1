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
constraints).  A schema-level check goes through the navigator's
decision engine, one check at a time in the search's cost order
(:func:`ask_summarizable`); an UNKNOWN answer means "not proven", so the
query falls back to the always-correct base scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro._types import Category
from repro.core.compile import resolve_engine
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.trace import TRACER
from repro.core.parallel import unknown_as_none
from repro.core.schema import DimensionSchema
from repro.core.summarizability import is_summarizable_in_instance
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
    """One schema-level summarizability check through ``engine``, as a
    batch of one (:meth:`try_decide_many`): the verdict, or ``None`` when
    the engine answered UNKNOWN (a
    :class:`~repro.errors.DecisionUnavailable`).  Any other failure
    raises.

    The OLAP layers ask every schema-level check through here and share
    one rule for ``None``: it means "not proven", and the caller
    memoizes nothing for it, so a later healthy check can still prove
    the rewriting.  The resilient engine's ladder has already counted
    it (``resilience.unknown_verdicts``).
    """
    (verdict,) = unknown_as_none(
        engine.try_decide_many([(schema, ("summarizable", target, sources))])
    )
    return verdict


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

    def _is_summarizable(self, target: Category, sources: FrozenSet[Category]) -> bool:
        context = self._verdict_context()
        key = (context, target, sources)
        cached = self._summarizable_cache.get(key)
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
        for _total, combo in candidates:
            combo_set = frozenset(combo)
            if any(subset < combo_set for subset in proven):
                self.stats.supersets_skipped += 1
                continue
            if self._is_summarizable(target, combo_set):
                views = [self._views[(c, aggregate.name, measure)] for c in combo]
                return combo, views
        return None
