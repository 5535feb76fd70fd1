"""Materialized-view selection driven by dimension constraints.

Section 6: "dimension constraints may play an important role in the
problem of selecting views to materialize in data cubes by supplying
meta-data to support the test of whether a selected set of views is
sufficient to compute all the required queries."

The module implements exactly that test plus two selectors on top of it:

* :func:`is_sufficient` / :func:`coverage` - can a set of materialized
  category views answer every target level, using only rewritings that
  schema-level summarizability *proves* correct?
* :func:`greedy_select` - the classical benefit-per-byte greedy of
  Harinarayan-Rajaraman-Ullman style lattice selection, with the lattice's
  naive "every ancestor is derivable" assumption replaced by the
  constraint-based summarizability test;
* :func:`exhaustive_select` - optimal selection by enumeration, for small
  problems and for validating the greedy.

The cost model is the standard row-count proxy: answering a target from a
view set costs the summed view sizes; answering from the base table costs
the fact-table size; materializing costs storage equal to view size.

Every entry point takes one ``engine`` argument, as the aggregate
navigator does: an engine object, or a
:func:`~repro.core.resilience.build_engine` name (default
``build_engine()``, the compiled tier over the process-wide decision
cache).  Each check is asked once, in the plan search's cost order,
through :func:`~repro.olap.navigator.ask_summarizable`; an UNKNOWN
answer means "not proven", so that target's plan falls back to the base
scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro._types import Category
from repro.core.compile import resolve_engine
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import OlapError
from repro.olap.navigator import ask_summarizable


@dataclass(frozen=True)
class ViewSelectionProblem:
    """One selection instance.

    ``targets`` maps each queried category to its query frequency (any
    positive weight); ``view_sizes`` estimates the cell count of each
    category's view; ``base_size`` is the fact-table row count.
    """

    schema: DimensionSchema
    targets: Mapping[Category, float]
    view_sizes: Mapping[Category, int]
    base_size: int
    max_rewrite_sources: int = 2

    def __post_init__(self) -> None:
        hierarchy = self.schema.hierarchy
        for category in list(self.targets) + list(self.view_sizes):
            if not hierarchy.has_category(category):
                raise OlapError(f"unknown category {category!r}")
        if self.base_size <= 0:
            raise OlapError("base_size must be positive")
        for category, weight in self.targets.items():
            if weight <= 0:
                raise OlapError(f"target {category!r} needs a positive weight")

    def size_of(self, category: Category) -> int:
        try:
            return int(self.view_sizes[category])
        except KeyError:
            raise OlapError(f"no size estimate for category {category!r}") from None

    def candidates(self) -> Tuple[Category, ...]:
        """Categories eligible for materialization (those with sizes)."""
        return tuple(sorted(self.view_sizes))


@dataclass
class Selection:
    """A chosen view set with its evaluation."""

    categories: FrozenSet[Category]
    storage: int
    query_cost: float
    answerable: Dict[Category, Tuple[Category, ...]] = field(default_factory=dict)

    @property
    def covered(self) -> FrozenSet[Category]:
        """Targets answerable without touching the base table."""
        return frozenset(t for t, plan in self.answerable.items() if plan)


class _SummarizabilityCache:
    """Memoized schema-level summarizability over one evaluation.

    A lock-free local dict over the engine, which avoids fingerprint
    hashing inside the plan search; the engine's decision cache makes
    verdicts carry over between evaluations (the greedy re-evaluates the
    same ``(target, sources)`` pairs for every candidate it trials).  An
    UNKNOWN check reads as not proven and stays out of the dict.
    """

    def __init__(self, schema: DimensionSchema, engine: Any):
        self.schema = schema
        self.engine = engine
        self._cache: Dict[Tuple[Category, FrozenSet[Category]], bool] = {}

    def check(self, target: Category, sources: FrozenSet[Category]) -> bool:
        key = (target, sources)
        cached = self._cache.get(key)
        if cached is None:
            cached = ask_summarizable(self.engine, self.schema, target, sources)
            if cached is None:
                return False
            self._cache[key] = cached
        return cached


def _cheapest_plan(
    problem: ViewSelectionProblem,
    cache: _SummarizabilityCache,
    target: Category,
    selected: FrozenSet[Category],
) -> Optional[Tuple[Tuple[Category, ...], int]]:
    """The cheapest proven plan for one target, or ``None`` (base scan).

    Returns the source tuple and its row cost; a materialized target
    answers from its own view.
    """
    if target in selected:
        return (target,), problem.size_of(target)
    hierarchy = problem.schema.hierarchy
    below = sorted(
        c for c in selected if c != target and hierarchy.reaches(c, target)
    )
    best: Optional[Tuple[Tuple[Category, ...], int]] = None
    limit = min(problem.max_rewrite_sources, len(below))
    for size in range(1, limit + 1):
        for combo in combinations(below, size):
            cost = sum(problem.size_of(c) for c in combo)
            if best is not None and cost >= best[1]:
                continue
            if cache.check(target, frozenset(combo)):
                best = (combo, cost)
    return best


def evaluate_selection(
    problem: ViewSelectionProblem,
    selected: Iterable[Category],
    engine: object = None,
) -> Selection:
    """Storage and weighted query cost of a concrete view set."""
    chosen = frozenset(selected)
    # Per-evaluation span: one trial of the greedy/exhaustive selectors,
    # with the nested summarizability spans attributing its cost.
    with TRACER.span(
        "viewselect.evaluate", views=sorted(chosen), targets=len(problem.targets)
    ) as span:
        cache = _SummarizabilityCache(problem.schema, resolve_engine(engine))
        answerable: Dict[Category, Tuple[Category, ...]] = {}
        total = 0.0
        for target, weight in problem.targets.items():
            plan = _cheapest_plan(problem, cache, target, chosen)
            if plan is None:
                answerable[target] = ()
                total += weight * problem.base_size
            else:
                answerable[target] = plan[0]
                total += weight * plan[1]
        storage = sum(problem.size_of(c) for c in chosen)
        span.set(query_cost=total, storage=storage)
    return Selection(chosen, storage, total, answerable)


def coverage(
    problem: ViewSelectionProblem,
    selected: Iterable[Category],
    engine: object = None,
) -> Dict[Category, bool]:
    """Per-target verdict: answerable from the views without a base scan."""
    evaluation = evaluate_selection(problem, selected, engine)
    return {
        target: bool(plan) for target, plan in evaluation.answerable.items()
    }


def is_sufficient(
    problem: ViewSelectionProblem,
    selected: Iterable[Category],
    engine: object = None,
) -> bool:
    """Section 6's test: do the selected views suffice for all targets?"""
    return all(coverage(problem, selected, engine).values())


def greedy_select(
    problem: ViewSelectionProblem,
    storage_budget: int,
    engine: object = None,
) -> Selection:
    """Benefit-per-cell greedy selection under a storage budget.

    Starts from the empty set (every query scans the base table) and
    repeatedly materializes the candidate with the highest query-cost
    reduction per stored cell, while it fits the budget and helps.
    """
    engine = resolve_engine(engine)
    with TRACER.span(
        "viewselect.greedy",
        candidates=len(problem.candidates()),
        budget=storage_budget,
    ) as span:
        chosen: FrozenSet[Category] = frozenset()
        current = evaluate_selection(problem, chosen, engine)
        rounds = 0
        while True:
            best_gain = 0.0
            best_candidate: Optional[Category] = None
            best_eval: Optional[Selection] = None
            for candidate in problem.candidates():
                if candidate in chosen:
                    continue
                size = problem.size_of(candidate)
                if current.storage + size > storage_budget:
                    continue
                trial = evaluate_selection(problem, chosen | {candidate}, engine)
                gain = (current.query_cost - trial.query_cost) / max(1, size)
                if gain > best_gain:
                    best_gain = gain
                    best_candidate = candidate
                    best_eval = trial
            if best_candidate is None or best_eval is None:
                span.set(rounds=rounds, selected=sorted(current.categories))
                return current
            rounds += 1
            chosen = chosen | {best_candidate}
            current = best_eval


def exhaustive_select(
    problem: ViewSelectionProblem,
    storage_budget: int,
    engine: object = None,
) -> Selection:
    """Optimal selection by subset enumeration (small candidate sets).

    Ties break toward smaller storage, then lexicographic category order,
    so the result is deterministic.
    """
    engine = resolve_engine(engine)
    candidates = problem.candidates()
    if len(candidates) > 16:
        raise OlapError(
            "exhaustive selection is limited to 16 candidates; "
            "use greedy_select for larger problems"
        )
    best: Optional[Selection] = None
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            storage = sum(problem.size_of(c) for c in combo)
            if storage > storage_budget:
                continue
            trial = evaluate_selection(problem, combo, engine)
            key = (trial.query_cost, trial.storage, tuple(sorted(trial.categories)))
            if best is None or key < (
                best.query_cost,
                best.storage,
                tuple(sorted(best.categories)),
            ):
                best = trial
    assert best is not None  # the empty set always fits
    return best


def naive_lattice_coverage(
    problem: ViewSelectionProblem, selected: Iterable[Category]
) -> Dict[Category, bool]:
    """The classical (constraint-blind) lattice assumption, for the E16
    comparison: a target is considered answerable whenever *some* selected
    category lies below it in the hierarchy.

    In heterogeneous dimensions this over-promises: the rewriting it
    licenses can silently drop or double-count facts.
    """
    chosen = frozenset(selected)
    hierarchy = problem.schema.hierarchy
    result: Dict[Category, bool] = {}
    for target in problem.targets:
        result[target] = target in chosen or any(
            hierarchy.reaches(c, target) for c in chosen if c != target
        )
    return result
