"""Summarizability (Section 3.3, Theorem 1).

A category ``c`` is *summarizable* from a set ``S`` of categories in a
dimension ``d`` when, for every fact table and every distributive aggregate
function, the cube view at ``c`` can be recomputed from the cube views at
the categories of ``S`` (Definition 6).  Theorem 1 characterizes this with
a dimension constraint per bottom category::

    c_b.c  IMPLIES  one( c_b.ci.c  for ci in S )

that is, every base member reaching ``c`` must reach it through exactly
one of the categories in ``S``.  This module builds that constraint and
tests it at two levels:

* **instance level** - evaluate the constraint over a concrete
  :class:`~repro.core.instance.DimensionInstance` (Definition 4);
* **schema level** - decide whether every instance of a
  :class:`~repro.core.schema.DimensionSchema` satisfies it, via the
  implication test of :mod:`repro.core.implication`.

The OLAP navigator (:mod:`repro.olap.navigator`) consumes the instance
level test; the cross-validation experiment (E12) verifies the
characterization against Definition 6 executed on real fact tables.

Summarizability reduces to implication, which reduces to DIMSAT, so
this is the kernel module that sees all three procedures: it hosts
:func:`decide`, the kernel's one dispatch of a decision request.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.constraints.ast import FALSE, ExactlyOne, Implies, Node, RollsUpAtom, ThroughAtom
from repro.constraints.semantics import satisfies
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE, DecisionCache, resolve_cache
from repro.core.dimsat import dimsat
from repro.core.hierarchy import ALL, Category, HierarchySchema
from repro.core.implication import implies, is_implied
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.request import request_key, resolve_request
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import SchemaError

_M_DECISIONS = METRICS.counter("summarizability.decisions")


def summarizability_constraint(
    bottom: Category, target: Category, sources: Iterable[Category]
) -> Node:
    """The Theorem 1 constraint for one bottom category.

    ``c_b.c IMPLIES one(c_b.ci.c, ...)``; with an empty source set the
    consequent is ``FALSE`` (no base member may reach the target at all).
    """
    source_list = sorted(set(sources))
    antecedent = RollsUpAtom(bottom, target)
    if not source_list:
        consequent: Node = FALSE
    else:
        consequent = ExactlyOne(
            tuple(ThroughAtom(bottom, ci, target) for ci in source_list)
        )
    return Implies(antecedent, consequent)


def summarizability_constraints(
    hierarchy: HierarchySchema, target: Category, sources: Iterable[Category]
) -> List[Tuple[Category, Node]]:
    """The Theorem 1 constraint for every bottom category, as
    ``(bottom, constraint)`` pairs."""
    sources = list(sources)
    return [
        (bottom, summarizability_constraint(bottom, target, sources))
        for bottom in sorted(hierarchy.bottom_categories())
    ]


def is_summarizable_in_instance(
    instance: DimensionInstance,
    target: Category,
    sources: Iterable[Category],
) -> bool:
    """Theorem 1 at the instance level.

    >>> from repro.generators.location import location_instance
    >>> d = location_instance()
    >>> is_summarizable_in_instance(d, "Country", ["City"])
    True
    >>> is_summarizable_in_instance(d, "Country", ["State", "Province"])
    False
    """
    _check_categories(instance.hierarchy, target, sources)
    for bottom, node in summarizability_constraints(
        instance.hierarchy, target, sources
    ):
        if not satisfies(instance, node, root=bottom):
            return False
    return True


def is_summarizable_in_schema(
    schema: DimensionSchema,
    target: Category,
    sources: Iterable[Category],
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> bool:
    """Theorem 1 at the schema level: the constraint must be *implied*.

    True exactly when ``target`` is summarizable from ``sources`` in every
    instance of the schema, which is the test an aggregate navigator needs
    before trusting a rewriting for all future data.

    The verdict is memoized in ``cache`` (a
    :class:`~repro.core.decisioncache.DecisionCache`; default the
    process-wide one) keyed by schema fingerprint, target, and source set;
    pass ``cache=None`` for the uncached path.  See :func:`decide`.
    """
    return decide(schema, ("summarizable", target, sources), cache=cache, budget=budget)  # type: ignore[return-value]


def decide(
    schema: DimensionSchema,
    request: Sequence[object],
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> object:
    """Decide one request on the interpreted kernel: the kernel's one
    dispatch.

    ``request`` is ``("dimsat", category)``, ``("implies", constraint)``
    or ``("summarizable", target, sources)`` in any form
    :func:`~repro.core.request.resolve_request` accepts.  The verdict is
    memoized in ``cache`` (default: the process-wide
    :func:`~repro.core.decisioncache.default_decision_cache`) under
    :func:`~repro.core.request.request_key`; pass ``cache=None`` to
    compute it fresh.  ``budget`` bounds the search and is not part of
    the key: a budget-aborted decision raises
    :class:`~repro.errors.BudgetExceeded` and caches nothing.

    Returns the kernel's result: a
    :class:`~repro.core.dimsat.DimsatResult`, an
    :class:`~repro.core.implication.ImplicationResult`, or the
    summarizability boolean.

    >>> from repro.generators.location import location_schema
    >>> decide(location_schema(), ("summarizable", "Country", ["City"]))
    True
    """
    request = resolve_request(request)
    resolved = resolve_cache(cache)
    compute = partial(_compute, schema, request, resolved, budget)
    if resolved is None:
        return compute()
    return resolved.memoize(schema, request_key(request), compute)


def _compute(
    schema: DimensionSchema,
    request: Tuple[Any, ...],
    cache: Optional[DecisionCache],
    budget: Optional[DecisionBudget],
) -> object:
    """One resolved request computed on the kernel: Theorem 3's search,
    Theorem 2's reduction, or Theorem 1's bottom loop, whose per-bottom
    implication tests go through ``cache`` so overlapping source sets
    share work."""
    kind = request[0]
    if kind == "dimsat":
        return dimsat(schema, request[1], budget=budget)
    if kind == "implies":
        return implies(schema, request[1], cache=None, budget=budget)
    return _is_summarizable_uncached(schema, request[1], request[2], cache, budget)


def _is_summarizable_uncached(
    schema: DimensionSchema,
    target: Category,
    sources: Iterable[Category],
    implication_cache: object,
    budget: Optional[DecisionBudget] = None,
) -> bool:
    """Theorem 1 on the interpreted kernel; per-bottom implication tests
    go through ``implication_cache`` so overlapping source sets share
    work."""
    return summarizable_by_bottoms(
        schema,
        target,
        sources,
        lambda _bottom, node: is_implied(
            schema, node, cache=implication_cache, budget=budget
        ),
    )


def summarizable_by_bottoms(
    schema: DimensionSchema,
    target: Category,
    sources: Iterable[Category],
    implied: Callable[[Category, Node], bool],
) -> bool:
    """The Theorem 1 loop: ``implied(bottom, constraint)`` decides each
    bottom category's constraint, and the first failing bottom settles
    "no".  The interpreted kernel and the compiled tier differ only in
    the implication test they pass.  An unknown target or source raises
    :class:`~repro.errors.SchemaError` before any test runs."""
    _check_categories(schema.hierarchy, target, sources)
    _M_DECISIONS.inc()
    with TRACER.span(
        "summarizability.decide", target=target, sources=sorted(sources)
    ) as outer:
        for bottom, node in summarizability_constraints(
            schema.hierarchy, target, sources
        ):
            if bottom == ALL:
                continue
            # One span per bottom category: Theorem 1 is one implication
            # test per bottom, and this is where a slow verdict's time goes.
            with TRACER.span(
                "summarizability.bottom", bottom=bottom, target=target
            ) as span:
                verdict = implied(bottom, node)
                span.set(implied=verdict)
            if not verdict:
                outer.set(summarizable=False)
                return False
        outer.set(summarizable=True)
    return True


def summarizability_provenance(
    schema: DimensionSchema, target: Category, sources: Iterable[Category]
):
    """The dependency set of a schema-level summarizability verdict.

    Theorem 1 runs one implication test per bottom category, so the
    dependency cone is the union of every bottom's upward closure
    (usually the whole hierarchy) *and* the bottom set itself: an edit
    that changes which categories are bottoms changes the quantifier,
    so such verdicts never survive it.
    """
    from repro.core.provenance import cone_provenance

    bottoms = schema.hierarchy.bottom_categories()
    roots = set(bottoms) | {target} | set(sources)
    return cone_provenance(schema, "summarizable", roots, bottoms=bottoms)


def _check_categories(
    hierarchy: HierarchySchema, target: Category, sources: Iterable[Category]
) -> None:
    for category in [target, *sources]:
        if not hierarchy.has_category(category):
            raise SchemaError(f"unknown category {category!r}")


def summarizable_sets(
    schema: DimensionSchema,
    target: Category,
    candidates: Optional[Iterable[Category]] = None,
    max_size: int = 3,
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> List[FrozenSet[Category]]:
    """Minimal source sets from which ``target`` is schema-summarizable.

    Searches subsets of ``candidates`` (default: every category strictly
    between some bottom category and ``target``) by increasing size and
    keeps only minimal sets; supersets of a found set are skipped.  This
    is the search an OLAP system runs when choosing which aggregate views
    suffice to answer a query level (Section 6's view-selection use case).
    """
    hierarchy = schema.hierarchy
    if candidates is None:
        pool: Set[Category] = set()
        for category in hierarchy.categories:
            if category in (ALL, target):
                continue
            if hierarchy.reaches(category, target):
                pool.add(category)
        candidates = pool
    candidate_list = sorted(set(candidates))

    found: List[FrozenSet[Category]] = []
    for size in range(1, max_size + 1):
        for combo in combinations(candidate_list, size):
            combo_set = frozenset(combo)
            if any(known <= combo_set for known in found):
                continue
            if is_summarizable_in_schema(schema, target, combo_set, cache=cache):
                found.append(combo_set)
    return found


def summarizability_matrix(
    instance: DimensionInstance,
    targets: Optional[Sequence[Category]] = None,
    singletons: Optional[Sequence[Category]] = None,
) -> List[Tuple[Category, Category, bool]]:
    """Instance-level summarizability for all (target, {source}) pairs.

    A compact overview used by the heterogeneity-audit example and the
    DNF-loss benchmark (E14): each row says whether the cube view at
    ``target`` can be derived from the one at ``source`` alone.
    """
    hierarchy = instance.hierarchy
    all_categories = sorted(hierarchy.categories - {ALL})
    targets = list(targets) if targets is not None else all_categories
    singletons = list(singletons) if singletons is not None else all_categories
    rows: List[Tuple[Category, Category, bool]] = []
    for target in targets:
        for source in singletons:
            if source == target:
                continue
            if not hierarchy.reaches(source, target):
                continue
            verdict = is_summarizable_in_instance(instance, target, [source])
            rows.append((source, target, verdict))
    return rows
