"""Implication and satisfiability of dimension constraints (Section 4).

Three decision problems, all reduced to DIMSAT:

* **category satisfiability** - is there an instance with a member in a
  given category?  Decided directly by DIMSAT (Theorem 3).
* **implication** ``ds |= alpha`` - does every instance of the schema
  satisfy ``alpha``?  By Theorem 2 this holds iff the root of ``alpha`` is
  *unsatisfiable* in the schema extended with ``NOT alpha``.
* **schema audit** - which categories of a schema are unsatisfiable and
  could be dropped (the cleanup the paper motivates after Example 11)?

Implication also returns counterexamples: when ``ds |/= alpha``, the frozen
dimension witnessing satisfiability of the extended schema materializes
(via :meth:`FrozenDimension.to_instance`) into a concrete instance of
``ds`` violating ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.constraints.ast import Node, Not, constraint_root
from repro.constraints.atoms import validate_constraint
from repro.constraints.parser import parse
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE, resolve_cache
from repro.core.dimsat import DimsatResult, dimsat
from repro.core.frozen import FrozenDimension
from repro.core.hierarchy import ALL, Category
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.request import resolve_request
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import ConstraintError

_M_DECISIONS = METRICS.counter("implication.decisions")


@dataclass
class ImplicationResult:
    """Outcome of an implication test.

    ``implied`` is the verdict; when false, ``counterexample`` holds a
    frozen dimension of ``(G, SIGMA | {NOT alpha})`` whose materialized
    instance satisfies the schema but violates ``alpha``.
    """

    implied: bool
    counterexample: Optional[FrozenDimension]
    dimsat_result: DimsatResult

    def counterexample_instance(
        self, schema: DimensionSchema
    ) -> Optional[DimensionInstance]:
        """The violating instance, or ``None`` when the constraint is
        implied."""
        if self.counterexample is None:
            return None
        return self.counterexample.to_instance(schema)


def is_category_satisfiable(
    schema: DimensionSchema,
    category: Category,
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> bool:
    """Category satisfiability (Section 4), decided by DIMSAT.

    ``cache`` is a :class:`~repro.core.decisioncache.DecisionCache`
    memoizing the verdict by schema fingerprint; pass ``None`` to force a
    fresh search.  ``budget`` bounds the search
    (:class:`~repro.errors.BudgetExceeded` on exhaustion); an aborted
    decision is never cached.
    """
    from repro.core.summarizability import decide

    return decide(schema, ("dimsat", category), cache=cache, budget=budget).satisfiable  # type: ignore[attr-defined]


def implies(
    schema: DimensionSchema,
    constraint: object,
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> ImplicationResult:
    """Decide ``ds |= alpha`` via Theorem 2.

    ``constraint`` may be an AST node or textual syntax.  Constraints
    rooted at ``All`` are rejected (Definition 3); a constant constraint
    needs at least one atom to carry a root, so plain ``true``/``false``
    are rejected as well.

    Results are memoized in ``cache`` (default: the process-wide
    :func:`~repro.core.decisioncache.default_decision_cache`) keyed by the
    schema fingerprint and the constraint's canonical text; implication is
    deterministic, so a cached result is bit-identical to a fresh one.
    Pass ``cache=None`` for the uncached path.  ``budget`` bounds the
    underlying DIMSAT search; a budget-aborted decision raises
    :class:`~repro.errors.BudgetExceeded` and leaves the cache untouched.

    >>> from repro.generators.location import location_schema
    >>> implies(location_schema(), "Store.City.Country").implied
    True
    """
    resolved = resolve_cache(cache)
    if resolved is not None:
        # The memoized path is the kernel dispatch, whose miss comes back
        # here uncached.  It lives with summarizability, which imports
        # this module.
        from repro.core.summarizability import decide

        return decide(schema, ("implies", constraint), cache=resolved, budget=budget)  # type: ignore[return-value]
    node: Node = resolve_request(("implies", constraint))[1]
    root = validate_constraint(schema.hierarchy, node)
    if root == ALL:  # pragma: no cover - validate_constraint already rejects
        raise ConstraintError("constraints rooted at All are not allowed")

    # The Theorem 2 reduction: ds |= alpha iff root(alpha) is
    # unsatisfiable in (G, SIGMA | {NOT alpha}).  The span wraps the
    # whole refutation search, so the nested dimsat.decide/dimsat.check
    # spans attribute its cost.
    with TRACER.span("implication.decide", root=root) as span:
        extended = schema.with_constraints([Not(node)])
        result = dimsat(extended, root, budget=budget)
        span.set(implied=not result.satisfiable)
    _M_DECISIONS.inc()
    return ImplicationResult(
        implied=not result.satisfiable,
        counterexample=result.witness,
        dimsat_result=result,
    )


def implication_provenance(schema: DimensionSchema, constraint: object):
    """The dependency set of an implication verdict for ``constraint``.

    Theorem 2 reduces ``ds |= alpha`` to DIMSAT over ``(G, SIGMA | {NOT
    alpha})`` rooted at ``root(alpha)``; ``NOT alpha`` travels in the
    cache key, so the schema-side dependency is the upward closure of the
    root in ``G`` - widened by any category ``alpha`` itself mentions, so
    that dropping such a category (which would make a fresh decision
    reject the query) also invalidates the cached verdict.
    """
    from repro.core.provenance import VerdictProvenance, cone_provenance

    node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
    root = constraint_root(node)
    if root is None:
        return None
    from repro.core.provenance import mentioned_categories

    base = cone_provenance(schema, "implies", (root,))
    extra = mentioned_categories(node) - base.categories
    if not extra:
        return base
    return VerdictProvenance(
        kind=base.kind, categories=base.categories | extra, bottoms=base.bottoms
    )


def is_implied(
    schema: DimensionSchema,
    constraint: object,
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> bool:
    """Shorthand for ``implies(...).implied``."""
    return implies(schema, constraint, cache=cache, budget=budget).implied


def equivalent(
    schema: DimensionSchema,
    left: object,
    right: object,
    *,
    cache: object = USE_DEFAULT_CACHE,
    budget: Optional[DecisionBudget] = None,
) -> bool:
    """Whether two constraints are equivalent over every instance of the
    schema (mutual implication)."""
    left_node: Node = parse(left) if isinstance(left, str) else left  # type: ignore[assignment]
    right_node: Node = parse(right) if isinstance(right, str) else right  # type: ignore[assignment]
    from repro.constraints.ast import Iff

    both = Iff(left_node, right_node)
    return is_implied(schema, both, cache=cache, budget=budget)


def unsatisfiable_categories(
    schema: DimensionSchema,
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> List[Category]:
    """Categories no instance of the schema can populate (Example 11).

    ``All`` is never reported (Proposition 1).  The paper recommends
    dropping these categories for a cleaner schema;
    :func:`prune_unsatisfiable` does so.
    """
    bad = []
    for category in sorted(schema.hierarchy.categories):
        if category == ALL:
            continue
        if not is_category_satisfiable(schema, category, cache=cache):
            bad.append(category)
    return bad


def prune_unsatisfiable(
    schema: DimensionSchema,
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> Tuple[DimensionSchema, List[Category]]:
    """Drop unsatisfiable categories from the schema.

    Constraints rooted at dropped categories are vacuous and removed;
    constraints rooted elsewhere are kept only if they do not mention a
    dropped category (a mentioned atom over a dropped category is constant
    false/true, and keeping it would leave dangling references).

    Returns the cleaned schema and the dropped categories.
    """
    dropped = unsatisfiable_categories(schema, cache=cache)
    if not dropped:
        return schema, []
    hierarchy = schema.hierarchy
    for category in dropped:
        hierarchy = hierarchy.without_category(category)
    kept: List[Node] = []
    gone = set(dropped)
    for root, node in schema.constraints_with_roots():
        if root in gone:
            continue
        mentioned = set()
        for atom in node.atoms():
            mentioned.add(atom.root)
            for attribute in ("category", "target", "via"):
                value = getattr(atom, attribute, None)
                if value is not None:
                    mentioned.add(value)
            if hasattr(atom, "path"):
                mentioned.update(atom.path)
        if mentioned & gone:
            continue
        kept.append(node)
    return DimensionSchema(hierarchy, kept), dropped


def satisfiability_report(
    schema: DimensionSchema,
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> Dict[Category, bool]:
    """Satisfiability verdict for every category of the schema."""
    return {
        category: (
            True
            if category == ALL
            else is_category_satisfiable(schema, category, cache=cache)
        )
        for category in sorted(schema.hierarchy.categories)
    }
