"""Brute-force category satisfiability - the unoptimized baseline.

Theorem 3 makes category satisfiability a finite search: enumerate every
candidate frozen dimension (subhierarchy x c-assignment) and test each one
against the schema *from first principles* - materialize it as a real
dimension instance, validate conditions (C1)-(C7), and evaluate every
constraint with the Definition 4 semantics.

This is deliberately naive on three axes, which is what makes it useful:

* **no structural pruning** - all ``2^|E|`` edge subsets are considered,
  where DIMSAT only walks consistent subhierarchies;
* **no circle operator** - constraints are evaluated on materialized
  instances, not reduced per subhierarchy;
* **full c-assignments** - the constant product ranges over every
  category, not just the ones residual constraints mention.

It serves as the ground-truth oracle in the property-based tests (DIMSAT
must agree with it on every random schema) and as the baseline curve in
the scaling benchmarks (E9).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from repro._types import ALL, Category, Edge
from repro.constraints.semantics import satisfies_all
from repro.core.frozen import FrozenDimension, Subhierarchy
from repro.core.schema import NK, DimensionSchema
from repro.errors import InstanceError, SchemaError


@dataclass
class BruteForceStats:
    """Work counters, comparable with :class:`~repro.core.dimsat.DimsatStats`."""

    edge_subsets: int = 0
    valid_subhierarchies: int = 0
    candidates_tested: int = 0


def candidate_subhierarchies(
    schema: DimensionSchema, root: Category
) -> Iterator[Subhierarchy]:
    """Every valid subhierarchy of ``G`` with the given root.

    Enumerates all subsets of the edges reachable from the root and keeps
    those satisfying Definition 7 (categories between root and All) that
    are acyclic and shortcut free - i.e. the skeletons that could induce a
    frozen dimension.
    """
    hierarchy = schema.hierarchy
    relevant: List[Edge] = sorted(
        (child, parent)
        for child, parent in hierarchy.edges
        if hierarchy.reaches(root, child)
    )
    for bits in itertools.product((False, True), repeat=len(relevant)):
        edges = frozenset(e for e, keep in zip(relevant, bits) if keep)
        categories: Set[Category] = {root, ALL}
        for child, parent in edges:
            categories.add(child)
            categories.add(parent)
        sub = Subhierarchy(root, frozenset(categories), edges)
        try:
            sub.validate(hierarchy)
        except SchemaError:
            continue
        if not sub.is_acyclic() or sub.shortcut_edges():
            continue
        # Up-connectivity at the category level: every non-All category
        # needs an outgoing edge, otherwise its single member violates (C7).
        if any(
            category != ALL and not sub.parents_in(category)
            for category in sub.categories
        ):
            continue
        yield sub


def brute_force_frozen_dimensions(
    schema: DimensionSchema,
    root: Category,
    stats: Optional[BruteForceStats] = None,
) -> Iterator[FrozenDimension]:
    """Every frozen dimension with the given root, by exhaustive search.

    Unlike DIMSAT's enumeration, names of categories never mentioned by a
    constraint are still fixed to ``nk`` (otherwise the output would be
    infinite); but the *full* product over mentioned categories is tested
    without the circle-operator reduction.
    """
    stats = stats if stats is not None else BruteForceStats()
    hierarchy = schema.hierarchy
    for sub in candidate_subhierarchies(schema, root):
        stats.valid_subhierarchies += 1
        ordered = sorted(sub.categories - {ALL})
        domains = [schema.constant_domain(category) for category in ordered]
        for combo in itertools.product(*domains):
            stats.candidates_tested += 1
            names = {
                category: value
                for category, value in zip(ordered, combo)
                if value != NK
            }
            frozen = FrozenDimension(sub, names)
            try:
                instance = frozen.to_instance(schema)
            except InstanceError:
                continue
            if satisfies_all(instance, schema.constraints):
                yield frozen


def brute_force_satisfiable(
    schema: DimensionSchema,
    root: Category,
    stats: Optional[BruteForceStats] = None,
) -> bool:
    """Category satisfiability by exhaustive enumeration (the oracle).

    >>> from repro.generators.location import location_schema
    >>> brute_force_satisfiable(location_schema(), "Store")
    True
    """
    if root == ALL:
        return True
    if not schema.hierarchy.has_category(root):
        raise SchemaError(f"unknown category {root!r}")
    return next(brute_force_frozen_dimensions(schema, root, stats), None) is not None


def brute_force_implies(schema: DimensionSchema, constraint: object) -> bool:
    """Implication via Theorem 2 on top of the brute-force oracle."""
    from repro.constraints.ast import Node, Not
    from repro.constraints.atoms import validate_constraint
    from repro.constraints.parser import parse

    node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
    root = validate_constraint(schema.hierarchy, node)
    extended = schema.with_constraints([Not(node)])
    return not brute_force_satisfiable(extended, root)
