"""Split constraints - the authors' own earlier formalism [6].

A *split constraint* on a category ``c`` lists the possible *sets* of
categories the members of ``c`` may roll up to: every member's reached
category set must equal one of the allowed sets.  The paper's Section 1.3
explains why this is not enough for general heterogeneous dimensions:

* heterogeneity is better captured by possible hierarchy *paths* than by
  possible *sets* of reached categories, and
* split constraints have no attribute component, so dependencies between
  rollup structure and attribute values (Example 6: "stores that roll up
  to Canada go through Province") are inexpressible.

This module implements the formalism (satisfaction, inference of the
tightest split description from an instance) and constructs the witness
pair for the expressiveness gap: two instances with identical split
descriptions that a single dimension constraint tells apart
(experiment E15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro._types import ALL, Category
from repro.constraints.ast import And, ExactlyOne, Node, Not, RollsUpAtom, TrueConst
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.rollup import reached_categories
from repro.errors import SchemaError

CategorySet = FrozenSet[Category]


@dataclass(frozen=True)
class SplitConstraint:
    """``gamma(category) in allowed``: every member of ``category`` rolls
    up to exactly the categories of one allowed set.

    Reached sets always include ``All`` for members of satisfiable
    categories; allowed sets are stored as given, with ``All`` added for
    convenience.
    """

    category: Category
    allowed: FrozenSet[CategorySet]

    def normalized(self) -> "SplitConstraint":
        """The same constraint with ``All`` added to every allowed set."""
        return SplitConstraint(
            self.category,
            frozenset(frozenset(s | {ALL}) for s in self.allowed),
        )

    def holds_in(self, instance: DimensionInstance) -> bool:
        """Whether every member's reached category set is allowed."""
        allowed = self.normalized().allowed
        return all(
            frozenset(reached_categories(instance, member)) in allowed
            for member in instance.members(self.category)
        )


def split_description(
    instance: DimensionInstance, category: Category
) -> FrozenSet[CategorySet]:
    """The observed family of reached category sets for one category.

    This is the tightest split constraint the instance satisfies on that
    category.
    """
    if not instance.hierarchy.has_category(category):
        raise SchemaError(f"unknown category {category!r}")
    return frozenset(
        frozenset(reached_categories(instance, member))
        for member in instance.members(category)
    )


def infer_split_constraints(
    instance: DimensionInstance,
) -> Dict[Category, SplitConstraint]:
    """The tightest split constraint per non-empty category."""
    result: Dict[Category, SplitConstraint] = {}
    for category in sorted(instance.hierarchy.categories - {ALL}):
        if not instance.members(category):
            continue
        result[category] = SplitConstraint(
            category, split_description(instance, category)
        )
    return result


def same_split_descriptions(
    left: DimensionInstance, right: DimensionInstance
) -> bool:
    """Whether two instances over the same hierarchy are indistinguishable
    by split constraints (identical tightest descriptions everywhere)."""
    if left.hierarchy != right.hierarchy:
        return False
    return all(
        split_description(left, category) == split_description(right, category)
        for category in left.hierarchy.categories - {ALL}
    )


def split_to_dimension_constraint(
    constraint: SplitConstraint, hierarchy: HierarchySchema
) -> Node:
    """Express a split constraint as a dimension constraint.

    The paper's Section 1.3 observes that split constraints are "a
    particular class" of what dimension constraints can say; this is the
    embedding: for a split constraint with allowed sets ``A_1 .. A_k``
    over the universe ``U`` of categories reachable from the root,

        one( AND_{u in A_i} c.u  AND  AND_{u not in A_i} not c.u
             for each i )

    i.e. the member's reached-category set equals exactly one allowed
    set.  :func:`tests <repro.constraints.semantics.satisfies>` of the
    result agree with :meth:`SplitConstraint.holds_in` on every instance
    (verified in the test suite), which *proves* the inclusion claimed by
    the paper on the implemented fragment.
    """
    root = constraint.category
    universe = sorted(hierarchy.ancestors(root) - {ALL})
    options = []
    for allowed in sorted(
        constraint.normalized().allowed, key=lambda s: sorted(s)
    ):
        inside = sorted((allowed - {ALL, root}) & set(universe))
        outside = sorted(set(universe) - allowed)
        parts: list = []
        parts.extend(RollsUpAtom(root, category) for category in inside)
        parts.extend(Not(RollsUpAtom(root, category)) for category in outside)
        if not parts:
            option: Node = TrueConst()
        elif len(parts) == 1:
            option = parts[0]
        else:
            option = And(tuple(parts))
        options.append(option)
    if not options:
        from repro.constraints.ast import FALSE

        return FALSE
    return ExactlyOne(tuple(options))


# ----------------------------------------------------------------------
# The expressiveness gap (experiment E15)
# ----------------------------------------------------------------------


def gap_hierarchy() -> HierarchySchema:
    """The hierarchy used by the expressiveness-gap witness pair."""
    return HierarchySchema(
        ["A", "B", "C", "D", "E"],
        [
            ("A", "B"),
            ("A", "C"),
            ("B", "D"),
            ("B", "E"),
            ("C", "E"),
            ("D", ALL),
            ("E", ALL),
        ],
    )


def gap_instances() -> Tuple[DimensionInstance, DimensionInstance]:
    """Two instances with identical split descriptions that the dimension
    constraint ``B = 'k' implies not (B -> E)`` tells apart.

    In both instances category ``B`` exhibits the reached-set family
    ``{{D, All}, {D, E, All}}`` - but *which* member (by name) takes which
    structure differs, a dependency split constraints cannot express
    because they have no attribute component (the paper's Example 6
    motivation).
    """
    g = gap_hierarchy()

    def build(k_has_e: bool) -> DimensionInstance:
        members = {
            "a1": "A",
            "a2": "A",
            "b_k": "B",
            "b_m": "B",
            "c1": "C",
            "c2": "C",
            "d1": "D",
            "d2": "D",
            "e1": "E",
            "e2": "E",
        }
        rich, plain = ("b_k", "b_m") if k_has_e else ("b_m", "b_k")
        edges = [
            ("a1", rich),
            ("a1", "c1"),
            ("a2", plain),
            ("a2", "c2"),
            ("b_k", "d1"),
            ("b_m", "d2"),
            (rich, "e1"),
            ("c1", "e1"),
            ("c2", "e2"),
        ]
        names = {"b_k": "k", "b_m": "m"}
        return DimensionInstance(g, members, edges, names=names)

    return build(False), build(True)
