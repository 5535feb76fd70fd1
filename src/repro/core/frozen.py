"""Frozen dimensions (Definition 5) and subhierarchies (Definition 7).

A *frozen dimension* of a schema ``ds`` with root ``c`` is a minimal
homogeneous instance: one member ``phi(c')`` per populated category, the
root member below every other member, and names drawn from
``Const_ds(c') | {nk}``.  Theorem 3 makes them the minimal models for
category satisfiability, which is what DIMSAT searches for.

A *subhierarchy* is the category-level skeleton of a frozen dimension: a
subgraph of ``G`` whose categories all lie between the root and ``All``.
A subhierarchy *induces* a frozen dimension when it is acyclic, shortcut
free, and admits a c-assignment satisfying the reduced constraint set
(Proposition 2); :mod:`repro.core.dimsat` performs that test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.hierarchy import ALL, Category, Edge, HierarchySchema
from repro.core.instance import TOP_MEMBER, DimensionInstance
from repro.core.schema import NK, DimensionSchema
from repro.errors import SchemaError


def phi(category: Category) -> str:
    """The injective member-naming function ``phi`` of Definition 5.

    The top category maps to the distinguished member ``all`` (condition
    C4 admits no other member there)."""
    return TOP_MEMBER if category == ALL else f"phi({category})"


@dataclass(frozen=True)
class Subhierarchy:
    """A subhierarchy of a hierarchy schema with a distinguished root.

    Definition 7 requires ``root`` and ``All`` among the categories, every
    edge drawn from ``G``, and every category between the root and ``All``.
    Use :meth:`validate` to enforce this against a concrete ``G``;
    instances produced by DIMSAT are valid by construction.

    Reachability is computed once per subhierarchy, on first use, and
    every structural check reads it.  The table is cached on the instance
    but is no part of its equality, hash or pickled state.
    """

    root: Category
    categories: FrozenSet[Category]
    edges: FrozenSet[Edge]

    def __getstate__(self) -> Dict[str, object]:
        # The fields only: a persisted witness pickles as it always did.
        return {"root": self.root, "categories": self.categories, "edges": self.edges}

    # -- structure -------------------------------------------------------

    @cached_property
    def _above(self) -> Dict[Category, Set[Category]]:
        """Each category's strict upward closure: the categories it
        reaches through one edge or more."""
        parents: Dict[Category, List[Category]] = {}
        for child, parent in self.edges:
            parents.setdefault(child, []).append(parent)
        above: Dict[Category, Set[Category]] = {}
        for start, direct in parents.items():
            seen: Set[Category] = set()
            stack = list(direct)
            while stack:
                node = stack.pop()
                if node in above:
                    # A finished closure is complete: take it whole.
                    seen.add(node)
                    seen |= above[node]
                elif node not in seen:
                    seen.add(node)
                    stack.extend(parents.get(node, ()))
            above[start] = seen
        return above

    def parents_in(self, category: Category) -> FrozenSet[Category]:
        """Categories directly above ``category`` within the subhierarchy."""
        return frozenset(parent for child, parent in self.edges if child == category)

    def children_in(self, category: Category) -> FrozenSet[Category]:
        """Categories directly below ``category`` within the subhierarchy."""
        return frozenset(child for child, parent in self.edges if parent == category)

    def reaches(self, lower: Category, upper: Category) -> bool:
        """Reflexive-transitive reachability inside the subhierarchy."""
        return lower == upper or upper in self._above.get(lower, ())

    def has_edge_path(self, path: Tuple[Category, ...]) -> bool:
        """Whether consecutive categories of ``path`` are all edges here.

        This is the truth value Definition 8 assigns to a path atom.
        """
        return all((a, b) in self.edges for a, b in zip(path, path[1:]))

    def is_acyclic(self) -> bool:
        """No directed cycle among the subhierarchy's edges."""
        above = self._above
        return not any(child in above.get(parent, ()) for child, parent in self.edges)

    def shortcut_edges(self) -> FrozenSet[Edge]:
        """Edges paralleled by a longer path (must be empty to induce a
        frozen dimension)."""
        above = self._above
        return frozenset(
            (child, parent)
            for child, parent in self.edges
            if any(
                mid != parent and parent in above.get(mid, ())
                for mid in self.parents_in(child)
            )
        )

    def validate(self, hierarchy: HierarchySchema) -> None:
        """Raise :class:`SchemaError` unless Definition 7 holds."""
        if self.root not in self.categories or ALL not in self.categories:
            raise SchemaError("a subhierarchy must contain its root and All")
        unknown = self.categories - hierarchy.categories
        if unknown:
            raise SchemaError(f"unknown category {min(unknown)!r} in subhierarchy")
        foreign = self.edges - hierarchy.edges
        if foreign:
            raise SchemaError(f"edge {min(foreign)!r} is not in the hierarchy schema")
        for edge in self.edges:
            if not self.categories.issuperset(edge):
                raise SchemaError(
                    f"edge {edge!r} leaves the subhierarchy's categories"
                )
        above = self._above
        from_root = above.get(self.root, set()) | {self.root}
        for category in self.categories:
            if category not in from_root:
                raise SchemaError(
                    f"category {category!r} is not reachable from the root"
                )
            if category != ALL and ALL not in above.get(category, ()):
                raise SchemaError(f"category {category!r} does not reach All")

    def sorted_edges(self) -> Tuple[Edge, ...]:
        """Edges in a canonical order, for display and stable tests."""
        return tuple(sorted(self.edges))

    def __str__(self) -> str:
        rendered = ", ".join(f"{a}->{b}" for a, b in self.sorted_edges())
        return f"Subhierarchy[{self.root}: {rendered}]"


@dataclass(frozen=True)
class FrozenDimension:
    """A frozen dimension: a subhierarchy plus a name per category.

    ``names`` maps every category of the subhierarchy to either a constant
    from ``Const_ds`` or the pseudo-constant :data:`~repro.core.schema.NK`
    (standing for "any constant not mentioned in SIGMA").
    """

    subhierarchy: Subhierarchy
    names: Mapping[Category, str] = field(default_factory=dict)

    @property
    def root(self) -> Category:
        """The root category."""
        return self.subhierarchy.root

    @property
    def categories(self) -> FrozenSet[Category]:
        """The populated categories."""
        return self.subhierarchy.categories

    def name_of(self, category: Category) -> str:
        """The constant assigned to ``category`` (``NK`` by default)."""
        return self.names.get(category, NK)

    def to_instance(
        self, schema: DimensionSchema, fresh_constant: Optional[str] = None
    ) -> DimensionInstance:
        """Materialize the frozen dimension as a real dimension instance.

        The pseudo-constant ``nk`` is replaced by ``fresh_constant`` (one is
        synthesized if not given), chosen to differ from every constant
        SIGMA mentions, as Definition 5 requires.  The resulting instance
        has one member ``phi(c')`` per category and is validated against
        (C1)-(C7); tests additionally verify it satisfies SIGMA, which is
        Theorem 3's guarantee.
        """
        if fresh_constant is None:
            mentioned = set()
            for category in schema.hierarchy.categories:
                mentioned.update(schema.constants(category))
            fresh_constant = "nk"
            counter = 0
            while fresh_constant in mentioned:
                counter += 1
                fresh_constant = f"nk_{counter}"

        members = {phi(c): c for c in self.subhierarchy.categories}
        edges = [
            (phi(child), phi(parent)) for child, parent in self.subhierarchy.edges
        ]
        names: Dict[str, object] = {}
        for category in self.subhierarchy.categories:
            if category == ALL:
                names[TOP_MEMBER] = TOP_MEMBER
                continue
            value = self.name_of(category)
            names[phi(category)] = fresh_constant if value == NK else value
        return DimensionInstance(
            schema.hierarchy, members, edges, names=names, validate=True
        )

    def describe(self) -> str:
        """A compact, human-readable rendering used by examples and the
        Figure 4 regeneration test."""
        parts = []
        for category in sorted(self.subhierarchy.categories):
            value = self.name_of(category)
            if category != ALL and value != NK:
                parts.append(f"{category}={value}")
        names = ", ".join(parts) if parts else "(all names free)"
        return f"{self.subhierarchy} with {names}"


def subhierarchy_from_edges(
    root: Category, edges: Iterable[Edge]
) -> Subhierarchy:
    """Build a subhierarchy from its edge set; categories are inferred.

    ``All`` and the root are always included even if isolated, so the
    degenerate one-category subhierarchy can be written as
    ``subhierarchy_from_edges("c", [("c", "All")])``.
    """
    edge_set = frozenset(edges)
    categories: Set[Category] = {root, ALL}
    for child, parent in edge_set:
        categories.add(child)
        categories.add(parent)
    return Subhierarchy(root, frozenset(categories), edge_set)
