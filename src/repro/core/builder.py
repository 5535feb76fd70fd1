"""Incremental construction of dimension instances.

:class:`~repro.core.instance.DimensionInstance` is immutable by design
(reasoning caches depend on it), which makes loading data row by row
awkward.  :class:`InstanceBuilder` is the mutable staging area: add
members and links in any order, get precise errors early where possible,
and :meth:`freeze` into a validated instance at the end.

    builder = InstanceBuilder(hierarchy)
    builder.member("s1", "Store").member("Toronto", "City", name="Toronto")
    builder.link("s1", "Toronto")
    instance = builder.freeze()

The builder also supports editing an existing instance
(:meth:`InstanceBuilder.from_instance`), which the examples use to play
what-if scenarios against a schema.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro._types import Category, Member
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.errors import SchemaError


class InstanceBuilder:
    """Mutable staging area for one dimension instance."""

    def __init__(self, hierarchy: HierarchySchema) -> None:
        self.hierarchy = hierarchy
        self._members: Dict[Member, Category] = {}
        self._names: Dict[Member, object] = {}
        self._edges: Set[Tuple[Member, Member]] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_instance(cls, instance: DimensionInstance) -> "InstanceBuilder":
        """A builder pre-loaded with an existing instance's contents."""
        builder = cls(instance.hierarchy)
        for member in instance.all_members():
            if member == "all":
                continue
            builder._members[member] = instance.category_of(member)
            name = instance.name(member)
            if name != member:
                builder._names[member] = name
        for child, parent in instance.member_edges():
            if parent == "all":
                continue
            builder._edges.add((child, parent))
        return builder

    def member(
        self,
        member: Member,
        category: Category,
        name: Optional[object] = None,
    ) -> "InstanceBuilder":
        """Declare a member; redeclaring with a different category fails."""
        if not self.hierarchy.has_category(category):
            raise SchemaError(f"unknown category {category!r}")
        existing = self._members.get(member)
        if existing is not None and existing != category:
            raise SchemaError(
                f"member {member!r} already declared in {existing!r}"
            )
        self._members[member] = category
        if name is not None:
            self._names[member] = name
        return self

    def members(
        self, category: Category, *members: Member
    ) -> "InstanceBuilder":
        """Declare several members of one category."""
        for member in members:
            self.member(member, category)
        return self

    def link(self, child: Member, parent: Member) -> "InstanceBuilder":
        """Add a child/parent edge; both members must be declared and the
        categories must be connected in the hierarchy (condition C1,
        checked eagerly so load errors point at the offending row)."""
        for member in (child, parent):
            if member not in self._members:
                raise SchemaError(f"undeclared member {member!r}")
        child_cat = self._members[child]
        parent_cat = self._members[parent]
        if not self.hierarchy.has_edge(child_cat, parent_cat):
            raise SchemaError(
                f"cannot link {child!r} ({child_cat}) under {parent!r} "
                f"({parent_cat}): no hierarchy edge"
            )
        self._edges.add((child, parent))
        return self

    def chain(self, *members: Member) -> "InstanceBuilder":
        """Link a whole rollup chain: ``chain(a, b, c)`` adds a<b and b<c."""
        for child, parent in zip(members, members[1:]):
            self.link(child, parent)
        return self

    def unlink(self, child: Member, parent: Member) -> "InstanceBuilder":
        """Remove an edge (no-op when absent)."""
        self._edges.discard((child, parent))
        return self

    def remove_member(self, member: Member) -> "InstanceBuilder":
        """Remove a member and all its incident edges."""
        self._members.pop(member, None)
        self._names.pop(member, None)
        self._edges = {
            (c, p) for c, p in self._edges if member not in (c, p)
        }
        return self

    def rename(self, member: Member, name: object) -> "InstanceBuilder":
        """Set a member's ``Name`` attribute."""
        if member not in self._members:
            raise SchemaError(f"undeclared member {member!r}")
        self._names[member] = name
        return self

    # ------------------------------------------------------------------
    # Inspection and freezing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def pending_orphans(self) -> List[Member]:
        """Members that would violate (C7) if frozen now: no parent and no
        direct edge from their category to All."""
        with_parents = {child for child, _parent in self._edges}
        return sorted(
            (
                member
                for member, category in self._members.items()
                if member not in with_parents
                and not self.hierarchy.has_edge(category, "All")
            ),
            key=repr,
        )

    def freeze(self, validate: bool = True) -> DimensionInstance:
        """Materialize the staged contents as a dimension instance."""
        return DimensionInstance(
            self.hierarchy,
            dict(self._members),
            sorted(self._edges, key=repr),
            names=dict(self._names),
            validate=validate,
        )
