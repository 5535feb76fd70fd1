"""Dimension instances (Definition 2) and the (C1)-(C7) validator.

A dimension instance populates a hierarchy schema with members, a
child/parent relation ``<`` between members, and a ``Name`` attribute per
member.  Figure 2 of the paper lists seven conditions every instance must
satisfy; :meth:`DimensionInstance.violations` checks all of them and
:meth:`DimensionInstance.validate` raises on the first failure.

The conditions, by paper label:

* **(C1) connectivity** - member edges only along schema edges;
* **(C2) partitioning** (strictness) - a member reaches at most one member
  in any category;
* **(C3) disjointness** - member sets are pairwise disjoint;
* **(C4) top category** - ``MembSet[All] == {all}``;
* **(C5) shortcuts** - no member edge parallels a longer member path;
* **(C6) stratification** - no member is an ancestor of a member of its own
  category (this makes ``<`` acyclic);
* **(C7) up connectivity** - every member outside ``All`` has at least one
  parent.  (The formula printed in the paper transposes the edge direction;
  we follow the prose, see DESIGN.md.)
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro._types import ALL, Category, Member
from repro.core.hierarchy import HierarchySchema
from repro.errors import InstanceError, SchemaError

MemberEdge = Tuple[Member, Member]

#: The single member of the ``All`` category (condition C4).
TOP_MEMBER = "all"


class DimensionInstance:
    """A dimension instance ``d = (G, MembSet, <, Name)``.

    Parameters
    ----------
    hierarchy:
        The hierarchy schema ``G`` the instance is defined over.
    members:
        Mapping from member to its category.  The top member ``all`` is
        added automatically if absent.
    child_parent:
        The ``<`` relation as ``(child, parent)`` pairs between members.
        Edges from members of categories directly under ``All`` to ``all``
        are added automatically, which keeps example construction terse.
    names:
        Optional ``Name`` attribute per member; members not mentioned get
        their own identity as name (the convention of Figure 1).
    validate:
        When true (the default) the (C1)-(C7) validator runs at
        construction time and raises :class:`InstanceError` on violation.

    Examples
    --------
    >>> g = HierarchySchema(["Store", "City"], [("Store", "City"), ("City", "All")])
    >>> d = DimensionInstance(
    ...     g,
    ...     members={"s1": "Store", "toronto": "City"},
    ...     child_parent=[("s1", "toronto")],
    ... )
    >>> d.rolls_up_to_category("s1", "City")
    True
    """

    __slots__ = (
        "hierarchy",
        "_category_of",
        "_members_by_category",
        "_parents",
        "_children",
        "_names",
        "_base_members",
        "_ancestors_cache",
        "_rollup_cache",
        "_mapping_cache",
        "_groups_cache",
    )

    def __init__(
        self,
        hierarchy: HierarchySchema,
        members: Mapping[Member, Category],
        child_parent: Iterable[MemberEdge],
        names: Optional[Mapping[Member, object]] = None,
        validate: bool = True,
    ) -> None:
        self.hierarchy = hierarchy
        category_of: Dict[Member, Category] = dict(members)
        for member, category in category_of.items():
            if not hierarchy.has_category(category):
                raise SchemaError(
                    f"member {member!r} assigned to unknown category {category!r}"
                )
        category_of.setdefault(TOP_MEMBER, ALL)

        by_category: Dict[Category, Set[Member]] = {c: set() for c in hierarchy.categories}
        for member, category in category_of.items():
            by_category[category].add(member)

        parents: Dict[Member, Set[Member]] = {m: set() for m in category_of}
        children: Dict[Member, Set[Member]] = {m: set() for m in category_of}
        for child, parent in child_parent:
            if child not in category_of:
                raise SchemaError(f"edge ({child!r}, {parent!r}) mentions unknown member")
            if parent not in category_of:
                raise SchemaError(f"edge ({child!r}, {parent!r}) mentions unknown member")
            parents[child].add(parent)
            children[parent].add(child)

        # Auto-link parentless members of categories directly under All to
        # the top member.  Members with declared parents are left alone so
        # the auto-link can never manufacture a (C5) shortcut.
        for member, category in category_of.items():
            if category == ALL:
                continue
            if hierarchy.has_edge(category, ALL) and not parents[member]:
                parents[member].add(TOP_MEMBER)
                children[TOP_MEMBER].add(member)

        self._category_of = category_of
        self._members_by_category = {c: frozenset(ms) for c, ms in by_category.items()}
        # Members with equal parent (or child) sets share one frozenset:
        # every leaf's empty child set, every SKU of one brand's parents.
        shared: Dict[FrozenSet[Member], FrozenSet[Member]] = {}

        def share(group: Set[Member]) -> FrozenSet[Member]:
            frozen = frozenset(group)
            return shared.setdefault(frozen, frozen)

        self._parents = {m: share(ps) for m, ps in parents.items()}
        self._children = {m: share(cs) for m, cs in children.items()}
        base_names = {m: m for m in category_of}
        if names:
            base_names.update(names)
        self._names: Dict[Member, object] = base_names
        self._base_members = frozenset(
            m
            for c in hierarchy.bottom_categories()
            for m in self._members_by_category[c]
        )
        # The instance never changes, so rollups are memoized.  Two
        # threads racing to fill an entry compute the same value.
        self._ancestors_cache: Dict[Member, FrozenSet[Member]] = {}
        self._rollup_cache: Dict[Category, Dict[Member, Optional[Member]]] = {}
        self._mapping_cache: Dict[Tuple[Category, Category], Dict[Member, Member]] = {}
        self._groups_cache: Dict[
            Tuple[Category, Category], Mapping[Member, Tuple[Member, ...]]
        ] = {}

        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def members(self, category: Category) -> FrozenSet[Member]:
        """``MembSet(category)``."""
        if not self.hierarchy.has_category(category):
            raise SchemaError(f"unknown category {category!r}")
        return self._members_by_category[category]

    def all_members(self) -> Iterator[Member]:
        """Every member of the instance, across categories."""
        return iter(self._category_of)

    def category_of(self, member: Member) -> Category:
        """The category a member belongs to."""
        try:
            return self._category_of[member]
        except KeyError:
            raise SchemaError(f"unknown member {member!r}") from None

    def name(self, member: Member) -> object:
        """``Name(member)``."""
        try:
            return self._names[member]
        except KeyError:
            raise SchemaError(f"unknown member {member!r}") from None

    def parents_of(self, member: Member) -> FrozenSet[Member]:
        """Direct parents of a member under ``<``."""
        try:
            return self._parents[member]
        except KeyError:
            raise SchemaError(f"unknown member {member!r}") from None

    def children_of(self, member: Member) -> FrozenSet[Member]:
        """Direct children of a member under ``<``."""
        try:
            return self._children[member]
        except KeyError:
            raise SchemaError(f"unknown member {member!r}") from None

    def member_edges(self) -> Iterator[MemberEdge]:
        """Every ``(child, parent)`` pair of the ``<`` relation."""
        for child, parents in self._parents.items():
            for parent in parents:
                yield (child, parent)

    # ------------------------------------------------------------------
    # Rollup structure
    # ------------------------------------------------------------------

    def ancestors_of(self, member: Member) -> FrozenSet[Member]:
        """Members strictly above ``member`` (transitive closure of ``<``)."""
        cached = self._ancestors_cache.get(member)
        if cached is not None:
            return cached
        if member not in self._category_of:
            raise SchemaError(f"unknown member {member!r}")
        result = self._closure(member)
        self._ancestors_cache[member] = result
        return result

    def _closure(self, member: Member) -> FrozenSet[Member]:
        seen: Set[Member] = set()
        queue = deque(self._parents[member])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(self._parents[node])
        return frozenset(seen)

    def leq(self, lower: Member, upper: Member) -> bool:
        """The rollup partial order: ``lower <= upper``."""
        return lower == upper or upper in self.ancestors_of(lower)

    def rolls_up_to_category(self, member: Member, category: Category) -> bool:
        """Whether ``member`` rolls up to some member of ``category``."""
        if self.category_of(member) == category:
            return True
        return any(self._category_of[a] == category for a in self.ancestors_of(member))

    def ancestor_in(self, member: Member, category: Category) -> Optional[Member]:
        """The unique member of ``category`` that ``member`` rolls up to,
        or ``None``.  Uniqueness is condition (C2)."""
        if self.category_of(member) == category:
            return member
        for ancestor in self.ancestors_of(member):
            if self._category_of[ancestor] == category:
                return ancestor
        return None

    def rollup_mapping(
        self, lower: Category, upper: Category
    ) -> Mapping[Member, Member]:
        """The rollup mapping ``GAMMA_{lower}^{upper}``, read-only.

        Only members of ``lower`` that actually reach ``upper`` appear, so in
        heterogeneous dimensions the mapping may be partial.  It is computed
        once per instance and pair; every caller reads the same mapping.
        """
        mapping = self._mapping_cache.get((lower, upper))
        if mapping is None:
            up = self.rollup_to(upper)
            mapping = {
                member: up[member]
                for member in self.members(lower)
                if up[member] is not None
            }
            if self.hierarchy.has_category(upper):
                self._mapping_cache[(lower, upper)] = mapping
        return MappingProxyType(mapping)

    def rollup_groups(
        self, lower: Category, upper: Category
    ) -> Mapping[Member, Tuple[Member, ...]]:
        """The inverse of :meth:`rollup_mapping`, read-only: each member of
        ``upper`` that some member of ``lower`` rolls up to, mapped to the
        tuple of those members.

        Groups, and the members inside each group, follow the order the
        members were declared in, so iterating it does not depend on
        hashing.  It is computed once per instance and pair; every call
        returns the same mapping.
        """
        groups = self._groups_cache.get((lower, upper))
        if groups is None:
            mapping = self.rollup_mapping(lower, upper)
            lists: Dict[Member, List[Member]] = {
                member: []
                for member, category in self._category_of.items()
                if category == upper
            }
            for member, category in self._category_of.items():
                if category == lower and member in mapping:
                    lists[mapping[member]].append(member)
            groups = MappingProxyType(
                {member: tuple(group) for member, group in lists.items() if group}
            )
            if self.hierarchy.has_category(upper):
                self._groups_cache[(lower, upper)] = groups
        return groups

    def rollup_to(self, category: Category) -> Mapping[Member, Optional[Member]]:
        """Every member's :meth:`ancestor_in` ``category``, read-only.

        The mapping is total: a member that does not reach ``category``
        maps to ``None``, so a fact scan resolves each fact with one
        lookup.  It is computed once per instance and category, walking
        each member's parents once, and holds no ancestor sets.
        """
        table = self._rollup_cache.get(category)
        if table is None:
            table = {}
            for member in self._category_of:
                if member not in table:
                    self._resolve(member, category, table)
            if self.hierarchy.has_category(category):
                self._rollup_cache[category] = table
        return MappingProxyType(table)

    def _resolve(
        self, member: Member, category: Category, table: Dict[Member, Optional[Member]]
    ) -> None:
        """Fill ``table[member]``, resolving the parents it needs first."""
        if self._category_of[member] == category:
            table[member] = member
            return
        table[member] = None  # stays None on a '<' cycle (violates C6)
        for parent in self._parents[member]:
            if parent not in table:
                self._resolve(parent, category, table)
            if table[parent] is not None:
                table[member] = table[parent]
                return

    def base_members(self) -> FrozenSet[Member]:
        """Members of the bottom categories (``MembSet_{c_b}``)."""
        return self._base_members

    # ------------------------------------------------------------------
    # Validation: conditions (C1)-(C7) of Figure 2
    # ------------------------------------------------------------------

    def violations(self) -> List[InstanceError]:
        """Every violation of conditions (C1)-(C7), in condition order."""
        # The closures are local: a validated instance keeps no ancestor
        # sets that nobody asks for.
        ancestors = {member: self._closure(member) for member in self._category_of}
        found: List[InstanceError] = []
        found.extend(self._check_c1_connectivity())
        found.extend(self._check_c3_disjointness())
        found.extend(self._check_c4_top())
        found.extend(self._check_c6_stratification(ancestors))
        # (C2) and (C5) assume an acyclic member graph; only meaningful
        # once (C6) holds, but we still report what we can.
        found.extend(self._check_c2_partitioning(ancestors))
        found.extend(self._check_c5_shortcuts(ancestors))
        found.extend(self._check_c7_up_connectivity())
        return found

    def validate(self) -> None:
        """Raise :class:`InstanceError` for the first violated condition."""
        for violation in self.violations():
            raise violation

    def is_valid(self) -> bool:
        """Whether the instance satisfies all of (C1)-(C7)."""
        return not self.violations()

    def _check_c1_connectivity(self) -> Iterator[InstanceError]:
        for child, parent in self.member_edges():
            child_cat = self._category_of[child]
            parent_cat = self._category_of[parent]
            if not self.hierarchy.has_edge(child_cat, parent_cat):
                yield InstanceError(
                    "(C1) connectivity",
                    f"member edge {child!r} < {parent!r} has no schema edge "
                    f"{child_cat!r} -> {parent_cat!r}",
                )

    def _check_c2_partitioning(
        self, ancestors: Mapping[Member, FrozenSet[Member]]
    ) -> Iterator[InstanceError]:
        for member in self._category_of:
            seen_in_category: Dict[Category, Member] = {}
            for ancestor in ancestors[member]:
                category = self._category_of[ancestor]
                other = seen_in_category.get(category)
                if other is not None and other != ancestor:
                    yield InstanceError(
                        "(C2) partitioning",
                        f"member {member!r} reaches both {other!r} and "
                        f"{ancestor!r} in category {category!r}",
                    )
                else:
                    seen_in_category[category] = ancestor

    def _check_c3_disjointness(self) -> Iterator[InstanceError]:
        # Membership is stored as a function member -> category, so overlap
        # can only arise if the same member was declared twice, which the
        # dict representation already collapses.  Nothing to report; the
        # check is kept for symmetry and documentation.
        return iter(())

    def _check_c4_top(self) -> Iterator[InstanceError]:
        top = self._members_by_category.get(ALL, frozenset())
        if top != frozenset({TOP_MEMBER}):
            yield InstanceError(
                "(C4) top category",
                f"MembSet[All] must be exactly {{'all'}}, found {sorted(map(repr, top))}",
            )

    def _check_c5_shortcuts(
        self, ancestors: Mapping[Member, FrozenSet[Member]]
    ) -> Iterator[InstanceError]:
        for child, parent in self.member_edges():
            for mid in self._parents[child]:
                if mid != parent and parent in ancestors[mid]:
                    yield InstanceError(
                        "(C5) shortcuts",
                        f"edge {child!r} < {parent!r} parallels the longer "
                        f"path through {mid!r}",
                    )
                    break

    def _check_c6_stratification(
        self, ancestors: Mapping[Member, FrozenSet[Member]]
    ) -> Iterator[InstanceError]:
        for member in self._category_of:
            category = self._category_of[member]
            for ancestor in ancestors[member]:
                if ancestor != member and self._category_of[ancestor] == category:
                    yield InstanceError(
                        "(C6) stratification",
                        f"member {member!r} has ancestor {ancestor!r} in its "
                        f"own category {category!r}",
                    )
            if member in ancestors[member]:
                yield InstanceError(
                    "(C6) stratification",
                    f"member {member!r} lies on a cycle of '<'",
                )

    def _check_c7_up_connectivity(self) -> Iterator[InstanceError]:
        for member, category in self._category_of.items():
            if category == ALL:
                continue
            if not self._parents[member]:
                yield InstanceError(
                    "(C7) up connectivity",
                    f"member {member!r} of category {category!r} has no parent",
                )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __contains__(self, member: Member) -> bool:
        return member in self._category_of

    def __len__(self) -> int:
        return len(self._category_of)

    def __repr__(self) -> str:
        return (
            f"DimensionInstance({len(self._category_of)} members over "
            f"{len(self.hierarchy.categories)} categories)"
        )
