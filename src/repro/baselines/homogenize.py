"""Null-padding homogenization - the Pedersen-Jensen baseline [14].

The alternative to constraint-aware reasoning is to *repair* the data:
insert placeholder ("null") members so that every member of a category has
ancestors in the same categories as its siblings.  After the repair the
dimension is homogeneous, rollup mappings are total, and classical
summarizability reasoning applies - at the costs the paper criticizes in
Section 1.3: extra members, extra edges, and sparser cube views.

The transformation pads each member ``x`` toward every ancestor category
any sibling uses, walking a shortest hierarchy path and at each step
reusing, in order of preference:

1. an ancestor ``x`` already has in that category;
2. the unique such ancestor of ``x``'s descendants (keeping partitioning
   (C2): a child that already rolls into a sale region forces its city's
   padded chain through the same sale region);
3. a fresh null member dedicated to ``x``.

A final pass drops member edges paralleled by a padded chain (condition
(C5)).  Two published limitations are preserved deliberately, because the
paper's Section 1.3 critique is about them:

* cyclic hierarchies are rejected ("does not scale to general
  heterogeneous dimensions");
* instances whose descendants disagree on a padded category (two children
  in different sale regions under one parentless-in-SaleRegion city)
  cannot be repaired without splitting members and raise
  :class:`~repro.errors.SchemaError`.

:func:`padding_report` quantifies the blow-up (experiment E13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro._types import ALL, Category, Member
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.errors import SchemaError


@dataclass(frozen=True)
class PaddingReport:
    """Cost accounting for one homogenization run (experiment E13)."""

    original_members: int
    padded_members: int
    null_members: int
    original_edges: int
    padded_edges: int

    @property
    def member_blowup(self) -> float:
        """Padded member count relative to the original.

        An empty instance needs no padding, so its blow-up is 1.0 (no
        growth) rather than a division error.
        """
        if self.original_members == 0:
            return 1.0
        return self.padded_members / self.original_members

    @property
    def null_fraction(self) -> float:
        """Fraction of members in the padded instance that are nulls.

        0.0 for an empty instance: no members, so no nulls either.
        """
        if self.padded_members == 0:
            return 0.0
        return self.null_members / self.padded_members


def null_member(category: Category, owner: Member) -> str:
    """The placeholder for ``owner``'s missing ``category`` ancestor."""
    return f"null[{category}|{owner}]"


def is_null_member(member: Member) -> bool:
    """Whether a member was introduced by the padding transformation."""
    return isinstance(member, str) and member.startswith("null[")


class _Padder:
    """Mutable working state of one homogenization run."""

    def __init__(self, instance: DimensionInstance) -> None:
        self.instance = instance
        self.hierarchy: HierarchySchema = instance.hierarchy
        self.category_of: Dict[Member, Category] = {
            m: instance.category_of(m) for m in instance.all_members()
        }
        self.parents: Dict[Member, Set[Member]] = {
            m: set(instance.parents_of(m)) for m in instance.all_members()
        }
        self.children: Dict[Member, Set[Member]] = {m: set() for m in self.parents}
        for member, ps in self.parents.items():
            for parent in ps:
                self.children.setdefault(parent, set()).add(member)
        # Categories of the ancestors any member of each category reaches.
        # Derived from the mutable graph (not the frozen instance) because
        # it must be *re*-derived as padding mints new ancestries.
        self.required: Dict[Category, Set[Category]] = {}
        self._edges_added = 0
        self._recompute_required()

    # -- dynamic graph helpers ------------------------------------------

    def ancestor_in(self, member: Member, category: Category) -> Optional[Member]:
        seen: Set[Member] = set()
        stack = list(self.parents[member])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.category_of[node] == category:
                return node
            stack.extend(self.parents[node])
        return None

    def descendants(self, member: Member) -> Set[Member]:
        seen: Set[Member] = set()
        stack = list(self.children.get(member, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.children.get(node, ()))
        return seen

    def add_edge(self, child: Member, parent: Member) -> None:
        if parent not in self.parents[child]:
            self._edges_added += 1
        self.parents[child].add(parent)
        self.children.setdefault(parent, set()).add(child)

    def _recompute_required(self) -> None:
        """Re-derive each category's ancestor-category requirements from
        the *current* graph.

        ``pad_chain`` routes through intermediate categories and mints
        nulls there, so a requirement set computed once up-front goes
        stale mid-run: the null's category gains an ancestor category
        some of its real members never had, and those members must be
        padded there too for the result to be homogeneous.
        """
        required: Dict[Category, Set[Category]] = {
            c: set() for c in self.hierarchy.categories
        }
        for member, category in self.category_of.items():
            seen: Set[Member] = set()
            stack = list(self.parents[member])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                required[category].add(self.category_of[node])
                stack.extend(self.parents[node])
        self.required = required

    # -- the padding walk ------------------------------------------------

    def resolve(self, owner: Member, category: Category) -> Tuple[Member, bool]:
        """The member that should represent ``owner``'s ancestor in
        ``category``; second component says whether it already existed."""
        existing = self.ancestor_in(owner, category)
        if existing is not None:
            return existing, True
        used = {
            self.ancestor_in(descendant, category)
            for descendant in self.descendants(owner)
        } - {None}
        if len(used) > 1:
            raise SchemaError(
                f"cannot pad {owner!r} in {category!r}: descendants roll up "
                f"to {len(used)} different members; null padding would need "
                f"member splitting (limitation of the published algorithm)"
            )
        if used:
            return used.pop(), True
        null = null_member(category, owner)
        if null in self.category_of:
            return null, bool(self.parents[null])
        self.category_of[null] = category
        self.parents[null] = set()
        self.children[null] = set()
        return null, False

    def shortest_path(self, start: Category, end: Category) -> Tuple[Category, ...]:
        best: Optional[Tuple[Category, ...]] = None
        for path in self.hierarchy.simple_paths(start, end):
            if best is None or (len(path), path) < (len(best), best):
                best = path
        if best is None:
            raise SchemaError(f"no hierarchy path from {start!r} to {end!r}")
        return best

    def pad_chain(self, member: Member, target: Category) -> None:
        """Ensure ``member`` rolls up to ``target``.

        Walks a shortest hierarchy route from the member's category through
        ``target`` on toward ``All``, resolving each step to an existing
        ancestor, a descendant-consistent member, or a fresh null.  The
        walk may pass *through* already-connected members (a store's real
        city still needs a null state hung off it) and stops once the
        target has been reached and the chain has met something already
        connected upward.
        """
        if self.ancestor_in(member, target) is not None:
            return
        category = self.category_of[member]
        route = list(self.shortest_path(category, target))
        if target != ALL:
            route += list(self.shortest_path(target, ALL)[1:])
        current = member
        target_reached = False
        for step in route[1:]:
            # Resolve relative to the *current* chain node: the new edge
            # hangs off it, so the candidate must be consistent with every
            # descendant of `current` (all siblings of `member` included),
            # and a null minted here is naturally shared by them.
            node, connected = self.resolve(current, step)
            if node not in self.parents[current] and node != current:
                self.add_edge(current, node)
            if step == target:
                target_reached = True
            if connected and target_reached:
                return
            current = node

    def run(self) -> DimensionInstance:
        # Pad to a fixpoint.  A single bottom-up pass is not enough:
        # padding routes through intermediate categories and mints nulls
        # there, which enlarges those categories' requirement sets, which
        # can oblige members padded *earlier* in the pass (or real members
        # never revisited) to grow new ancestries.  Each pass re-derives
        # the requirements from the current graph and re-pads everything;
        # the run is stable when a full pass adds no edge.  Termination:
        # a non-final pass strictly grows some requirement set, and the
        # sum of their sizes is bounded by |categories|^2.
        max_passes = 2 * len(self.hierarchy.categories) ** 2 + 4
        for _ in range(max_passes):
            edges_before = self._edges_added
            self._recompute_required()
            for category in _bottom_up(self.hierarchy):
                # Iterate the *current* member set: nulls minted while
                # padding lower categories live in upper categories and
                # must be padded to the same requirements as their real
                # siblings.
                current = sorted(
                    (m for m, c in self.category_of.items() if c == category),
                    key=repr,
                )
                for member in current:
                    for target in sorted(self.required[category]):
                        self.pad_chain(member, target)
            if self._edges_added == edges_before:
                break
        else:  # pragma: no cover - the bound is generous
            raise SchemaError(
                "homogenization did not reach a fixpoint within "
                f"{max_passes} passes"
            )
        self._repair_shortcuts()
        names = {m: self.instance.name(m) for m in self.instance.all_members()}
        edges = [
            (child, parent)
            for child, ps in self.parents.items()
            for parent in ps
        ]
        return DimensionInstance(self.hierarchy, self.category_of, edges, names=names)

    def _repair_shortcuts(self) -> None:
        """Drop member edges paralleled by a longer (padded) path (C5)."""
        for member in list(self.parents):
            for parent in list(self.parents[member]):
                others = self.parents[member] - {parent}
                if self._reaches_through(others, parent):
                    self.parents[member].discard(parent)
                    self.children[parent].discard(member)

    def _reaches_through(self, starts: Set[Member], target: Member) -> bool:
        stack = list(starts)
        seen: Set[Member] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node == target:
                return True
            stack.extend(self.parents[node])
        return False


def _bottom_up(hierarchy: HierarchySchema) -> List[Category]:
    """Children-before-parents category order of an acyclic hierarchy."""
    order: List[Category] = []
    seen: Set[Category] = set()

    def visit(category: Category) -> None:
        if category in seen:
            return
        seen.add(category)
        for child in sorted(hierarchy.children(category)):
            visit(child)
        order.append(category)

    for category in sorted(hierarchy.categories):
        visit(category)
    return order


def homogenize(instance: DimensionInstance) -> DimensionInstance:
    """Return a homogeneous instance covering ``instance`` with nulls.

    All members of a category end up with ancestors in exactly the same
    categories (the union of what any sibling used); real members keep
    their original rollup targets; all seven instance conditions hold.

    >>> from repro.generators.location import location_instance
    >>> homogenize(location_instance()).is_valid()
    True
    """
    if instance.hierarchy.is_cyclic():
        raise SchemaError(
            "null-padding homogenization supports acyclic hierarchies only "
            "(the published algorithm does not handle cycles)"
        )
    return _Padder(instance).run()


def padding_report(instance: DimensionInstance) -> PaddingReport:
    """Homogenize and measure the blow-up (experiment E13)."""
    padded = homogenize(instance)
    return PaddingReport(
        original_members=len(instance),
        padded_members=len(padded),
        null_members=sum(1 for m in padded.all_members() if is_null_member(m)),
        original_edges=sum(1 for _ in instance.member_edges()),
        padded_edges=sum(1 for _ in padded.member_edges()),
    )
