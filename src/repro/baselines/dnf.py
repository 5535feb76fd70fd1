"""Dimensional-normal-form flattening - the Lehner et al. baseline [11].

Lehner, Albrecht and Wedekind handle heterogeneity by *restructuring the
schema*: categories that cause heterogeneity are taken out of the
hierarchy and kept as plain attributes of tables outside it, so that the
remaining hierarchy is homogeneous (in "dimensional normal form") and
classical summarizability holds along every retained edge.

Our transformation keeps a hierarchy edge ``(c, c')`` only when it is
*total* in the instance - every member of ``c`` has a direct parent in
``c'`` - which is the condition DNF needs for the child/parent relation to
flatten into a functional attribute.  Categories that become unreachable
from the bottom categories along retained edges are the ones "moved out"
as attribute tables; retained categories whose parents were all moved out
are re-attached directly to ``All``.

The paper's criticism (Section 1.3) is that this *limits summarizability
in the dimension instance*: every aggregation level that lived in a
moved-out category is lost to the navigator.  :func:`dnf_loss_report`
measures exactly that for experiment E14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro._types import ALL, Category, Edge
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.summarizability import is_summarizable_in_instance


@dataclass(frozen=True)
class FlattenResult:
    """Outcome of a DNF flattening."""

    instance: DimensionInstance
    retained_categories: FrozenSet[Category]
    moved_out: FrozenSet[Category]
    retained_edges: FrozenSet[Edge]


def total_edges(instance: DimensionInstance) -> FrozenSet[Edge]:
    """Hierarchy edges whose direct rollup is total in the instance.

    ``(c, c')`` is kept when every member of ``c`` has a direct parent in
    ``c'``; empty categories keep their edges vacuously.
    """
    kept: Set[Edge] = set()
    for child, parent in instance.hierarchy.edges:
        members = instance.members(child)
        if all(
            any(instance.category_of(p) == parent for p in instance.parents_of(m))
            for m in members
        ):
            kept.add((child, parent))
    return frozenset(kept)


def flatten_to_dnf(instance: DimensionInstance) -> FlattenResult:
    """Flatten a heterogeneous instance into dimensional normal form.

    >>> from repro.generators.location import location_instance
    >>> result = flatten_to_dnf(location_instance())
    >>> sorted(result.moved_out)
    ['Country', 'Province', 'SaleRegion', 'State']
    """
    hierarchy = instance.hierarchy
    totals = total_edges(instance)

    # Categories reachable from a bottom category along total edges.
    retained: Set[Category] = set(hierarchy.bottom_categories())
    changed = True
    while changed:
        changed = False
        for child, parent in totals:
            if child in retained and parent not in retained and parent != ALL:
                retained.add(parent)
                changed = True
    retained.add(ALL)

    kept_edges: Set[Edge] = {
        (child, parent)
        for child, parent in totals
        if child in retained and parent in retained
    }
    # Re-attach retained categories whose retained parents all vanished.
    for category in retained:
        if category == ALL:
            continue
        if not any(child == category for child, _parent in kept_edges):
            kept_edges.add((category, ALL))

    flat_hierarchy = HierarchySchema(retained, kept_edges)

    members = {
        m: instance.category_of(m)
        for m in instance.all_members()
        if instance.category_of(m) in retained
    }
    edges = [
        (child, parent)
        for child, parent in instance.member_edges()
        if child in members
        and parent in members
        and (instance.category_of(child), instance.category_of(parent)) in kept_edges
    ]
    names = {m: instance.name(m) for m in members}
    flat = DimensionInstance(flat_hierarchy, members, edges, names=names)
    moved = frozenset(hierarchy.categories - retained)
    return FlattenResult(
        instance=flat,
        retained_categories=frozenset(retained),
        moved_out=moved,
        retained_edges=frozenset(kept_edges),
    )


@dataclass(frozen=True)
class DnfLossReport:
    """Summarizability lost by flattening (experiment E14)."""

    original_pairs: Tuple[Tuple[Category, Category], ...]
    surviving_pairs: Tuple[Tuple[Category, Category], ...]
    moved_out: FrozenSet[Category]

    @property
    def lost_pairs(self) -> Tuple[Tuple[Category, Category], ...]:
        surviving = set(self.surviving_pairs)
        return tuple(p for p in self.original_pairs if p not in surviving)

    @property
    def loss_fraction(self) -> float:
        if not self.original_pairs:
            return 0.0
        return len(self.lost_pairs) / len(self.original_pairs)


def _summarizable_pairs(
    instance: DimensionInstance,
) -> List[Tuple[Category, Category]]:
    hierarchy = instance.hierarchy
    pairs: List[Tuple[Category, Category]] = []
    for source in sorted(hierarchy.categories - {ALL}):
        for target in sorted(hierarchy.categories - {ALL}):
            if source == target or not hierarchy.reaches(source, target):
                continue
            if is_summarizable_in_instance(instance, target, [source]):
                pairs.append((source, target))
    return pairs


def dnf_loss_report(instance: DimensionInstance) -> DnfLossReport:
    """Compare single-source summarizable pairs before and after DNF.

    A pair survives only if both categories are retained *and* the pair is
    still summarizable in the flattened instance.
    """
    original = _summarizable_pairs(instance)
    result = flatten_to_dnf(instance)
    surviving = [
        pair
        for pair in _summarizable_pairs(result.instance)
        if pair in set(original)
    ]
    return DnfLossReport(
        original_pairs=tuple(original),
        surviving_pairs=tuple(surviving),
        moved_out=result.moved_out,
    )
