"""Cube views and their recombination (Definition 6).

A single-category cube view ``CubeView(d, F, c, af(m))`` aggregates the
fact table to the granularity of category ``c``::

    PI_{c, af(m)} ( F  JOIN  GAMMA_{c_b}^{c} d )

In heterogeneous dimensions the rollup mapping is partial - facts whose
base member does not reach ``c`` silently drop out of the view, which is
exactly why summarizability is subtle: recombining from an intermediate
category loses (or double counts) those facts unless Theorem 1's condition
holds.  :func:`recombine` implements the right-hand side of Definition 6
so the cross-validation experiment (E12) can compare both sides on real
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

from repro._types import Category, Member
from repro.core.instance import DimensionInstance
from repro.errors import OlapError, SchemaError
from repro.olap.aggregates import AggregateFunction, fold_cells
from repro.olap.facttable import FactTable


@dataclass(frozen=True)
class CubeView:
    """A materialized single-category cube view.

    ``cells`` maps each member of ``category`` that received at least one
    fact to its aggregate value.  ``rows_scanned`` records the work done
    to build the view, which the navigator benchmarks use as the cost
    model (row count is the standard I/O proxy for aggregate views).
    """

    category: Category
    aggregate: AggregateFunction
    measure: str
    cells: Mapping[Member, float]
    rows_scanned: int = 0

    def value(self, member: Member) -> float:
        try:
            return self.cells[member]
        except KeyError:
            raise OlapError(
                f"cube view at {self.category!r} has no cell for {member!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.cells)


def _check_category(instance: DimensionInstance, category: Category) -> None:
    """Raise on a category the hierarchy lacks: ``rollup_to`` maps every
    member to ``None`` there, so a mistyped category would read as an
    empty view."""
    if not instance.hierarchy.has_category(category):
        raise SchemaError(f"unknown category {category!r}")


def cube_view(
    facts: FactTable,
    category: Category,
    aggregate: AggregateFunction,
    measure: str,
) -> CubeView:
    """Compute a cube view directly from the fact table (Definition 6 LHS).

    ``GAMMA_{c_b}^{c}`` is memoized per instance
    (:meth:`~repro.core.instance.DimensionInstance.rollup_to`).  Over a
    :class:`FactTable` the scan walks the table's
    :meth:`~repro.olap.facttable.FactTable.grouping`: one rollup lookup
    and one list extend per distinct base member, then one aggregate per
    cell.  ``facts`` may also be any iterable of facts with an
    ``instance`` attribute, rolled up one lookup per fact.  Either way
    ``rows_scanned`` counts every fact, and a cell's value does not
    depend on the order of its facts: SUM is correctly rounded and
    COUNT, MIN and MAX ignore order.

    >>> from repro.generators.location import location_instance
    >>> from repro.olap.aggregates import SUM
    >>> d = location_instance()
    >>> f = FactTable(d, [("s1", {"sales": 10.0}), ("s2", {"sales": 7.0})])
    >>> cube_view(f, "Country", SUM, "sales").cells
    {'Canada': 17.0}
    """
    instance = facts.instance
    _check_category(instance, category)
    rollup = instance.rollup_to(category)
    groups: Dict[Member, List[float]] = {}
    if isinstance(facts, FactTable):
        scanned = len(facts)
        for member, values in facts.grouping(measure).items():
            target = rollup[member]  # every member of a FactTable is in its instance
            if target is None:
                continue  # the rollup mapping is partial in heterogeneous dims
            cell = groups.get(target)
            if cell is None:
                groups[target] = values.copy()
            else:
                cell.extend(values)
    else:
        scanned = 0
        for fact in facts:
            scanned += 1
            try:
                target = rollup[fact.member]
            except KeyError:  # not a member: ancestor_in raises SchemaError
                target = instance.ancestor_in(fact.member, category)
            if target is None:
                continue
            cell = groups.get(target)
            if cell is None:
                groups[target] = [fact.value(measure)]
            else:
                cell.append(fact.value(measure))
    # Every cell holds at least one value.
    cells = fold_cells(aggregate.base, aggregate.name, category, groups)
    return CubeView(category, aggregate, measure, cells, rows_scanned=scanned)


def recombine(
    instance: DimensionInstance,
    target: Category,
    source_views: Iterable[CubeView],
    aggregate: AggregateFunction,
) -> CubeView:
    """Definition 6 RHS: derive the cube view at ``target`` from views at
    source categories.

    For each source view at ``c_i`` the cells are grouped by
    ``GAMMA_{c_i}^{target}`` and each group is folded with the combiner
    ``af^c``.  The grouping is the instance's memoized inverse of
    ``GAMMA``
    (:meth:`~repro.core.instance.DimensionInstance.rollup_groups`), so a
    view costs one Python step per target cell: each group's partials are
    gathered by one comprehension over the group's members.  Only members
    of ``c_i`` are read; a cell at any other member is dropped.
    ``rows_scanned`` is the sum of the source views' sizes.

    The result equals the direct :func:`cube_view` for *every* fact table
    exactly when ``target`` is summarizable from the source categories
    (Theorem 1); otherwise facts can be lost (no source on their path) or
    double counted (two sources on their path).
    """
    views = tuple(source_views)
    if not views:
        raise OlapError("recombination needs at least one source view")
    measures = {view.measure for view in views}
    if len(measures) > 1:
        raise OlapError(f"source views mix measures: {sorted(measures)}")
    _check_category(instance, target)

    partials: Dict[Member, List[float]] = {}
    scanned = 0
    for view in views:
        if view.aggregate.name != aggregate.name:
            raise OlapError(
                f"source view at {view.category!r} was built with "
                f"{view.aggregate.name}, cannot recombine with {aggregate.name}"
            )
        scanned += len(view.cells)
        get = view.cells.get
        for up, group in instance.rollup_groups(view.category, target).items():
            values = [value for value in map(get, group) if value is not None]
            if values:
                cell = partials.get(up)
                if cell is None:
                    partials[up] = values
                else:
                    cell.extend(values)
    # Every group holds at least one partial.
    cells = fold_cells(aggregate.combine, aggregate.combine_name, target, partials)
    return CubeView(target, aggregate, views[0].measure, cells, rows_scanned=scanned)


def views_equal(left: CubeView, right: CubeView, tolerance: float = 1e-9) -> bool:
    """Whether two views agree cell by cell (within floating tolerance)."""
    if set(left.cells) != set(right.cells):
        return False
    return all(
        abs(left.cells[member] - right.cells[member]) <= tolerance
        for member in left.cells
    )
