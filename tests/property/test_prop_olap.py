"""Property-based tests of the OLAP layer.

* cube views equal a straight-line reference computation on random facts;
* the member-clustered scan of a fact table equals the per-fact scan of
  the same rows, on the tip, an older handle and a branch;
* grouped recombination equals a per-cell ``ancestor_in`` fold, over
  partial views from those three handles and multi-source sets;
* delta maintenance equals full rebuilds for random splits of a fact set;
* a one-dimensional multidim cube agrees with the single-dimension
  engine cell for cell;
* restriction/composition laws of fact tables;
* the rewriting search returns the least proven source set by (cost,
  size, names) and checks exactly the sets ordered before it; its lazy
  candidate order is the sorted list of every candidate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchySchema
from repro.generators.location import location_instance
from repro.olap import (
    COUNT,
    SUM,
    CubeView,
    FactTable,
    all_aggregates,
    cube_view,
    recombine,
    views_equal,
)
from repro.olap.facttable import Fact
from repro.olap.maintenance import apply_delta
from repro.olap.multidim import Cube
from repro.olap.navigator import _by_cost, cheapest_rewriting

SETTINGS = settings(max_examples=30, deadline=None)

_INSTANCE = location_instance()
_BASE = sorted(_INSTANCE.base_members())


@st.composite
def fact_rows(draw, min_size=0, max_size=25):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rows = []
    for index in range(n):
        member = draw(st.sampled_from(_BASE))
        value = draw(
            st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False,
            )
        )
        rows.append((member, {"v": value}))
    return rows


def reference_cells(rows, category, aggregate):
    """Straight-line recomputation, bypassing the library's grouping."""
    groups = {}
    for member, measures in rows:
        target = _INSTANCE.ancestor_in(member, category)
        if target is None:
            continue
        groups.setdefault(target, []).append(measures["v"])
    fold = {
        "SUM": sum,
        "COUNT": len,
        "MIN": min,
        "MAX": max,
    }[aggregate.name]
    return {member: float(fold(values)) for member, values in groups.items()}


@SETTINGS
@given(fact_rows(), st.sampled_from(["Store", "City", "State", "Country"]))
def test_cube_view_matches_reference(rows, category):
    facts = FactTable(_INSTANCE, rows)
    for aggregate in all_aggregates():
        view = cube_view(facts, category, aggregate, "v")
        expected = reference_cells(rows, category, aggregate)
        assert set(view.cells) == set(expected)
        for member, value in expected.items():
            assert abs(view.cells[member] - value) < 1e-9


class _Rows:
    """The same rows as a plain iterable of facts: the per-fact scan."""

    def __init__(self, rows) -> None:
        self.instance = _INSTANCE
        self._facts = [Fact(member, measures) for member, measures in rows]

    def __iter__(self):
        return iter(self._facts)


_CATEGORIES = sorted(_INSTANCE.hierarchy.categories)


@SETTINGS
@given(
    fact_rows(),
    fact_rows(min_size=1),
    fact_rows(min_size=1),
    st.booleans(),
    st.booleans(),
)
def test_columnar_scan_equals_per_fact_scan(rows, more, other, scan_tip, scan_old):
    """Cells compare with ``==``, as exactly as floats compare: SUM is
    correctly rounded, so only MIN or MAX over both signed zeros could
    tell the two orders apart."""
    old = FactTable(_INSTANCE, rows)
    if scan_tip:
        cube_view(old, "Store", SUM, "v")  # the grouping the tip hands over
    tip = old.extended(FactTable(_INSTANCE, more))
    if scan_old:
        cube_view(old, "Store", SUM, "v")  # regroups before it branches
    branch = old.extended(FactTable(_INSTANCE, other))
    for table, own_rows in ((tip, rows + more), (old, rows), (branch, rows + other)):
        plain = _Rows(own_rows)
        for category in _CATEGORIES:
            for aggregate in all_aggregates():
                columnar = cube_view(table, category, aggregate, "v")
                per_fact = cube_view(plain, category, aggregate, "v")
                assert columnar.cells == per_fact.cells, (category, aggregate.name)
                assert columnar.rows_scanned == per_fact.rows_scanned == len(own_rows)


def reference_recombine(target, views, aggregate):
    """Definition 6 RHS cell by cell: one ``ancestor_in`` per cell of the
    view's category, folded in the views' cell order."""
    partials = {}
    for view in views:
        for member, value in view.cells.items():
            if _INSTANCE.category_of(member) != view.category:
                continue
            up = _INSTANCE.ancestor_in(member, target)
            if up is not None:
                partials.setdefault(up, []).append(value)
    return {member: aggregate.combine(values) for member, values in partials.items()}


_MEMBERS = sorted(_INSTANCE.all_members())


@SETTINGS
@given(
    fact_rows(),
    fact_rows(min_size=1),
    fact_rows(min_size=1),
    st.sampled_from(_CATEGORIES),
    st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(_CATEGORIES)),
        min_size=1,
        max_size=3,
    ),
    st.frozensets(st.sampled_from(_MEMBERS)),
)
def test_grouped_recombine_equals_per_cell_reference(
    rows, more, other, target, sources, dropped
):
    """Sources are drawn from the tip, an older handle and a branch of
    one table; ``dropped`` members lose their cell, so views are partial
    beyond the members no fact reached.  Cells compare with ``==``: the
    SUM and COUNT combiner is correctly rounded."""
    old = FactTable(_INSTANCE, rows)
    tip = old.extended(FactTable(_INSTANCE, more))
    branch = old.extended(FactTable(_INSTANCE, other))
    tables = (tip, old, branch)
    for aggregate in all_aggregates():
        views = []
        for table, category in sources:
            full = cube_view(tables[table], category, aggregate, "v")
            cells = {m: v for m, v in full.cells.items() if m not in dropped}
            views.append(CubeView(category, aggregate, "v", cells, full.rows_scanned))
        grouped = recombine(_INSTANCE, target, views, aggregate)
        assert grouped.cells == reference_recombine(target, views, aggregate), (
            aggregate.name
        )
        assert grouped.rows_scanned == sum(len(view) for view in views)


@SETTINGS
@given(fact_rows(min_size=1), st.data())
def test_delta_maintenance_equals_rebuild(rows, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    base, extra = rows[:cut], rows[cut:]
    for aggregate in all_aggregates():
        stale = cube_view(FactTable(_INSTANCE, base), "Country", aggregate, "v")
        patched = apply_delta(
            _INSTANCE, stale, FactTable(_INSTANCE, extra)
        )
        rebuilt = cube_view(FactTable(_INSTANCE, rows), "Country", aggregate, "v")
        assert views_equal(patched, rebuilt), aggregate.name


@SETTINGS
@given(fact_rows())
def test_one_dimensional_cube_agrees_with_engine(rows):
    cube = Cube({"location": _INSTANCE})
    cube.load(({"location": member}, measures) for member, measures in rows)
    for category in ("City", "Country"):
        multi = cube.view({"location": category}, SUM, "v")
        single = cube_view(FactTable(_INSTANCE, rows), category, SUM, "v")
        assert set(multi.cells) == {(m,) for m in single.cells}
        for member, value in single.cells.items():
            assert abs(multi.cells[(member,)] - value) < 1e-9


@SETTINGS
@given(fact_rows())
def test_restrict_partitions_the_table(rows):
    facts = FactTable(_INSTANCE, rows)
    wanted = set(_BASE[:3])
    inside = facts.restrict(sorted(wanted))
    outside = facts.restrict(sorted(set(_BASE) - wanted))
    assert len(inside) + len(outside) == len(facts)
    merged = sorted(inside.values("v") + outside.values("v"))
    assert merged == sorted(facts.values("v"))


@SETTINGS
@given(fact_rows())
def test_count_view_total_is_row_count_at_total_categories(rows):
    facts = FactTable(_INSTANCE, rows)
    # Every store reaches Country, so COUNT cells sum to the row count.
    view = cube_view(facts, "Country", COUNT, "v")
    assert sum(view.cells.values()) == len(facts)


# Five sources below T, and U beside it: U and T itself are never
# candidates for T.
_SOURCES = ["X0", "X1", "X2", "X3", "X4"]
_SEARCH_HIERARCHY = HierarchySchema(
    ["Base", *_SOURCES, "U", "T"],
    [("Base", x) for x in _SOURCES]
    + [(x, "T") for x in _SOURCES]
    + [("Base", "U"), ("U", "All"), ("T", "All")],
)


@SETTINGS
@given(
    st.dictionaries(
        st.sampled_from(_SOURCES + ["U", "T"]), st.integers(0, 3), max_size=7
    ),
    st.sets(st.frozensets(st.sampled_from(_SOURCES), min_size=1)),
    st.integers(1, 4),
)
def test_search_returns_the_least_proven_set(sizes, proven_sets, max_sources):
    checked = []

    def proven(sources):
        checked.append(sources)
        return sources in proven_sets

    found = cheapest_rewriting(_SEARCH_HIERARCHY, "T", sizes, max_sources, proven)

    # Every candidate by bitmask, ordered by (cost, size, names).
    below = sorted(c for c in sizes if c in _SOURCES)
    order = sorted(
        (sum(sizes[c] for c in names), len(names), names)
        for mask in range(1, 1 << len(below))
        for names in [tuple(c for i, c in enumerate(below) if mask >> i & 1)]
        if len(names) <= max_sources
    )
    # The lazy candidate order is the sorted list of every candidate.
    assert list(_by_cost(below, sizes, max_sources)) == [
        (cost, names) for cost, _size, names in order
    ]
    winners = [key for key in order if frozenset(key[2]) in proven_sets]
    if not winners:
        assert found is None
        assert checked == [frozenset(key[2]) for key in order]
    else:
        cost, _size, names = winners[0]
        assert found == (names, cost)
        stop = order.index(winners[0])
        assert checked == [frozenset(key[2]) for key in order[: stop + 1]]
