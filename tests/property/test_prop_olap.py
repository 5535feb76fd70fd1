"""Property-based tests of the OLAP layer.

* cube views equal a straight-line reference computation on random facts;
* the member-clustered scan of a fact table equals the per-fact scan of
  the same rows, on the tip, an older handle and a branch;
* delta maintenance equals full rebuilds for random splits of a fact set;
* a one-dimensional multidim cube agrees with the single-dimension
  engine cell for cell;
* restriction/composition laws of fact tables.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.location import location_instance
from repro.olap import COUNT, SUM, FactTable, all_aggregates, cube_view, views_equal
from repro.olap.facttable import Fact
from repro.olap.maintenance import apply_delta
from repro.olap.multidim import Cube

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
