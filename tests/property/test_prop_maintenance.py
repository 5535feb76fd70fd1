"""Property-based tests of fact appends on a maintained navigator.

Over random interleavings of ``append``, ``materialize``, ``drop``,
``answer`` and branching off an earlier fact table:

* every answer equals ``cube_view`` over a freshly built table of all
  rows so far, for all four aggregates;
* the table given to the navigator, and every table it handed out
  since, keeps its own length and rows after later appends;
* extending an earlier (non-tip) table never changes another branch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_engine
from repro.generators.location import location_instance, location_schema
from repro.olap import FactTable, all_aggregates, cube_view, views_equal
from repro.olap.maintenance import MaintainedNavigator

SETTINGS = settings(max_examples=40, deadline=None)

_INSTANCE = location_instance()
_SCHEMA = location_schema()
_BASE = sorted(_INSTANCE.base_members())
_CATEGORIES = sorted(_INSTANCE.hierarchy.categories - {"All"})
_AGGREGATES = {aggregate.name: aggregate for aggregate in all_aggregates()}

# Integer-valued measures keep SUM exact whatever the merge order.
_rows = st.lists(
    st.tuples(
        st.sampled_from(_BASE),
        st.integers(min_value=-50, max_value=50).map(lambda v: {"v": float(v)}),
    ),
    max_size=6,
)
_view = st.tuples(st.sampled_from(_CATEGORIES), st.sampled_from(sorted(_AGGREGATES)))
_op = st.one_of(
    st.tuples(st.just("append"), _rows),
    st.tuples(st.just("materialize"), _view),
    st.tuples(st.just("drop"), _view),
    st.tuples(st.just("answer"), st.sampled_from(_CATEGORIES)),
    st.tuples(st.just("branch"), st.integers(min_value=0), _rows),
)


def _rows_of(table):
    return [(fact.member, dict(fact.measures)) for fact in table]


@SETTINGS
@given(_rows, st.lists(_op, max_size=25))
def test_appends_match_a_rebuild_and_never_leak(initial, ops):
    start = FactTable(_INSTANCE, initial)
    navigator = MaintainedNavigator(
        start, schema=_SCHEMA, engine=build_engine(cache=None)
    )
    rows = list(initial)
    # Every table seen so far, with the rows it must keep showing.
    tables = [(start, list(initial))]
    for op in ops:
        if op[0] == "append":
            navigator.append(op[1])
            rows.extend(op[1])
            tables.append((navigator.facts, list(rows)))
        elif op[0] in ("materialize", "drop"):
            category, name = op[1]
            getattr(navigator, op[0])(category, _AGGREGATES[name], "v")
        elif op[0] == "answer":
            rebuilt = FactTable(_INSTANCE, rows)
            for aggregate in all_aggregates():
                view, _ = navigator.answer(op[1], aggregate, "v")
                expected = cube_view(rebuilt, op[1], aggregate, "v")
                assert views_equal(view, expected), (op[1], aggregate.name)
        else:
            parent, parent_rows = tables[op[1] % len(tables)]
            branch = parent.extended(FactTable(_INSTANCE, op[2]))
            tables.append((branch, parent_rows + op[2]))
        for table, expected_rows in tables:
            assert len(table) == len(expected_rows)
            assert _rows_of(table) == expected_rows
    assert _rows_of(navigator.facts) == rows
