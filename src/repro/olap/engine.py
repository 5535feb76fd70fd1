"""A small star-schema engine tying dimensions, facts, and navigation.

:class:`OlapEngine` is the highest-level entry point of the OLAP
substrate: it owns a dimension schema, a dimension instance over it, a
fact table, and an aggregate navigator, and exposes the operations the
examples and benchmarks script against:

* validate the instance against the schema (conditions (C1)-(C7) plus the
  dimension constraints);
* materialize aggregate views;
* answer cube-view queries, with plans and cost accounting;
* report which categories are safe aggregation levels for which others
  (the design-stage use of dimension constraints from Section 6).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro._types import Category, Member
from repro.constraints.semantics import failures
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.core.summarizability import summarizable_sets
from repro.errors import OlapError
from repro.olap.aggregates import AggregateFunction, by_name
from repro.olap.cubeview import CubeView
from repro.olap.facttable import FactTable
from repro.olap.navigator import AggregateNavigator, QueryPlan


class OlapEngine:
    """One dimension's worth of OLAP: schema + instance + facts + views.

    Examples
    --------
    >>> from repro.generators.location import location_instance, location_schema
    >>> d = location_instance()
    >>> engine = OlapEngine(location_schema(), d, [("s1", {"sales": 3.0})])
    >>> engine.materialize("City", "SUM", "sales").cells
    {'Toronto': 3.0}
    """

    def __init__(
        self,
        schema: DimensionSchema,
        instance: DimensionInstance,
        rows: Iterable[Tuple[Member, Mapping[str, float]]],
    ) -> None:
        if instance.hierarchy != schema.hierarchy:
            raise OlapError(
                "the instance and the schema are over different hierarchies"
            )
        self.schema = schema
        self.instance = instance
        self.facts = FactTable(instance, rows)
        self.navigator = AggregateNavigator(self.facts, schema=schema)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_integrity(self) -> List[str]:
        """Every violated condition and constraint, as messages.

        Empty exactly when the instance is an element of ``I(ds)``: it
        satisfies (C1)-(C7) and every dimension constraint of the schema.
        """
        problems = [str(v) for v in self.instance.violations()]
        for node, members in failures(self.instance, self.schema.constraints):
            rendered = ", ".join(repr(m) for m in members[:5])
            problems.append(f"constraint {node!r} violated at members: {rendered}")
        return problems

    # ------------------------------------------------------------------
    # Views and queries
    # ------------------------------------------------------------------

    def materialize(
        self, category: Category, aggregate: str | AggregateFunction, measure: str
    ) -> CubeView:
        """Materialize the cube view at ``category``."""
        agg = by_name(aggregate) if isinstance(aggregate, str) else aggregate
        return self.navigator.materialize(category, agg, measure)

    def query(
        self, category: Category, aggregate: str | AggregateFunction, measure: str
    ) -> Tuple[CubeView, QueryPlan]:
        """Answer a cube view, preferring materialized or rewritten plans."""
        agg = by_name(aggregate) if isinstance(aggregate, str) else aggregate
        return self.navigator.answer(category, agg, measure)

    def query_cells(
        self, category: Category, aggregate: str | AggregateFunction, measure: str
    ) -> Dict[Member, float]:
        """Convenience: just the cells of :meth:`query`."""
        view, _plan = self.query(category, aggregate, measure)
        return dict(view.cells)

    # ------------------------------------------------------------------
    # Design-stage reasoning
    # ------------------------------------------------------------------

    def safe_aggregation_sources(
        self, target: Category, max_size: int = 2
    ) -> List[frozenset]:
        """Minimal category sets the target is schema-summarizable from.

        This is the metadata Section 6 proposes for view selection: any of
        these sets, materialized, can answer the target level forever,
        whatever data arrives under the schema's constraints.
        """
        return summarizable_sets(self.schema, target, max_size=max_size)
