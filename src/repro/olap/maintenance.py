"""Incremental maintenance of materialized cube views and schemas.

Distributivity (the paper's footnote 1) is exactly the property that
makes materialized aggregate views maintainable under fact *appends*: the
delta batch is aggregated on its own with ``af`` and merged into existing
cells with ``af^c``, never touching the already-aggregated history.  This
module adds that capability on top of the navigator:

* :func:`apply_delta` - merge a batch of new facts into one view;
* :class:`MaintainedNavigator` - an
  :class:`~repro.olap.navigator.AggregateNavigator` whose fact table and
  materialized views absorb an append without touching the facts already
  loaded: the table grows in O(|delta|) through
  :meth:`~repro.olap.facttable.FactTable.extended` and each view merges
  the delta's own aggregate.

Deletions are *not* supported for SUM/COUNT/MIN/MAX - inverting MIN/MAX
needs the full history - which mirrors real OLAP engines' append-only
aggregate logs.

The module also owns *schema* maintenance: :class:`SchemaEditor` applies
the mutations a dimension administrator performs over time - adding and
dropping edges, categories, and constraints - producing a fresh immutable
:class:`~repro.core.schema.DimensionSchema` per edit and evicting the
replaced version's verdicts from the shared
:class:`~repro.core.decisioncache.DecisionCache`.  Correctness never
rests on the eviction (an edited schema has a new fingerprint, so stale
verdicts are unreachable); the hooks keep dead versions from occupying
cache space across long edit sessions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro._types import Category, Member
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.decisioncache import USE_DEFAULT_CACHE, resolve_cache
from repro.core.instance import DimensionInstance
from repro.core.invalidation import invalidate_everywhere
from repro.core.provenance import mentioned_categories, schema_delta
from repro.core.schema import DimensionSchema
from repro.errors import OlapError, SchemaError
from repro.olap.aggregates import AggregateFunction
from repro.olap.cubeview import CubeView, cube_view
from repro.olap.facttable import FactTable
from repro.olap.navigator import AggregateNavigator


def apply_delta(
    instance: DimensionInstance,
    view: CubeView,
    delta: FactTable,
) -> CubeView:
    """A new view equal to rebuilding over ``facts + delta``.

    The delta is aggregated at the view's category with the base function
    and merged cell-wise with ``af^c``; cells only ever grow in number.
    """
    if delta.instance is not instance:
        # Same-object check is too strict for rebuilt instances; fall back
        # to a structural guard.  Comparing hierarchies alone is not
        # enough: a delta whose instance rolls a shared member up
        # *differently* would merge that member's cells under the wrong
        # ancestors, silently corrupting the view.  Every fact member must
        # exist in the target instance with the same category and the same
        # rollup.
        if delta.instance.hierarchy != instance.hierarchy:
            raise OlapError("delta facts belong to a different dimension")
        for fact in delta:
            member = fact.member
            if member not in instance:
                raise OlapError(
                    f"delta fact member {member!r} does not exist in the "
                    "view's dimension instance"
                )
            if instance.category_of(member) != delta.instance.category_of(member):
                raise OlapError(
                    f"delta fact member {member!r} has category "
                    f"{delta.instance.category_of(member)!r} in the delta "
                    f"but {instance.category_of(member)!r} in the view's "
                    "dimension instance"
                )
            if instance.ancestors_of(member) != delta.instance.ancestors_of(
                member
            ):
                raise OlapError(
                    f"delta fact member {member!r} rolls up differently in "
                    "the delta than in the view's dimension instance"
                )
    partial = cube_view(delta, view.category, view.aggregate, view.measure)
    cells: Dict[Member, float] = dict(view.cells)
    for member, value in partial.cells.items():
        if member in cells:
            cells[member] = view.aggregate.recombine([cells[member], value])
        else:
            cells[member] = value
    return CubeView(
        category=view.category,
        aggregate=view.aggregate,
        measure=view.measure,
        cells=cells,
        rows_scanned=view.rows_scanned + partial.rows_scanned,
    )


class SchemaEditor:
    """Applies schema mutations with decision-cache hygiene.

    Each operation derives a new immutable schema from the current one,
    *rekeys* the replaced version's surviving verdicts to the new
    fingerprint (provenance-scoped invalidation,
    :meth:`~repro.core.decisioncache.DecisionCache.rekey`), sweeps every
    other registered fingerprint store
    (:func:`~repro.core.invalidation.invalidate_everywhere`), and makes
    the new version current.  ``editor.schema`` always holds the latest
    version; every operation also returns it, so one-off edits can stay
    expression-shaped.

    An edit that would leave an existing constraint invalid (e.g. dropping
    an edge a path atom rides on) raises and leaves the current schema
    untouched - except :meth:`drop_category`, which removes the doomed
    category's constraints along with it, mirroring
    :func:`~repro.core.implication.prune_unsatisfiable`.
    """

    def __init__(
        self, schema: DimensionSchema, cache: object = USE_DEFAULT_CACHE
    ) -> None:
        self.schema = schema
        self._cache = resolve_cache(cache)
        #: Fingerprints of every version this editor produced, newest last.
        self.history: List[str] = [schema.fingerprint()]

    def _commit(self, new_schema: DimensionSchema) -> DimensionSchema:
        replaced = self.schema
        self.schema = new_schema
        self.history.append(new_schema.fingerprint())
        if replaced.fingerprint() != new_schema.fingerprint():
            if self._cache is not None:
                # Verdicts whose dependency cone the edit never touched
                # move to the new fingerprint (byte-identical by the
                # soundness argument in ``repro.core.provenance``); the
                # rest are dropped.
                delta = schema_delta(replaced, new_schema)
                self._cache.rekey(replaced, new_schema, delta)
            # Every other fingerprint-keyed store (the compiled decision
            # tier, anything registered later) is swept in one call, so a
            # long edit session cannot pin dead entries in memory and a
            # future store cannot be forgotten.
            invalidate_everywhere(
                replaced.fingerprint(),
                exclude=() if self._cache is None else (self._cache,),
            )
        return new_schema

    # ------------------------------------------------------------------
    # Hierarchy edits
    # ------------------------------------------------------------------

    def add_edge(self, child: Category, parent: Category) -> DimensionSchema:
        """Add the edge ``child -> parent`` to the hierarchy."""
        hierarchy = self.schema.hierarchy
        if (child, parent) in hierarchy.edges:
            raise SchemaError(f"edge {child!r} -> {parent!r} already exists")
        return self._commit(
            DimensionSchema(
                hierarchy.with_edges([(child, parent)]), self.schema.constraints
            )
        )

    def drop_edge(self, child: Category, parent: Category) -> DimensionSchema:
        """Remove the edge ``child -> parent`` from the hierarchy."""
        return self._commit(
            DimensionSchema(
                self.schema.hierarchy.without_edge(child, parent),
                self.schema.constraints,
            )
        )

    def add_category(
        self,
        category: Category,
        parents: Iterable[Category] = (),
        children: Iterable[Category] = (),
    ) -> DimensionSchema:
        """Add a category (default parent: ``All``, per Definition 1a)."""
        return self._commit(
            DimensionSchema(
                self.schema.hierarchy.with_category(category, parents, children),
                self.schema.constraints,
            )
        )

    def drop_category(self, category: Category) -> DimensionSchema:
        """Remove a category, its incident edges, and every constraint
        mentioning it."""
        hierarchy = self.schema.hierarchy.without_category(category)
        kept = [
            node
            for node in self.schema.constraints
            if category not in mentioned_categories(node)
        ]
        return self._commit(DimensionSchema(hierarchy, kept))

    # ------------------------------------------------------------------
    # Constraint edits
    # ------------------------------------------------------------------

    def add_constraint(self, constraint: object) -> DimensionSchema:
        """Append one constraint to SIGMA (AST node or textual syntax)."""
        return self._commit(self.schema.with_constraints([constraint]))

    def drop_constraint(self, constraint: object) -> DimensionSchema:
        """Remove one constraint from SIGMA, matched by canonical text.

        When SIGMA holds several copies, only the last one goes, so a
        drop undoes the latest :meth:`add_constraint` of the same text.
        Raises :class:`SchemaError` when no constraint matches.
        """
        node = parse(constraint) if isinstance(constraint, str) else constraint
        doomed = unparse(node)  # type: ignore[arg-type]
        kept = list(self.schema.constraints)
        for index in range(len(kept) - 1, -1, -1):
            if unparse(kept[index]) == doomed:
                del kept[index]
                return self._commit(DimensionSchema(self.schema.hierarchy, kept))
        raise SchemaError(f"no constraint matches {doomed!r}")


class MaintainedNavigator(AggregateNavigator):
    """An aggregate navigator whose views track fact appends.

    ``append(rows)`` validates only the new rows, extends the fact table
    in place (:meth:`~repro.olap.facttable.FactTable.extended`) and patches
    every materialized view with the delta: each view pays for the delta
    and a copy of its own cells, and nothing rescans or copies the facts
    already loaded.  Query answering is inherited unchanged, so rewrites
    keep their correctness guarantees over the grown data.  Like the fact
    table, a navigator has a single writer.

    Constraint maintenance rides along: :meth:`add_constraint` and
    :meth:`drop_constraint` swap in an edited schema (via
    :class:`SchemaEditor`, so the decision cache is invalidated) and flush
    the navigator's own verdict memo - rewritings proven under the old
    SIGMA are re-proven under the new one.
    """

    def append(
        self, rows: Iterable[Tuple[Member, Mapping[str, float]]]
    ) -> int:
        """Load new facts; returns the number of rows appended.

        A rejected batch (a non-base member, or measures other than the
        table's) raises :class:`OlapError` and changes nothing.  Tables
        handed out earlier keep their own rows.

        >>> from repro.generators.location import location_instance
        >>> from repro.olap.aggregates import SUM
        >>> before = FactTable(location_instance(), [("s1", {"sales": 10.0})])
        >>> navigator = MaintainedNavigator(before)
        >>> navigator.materialize("Country", SUM, "sales").cells
        {'Canada': 10.0}
        >>> navigator.append([("s2", {"sales": 7.0})])
        1
        >>> navigator.answer("Country", SUM, "sales")[0].cells
        {'Canada': 17.0}
        >>> len(before), len(navigator.facts)
        (1, 2)
        """
        delta = FactTable(self.instance, rows)
        if len(delta) == 0:
            return 0
        # Every view is patched before the table grows, so a batch that
        # any step rejects leaves the navigator as it was.
        views = {
            key: apply_delta(self.instance, view, delta)
            for key, view in self._views.items()
        }
        self.facts = self.facts.extended(delta)
        self._views.update(views)
        return len(delta)

    # ------------------------------------------------------------------
    # Schema maintenance
    # ------------------------------------------------------------------

    def _swap_schema(self, new_schema: DimensionSchema) -> None:
        self.schema = new_schema
        # Fingerprint keying already makes old verdicts unreachable; the
        # flush keeps the per-navigator memo from accumulating dead
        # versions over a long maintenance session.
        self._summarizable_cache.clear()
        self._proven_sources.clear()

    def add_constraint(self, constraint: object) -> DimensionSchema:
        """Extend SIGMA; future rewrites are proven under the new schema."""
        if self.schema is None:
            raise OlapError("navigator has no schema to edit")
        editor = SchemaEditor(self.schema, self.cache)
        self._swap_schema(editor.add_constraint(constraint))
        return self.schema

    def drop_constraint(self, constraint: object) -> DimensionSchema:
        """Retract a constraint of SIGMA; rewrites its proof licensed are
        re-examined on the next query."""
        if self.schema is None:
            raise OlapError("navigator has no schema to edit")
        editor = SchemaEditor(self.schema, self.cache)
        self._swap_schema(editor.drop_constraint(constraint))
        return self.schema
