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
:class:`~repro.core.schema.DimensionSchema` per edit and carrying the
replaced version's verdicts over to it in the shared
:class:`~repro.core.decisioncache.DecisionCache`:

* an edit that provably keeps the set of instances - adding a
  constraint the old schema implies, or dropping one the new schema
  implies (Theorem 2) - changes no verdict, so *every* verdict and the
  compiled artifact move to the new fingerprint.  The proof is one
  budgeted implication, decided only when a compiled artifact is held
  for the replaced version;
* any other edit moves only the verdicts whose dependency cone it left
  untouched (:mod:`repro.core.provenance`) and drops the rest.

Correctness never rests on the eviction (an edited schema has a new
fingerprint, so stale verdicts are unreachable); the hooks keep dead
versions from occupying cache space across long edit sessions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro._types import Category, Member
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.budget import DecisionBudget
from repro.core.compile import CompiledDecisionEngine, compiled_artifact_store
from repro.core.decisioncache import (
    USE_DEFAULT_CACHE,
    default_decision_cache,
    resolve_cache,
)
from repro.core.instance import DimensionInstance
from repro.core.metrics import METRICS
from repro.core.provenance import SchemaDelta, mentioned_categories, schema_delta
from repro.core.schema import DimensionSchema
from repro.errors import BudgetExceeded, OlapError, SchemaError
from repro.olap.cubeview import CubeView, cube_view
from repro.olap.facttable import FactTable
from repro.olap.navigator import AggregateNavigator

_M_MODEL_PRESERVING = METRICS.counter("maintenance.model_preserving_edits")
_M_DECISION_FALLBACKS = METRICS.counter("maintenance.edit_decision_fallbacks")

#: The ceiling on the edit's own implication decision (a fresh copy per
#: decision).  The server runs edits under one lock and Theorem 2 is
#: DIMSAT-hard, so the decision must stay bounded; giving up is always
#: sound - the edit then takes the syntactic path.  Nodes (one per
#: root-build branch or solver conflict) keep the outcome independent of
#: host speed.  A decision on a built root charges a few nodes; building
#: the root charges up to ~100 on the suite schemas but 71k (15 s on a
#: 2-vCPU VM) on one 24-category random schema, where 2000 nodes take
#: ~50-130 ms.
_EDIT_DECISION_BUDGET = DecisionBudget(max_nodes=2_000)


def invalidate_everywhere(fingerprint: str, exclude: object = None) -> None:
    """Drop every entry cached under ``fingerprint`` from the process-wide
    fingerprint-keyed stores: the decision cache and the compiled-artifact
    store.

    ``exclude`` (identity-compared) skips a store already handled by a
    finer-grained mechanism - ``SchemaEditor`` passes its own cache,
    which :meth:`~repro.core.decisioncache.DecisionCache.rekey` has
    already swept.
    """
    for store in (default_decision_cache(), compiled_artifact_store()):
        if store is not exclude:
            store.invalidate(fingerprint)


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
        # ancestors, silently corrupting the view.  Every distinct member
        # of the delta's member column must exist in the target instance
        # with the same category and the same rollup.
        if delta.instance.hierarchy != instance.hierarchy:
            raise OlapError("delta facts belong to a different dimension")
        for member in dict.fromkeys(delta.members()):
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
    *rekeys* the replaced version's verdicts that the edit cannot change
    to the new fingerprint
    (:meth:`~repro.core.decisioncache.DecisionCache.rekey`: all of them
    after a model-preserving edit, the untouched dependency cones after
    any other), sweeps the process-wide fingerprint stores
    (:func:`invalidate_everywhere`), and makes
    the new version current.  ``editor.schema`` always holds the latest
    version; every operation also returns it, so one-off edits can stay
    expression-shaped.  ``last_edit_preserved_models`` tells whether the
    latest edit was proven to keep the set of instances.

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
        #: Whether the latest edit was proven to keep the instances.
        self.last_edit_preserved_models = False

    def _commit(self, new_schema: DimensionSchema) -> DimensionSchema:
        """Make ``new_schema`` current and carry the cache over.

        Two rules decide what moves, both sound.  A constraint-only edit
        first asks whether it keeps the set of instances
        (:meth:`_preserves_models`).  If it does, every Theorem 1/2/3
        verdict - a function of that set - is unchanged, and a moved
        witness or counterexample is an instance of the old schema,
        hence of the new one.  So every verdict moves (the cache is
        rekeyed with an empty delta, which every recorded provenance
        survives; the rare entry without one is dropped) and so does the
        compiled artifact.  Otherwise the syntactic delta moves the
        verdicts whose dependency cone the edit never touched and drops
        the rest.  Then every other fingerprint-keyed store is swept.
        """
        replaced = self.schema
        self.schema = new_schema
        self.history.append(new_schema.fingerprint())
        self.last_edit_preserved_models = False
        old_fingerprint = replaced.fingerprint()
        new_fingerprint = new_schema.fingerprint()
        if old_fingerprint == new_fingerprint:
            return new_schema
        delta = schema_delta(replaced, new_schema)
        if self._preserves_models(replaced, new_schema, delta):
            self.last_edit_preserved_models = True
            _M_MODEL_PRESERVING.inc()
            if self._cache is not None:
                # Every verdict moves: an empty delta touches no cone.
                self._cache.rekey(
                    replaced, new_schema, schema_delta(replaced, replaced)
                )
            compiled_artifact_store().rekey(old_fingerprint, new_fingerprint)
        elif self._cache is not None:
            # Verdicts whose dependency cone the edit never touched move
            # to the new fingerprint (byte-identical by the soundness
            # argument in ``repro.core.provenance``); the rest are dropped.
            self._cache.rekey(replaced, new_schema, delta)
        # The process-wide stores (the compiled decision tier unless its
        # artifact just moved) drop the replaced version, so a long edit
        # session cannot pin dead entries in memory.
        invalidate_everywhere(old_fingerprint, exclude=self._cache)
        return new_schema

    def _preserves_models(
        self,
        replaced: DimensionSchema,
        new_schema: DimensionSchema,
        delta: SchemaDelta,
    ) -> bool:
        """Whether a constraint-only edit provably keeps the set of
        instances (Theorem 2).

        Only an edit that leaves the hierarchy alone and adds or drops
        exactly one constraint text qualifies, or one that adds or drops
        a duplicate text (``delta.empty``, trivially preserving):

        * **add alpha**: decide ``SIGMA_old |= alpha`` through the
          compiled tier on the editor's cache, so the answer is memoized
          under the old fingerprint and moves with the rest;
        * **drop alpha**: if the compiled artifact held under the old
          fingerprint was built from a schema whose constraint texts are
          all still in ``SIGMA_new``, then models(old) <= models(new) <=
          models(built-from) = models(old) by the store's invariant, and
          nothing needs deciding; otherwise decide ``SIGMA_new |= alpha``.

        Nothing is decided unless the store holds an artifact under the
        old fingerprint.  That artifact is what a "yes" carries over, and
        an add decides through it; without one, an add that is not
        implied would compile an artifact only for ``invalidate_everywhere``
        to throw it away.  So an editor whose schema was never decided
        through the compiled tier (a kernel-only engine, a navigator
        that has not decided anything yet) takes the syntactic path, as
        after a "no".  A drop that misses the shortcut decides on the new
        schema, whose artifact stays under the new fingerprint whatever
        the answer.

        The decision runs under :data:`_EDIT_DECISION_BUDGET`.  An
        injected fault or an exhausted budget counts as a fallback and
        answers ``False``: the edit then takes the syntactic path.  (A
        root that fails to compile needs no handling here: the compiled
        engine falls back to the kernel under the same budget.)
        """
        if delta.empty:
            return True
        if (
            delta.added_categories
            or delta.removed_categories
            or delta.added_edges
            or delta.removed_edges
            or len(delta.added_constraints) + len(delta.removed_constraints) != 1
        ):
            return False
        store = compiled_artifact_store()
        artifact = store.peek(replaced.fingerprint())
        if artifact is None:
            return False
        if delta.added_constraints:
            (text,) = delta.added_constraints
            asked = replaced
        else:
            (text,) = delta.removed_constraints
            if {unparse(node) for node in artifact.schema.constraints} <= {
                unparse(node) for node in new_schema.constraints
            }:
                return True
            asked = new_schema
        engine = CompiledDecisionEngine(
            cache=self._cache, budget=_EDIT_DECISION_BUDGET, store=store
        )
        try:
            return engine.implies(asked, text).implied
        except (OSError, BudgetExceeded):
            _M_DECISION_FALLBACKS.inc()
            return False

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
    :meth:`drop_constraint` swap in an edited schema (via a
    :class:`SchemaEditor` on the engine's decision cache, so verdicts the
    edit cannot change move to the new version and the rest are dropped)
    and flush the navigator's own verdict memo - rewritings proven under
    the old SIGMA are re-proven under the new one.  After a model-preserving
    edit (say, adding a constraint SIGMA already implies) that re-proof is
    a decision-cache hit.
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
        # The memo holds the replaced schema's verdicts; the engine's
        # decision cache carries over the ones the edit keeps.
        self._verdicts.clear()

    def add_constraint(self, constraint: object) -> DimensionSchema:
        """Extend SIGMA; future rewrites are proven under the new schema."""
        if self.schema is None:
            raise OlapError("navigator has no schema to edit")
        editor = SchemaEditor(self.schema, self.engine.cache)
        self._swap_schema(editor.add_constraint(constraint))
        return self.schema

    def drop_constraint(self, constraint: object) -> DimensionSchema:
        """Retract a constraint of SIGMA; rewrites its proof licensed are
        re-examined on the next query."""
        if self.schema is None:
            raise OlapError("navigator has no schema to edit")
        editor = SchemaEditor(self.schema, self.engine.cache)
        self._swap_schema(editor.drop_constraint(constraint))
        return self.schema
