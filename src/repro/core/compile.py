"""The compiled decision tier: specialize a schema once, answer forever.

Every decision the system serves - category satisfiability (Theorem 3),
constraint implication (Theorem 2), schema-level summarizability
(Theorem 1) - is a pure function of the dimension schema ``(G, SIGMA)``.
The interpreted kernel (:mod:`repro.core.dimsat`) re-runs the EXPAND /
CHECK backtracking search for every cold decision; this module instead
*compiles* the schema, keyed by its existing fingerprint, into a reusable
artifact:

* the structural (C1)-(C7) side of the search is encoded, not
  enumerated: over each root's upward closure, edge and reachability
  variables whose models are exactly the complete subhierarchies
  (Definition 7: rooted at the category, reaching ``All``, acyclic,
  shortcut-free), so Theorem 3's "some frozen dimension exists" is one
  SAT call however many subhierarchies there are;
* the circle operator (Definition 8) maps each atom straight to those
  literals: a path atom to the conjunction of its edges, a rolls-up or
  through atom to reachability, and an equality atom ``r.c ~ k`` to
  ``reach(r, c) AND x_{c,k}`` over per-``(category, constant)``
  assignment variables.  SIGMA is encoded **once per root**, in one
  :class:`~repro.core.satsolver.Solver` per root;
* every witness the solver produces passes an interpreted CHECK
  (Proposition 2): the decoded skeleton must be an acyclic,
  shortcut-free subhierarchy and the unreduced constraints are
  evaluated on the decoded frozen dimension, so a compiled
  "satisfiable" can never be wrong;
* implication queries join incrementally: ``SIGMA | {NOT alpha}``
  (Theorem 2) encodes ``NOT alpha`` once, guarded by a fresh
  *activation* literal, and solves under that assumption, so the
  solver's **learned clauses persist in the artifact** and every later
  query on the same schema - the whole implication family, and the
  per-bottom implication tests Theorem 1 reduces summarizability to -
  starts from everything earlier queries proved.

:class:`CompiledDecisionEngine` wires the artifact into the existing
stack: verdicts memoize through the same
:class:`~repro.core.decisioncache.DecisionCache` keys the sequential
kernel and the interpreted engine use (so caches interoperate and
verdicts stay byte-identical), trace spans and metrics flow through the
observability layer, every served verdict lands in the PR 5 audit log
(replayable by ``repro-olap audit-verify``), and any compilation failure
- a numeric category, a query with comparison atoms, a witness CHECK
rejects - degrades to the interpreted kernel (the fallback discipline:
slower, never wrong).

Schemas with numeric categories (order predicates) are *not* compiled:
their c-assignment domains are interval representatives whose truth
tables do not map onto the boolean assignment variables used here, so
the tier falls back to the interpreted kernel for them.

This is the default engine: :func:`~repro.core.resilience.build_engine`
builds it unless asked for ``"sequential"``, so the CLI, ``serve`` and
the soak decide through it.  The interpreted kernel stays the fallback
and the oracle (the resilience ladder's sequential rung, the cache-load
replay and ``audit-verify`` all re-decide through it).

The per-decision :class:`~repro.core.budget.DecisionBudget` bounds the
compiled tier as it bounds the kernel: a root's build charges one unit,
every SAT solve charges one unit on entry and one per conflict, and a
:class:`CompilationError` fallback continues under the same budget.  A
root whose build runs out is not stored (nor cached as a compile
failure), and a solve that runs out leaves its solver usable with every
learned clause still sound.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.constraints.ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    ComparisonAtom,
    EqualityAtom,
    ExactlyOne,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    Xor,
    constraint_root,
    hash_cons,
)
from repro.constraints.atoms import validate_constraint
from repro.constraints.simplify import evaluate
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE, resolve_cache
from repro.core.dimsat import (
    DimsatResult,
    DimsatStats,
    circle_node,
    dimsat as run_dimsat,
)
from repro.core.frozen import FrozenDimension, Subhierarchy
from repro.core.hierarchy import ALL, Category
from repro.core.implication import ImplicationResult, implies as run_implies
from repro.core.instance import TOP_MEMBER
from repro.core.metrics import METRICS
from repro.core.parallel import serve
from repro.core.request import resolve_request
from repro.core.satsolver import Solver
from repro.core.schema import DimensionSchema
from repro.core.summarizability import summarizable_by_bottoms
from repro.core.trace import TRACER
from repro.errors import ReproError, SchemaError

__all__ = [
    "CompilationError",
    "CompiledArtifact",
    "CompiledArtifactStore",
    "CompiledDecisionEngine",
    "CompiledEngineStats",
    "compiled_artifact_store",
    "resolve_engine",
]

class CompilationError(ReproError):
    """A schema (or query) the compiled tier cannot soundly serve.

    Raising this is always safe: every caller degrades to the
    interpreted kernel, so a compilation failure costs time, never
    correctness.
    """


# ----------------------------------------------------------------------
# Per-root compilation: one incremental SAT instance per (schema, root)
# ----------------------------------------------------------------------


class _RootCompilation:
    """The compiled decision surface for one ``(schema, root)`` pair:
    one CNF whose models are the frozen dimensions rooted at ``root``.

    Over the root's upward closure in ``G`` the solver holds one variable
    per edge ``e_{c,p}`` and, where a ``G``-path could carry it, one per
    reachability pair ``reach_{a,b}``; a category is populated exactly
    when the root reaches it.  Permanently, it holds the skeleton of a
    frozen dimension, conditions (C1)-(C7) as Definition 7 and
    Proposition 2 need them:

    * an edge populates both of its endpoints;
    * a populated category other than ``All`` picks a parent edge;
    * ``reach_{a,b} <-> e_{a,b} OR OR_m (e_{a,m} AND reach_{m,b})``;
    * ``NOT reach_{c,c}`` for every category on a ``G``-cycle;
    * ``NOT (e_{c,p} AND e_{c,m} AND reach_{m,p})``: no shortcut;

    then SIGMA, each constraint guarded by its root's presence (the
    vacuity rule; an into constraint thus forces its edge), at-most-one
    clauses over each category's assignment variables, and every clause
    learned by past queries.  No separate order is needed against
    self-supporting ``reach`` cycles: a spurious ``reach`` needs a chosen
    cycle of edges, and the ``<-`` direction then forces some
    ``reach_{c,c}``.  Queries add activation-guarded clauses and solve
    under one assumption.
    """

    def __init__(
        self,
        schema: DimensionSchema,
        root: Category,
        budget: Optional[DecisionBudget] = None,
    ) -> None:
        if budget is not None:
            budget.charge()
        # One compiled root is shared by every thread deciding on its
        # schema (the decision server multiplexes clients over one
        # engine); queries mutate the incremental solver, so the whole
        # assume-solve-decode sequence is a critical section.
        self._lock = threading.Lock()
        self.hierarchy = schema.hierarchy
        self.root = root
        self.solver = Solver()
        # A constant-true variable lets TRUE/FALSE fold into literals.
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._eq_vars: Dict[Tuple[Category, str], int] = {}
        self._by_category: Dict[Category, List[int]] = {}
        #: Atom, compound node, or sorted conjunct literals -> literal.
        self._gates: Dict[object, int] = {}
        self._reach_lits: Dict[Tuple[Category, Category], int] = {}
        #: Hash-consed query node -> (activation literal, negated query).
        self._queries: Dict[Node, Tuple[int, Node]] = {}
        self.closure = frozenset({root} | self.hierarchy.ancestors(root))
        self.edges: Dict[Tuple[Category, Category], int] = {
            (child, parent): self.solver.new_var()
            for child in sorted(self.closure)
            for parent in sorted(self.hierarchy.parents(child))
        }
        add = self.solver.add_clause
        for (child, parent), edge in self.edges.items():
            add([-edge, self._in(child)])
            add([-edge, self._in(parent)])
        for category in sorted(self.closure):
            parents = sorted(self.hierarchy.parents(category))
            if category != ALL:
                add([-self._in(category)] + [self.edges[category, p] for p in parents])
            if category in self.hierarchy.ancestors(category):
                add([-self._reach(category, category)])
            for upper in parents:
                for mid in parents:
                    if mid != upper and upper in self.hierarchy.ancestors(mid):
                        add([
                            -self.edges[category, upper],
                            -self.edges[category, mid],
                            -self._reach(mid, upper),
                        ])
        self._sigma = [
            (constraint_root(node), node)
            for node in schema.relevant_constraints(root)
        ]
        for node_root, node in self._sigma:
            # The vacuity rule: a constraint holds on a frozen dimension
            # that does not populate its root.
            guard = [] if node_root is None else [-self._in(node_root)]
            for clause in self._clauses(node):
                add(guard + clause)

    # -- construction ---------------------------------------------------

    def _in(self, category: Category) -> int:
        """Whether the model populates ``category``: the root and ``All``
        always, any other category when the root reaches it."""
        if category in (self.root, ALL):
            return self._true
        return self._reach(self.root, category)

    def _reach(self, lower: Category, upper: Category) -> int:
        """``reach_{lower,upper}``: a chosen path from ``lower`` to
        ``upper`` of at least one edge.  FALSE without a ``G``-path, and
        folded into its one disjunct when it has one and ``lower`` lies
        on no ``G``-cycle (only there can the definition recurse into
        itself, so only there is a variable allocated up front)."""
        key = (lower, upper)
        lit = self._reach_lits.get(key)
        if lit is not None:
            return lit
        ancestors = self.hierarchy.ancestors
        if lower not in self.closure or upper not in ancestors(lower):
            return -self._true
        cyclic = lower in ancestors(lower)
        if cyclic:
            lit = self._reach_lits[key] = self.solver.new_var()
        terms = [self.edges[key]] if key in self.edges else []
        for mid in sorted(self.hierarchy.parents(lower)):
            if mid != upper and upper in ancestors(mid):
                terms.append(
                    self._and([self.edges[lower, mid], self._reach(mid, upper)])
                )
        if not cyclic:
            if len(terms) == 1:
                self._reach_lits[key] = terms[0]
                return terms[0]
            lit = self._reach_lits[key] = self.solver.new_var()
        self.solver.add_clause([-lit] + terms)
        for term in terms:
            self.solver.add_clause([-term, lit])
        return lit

    def _reaches(self, lower: Category, upper: Category) -> int:
        """``lower`` is populated and reaches ``upper`` (reflexively): the
        Definition 8 condition under which an atom ``lower.upper`` is
        not folded to FALSE."""
        if upper in (lower, ALL):
            return self._in(lower)
        return self._reach(lower, upper)

    def _atom(self, atom: Atom) -> int:
        """The literal of one atom, following :func:`circle_node`."""
        if isinstance(atom, PathAtom):
            path = atom.full_path
            return self._and([
                self.edges.get(edge, -self._true) for edge in zip(path, path[1:])
            ])
        if isinstance(atom, RollsUpAtom):
            if atom.root == atom.target:
                return self._true
            return self._reaches(atom.root, atom.target)
        if isinstance(atom, ThroughAtom):
            # The cases of ``dimsat._through_in``.
            c, ci, cj = atom.root, atom.via, atom.target
            if c == ci == cj:
                return self._true
            if c == cj:
                return -self._true
            if ci in (c, cj):
                return self._reaches(c, cj)
            return self._and([self._reaches(c, ci), self._reaches(ci, cj)])
        if isinstance(atom, EqualityAtom):
            if atom.category == ALL:
                name = self._true if atom.constant == TOP_MEMBER else -self._true
            else:
                name = self._eq_var(atom.category, atom.constant)
            return self._and([self._reaches(atom.root, atom.category), name])
        if isinstance(atom, ComparisonAtom):
            raise CompilationError(
                "comparison atoms (numeric categories) are not compilable"
            )
        raise CompilationError(f"cannot encode atom type {type(atom).__name__}")

    def _eq_var(self, category: Category, constant: str) -> int:
        key = (category, constant)
        var = self._eq_vars.get(key)
        if var is None:
            var = self.solver.new_var()
            siblings = self._by_category.setdefault(category, [])
            # A member has one name: at most one equality var per
            # category holds (all false = the anonymous ``nk``).  New
            # constants from later queries slot in monotonically.
            for other in siblings:
                self.solver.add_clause([-var, -other])
            siblings.append(var)
            self._eq_vars[key] = var
        return var

    def _and(self, literals: List[int]) -> int:
        """A literal for the conjunction of ``literals``."""
        literals = [lit for lit in literals if lit != self._true]
        if -self._true in literals:
            return -self._true
        if len(literals) < 2:
            return literals[0] if literals else self._true
        key = tuple(sorted(literals))
        gate = self._gates.get(key)
        if gate is None:
            gate = self._gates[key] = self.solver.new_var()
            for lit in literals:
                self.solver.add_clause([-gate, lit])
            self.solver.add_clause([gate] + [-lit for lit in literals])
        return gate

    def _clauses(self, node: Node, holds: bool = True) -> List[List[int]]:
        """Clauses over encoded literals that hold exactly when ``node``
        holds (or, with ``holds=False``, fails): the top-level connective
        becomes clauses directly, and compound operands get gates."""
        if isinstance(node, Not):
            return self._clauses(node.child, not holds)
        if isinstance(node, (And, Or)):
            if isinstance(node, And) == holds:
                return [c for op in node.operands for c in self._clauses(op, holds)]
            return [[self._encode(op) * (1 if holds else -1) for op in node.operands]]
        if isinstance(node, Implies):
            if holds:
                return [[-self._encode(node.antecedent), self._encode(node.consequent)]]
            return self._clauses(node.antecedent) + self._clauses(node.consequent, False)
        if isinstance(node, (Iff, Xor)):
            left = self._encode(node.left)
            right = self._encode(node.right)
            if isinstance(node, Xor) == holds:
                right = -right
            return [[-left, right], [left, -right]]
        if isinstance(node, ExactlyOne):
            lits = [self._encode(op) for op in node.operands]
            pairs = list(itertools.combinations(lits, 2))
            if holds:
                return [lits] + [[-a, -b] for a, b in pairs]
            # None holds, or some two do.
            none = self._and([-lit for lit in lits])
            return [[none] + [self._and([a, b]) for a, b in pairs]]
        lit = self._encode(node)
        return [[lit if holds else -lit]]

    def _encode(self, node: Node) -> int:
        """A literal true exactly when ``node`` holds on the model's
        frozen dimension: an atom's literal, or a gate tied to both
        polarities of :meth:`_clauses` (Tseitin)."""
        if node is TRUE or node == TRUE:
            return self._true
        if node is FALSE or node == FALSE:
            return -self._true
        if isinstance(node, Not):
            return -self._encode(node.child)
        gate = self._gates.get(node)
        if gate is not None:
            return gate
        if isinstance(node, Atom):
            gate = self._gates[node] = self._atom(node)
            return gate
        if not isinstance(node, (And, Or, Implies, Iff, Xor, ExactlyOne)):
            raise CompilationError(f"cannot encode node type {type(node).__name__}")
        gate = self.solver.new_var()
        for clause in self._clauses(node):
            self.solver.add_clause([-gate] + clause)
        for clause in self._clauses(node, False):
            self.solver.add_clause([gate] + clause)
        self._gates[node] = gate
        return gate

    # -- queries --------------------------------------------------------

    def assume_query(self, node: Node) -> Tuple[int, Node]:
        """Register ``NOT node`` (Theorem 2's extension) and return its
        activation literal and the negated node.

        ``NOT node`` is encoded once: O(|node|) clauses plus at most one
        gate per atom not seen before.  Its clauses are
        guarded by the activation literal, so they constrain nothing
        unless assumed, and clauses learned under one query stay sound
        for every other.  Repeat queries cost one dict probe.
        """
        known = self._queries.get(node)
        if known is not None:
            return known
        negated = hash_cons(Not(node))
        clauses = self._clauses(negated)
        activation = self.solver.new_var()
        for clause in clauses:
            self.solver.add_clause([-activation] + clause)
        self._queries[node] = (activation, negated)
        return activation, negated

    # -- solving --------------------------------------------------------

    def decide(
        self,
        query: Optional[Node] = None,
        budget: Optional[DecisionBudget] = None,
    ) -> Tuple[bool, Optional[FrozenDimension]]:
        """Satisfiability of the root - plain (``query=None``) or in the
        schema extended with ``NOT query`` (the Theorem 2 test).

        A positive verdict's witness passes :meth:`_witness`'s CHECK, so
        a solver or encoding defect can only ever cost a fallback
        (:class:`CompilationError`), never a wrong "satisfiable".
        ``budget`` bounds the solve (see :meth:`Solver.solve`).
        """
        with self._lock:
            assumptions: List[int] = []
            negated: Optional[Node] = None
            if query is not None:
                activation, negated = self.assume_query(query)
                assumptions.append(activation)
            # A budget rides on the solver, so every solve is the
            # one-argument call the benchmark tracer (perfbench/tracer.py)
            # wraps by name - budgeted or not.
            if budget is None:
                solved = self.solver.solve(assumptions)
            else:
                self.solver.budget = budget
                try:
                    solved = self.solver.solve(assumptions)
                finally:
                    self.solver.budget = None
            if not solved:
                return False, None
            return True, self._witness(negated)

    def _witness(self, negated: Optional[Node]) -> FrozenDimension:
        """The model's frozen dimension, after CHECK (Proposition 2),
        interpreted and reading nothing of the encoding: the decoded
        skeleton must be a subhierarchy (Definition 7), acyclic and
        shortcut free, and SIGMA and ``negated`` must hold on it."""
        model_value = self.solver.model_value
        sub = Subhierarchy(
            self.root,
            frozenset(c for c in self.closure if model_value(self._in(c))),
            frozenset(edge for edge, var in self.edges.items() if model_value(var)),
        )
        try:
            sub.validate(self.hierarchy)
        except SchemaError as error:
            raise CompilationError(f"decoded skeleton fails CHECK: {error}") from error
        if not sub.is_acyclic() or sub.shortcut_edges():
            raise CompilationError("decoded skeleton fails CHECK: cycle or shortcut")
        names = {
            category: constant
            for (category, constant), var in self._eq_vars.items()
            if model_value(var) and category in sub.categories
        }

        def truth(atom: Atom) -> bool:
            folded = circle_node(atom, sub)
            if isinstance(folded, EqualityAtom):
                if folded.category == ALL:
                    return folded.constant == TOP_MEMBER
                return names.get(folded.category) == folded.constant
            return folded == TRUE

        holds = all(
            (node_root is not None and node_root not in sub.categories)
            or evaluate(node, truth)
            for node_root, node in self._sigma
        )
        if not holds or (negated is not None and not evaluate(negated, truth)):
            raise CompilationError("decoded witness fails CHECK")
        return FrozenDimension(sub, names)

    # -- introspection --------------------------------------------------

    def describe(self) -> Dict[str, int]:
        return {
            "edges": len(self.edges),
            "variables": self.solver.num_vars,
            "clauses": self.solver.num_clauses,
            "learned_clauses": self.solver.num_learned,
            "queries": len(self._queries),
            "conflicts": self.solver.stats.conflicts,
        }


# ----------------------------------------------------------------------
# The per-schema artifact and its process-wide store
# ----------------------------------------------------------------------


class CompiledArtifact:
    """Everything compiled for one schema fingerprint.

    Roots compile lazily on first use (a navigator may only ever decide
    over a few bottom categories) and stay resident - with their solvers
    and learned clauses - for the lifetime of the artifact.  ``schema``
    and ``fingerprint`` name the schema it was built from; after a
    model-preserving edit the store may hold it under another
    fingerprint (see :class:`CompiledArtifactStore`).
    """

    def __init__(self, schema: DimensionSchema) -> None:
        for category in schema.hierarchy.categories:
            if schema.is_numeric(category):
                raise CompilationError(
                    f"category {category!r} carries order predicates; "
                    "numeric domains are decided by the interpreted kernel"
                )
        self.schema = schema
        self.fingerprint = schema.fingerprint()
        self._roots: Dict[Category, _RootCompilation] = {}
        self._lock = threading.Lock()

    def root(
        self, category: Category, budget: Optional[DecisionBudget] = None
    ) -> _RootCompilation:
        """The compiled surface for one root, building it on first use.

        The build charges ``budget``; a build the budget aborts raises
        :class:`~repro.errors.BudgetExceeded` and stores nothing, so the
        next decision on this root builds it afresh.
        """
        with self._lock:
            compiled = self._roots.get(category)
            if compiled is None:
                with TRACER.span(
                    "compile.root", root=category, fingerprint=self.fingerprint
                ) as span:
                    compiled = _RootCompilation(self.schema, category, budget)
                    span.set(
                        edges=len(compiled.edges),
                        variables=compiled.solver.num_vars,
                        clauses=compiled.solver.num_clauses,
                    )
                self._roots[category] = compiled
            return compiled

    def compile_all_roots(self) -> Dict[Category, Dict[str, int]]:
        """Eagerly compile every category (the CLI ``compile`` command);
        returns per-root artifact statistics."""
        report: Dict[Category, Dict[str, int]] = {}
        for category in sorted(self.schema.hierarchy.categories):
            if category == ALL:
                continue
            report[category] = self.root(category).describe()
        return report

    def describe(self) -> Dict[str, object]:
        roots = {root: rc.describe() for root, rc in sorted(self._roots.items())}
        return {
            "fingerprint": self.fingerprint,
            "roots_compiled": len(roots),
            "learned_clauses": sum(r["learned_clauses"] for r in roots.values()),
            "roots": roots,
        }


@dataclass
class ArtifactStoreStats:
    """Counters for the process-wide artifact store (``--cache-stats``
    and the telemetry operator report surface these)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    compile_failures: int = 0


_STORE_STATS = METRICS.stats_family("compiled.artifact_", ArtifactStoreStats)


class CompiledArtifactStore:
    """Fingerprint-keyed registry of compiled artifacts.

    Failures are cached too (as their reason string): a schema the
    compiler rejects once is rejected cheaply forever - the engine's
    fallback path does the actual deciding.  ``SchemaEditor`` mutations
    call :meth:`invalidate`, mirroring the decision-cache hygiene;
    correctness never depends on it because an edited schema has a new
    fingerprint.

    **Invariant.** An artifact stored under a fingerprint was either
    compiled from that schema or moved there by :meth:`rekey` after a
    proven model-preserving edit (``SchemaEditor`` in
    :mod:`repro.olap.maintenance`).  Either way the schema it was built
    from (``artifact.schema``) has exactly the instances of the schema
    the fingerprint names, so every verdict it answers is that schema's
    verdict (Theorems 1-3 are functions of the set of instances).  The
    editor's drop shortcut is sound only under this invariant.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self.stats = _STORE_STATS.track(self, ArtifactStoreStats())
        self._lock = threading.Lock()
        self._artifacts: Dict[str, object] = {}

    def get(self, schema: DimensionSchema) -> CompiledArtifact:
        """The artifact for this schema, compiling on first sight."""
        fingerprint = schema.fingerprint()
        with self._lock:
            entry = self._artifacts.get(fingerprint)
            if entry is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if entry is not None:
            if isinstance(entry, str):
                raise CompilationError(entry)
            return entry  # type: ignore[return-value]
        try:
            with TRACER.span("compile.schema", fingerprint=fingerprint):
                artifact: object = CompiledArtifact(schema)
        except CompilationError as error:
            with self._lock:
                self.stats.compile_failures += 1
                self._store(fingerprint, str(error))
            raise
        with self._lock:
            self._store(fingerprint, artifact)
        return artifact  # type: ignore[return-value]

    def _store(self, fingerprint: str, entry: object) -> None:
        if fingerprint not in self._artifacts:
            if len(self._artifacts) >= self.max_entries:
                self._artifacts.pop(next(iter(self._artifacts)))
            self._artifacts[fingerprint] = entry

    def peek(self, fingerprint: str) -> Optional[CompiledArtifact]:
        """The artifact stored under ``fingerprint`` without counting a
        hit or compiling (``None`` when absent or a cached failure)."""
        with self._lock:
            entry = self._artifacts.get(fingerprint)
        return entry if isinstance(entry, CompiledArtifact) else None

    def rekey(self, old_fingerprint: str, new_fingerprint: str) -> None:
        """Move the entry under ``old_fingerprint`` to ``new_fingerprint``
        after an edit that provably preserves the schema's instances
        (see the class invariant).

        An entry already stored under ``new_fingerprint`` wins, and the
        old one is dropped.
        """
        with self._lock:
            entry = self._artifacts.pop(old_fingerprint, None)
            if entry is None:
                return
            self._store(new_fingerprint, entry)
        if TRACER.enabled:
            TRACER.event("compiled.rekey", fingerprint=new_fingerprint)

    def invalidate(self, schema_or_fingerprint: object) -> int:
        """Drop the artifact (or cached failure) for one schema version;
        returns the number of entries removed."""
        fingerprint = (
            schema_or_fingerprint
            if isinstance(schema_or_fingerprint, str)
            else schema_or_fingerprint.fingerprint()  # type: ignore[union-attr]
        )
        with self._lock:
            dropped = 1 if self._artifacts.pop(fingerprint, None) is not None else 0
            self.stats.invalidations += dropped
        if dropped and TRACER.enabled:
            TRACER.event("compiled.invalidate", fingerprint=fingerprint)
        return dropped

    def holds(self, fingerprint: str) -> bool:
        """Whether an artifact (or cached failure) exists for
        ``fingerprint``."""
        with self._lock:
            return fingerprint in self._artifacts

    def clear(self) -> None:
        with self._lock:
            self._artifacts.clear()
            _STORE_STATS.reset(self.stats)

    def __len__(self) -> int:
        return len(self._artifacts)

    def report_lines(self) -> List[str]:
        """The ``--cache-stats`` block for the artifact store."""
        return [
            "compiled artifacts:",
            f"  entries        {len(self)}",
            f"  hits           {self.stats.hits}",
            f"  misses         {self.stats.misses}",
            f"  invalidations  {self.stats.invalidations}",
            f"  compile fails  {self.stats.compile_failures}",
        ]


_ARTIFACT_STORE = CompiledArtifactStore()


def compiled_artifact_store() -> CompiledArtifactStore:
    """The process-wide artifact store (shared by every
    :class:`CompiledDecisionEngine` unless one is injected)."""
    return _ARTIFACT_STORE


# ----------------------------------------------------------------------
# The engine rung
# ----------------------------------------------------------------------


@dataclass
class CompiledEngineStats:
    """Work counters for one :class:`CompiledDecisionEngine`."""

    compiled_decisions: int = 0
    fallbacks: int = 0


_ENGINE_STATS = METRICS.stats_family("compiled.", CompiledEngineStats)


class CompiledDecisionEngine:
    """The compiled rung of the decision stack.

    The same three decision procedures as
    :class:`~repro.core.parallel.ParallelDecisionEngine` (``dimsat``,
    ``implies``, ``is_summarizable``), so the navigator, view selection
    and the batch functions of :mod:`repro.core.parallel` ask either
    alike, and :class:`~repro.core.resilience.ResilientDecisionEngine`
    can wrap it as its primary rung (compile failures then ride the
    existing degradation ladder).  Verdicts memoize through the shared
    :class:`~repro.core.decisioncache.DecisionCache` under the *same
    keys* as the interpreted engine - the compiled tier
    changes where cold verdicts come from, never what they are.

    The compiled tier always decides under default
    :class:`~repro.core.dimsat.DimsatOptions`, which also keeps its
    audit records replayable by ``repro-olap audit-verify``.

    ``budget`` is a per-decision template, as on the interpreted engine:
    each computed decision charges one fresh copy across the root's
    build (one unit), every solve (one unit on entry
    and one per conflict) and, after a :class:`CompilationError`, the
    kernel fallback.  A decision that runs out raises
    :class:`~repro.errors.BudgetExceeded` and caches nothing.  Each
    computed decision also passes the fault-injection worker checkpoint
    once (:mod:`repro.core.faults`) and publishes its budget use
    (:func:`~repro.core.parallel.computed`); a cached verdict does
    neither.
    """

    #: Its :func:`~repro.core.resilience.build_engine` name.
    name = "compiled"

    def __init__(
        self,
        cache: object = USE_DEFAULT_CACHE,
        budget: Optional[DecisionBudget] = None,
        store: Optional[CompiledArtifactStore] = None,
    ) -> None:
        self.cache = resolve_cache(cache)
        self.budget_template = budget
        self.store = store if store is not None else compiled_artifact_store()
        self.stats = _ENGINE_STATS.track(self, CompiledEngineStats())
        self._lock = threading.Lock()

    # -- fallback accounting -------------------------------------------

    def _note_fallback(self, kind: str, error: CompilationError) -> None:
        with self._lock:
            self.stats.fallbacks += 1
        if TRACER.enabled:
            TRACER.event("compiled.fallback", kind=kind, reason=str(error))

    # -- the three decision procedures ----------------------------------

    def dimsat(
        self, schema: DimensionSchema, category: Category
    ) -> DimsatResult:
        """Category satisfiability through the compiled artifact."""
        if not schema.hierarchy.has_category(category):
            raise SchemaError(f"unknown category {category!r}")
        if category == ALL:
            # Proposition 1: the kernel answers All without a search.
            return run_dimsat(schema, category)
        return serve(
            self,
            schema,
            ("dimsat", category),
            partial(self._dimsat_uncached, schema, category),
        )

    def _dimsat_uncached(
        self,
        schema: DimensionSchema,
        category: Category,
        budget: Optional[DecisionBudget] = None,
    ) -> DimsatResult:
        try:
            root = self.store.get(schema).root(category, budget)
            with TRACER.span(
                "compiled.decide", kind="dimsat", category=category
            ) as span:
                satisfiable, witness = root.decide(budget=budget)
                span.set(satisfiable=satisfiable)
        except CompilationError as error:
            # The fallback continues the decision under the same budget.
            self._note_fallback("dimsat", error)
            return run_dimsat(schema, category, None, budget)
        # Counted without the lock, on every computed decision's path: a
        # thread switch inside the increment can only undercount.
        self.stats.compiled_decisions += 1
        return DimsatResult(
            satisfiable=satisfiable, witness=witness, stats=DimsatStats()
        )

    def implies(
        self, schema: DimensionSchema, constraint: object
    ) -> ImplicationResult:
        """Theorem 2 through the artifact: assume the query's activation
        literal over the root's persistent solver.

        The constraint is validated on a miss only, as the interpreted
        engine does: one that fails validation is never cached, so a hit
        needs no check."""
        request = resolve_request(("implies", constraint))
        return serve(
            self, schema, request, partial(self._implies_uncached, schema, request[1])
        )

    def _implies_uncached(
        self,
        schema: DimensionSchema,
        node: Node,
        budget: Optional[DecisionBudget] = None,
        root_category: Optional[Category] = None,
    ) -> ImplicationResult:
        if root_category is None:
            root_category = validate_constraint(schema.hierarchy, node)
        try:
            root = self.store.get(schema).root(root_category, budget)
            with TRACER.span(
                "compiled.decide", kind="implies", root=root_category
            ) as span:
                satisfiable, witness = root.decide(node, budget)
                span.set(implied=not satisfiable)
        except CompilationError as error:
            # The fallback continues the decision under the same budget.
            self._note_fallback("implies", error)
            return run_implies(schema, node, None, cache=None, budget=budget)
        # Counted without the lock, on every computed decision's path: a
        # thread switch inside the increment can only undercount.
        self.stats.compiled_decisions += 1
        return ImplicationResult(
            implied=not satisfiable,
            counterexample=witness,
            dimsat_result=DimsatResult(
                satisfiable=satisfiable, witness=witness, stats=DimsatStats()
            ),
        )

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one compiled implication test per bottom category.

        All bottoms share the artifact, so the per-bottom tests reuse
        each other's learned clauses within each root solver, and
        repeated source sets hit the registered-query memo outright.
        """
        request = resolve_request(("summarizable", target, sources))
        return serve(
            self,
            schema,
            request,
            partial(self._summarizable_uncached, schema, target, request[2]),
        )

    def _summarizable_uncached(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Tuple[Category, ...],
        budget: Optional[DecisionBudget] = None,
    ) -> bool:
        with TRACER.span("compiled.decide", kind="summarizable", target=target):
            # The generated constraint is rooted at its bottom, so
            # re-validation (and its hierarchy walk) is redundant.  Every
            # bottom's test charges the decision's one budget.
            return summarizable_by_bottoms(
                schema,
                target,
                sources,
                lambda bottom, node: self._implies_uncached(
                    schema, node, budget, bottom
                ).implied,
            )


def resolve_engine(engine: object = None) -> object:
    """Resolve the ``engine=`` argument the OLAP layers accept.

    ``None`` becomes the default engine and an engine name
    (``"compiled"``, ``"sequential"``) that engine, both built by
    :func:`~repro.core.resilience.build_engine` over the process-wide
    decision cache; an engine object passes through unchanged.
    """
    if engine is not None and not isinstance(engine, str):
        return engine
    from repro.core.resilience import build_engine

    return build_engine() if engine is None else build_engine(engine)
