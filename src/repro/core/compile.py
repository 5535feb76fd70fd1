"""The compiled decision tier: specialize a schema once, answer forever.

Every decision the system serves - category satisfiability (Theorem 3),
constraint implication (Theorem 2), schema-level summarizability
(Theorem 1) - is a pure function of the dimension schema ``(G, SIGMA)``.
The interpreted kernel (:mod:`repro.core.dimsat`) re-runs the EXPAND /
CHECK backtracking search for every cold decision; this module instead
*compiles* the schema, keyed by its existing fingerprint, into a reusable
artifact:

* the complete subhierarchies of each root are enumerated **once** (the
  structural (C1)-(C7) side of the search: rooted at the category,
  reaching ``All``, acyclic, shortcut-free, into edges forced), each
  getting a selector literal;
* the circle operator (Definition 8) is lifted into the encoding: an
  equality-free constraint only kills the subhierarchies it fails on;
  in the rest, each path, rolls-up and through atom gets one literal
  per root, fixed by each selector to its truth on that subhierarchy,
  and an equality atom ``r.c ~ k`` becomes ``reach(r, c) AND x_{c,k}``
  over per-``(category, constant)`` assignment variables.  SIGMA is
  encoded **once per root**, in one
  :class:`~repro.core.satsolver.Solver` per root;
* every witness the solver produces passes an interpreted CHECK
  (Proposition 2): the unreduced constraints are evaluated on the
  decoded frozen dimension, so a compiled "satisfiable" can never be
  wrong;
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
- a numeric category, a query with comparison atoms, a subhierarchy
explosion, a witness CHECK rejects - degrades to the interpreted
kernel (the PR 4 discipline: slower, never wrong).

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
compiled tier as it bounds the kernel: a root's build charges one unit
per EXPAND branch (the kernel's unit), every SAT solve charges one unit
on entry and one per conflict, and a :class:`CompilationError` fallback
continues under the same budget.  A root whose build runs out is not
stored (nor cached as a compile failure), and a solve that runs out
leaves its solver usable with every learned clause still sound.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
    Xor,
    constraint_root,
    hash_cons,
)
from repro.constraints.atoms import validate_constraint
from repro.constraints.simplify import evaluate
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE, resolve_cache
from repro.core.dimsat import (
    DimsatOptions,
    DimsatResult,
    DimsatStats,
    _GState,
    _Search,
    _trivial_all_result,
    circle_node,
    dimsat as run_dimsat,
)
from repro.core.frozen import FrozenDimension, Subhierarchy
from repro.core.hierarchy import ALL, Category
from repro.core.implication import ImplicationResult, implies as run_implies
from repro.core.instance import TOP_MEMBER
from repro.core.metrics import METRICS
from repro.core.parallel import decide_batch, raise_first_failure, serve, try_ask
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

#: Compilation refuses schemas whose roots have more complete
#: subhierarchies than this - the artifact would be larger than the
#: search it replaces; the engine falls back to the interpreted kernel.
DEFAULT_MAX_SUBHIERARCHIES = 4096


class CompilationError(ReproError):
    """A schema (or query) the compiled tier cannot soundly serve.

    Raising this is always safe: every caller degrades to the
    interpreted kernel, so a compilation failure costs time, never
    correctness.
    """


# ----------------------------------------------------------------------
# Structural enumeration: the (C1)-(C7) side, done once per root
# ----------------------------------------------------------------------


def _complete_subhierarchies(
    schema: DimensionSchema,
    root: Category,
    limit: int,
    budget: Optional[DecisionBudget] = None,
) -> List[Subhierarchy]:
    """Every complete subhierarchy of ``G`` rooted at ``root``.

    Drives the kernel's own EXPAND branching (cycle, shortcut, and into
    pruning all enabled), so the enumeration matches the interpreted
    search exactly; into pruning stays sound for the whole ``SIGMA |
    {NOT alpha}`` family because a negated query never adds an into
    constraint.  Raises :class:`CompilationError` past ``limit``.
    ``budget`` is charged once per EXPAND branch, the kernel's unit.
    """
    search = _Search(schema, root, DimsatOptions())
    out: List[Subhierarchy] = []

    def walk(
        state: _GState, current: Category, chosen: FrozenSet[Category]
    ) -> None:
        if budget is not None:
            budget.charge()
        if chosen:
            state = state.extend(current, chosen)
        if state.top == frozenset({ALL}):
            out.append(state.to_subhierarchy())
            if len(out) > limit:
                raise CompilationError(
                    f"root {root!r} has more than {limit} complete "
                    "subhierarchies; compilation would not pay off"
                )
            return
        for job in search._branch_jobs(state):
            walk(*job)

    walk(_GState.initial(root), root, frozenset())
    return out


# ----------------------------------------------------------------------
# Per-root compilation: one incremental SAT instance per (schema, root)
# ----------------------------------------------------------------------


class _RootCompilation:
    """The compiled decision surface for one ``(schema, root)`` pair:
    one CNF with the circle operator lifted into it.

    The solver holds, permanently: the at-least-one clause over
    subhierarchy selectors, a unit clause killing each subhierarchy an
    equality-free SIGMA constraint fails on, the literals :meth:`_fixed`
    ties to the live selectors, at-most-one clauses over each category's
    assignment variables, the other SIGMA constraints (encoded once),
    and every clause learned by past queries.  Queries add
    activation-guarded clauses and solve under one assumption.
    """

    def __init__(
        self,
        schema: DimensionSchema,
        root: Category,
        limit: int,
        budget: Optional[DecisionBudget] = None,
    ) -> None:
        # One compiled root is shared by every thread deciding on its
        # schema (the decision server multiplexes clients over one
        # engine); queries mutate the incremental solver, so the whole
        # assume-solve-decode sequence is a critical section.
        self._lock = threading.Lock()
        self.solver = Solver()
        # A constant-true variable lets TRUE/FALSE fold into literals.
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._eq_vars: Dict[Tuple[Category, str], int] = {}
        self._by_category: Dict[Category, List[int]] = {}
        #: Compound node, or sorted conjunct literals -> gate literal.
        self._gates: Dict[object, int] = {}
        self._fixed_lits: Dict[object, int] = {}
        #: Truth vector over the live subhierarchies -> its literal.
        self._truth_lits: Dict[Tuple[bool, ...], int] = {}
        #: ``subhierarchy -> atom -> circle_node(atom, subhierarchy)``.
        self._folded: Dict[Subhierarchy, Dict[Atom, Node]] = {}
        #: Hash-consed query node -> (activation literal, negated query).
        self._queries: Dict[Node, Tuple[int, Node]] = {}
        self.subs = _complete_subhierarchies(schema, root, limit, budget)
        selectors = [self.solver.new_var() for _ in self.subs]
        # No complete subhierarchy at all makes the root unsatisfiable
        # outright; the empty clause records exactly that.
        self.solver.add_clause(selectors)
        #: The SIGMA constraints that name members; only these are
        #: encoded.  Definition 8 folds every other one to a truth
        #: constant per subhierarchy, so it only kills subhierarchies.
        self._named: List[Tuple[Optional[Category], Node]] = []
        structural: List[Tuple[Optional[Category], Node]] = []
        for node in schema.relevant_constraints(root):
            named = any(isinstance(atom, EqualityAtom) for atom in node.atoms())
            (self._named if named else structural).append((constraint_root(node), node))
        self._live: List[Tuple[int, Subhierarchy]] = []
        for selector, sub in zip(selectors, self.subs):
            if self._satisfies(structural, sub, self._valuation(sub, {})):
                self._live.append((selector, sub))
            else:
                self.solver.add_clause([-selector])
        for node_root, node in self._named:
            # The vacuity rule: a constraint holds on a subhierarchy that
            # does not populate its root.
            guard = []
            if node_root is not None:
                present = self._fixed(
                    ("present", node_root), lambda sub: node_root in sub.categories
                )
                guard.append(-present)
            for clause in self._clauses(node):
                self.solver.add_clause(guard + clause)

    # -- construction ---------------------------------------------------

    def _fixed(self, key: object, truth: Callable[[Subhierarchy], bool]) -> int:
        """The literal ``lit`` with ``sel_g -> lit`` where ``truth(g)``
        and ``sel_g -> NOT lit`` elsewhere, for each live ``g``.

        Every live ``g`` is tied, so ``lit`` is a function of the selected
        subhierarchy, fixed by its truth vector over the live ``g``: the
        TRUE or FALSE literal when all agree, and one literal shared by
        every key with that vector (its negation by the complement)."""
        lit = self._fixed_lits.get(key)
        if lit is None:
            values = tuple(truth(sub) for _, sub in self._live)
            if all(values):
                lit = self._true
            elif not any(values):
                lit = -self._true
            else:
                lit = self._truth_lits.get(values)
            if lit is None:
                lit = self.solver.new_var()
                for (selector, _), value in zip(self._live, values):
                    self.solver.add_clause([-selector, lit if value else -lit])
                self._truth_lits[values] = lit
                self._truth_lits[tuple(not value for value in values)] = -lit
            self._fixed_lits[key] = lit
        return lit

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
        """A literal true exactly when ``node`` holds on the selected
        subhierarchy: an atom's literal, or a gate tied to both
        polarities of :meth:`_clauses` (Tseitin)."""
        if node is TRUE or node == TRUE:
            return self._true
        if node is FALSE or node == FALSE:
            return -self._true
        if isinstance(node, Not):
            return -self._encode(node.child)
        if isinstance(node, EqualityAtom):
            if node.category == ALL:
                name = self._true if node.constant == TOP_MEMBER else -self._true
            else:
                name = self._eq_var(node.category, node.constant)
            # Definition 8: FALSE unless the subhierarchy reaches the
            # atom's category from its root.
            reach = self._fixed(
                ("reach", node.root, node.category),
                lambda sub: node.root in sub.categories
                and node.category in sub.categories
                and sub.reaches(node.root, node.category),
            )
            return self._and([reach, name])
        if isinstance(node, ComparisonAtom):
            raise CompilationError(
                "comparison atoms (numeric categories) are not compilable"
            )
        if isinstance(node, Atom):
            return self._fixed(node, lambda sub: self._valuation(sub, {})(node))
        if not isinstance(node, (And, Or, Implies, Iff, Xor, ExactlyOne)):
            raise CompilationError(f"cannot encode node type {type(node).__name__}")
        gate = self._gates.get(node)
        if gate is None:
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

        ``NOT node`` is encoded once: O(|node|) clauses plus one
        :meth:`_fixed` literal per atom not seen before.  Its clauses are
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
        interpreted and reading nothing of the encoding: its
        subhierarchy is live, so SIGMA's equality-free constraints held
        on it at build, and the others and ``negated`` must hold on it
        now."""
        model_value = self.solver.model_value
        for selector, sub in self._live:
            if model_value(selector):
                break
        else:
            raise CompilationError("SAT model selects no subhierarchy")
        names = {
            category: constant
            for (category, constant), var in self._eq_vars.items()
            if model_value(var) and category in sub.categories
        }
        truth = self._valuation(sub, names)
        if not self._satisfies(self._named, sub, truth) or (
            negated is not None and not evaluate(negated, truth)
        ):
            raise CompilationError("decoded witness fails CHECK")
        return FrozenDimension(sub, names)

    def _satisfies(
        self,
        sigma: Iterable[Tuple[Optional[Category], Node]],
        sub: Subhierarchy,
        truth: Callable[[Atom], bool],
    ) -> bool:
        """Whether each ``(root, constraint)`` of ``sigma`` holds on
        ``sub`` under ``truth`` (vacuously if ``sub`` lacks its root)."""
        return all(
            (node_root is not None and node_root not in sub.categories)
            or evaluate(node, truth)
            for node_root, node in sigma
        )

    def _valuation(
        self, sub: Subhierarchy, names: Mapping[Category, str]
    ) -> Callable[[Atom], bool]:
        """Atom truth on the frozen dimension ``(sub, names)``: Definition
        8 on ``sub`` (memoized), then ``names`` for an equality atom."""
        memo = self._folded.setdefault(sub, {})

        def atom_truth(atom: Atom) -> bool:
            folded = memo.get(atom)
            if folded is None:
                folded = memo[atom] = circle_node(atom, sub)
            if isinstance(folded, EqualityAtom):
                if folded.category == ALL:
                    return folded.constant == TOP_MEMBER
                return names.get(folded.category) == folded.constant
            return folded == TRUE

        return atom_truth

    # -- introspection --------------------------------------------------

    def describe(self) -> Dict[str, int]:
        return {
            "subhierarchies": len(self.subs),
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

    def __init__(
        self,
        schema: DimensionSchema,
        max_subhierarchies: int = DEFAULT_MAX_SUBHIERARCHIES,
    ) -> None:
        for category in schema.hierarchy.categories:
            if schema.is_numeric(category):
                raise CompilationError(
                    f"category {category!r} carries order predicates; "
                    "numeric domains are decided by the interpreted kernel"
                )
        self.schema = schema
        self.fingerprint = schema.fingerprint()
        self.max_subhierarchies = max_subhierarchies
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
                    compiled = _RootCompilation(
                        self.schema, category, self.max_subhierarchies, budget
                    )
                    span.set(
                        subhierarchies=len(compiled.subs),
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

    def __init__(
        self,
        max_entries: int = 64,
        max_subhierarchies: int = DEFAULT_MAX_SUBHIERARCHIES,
    ) -> None:
        self.max_entries = max_entries
        self.max_subhierarchies = max_subhierarchies
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
                artifact: object = CompiledArtifact(
                    schema, self.max_subhierarchies
                )
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
    #: Batch requests answered by dedup instead of a decision.
    batch_deduped: int = 0


_ENGINE_STATS = METRICS.stats_family("compiled.", CompiledEngineStats)


class CompiledDecisionEngine:
    """The compiled rung of the decision stack.

    API-compatible with
    :class:`~repro.core.parallel.ParallelDecisionEngine` where the upper
    layers care: the navigator and view selection batch through
    :meth:`decide_many`, and
    :class:`~repro.core.resilience.ResilientDecisionEngine` can wrap it
    as its primary rung (compile failures then ride the existing
    degradation ladder).  Verdicts memoize through the shared
    :class:`~repro.core.decisioncache.DecisionCache` under the *same
    keys* as the interpreted engine - the compiled tier
    changes where cold verdicts come from, never what they are.

    The compiled tier always decides under default
    :class:`~repro.core.dimsat.DimsatOptions`, which also keeps its
    audit records replayable by ``repro-olap audit-verify``.

    ``budget`` is a per-decision template, as on the interpreted engine:
    each computed decision charges one fresh copy across the root's
    build (one unit per EXPAND branch), every solve (one unit on entry
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

    # -- engine-protocol plumbing ---------------------------------------

    def shutdown(self, wait_for_tasks: bool = True) -> None:
        """No pools to tear down; present for engine-protocol parity."""

    def __enter__(self) -> "CompiledDecisionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

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
            return _trivial_all_result(DimsatOptions())
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

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_satisfiable(
        self, schema: DimensionSchema, category: Category
    ) -> bool:
        return self.dimsat(schema, category).satisfiable

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

    # -- the batch API ---------------------------------------------------

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Batch verdicts aligned with the input order (the navigator /
        view-selection entry point); see
        :func:`~repro.core.parallel.decide_batch`."""
        return raise_first_failure(self.try_decide_many(items))

    def try_decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[object]:
        """:meth:`decide_many` with per-request fault containment."""
        results, deduped = decide_batch(items, partial(try_ask, self))
        with self._lock:
            self.stats.batch_deduped += deduped
        return results


def resolve_engine(engine: object, cache: object = USE_DEFAULT_CACHE) -> object:
    """Resolve the ``engine=`` argument the OLAP layers accept.

    An engine name (``"compiled"``, ``"sequential"``) becomes that engine
    over the given cache, built by
    :func:`~repro.core.resilience.build_engine`; any other value (an
    engine object or ``None``) passes through unchanged.
    """
    if isinstance(engine, str):
        from repro.core.resilience import build_engine

        return build_engine(engine, cache=cache)
    return engine
