"""The DIMSAT algorithm (Section 5, Figure 6 of the paper).

DIMSAT decides *category satisfiability*: given a dimension schema
``ds = (G, SIGMA)`` and a category ``c``, is there an instance of ``ds``
with a member in ``c``?  By Theorem 3 this is equivalent to the existence
of a frozen dimension with root ``c``, so the algorithm backtracks over
subhierarchies of ``G`` (procedure EXPAND) and tests each complete one for
an induced frozen dimension (procedure CHECK, via Proposition 2):

1. reduce ``SIGMA(ds, c)`` with the *circle operator* of Definition 8 -
   path atoms become truth constants according to the subhierarchy,
   equality atoms whose target is unreachable become false, and (our
   reading; see DESIGN.md) constraints whose root category is absent
   become vacuously true;
2. search for a *c-assignment* - one constant from
   ``Const_ds(c') | {nk}`` per category - satisfying the reduced set.

EXPAND prunes the search with three structural heuristics, each of which
can be disabled for the ablation benchmarks (experiment E10):

* **cycle pruning** - never add an edge closing a directed cycle;
* **shortcut pruning** - never add an edge that creates a parallel longer
  path;
* **into pruning** - an *into* constraint ``c_c'`` forces the edge
  ``(c, c')`` into every subhierarchy containing ``c``, so EXPAND only
  enumerates supersets of the forced edges.

With pruning disabled CHECK takes over the corresponding validity tests,
so every configuration remains sound and complete - only slower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.ast import (
    FALSE,
    TRUE,
    Atom,
    ComparisonAtom,
    EqualityAtom,
    Node,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    constraint_root,
)
from repro.constraints.simplify import evaluate, simplify, substitute
from repro.core.budget import DecisionBudget
from repro.core.frozen import FrozenDimension, Subhierarchy
from repro.core.hierarchy import ALL, Category
from repro.core.metrics import METRICS
from repro.core.schema import NK, DimensionSchema
from repro.core.trace import TRACER
from repro.errors import SchemaError

#: Pre-resolved decision counter (a module attribute read is cheaper
#: than a registry lookup per decision).
_M_DECISIONS = METRICS.counter("dimsat.decisions")


# ----------------------------------------------------------------------
# Options, statistics, trace
# ----------------------------------------------------------------------


@dataclass
class DimsatOptions:
    """Tuning knobs for DIMSAT.

    The defaults reproduce the paper's algorithm; the ``*_pruning`` flags
    exist for the heuristic-ablation experiment (E10) and never change the
    answer, only the work done.  Only :func:`dimsat` and
    :func:`enumerate_frozen_dimensions` take them: the decision entry
    points above the search, and their memo keys, run the defaults.
    """

    #: Prune expansions that would close a directed cycle (Figure 6 line 12).
    cycle_pruning: bool = True
    #: Prune expansions that would create a shortcut (Figure 6 line 11).
    shortcut_pruning: bool = True
    #: Force into-constraint edges and skip branches that cannot contain
    #: them (Figure 6 lines 14-17).
    into_pruning: bool = True
    #: Record the EXPAND/CHECK trace (Figure 7 regeneration).
    keep_trace: bool = False


@dataclass
class DimsatStats:
    """Work counters for one DIMSAT run.

    A search, its stats and its trace live on one thread, so the
    counters are plain ``+=`` increments.
    """

    expand_calls: int = 0
    check_calls: int = 0
    assignments_tested: int = 0
    subhierarchies_completed: int = 0
    into_pruned_branches: int = 0
    dead_ends: int = 0
    #: Kept for ``perfbench/tracer.py``, which reads both: the kernel keeps
    #: no memo, so ``circle_hits`` stays 0 and ``circle_misses`` counts
    #: every circle-operator reduction.
    circle_hits: int = 0
    circle_misses: int = 0


@dataclass(frozen=True)
class TraceEntry:
    """One step of the search, for the Figure 7 regeneration test.

    ``kind`` is ``"expand"`` (a category was expanded with parents
    ``added``) or ``"check"`` (a complete subhierarchy was tested;
    ``succeeded`` says whether it induced a frozen dimension).
    """

    kind: str
    category: Optional[Category]
    added: Tuple[Category, ...]
    edges: Tuple[Tuple[Category, Category], ...]
    top: Tuple[Category, ...]
    succeeded: Optional[bool] = None


@dataclass
class DimsatResult:
    """Outcome of a DIMSAT run."""

    satisfiable: bool
    witness: Optional[FrozenDimension]
    stats: DimsatStats
    trace: List[TraceEntry] = field(default_factory=list)


# ----------------------------------------------------------------------
# The circle operator (Definition 8)
# ----------------------------------------------------------------------


def circle_node(node: Node, sub: Subhierarchy) -> Node:
    """Apply Definition 8 to a single constraint (no simplification).

    * path atoms become ``TRUE``/``FALSE`` according to edge-path presence
      in the subhierarchy;
    * composed atoms become ``TRUE``/``FALSE`` according to reachability
      (they abbreviate disjunctions of path atoms, and over an acyclic
      subhierarchy the disjunction is true exactly when a path exists);
    * equality atoms ``r.cj ~ k`` become ``FALSE`` when ``cj`` is not
      reachable from ``r`` inside the subhierarchy, and stay otherwise.
    """

    def mapper(atom: Atom) -> Optional[Node]:
        if isinstance(atom, PathAtom):
            return TRUE if sub.has_edge_path(atom.full_path) else FALSE
        if isinstance(atom, RollsUpAtom):
            if atom.root == atom.target:
                return TRUE
            reachable = (
                atom.root in sub.categories
                and atom.target in sub.categories
                and sub.reaches(atom.root, atom.target)
            )
            return TRUE if reachable else FALSE
        if isinstance(atom, ThroughAtom):
            return TRUE if _through_in(atom, sub) else FALSE
        if isinstance(atom, (EqualityAtom, ComparisonAtom)):
            in_sub = (
                atom.root in sub.categories
                and atom.category in sub.categories
                and sub.reaches(atom.root, atom.category)
            )
            return None if in_sub else FALSE
        return None

    return substitute(node, mapper)


def _through_in(atom: ThroughAtom, sub: Subhierarchy) -> bool:
    c, ci, cj = atom.root, atom.via, atom.target
    if c == ci == cj:
        return True
    if c == cj and c != ci:
        return False
    if c == ci and c != cj:
        return c in sub.categories and cj in sub.categories and sub.reaches(c, cj)
    if ci == cj and c != ci:
        return c in sub.categories and ci in sub.categories and sub.reaches(c, ci)
    if not all(cat in sub.categories for cat in (c, ci, cj)):
        return False
    return sub.reaches(c, ci) and sub.reaches(ci, cj)


def circle(constraints: Iterable[Node], sub: Subhierarchy) -> List[Node]:
    """``SIGMA o g``: Definition 8 applied to a constraint set verbatim.

    No vacuity handling and no simplification; this is the literal operator
    shown in Figure 5 and is exported for the E4 regeneration test.  The
    search itself uses :func:`reduced_constraints`, which adds the vacuity
    rule and constant folding.
    """
    return [circle_node(node, sub) for node in constraints]


class _NoMemo:
    def clear(self) -> None:
        pass


def circle_cache() -> _NoMemo:
    """Kept for ``perfbench/olap_answer.py``, which clears it before each
    pass.  The kernel keeps no memo, so ``clear()`` does nothing."""
    return _NoMemo()


def reduced_constraints(
    schema: DimensionSchema,
    category: Category,
    sub: Subhierarchy,
    stats: Optional[DimsatStats] = None,
) -> Optional[List[Node]]:
    """The reduced constraint set CHECK evaluates for a subhierarchy.

    Constraints from ``SIGMA(ds, category)`` whose root is not populated by
    the subhierarchy are vacuously true and dropped; the rest go through
    the circle operator and constant folding.  Returns ``None`` as soon as
    some constraint reduces to ``FALSE`` (no c-assignment can help), else
    the list of residual constraints (each mentioning only equality
    atoms).
    """
    residual: List[Node] = []
    for node in schema.relevant_constraints(category):
        root = constraint_root(node)
        if root is not None and root not in sub.categories:
            continue
        folded = simplify(circle_node(node, sub))
        if stats is not None:
            stats.circle_misses += 1
        if folded is FALSE or folded == FALSE:
            return None
        if folded is TRUE or folded == TRUE:
            continue
        residual.append(folded)
    return residual


# ----------------------------------------------------------------------
# c-assignments (Section 5) and CHECK
# ----------------------------------------------------------------------


def satisfying_assignments(
    schema: DimensionSchema,
    residual: Sequence[Node],
    stats: Optional[DimsatStats] = None,
) -> Iterator[Dict[Category, str]]:
    """Enumerate c-assignments satisfying a residual constraint set.

    Only categories actually mentioned by residual equality atoms are
    enumerated; all others are fixed to ``nk``, which cannot change any
    truth value.  Assignments are yielded as partial maps (mentioned
    categories only); absent categories mean ``nk``.

    ``All`` is never enumerated: condition (C2) fixes its single member's
    name to ``all`` in every instance, so atoms over ``All`` evaluate
    against that literal name instead of a free constant.
    """
    from repro.core.instance import TOP_MEMBER

    mentioned: List[Category] = sorted(
        {
            atom.category
            for node in residual
            for atom in node.atoms()
            if isinstance(atom, (EqualityAtom, ComparisonAtom))
            and atom.category != ALL
        }
    )
    domains = [schema.constant_domain(c) for c in mentioned]
    for combo in itertools.product(*domains):
        assignment = dict(zip(mentioned, combo))
        if stats is not None:
            stats.assignments_tested += 1

        def atom_truth(atom: Atom) -> bool:
            if isinstance(atom, EqualityAtom):
                if atom.category == ALL:
                    return atom.constant == TOP_MEMBER
                value = assignment.get(atom.category, NK)
                if isinstance(value, float):
                    # Numeric category: representatives are floats and
                    # equality constants were validated numeric.
                    return value == float(atom.constant)
                return value == atom.constant
            if isinstance(atom, ComparisonAtom):
                if atom.category == ALL:
                    # The single member of All is named 'all', which is
                    # not numeric, so no comparison ever holds there.
                    return False
                value = assignment.get(atom.category, NK)
                if not isinstance(value, float):
                    return False
                return atom.compare(value)
            raise SchemaError(
                f"residual constraint still mentions a structural atom: {atom!r}"
            )

        if all(evaluate(node, atom_truth) for node in residual):
            yield assignment


def induced_frozen_dimensions(
    schema: DimensionSchema,
    category: Category,
    sub: Subhierarchy,
    stats: Optional[DimsatStats] = None,
    require_structure: bool = False,
) -> Iterator[FrozenDimension]:
    """All frozen dimensions a subhierarchy induces (Proposition 2).

    When ``require_structure`` is true the acyclicity and shortcut-freeness
    of the subhierarchy are verified here (needed when EXPAND pruning is
    disabled); with the default pruning EXPAND guarantees both.

    Name maps contain only the categories residual constraints mention;
    every other category implicitly carries ``nk``.  Numeric categories
    (order predicates) carry float representatives instead of constants.
    """
    if require_structure:
        if not sub.is_acyclic() or sub.shortcut_edges():
            return
    residual = reduced_constraints(schema, category, sub, stats)
    if residual is None:
        return
    for assignment in satisfying_assignments(schema, residual, stats):
        yield FrozenDimension(sub, dict(assignment))


# ----------------------------------------------------------------------
# EXPAND: the backtracking subhierarchy search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _GState:
    """The search variable ``g`` of Figure 6, kept immutable: every
    expansion produces a new state, which makes backtracking trivial and
    the trace cheap to snapshot."""

    root: Category
    cats: FrozenSet[Category]
    out: Tuple[Tuple[Category, FrozenSet[Category]], ...]
    top: FrozenSet[Category]
    instar: Tuple[Tuple[Category, FrozenSet[Category]], ...]

    def out_map(self) -> Dict[Category, FrozenSet[Category]]:
        return dict(self.out)

    def instar_map(self) -> Dict[Category, FrozenSet[Category]]:
        return dict(self.instar)

    def edges(self) -> FrozenSet[Tuple[Category, Category]]:
        return frozenset(
            (child, parent) for child, parents in self.out for parent in parents
        )

    def to_subhierarchy(self) -> Subhierarchy:
        return Subhierarchy(self.root, self.cats, self.edges())

    def extend(self, ctop: Category, parents: FrozenSet[Category]) -> "_GState":
        """Add the edges ``ctop -> p`` for each chosen parent (Figure 6
        lines 1-5), maintaining the reaches-relation ``In*`` exactly."""
        new_cats = self.cats | parents
        new_top = (self.top - {ctop}) | (parents - self.cats)
        out_map = self.out_map()
        out_map[ctop] = parents

        instar = {c: set(s) for c, s in self.instar}
        for c in parents:
            instar.setdefault(c, set())
        gain = set(instar.get(ctop, set())) | {ctop}
        # Propagate the new ancestors of ctop (plus ctop itself) to every
        # category reachable from the new parents.  The paper's line (4)
        # overwrites In*; correct maintenance must merge and propagate so
        # diamonds and re-used categories keep accurate reach sets.
        queue = list(parents)
        while queue:
            node = queue.pop()
            before = instar.setdefault(node, set())
            addition = gain - before
            if not addition:
                continue
            before |= addition
            queue.extend(out_map.get(node, ()))

        return _GState(
            root=self.root,
            cats=frozenset(new_cats),
            out=tuple(sorted(out_map.items())),
            top=frozenset(new_top),
            instar=tuple(sorted((c, frozenset(s)) for c, s in instar.items())),
        )

    @classmethod
    def initial(cls, root: Category) -> "_GState":
        return cls(
            root=root,
            cats=frozenset({root}),
            out=(),
            top=frozenset({root}),
            instar=((root, frozenset()),),
        )


def _subsets_by_size(items: Sequence[Category]) -> Iterator[FrozenSet[Category]]:
    ordered = sorted(items)
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


class _Search:
    """One DIMSAT search; drives EXPAND and yields frozen dimensions."""

    def __init__(
        self,
        schema: DimensionSchema,
        category: Category,
        options: DimsatOptions,
        budget: Optional[DecisionBudget] = None,
    ) -> None:
        self.schema = schema
        self.category = category
        self.options = options
        self.budget = budget
        self.stats = DimsatStats()
        self.trace: List[TraceEntry] = []

    def _record(
        self,
        kind: str,
        state: _GState,
        category: Optional[Category],
        added: Iterable[Category],
        succeeded: Optional[bool] = None,
    ) -> None:
        if not self.options.keep_trace:
            return
        entry = TraceEntry(
            kind=kind,
            category=category,
            added=tuple(sorted(added)),
            edges=tuple(sorted(state.edges())),
            top=tuple(sorted(state.top)),
            succeeded=succeeded,
        )
        self.trace.append(entry)

    def _charge_expansion(self) -> None:
        """One EXPAND call's worth of accounting and budget checks."""
        self.stats.expand_calls += 1
        if self.budget is not None:
            self.budget.charge()

    def run(self) -> Iterator[FrozenDimension]:
        yield from self.expand_from(
            (_GState.initial(self.category), self.category, frozenset())
        )

    def expand_from(
        self, job: Tuple[_GState, Category, FrozenSet[Category]]
    ) -> Iterator[FrozenDimension]:
        """Run EXPAND from one ``(state, category, parents)`` job;
        :meth:`run` enters the search here with the root job."""
        yield from self._expand(*job)

    # The recursive EXPAND of Figure 6, as a generator so callers can stop
    # at the first frozen dimension (DIMSAT) or exhaust the space
    # (enumeration, implication refutation).
    def _expand(
        self,
        state: _GState,
        current: Category,
        chosen: FrozenSet[Category],
    ) -> Iterator[FrozenDimension]:
        self._charge_expansion()

        if chosen:
            state = state.extend(current, chosen)
        self._record("expand", state, current, chosen)

        if state.top == frozenset({ALL}):
            self.stats.check_calls += 1
            self.stats.subhierarchies_completed += 1
            sub = state.to_subhierarchy()
            need_structure = not (
                self.options.cycle_pruning and self.options.shortcut_pruning
            )
            induced = induced_frozen_dimensions(
                self.schema,
                self.category,
                sub,
                stats=self.stats,
                require_structure=need_structure,
            )
            # One span per CHECK branch (Proposition 2 applied to one
            # complete subhierarchy): the unit of work a slow DIMSAT call
            # decomposes into.  The span times the verdict for this
            # subhierarchy (reduction + first-witness search); it closes
            # before yielding so a caller stopping at the first witness
            # cannot hold it open.
            with TRACER.span(
                "dimsat.check",
                root=self.category,
                categories=len(sub.categories),
                edges=len(sub.edges),
            ) as span:
                first = next(induced, None)
                span.set(succeeded=first is not None)
            if first is None:
                self._record("check", state, None, (), succeeded=False)
                return
            self._record("check", state, None, (), succeeded=True)
            yield first
            for frozen in induced:
                self._record("check", state, None, (), succeeded=True)
                yield frozen
            return

        for job in self._branch_jobs(state):
            yield from self._expand(*job)

    def _branch_jobs(
        self, state: _GState
    ) -> Iterator[Tuple[_GState, Category, FrozenSet[Category]]]:
        """The child expansions of one incomplete state (Figure 6 lines
        6-17), as ``(state, category, parents)`` jobs.

        Each job is an independent continuation :meth:`expand_from` can
        resume; the search recurses over them in order.
        """
        if not state.top:
            # Only reachable with cycle pruning disabled: a cycle swallowed
            # the frontier before All was reached.
            self.stats.dead_ends += 1
            return

        # The least-named top category: a stable order, the one the
        # Figure 7 trace follows.  The answer never depends on it.
        ctop = min(state.top - {ALL})
        schema_parents = self.schema.hierarchy.parents(ctop)
        instar = state.instar_map().get(ctop, frozenset())

        blocked: Set[Category] = set()
        if self.options.shortcut_pruning:
            # The edge ctop -> p makes an existing edge x -> q a shortcut
            # when x lies below ctop (or is ctop) and p reaches q in g.
            # Line (11) tests q = p only; an edge into a category above
            # an already-expanded p is just as parallel (DESIGN.md item
            # 6).  A candidate not yet in g reaches nothing there.
            out_map = state.out_map()
            below = instar | {ctop}
            for candidate in schema_parents & state.cats:
                above = {q for q, reaching in state.instar if candidate in reaching}
                above.add(candidate)
                if any(out_map.get(x, frozenset()) & above for x in below):
                    blocked.add(candidate)
        if self.options.cycle_pruning:
            blocked |= schema_parents & instar

        legal = frozenset(schema_parents) - blocked
        if self.options.into_pruning:
            forced = self.schema.into_targets(ctop)
            if not forced <= legal:
                self.stats.into_pruned_branches += 1
                return
        else:
            forced = frozenset()

        if not legal:
            self.stats.dead_ends += 1
            return

        optional = legal - forced
        instar_map = state.instar_map()

        def internal_shortcut(parents: FrozenSet[Category]) -> bool:
            # Adding ctop -> p1 and ctop -> p2 together creates a shortcut
            # when p1 already reaches p2 inside g (the edge ctop -> p2 then
            # parallels ctop -> p1 -> ... -> p2).  Figure 6's line (11)
            # only guards against existing in-edges, so this case needs an
            # extra pairwise check; see DESIGN.md.
            for upper in parents:
                reaching = instar_map.get(upper)
                if reaching and reaching & (parents - {upper}):
                    return True
            return False

        for extra in _subsets_by_size(sorted(optional)):
            parents = extra | forced
            if not parents:
                continue
            if self.options.shortcut_pruning and internal_shortcut(parents):
                continue
            yield (state, ctop, parents)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _trivial_all_result(options: DimsatOptions) -> DimsatResult:
    sub = Subhierarchy(ALL, frozenset({ALL}), frozenset())
    return DimsatResult(
        satisfiable=True,
        witness=FrozenDimension(sub, {}),
        stats=DimsatStats(),
        trace=[],
    )


def dimsat(
    schema: DimensionSchema,
    category: Category,
    options: Optional[DimsatOptions] = None,
    budget: Optional[DecisionBudget] = None,
) -> DimsatResult:
    """Decide whether ``category`` is satisfiable in ``schema``.

    Returns a :class:`DimsatResult` whose ``witness`` is a frozen dimension
    with root ``category`` when one exists (Theorem 3).  ``All`` is always
    satisfiable (Proposition 1).

    ``budget`` bounds the search: when its node or time ceiling is hit the
    call raises :class:`~repro.errors.BudgetExceeded` instead of returning
    a verdict (it never degrades into a wrong answer).

    >>> from repro.generators.location import location_schema
    >>> dimsat(location_schema(), "Store").satisfiable
    True
    """
    options = options or DimsatOptions()
    if not schema.hierarchy.has_category(category):
        raise SchemaError(f"unknown category {category!r}")
    if category == ALL:
        return _trivial_all_result(options)
    search = _Search(schema, category, options, budget=budget)
    with TRACER.span("dimsat.decide", category=category) as span:
        witness = next(search.run(), None)
        span.set(
            satisfiable=witness is not None,
            expand_calls=search.stats.expand_calls,
            check_calls=search.stats.check_calls,
        )
    _M_DECISIONS.inc()
    return DimsatResult(
        satisfiable=witness is not None,
        witness=witness,
        stats=search.stats,
        trace=search.trace,
    )


def decision_provenance(schema: DimensionSchema, category: Category):
    """The dependency set of a DIMSAT verdict rooted at ``category``.

    EXPAND only ever adds parents of categories already in the
    subhierarchy (Figure 6 lines 6-17), so the whole search - and with it
    the verdict, witness, and work counters - is a function of the upward
    closure of ``category``: the categories reachable from it, the edges
    whose child lies inside that closure, and the constraints that
    mention a closure category (``SIGMA(ds, c)`` plus the ones
    contributing ``Const_ds`` constants or thresholds from outside).
    The :class:`~repro.core.decisioncache.DecisionCache` stores this next
    to the cached result so schema edits outside the closure re-key the
    verdict instead of discarding it.
    """
    from repro.core.provenance import cone_provenance

    return cone_provenance(schema, "dimsat", (category,))


def enumerate_frozen_dimensions(
    schema: DimensionSchema,
    category: Category,
    options: Optional[DimsatOptions] = None,
    budget: Optional[DecisionBudget] = None,
) -> List[FrozenDimension]:
    """Every frozen dimension of the schema with the given root.

    This regenerates Figure 4 when run on ``locationSch`` with root
    ``Store``.  Name maps list only constrained categories; all others
    carry ``nk`` implicitly, so the enumeration is finite and canonical.
    """
    options = options or DimsatOptions()
    if not schema.hierarchy.has_category(category):
        raise SchemaError(f"unknown category {category!r}")
    if category == ALL:
        return [_trivial_all_result(options).witness]  # type: ignore[list-item]
    search = _Search(schema, category, options, budget=budget)
    return list(search.run())

