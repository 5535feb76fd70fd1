"""3-SAT as category satisfiability (Theorem 4, experiment E8).

The paper proves category satisfiability NP-complete "by a straightforward
reduction from SAT".  The reduction implemented here:

* one category ``V_i`` per propositional variable, a root category ``Q``,
  and a dummy category ``T``;
* edges ``Q -> V_i`` for every variable, ``Q -> T``, and ``V_i, T -> All``;
* the constraint ``Q -> T`` (so condition (C7) never interferes with an
  all-false assignment);
* per clause, the disjunction of its literals with ``x_i`` encoded as the
  path atom ``Q -> V_i`` and ``NOT x_i`` as its negation.

A subhierarchy with root ``Q`` picks a subset of the ``V_i`` - exactly a
truth assignment - and satisfies the constraint set iff the assignment
satisfies the formula, so::

    Q satisfiable in encode(phi)  <=>  phi satisfiable.

The module also ships a tiny CNF toolkit (random 3-CNF generation and a
brute-force satisfiability oracle) so the tests can verify the
equivalence on random formulas and the benchmark can measure DIMSAT as a
SAT solver (it will not win any competitions; the point is the hardness
shape).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro._types import ALL
from repro.constraints.ast import Node, Not, Or, PathAtom
from repro.core.hierarchy import HierarchySchema
from repro.core.schema import DimensionSchema

#: A literal: (variable index, polarity); ``(2, False)`` is ``NOT x2``.
Literal = Tuple[int, bool]
Clause = Tuple[Literal, ...]

ROOT = "Q"
DUMMY = "T"


@dataclass(frozen=True)
class Cnf:
    """A CNF formula over variables ``x0 .. x_{n_vars-1}``."""

    n_vars: int
    clauses: Tuple[Clause, ...]

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Whether the assignment satisfies every clause."""
        return all(
            any(assignment[var] == polarity for var, polarity in clause)
            for clause in self.clauses
        )

    def brute_force_satisfiable(self) -> bool:
        """The ground-truth oracle: try all ``2^n`` assignments."""
        for bits in itertools.product((False, True), repeat=self.n_vars):
            if self.evaluate(bits):
                return True
        return False

    def to_dimacs(self) -> str:
        """The formula in DIMACS CNF format (1-based signed literals).

        The export is exact: clause order, in-clause literal order, and
        duplicate literals are all preserved, so
        ``cnf_from_dimacs(cnf.to_dimacs()) == cnf`` holds for every
        well-formed :class:`Cnf`.  Used by the solver tests to feed the
        same instance to :class:`~repro.core.satsolver.Solver` and the
        brute-force oracle.
        """
        lines = [f"p cnf {self.n_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            rendered = " ".join(
                str(var + 1 if polarity else -(var + 1))
                for var, polarity in clause
            )
            lines.append(f"{rendered} 0".lstrip())
        return "\n".join(lines) + "\n"


def cnf_from_dimacs(text: str) -> Cnf:
    """Parse a DIMACS CNF document back into a :class:`Cnf`.

    Accepts comment lines (``c ...``), a single ``p cnf`` header, and
    clauses that span multiple lines (the ``0`` terminator, not the
    newline, ends a clause).  Raises :class:`ValueError` on a malformed
    document - a missing header, a literal outside the declared variable
    range, or an unterminated final clause.
    """
    n_vars: Optional[int] = None
    declared_clauses: Optional[int] = None
    clauses: List[Clause] = []
    pending: List[Literal] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ValueError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header {line!r}")
            n_vars = int(parts[2])
            declared_clauses = int(parts[3])
            if n_vars < 0 or declared_clauses < 0:
                raise ValueError(f"negative counts in header {line!r}")
            continue
        if n_vars is None:
            raise ValueError("DIMACS clause before the 'p cnf' header")
        for token in line.split():
            value = int(token)
            if value == 0:
                clauses.append(tuple(pending))
                pending = []
                continue
            if abs(value) > n_vars:
                raise ValueError(
                    f"literal {value} exceeds declared variable count {n_vars}"
                )
            pending.append((abs(value) - 1, value > 0))
    if n_vars is None:
        raise ValueError("missing DIMACS 'p cnf' header")
    if pending:
        raise ValueError("unterminated final clause (missing trailing 0)")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(n_vars, tuple(clauses))


def variable_category(index: int) -> str:
    """The category encoding variable ``x_index``."""
    return f"V{index}"


def encode(cnf: Cnf) -> DimensionSchema:
    """The dimension schema whose root-category satisfiability equals the
    formula's satisfiability.

    >>> cnf = Cnf(2, (((0, True), (1, True)),))
    >>> from repro.core import is_category_satisfiable
    >>> is_category_satisfiable(encode(cnf), ROOT)
    True
    """
    variables = [variable_category(i) for i in range(cnf.n_vars)]
    categories = [ROOT, DUMMY, *variables]
    edges = [(ROOT, DUMMY), (DUMMY, ALL)]
    for category in variables:
        edges.append((ROOT, category))
        edges.append((category, ALL))
    hierarchy = HierarchySchema(categories, edges)

    constraints: List[Node] = [PathAtom(ROOT, (DUMMY,))]
    for clause in cnf.clauses:
        literals: List[Node] = []
        for var, polarity in clause:
            atom = PathAtom(ROOT, (variable_category(var),))
            literals.append(atom if polarity else Not(atom))
        if len(literals) == 1:
            constraints.append(literals[0])
        else:
            constraints.append(Or(tuple(literals)))
    return DimensionSchema(hierarchy, constraints)


def decode_assignment(
    cnf: Cnf, categories: FrozenSet[str]
) -> List[bool]:
    """Read the truth assignment off a frozen dimension's categories."""
    return [variable_category(i) in categories for i in range(cnf.n_vars)]


def random_3cnf(
    n_vars: int, n_clauses: int, seed: int = 0
) -> Cnf:
    """A random 3-CNF formula (distinct variables within each clause).

    At ratio ``n_clauses / n_vars ~ 4.26`` the instances sit near the
    satisfiability phase transition, which is where the E8 benchmark
    samples.
    """
    if n_vars < 3:
        raise ValueError("random_3cnf needs at least 3 variables")
    rng = random.Random(seed)
    clauses: List[Clause] = []
    for _ in range(n_clauses):
        variables = rng.sample(range(n_vars), 3)
        clause = tuple(
            (var, rng.random() < 0.5) for var in variables
        )
        clauses.append(clause)
    return Cnf(n_vars, tuple(clauses))


def phase_transition_cnf(n_vars: int, seed: int = 0, ratio: float = 4.26) -> Cnf:
    """A random 3-CNF at the hard clause/variable ratio."""
    return random_3cnf(n_vars, max(1, round(ratio * n_vars)), seed)
