"""A stdlib-only incremental SAT solver for the compiled decision tier.

The compiler (:mod:`repro.core.compile`) turns a schema's decision space
into one CNF per root category; this module decides those CNFs.  It is a
conflict-driven DPLL solver in the MiniSat mold, sized for the instances
the compiler produces (hundreds to a few thousand variables):

* **two-watched-literal propagation** - unit propagation touches only
  the clauses whose watch just became false;
* **assumption-based incremental solving** - :meth:`Solver.solve` takes
  a list of assumption literals that hold for this call only.  The
  compiler guards each query's clauses behind a fresh activation
  variable, so one solver instance answers the whole ``SIGMA | {NOT
  alpha}`` implication family of a schema without ever retracting a
  clause;
* **first-UIP clause learning with persistence** - every conflict adds a
  learned clause implied by the clause database *alone* (assumptions
  enter learned clauses only as ordinary negated decision literals), so
  the lemmas survive across :meth:`~Solver.solve` calls and later
  queries on the same schema start from everything earlier queries
  proved;
* **budgeted solving** - while :attr:`Solver.budget` is set,
  :meth:`Solver.solve` charges that
  :class:`~repro.core.budget.DecisionBudget` once on entry and once per
  conflict, so a compiled decision stops at the same node/time ceilings
  the interpreted kernel honours.  An aborted solve rewinds to level
  zero like any other; the clauses it learned are implied by the clause
  database and stay.

Literals use the DIMACS convention: variables are positive integers and
``-v`` is the negation of ``v``.  The solver is deliberately
deterministic - no randomized restarts, no activity tie-breaking beyond
variable index - because compiled verdicts must be reproducible across
runs (the audit log replays them byte-for-byte).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.budget import DecisionBudget
from repro.errors import ReproError

__all__ = ["SatStats", "Solver"]


class SatError(ReproError):
    """An ill-formed literal or clause reached the solver."""


@dataclass
class SatStats:
    """Work counters for one :class:`Solver` across its lifetime."""

    solves: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    restarts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "learned_literals": self.learned_literals,
            "restarts": self.restarts,
        }


#: Conflicts before the first restart; the interval grows geometrically.
_RESTART_BASE = 128
_RESTART_FACTOR = 1.5

#: Activity rescale threshold (MiniSat's trick to keep floats bounded).
_ACTIVITY_CAP = 1e100
_ACTIVITY_DECAY = 1.0 / 0.95


class Solver:
    """An incremental CDCL SAT solver over integer literals.

    Clauses may be added at any time between :meth:`solve` calls (the
    solver resets to decision level zero first); clauses are never
    removed, which is exactly the monotonicity that makes learned
    clauses permanently sound.
    """

    def __init__(self) -> None:
        self.stats = SatStats()
        self._num_vars = 0
        # Indexed by variable (1-based); None = unassigned.
        self._value: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._watches: Dict[int, List[List[int]]] = {}
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._unsat = False
        self._model: List[Optional[bool]] = []
        self._var_inc = 1.0
        #: The budget every :meth:`solve` charges while it is set
        #: (``None``: unbounded).  The caller sets it around a solve, so
        #: ``solve`` keeps its one-argument signature.
        self.budget: Optional[DecisionBudget] = None

    # ------------------------------------------------------------------
    # Variables and clauses
    # ------------------------------------------------------------------

    def new_var(self, phase: bool = False) -> int:
        """Allocate a fresh variable; ``phase`` seeds its saved polarity
        (the branch value it gets when nothing has been learned about it,
        which is how activation literals default to "off")."""
        self._num_vars += 1
        self._value.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(phase)
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        return len(self._learned)

    def _lit_value(self, lit: int) -> Optional[bool]:
        value = self._value[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (a disjunction of literals).

        Tautologies are dropped; duplicate literals are merged; literals
        already false at level zero are removed (level-zero facts are
        permanent).  An empty result marks the solver unsatisfiable.
        """
        self._backtrack(0)
        seen: Dict[int, bool] = {}
        lits: List[int] = []
        for lit in literals:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > self._num_vars:
                raise SatError(f"invalid literal {lit!r}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = self._lit_value(lit)
            if value is True:
                return  # satisfied forever by a level-zero fact
            if value is False:
                continue  # permanently false literal
            seen[lit] = True
            lits.append(lit)
        if not lits:
            self._unsat = True
            return
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._unsat = True
            return
        self._install(lits, learned=False)

    def _install(self, lits: List[int], learned: bool) -> None:
        (self._learned if learned else self._clauses).append(lits)
        self._watches.setdefault(lits[0], []).append(lits)
        self._watches.setdefault(lits[1], []).append(lits)

    # ------------------------------------------------------------------
    # Trail management
    # ------------------------------------------------------------------

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self._value[var] = lit > 0
        self._level[var] = self._decision_level
        self._reason[var] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._phase[var] = self._value[var]  # type: ignore[assignment]
            self._value[var] = None
            self._reason[var] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------------
    # Propagation (two watched literals)
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Propagate all enqueued literals; returns a conflicting clause
        or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            kept: List[List[int]] = []
            index = 0
            total = len(watchers)
            while index < total:
                clause = watchers[index]
                index += 1
                self.stats.propagations += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._lit_value(other) is True:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if self._lit_value(other) is False:
                        kept.extend(watchers[index:])
                        self._watches[false_lit] = kept
                        return clause
                    self._enqueue(other, clause)
            self._watches[false_lit] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _ACTIVITY_CAP:
            scale = 1.0 / _ACTIVITY_CAP
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= scale
            self._var_inc *= scale

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learned clause and its backjump level.

        The learned clause is implied by the clause database alone, so it
        stays valid for every later :meth:`solve` regardless of which
        assumptions were active when it was derived.
        """
        level = self._decision_level
        seen = set()
        learnt: List[int] = []
        counter = 0
        index = len(self._trail) - 1
        p: Optional[int] = None
        reason: List[int] = conflict
        while True:
            for q in reason:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] >= level:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(self._trail[index]) not in seen:
                index -= 1
            p = self._trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            next_reason = self._reason[abs(p)]
            assert next_reason is not None  # only the UIP lacks a reason
            reason = next_reason
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level; keep that literal watched.
        best = 1
        for k in range(2, len(learnt)):
            if self._level[abs(learnt[k])] > self._level[abs(learnt[best])]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _learn(self, learnt: List[int]) -> None:
        """Install a freshly derived clause and assert its UIP literal."""
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self._install(learnt, learned=True)
            self._enqueue(learnt[0], learnt)
        self._var_inc *= _ACTIVITY_DECAY

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        best_var = 0
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._value[var] is None and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var == 0:
            return None
        return best_var if self._phase[best_var] else -best_var

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability of the clause database under the given
        assumption literals.

        Returns ``True`` and captures a :meth:`model` on success; returns
        ``False`` when no assignment extends the assumptions.  The solver
        stays usable either way - learned clauses persist, the trail is
        rewound to level zero.  :attr:`budget`, when set, is charged once
        here and once per conflict; when it runs out, the solve raises
        :class:`~repro.errors.BudgetExceeded` and the solver stays just
        as usable.
        """
        budget = self.budget
        self.stats.solves += 1
        assumed = list(assumptions)
        for lit in assumed:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > self._num_vars:
                raise SatError(f"invalid assumption literal {lit!r}")
        if budget is not None:
            budget.charge()
        if self._unsat:
            return False
        self._backtrack(0)
        conflicts_until_restart = _RESTART_BASE
        conflicts_this_run = 0
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    self.stats.conflicts += 1
                    conflicts_this_run += 1
                    if self._decision_level == 0:
                        self._unsat = True
                        return False
                    if budget is not None:
                        budget.charge()
                    learnt, back = self._analyze(conflict)
                    self._backtrack(back)
                    self._learn(learnt)
                    if conflicts_this_run >= conflicts_until_restart:
                        self.stats.restarts += 1
                        conflicts_this_run = 0
                        conflicts_until_restart = int(
                            conflicts_until_restart * _RESTART_FACTOR
                        )
                        self._backtrack(0)
                    continue
                if self._decision_level < len(assumed):
                    lit = assumed[self._decision_level]
                    value = self._lit_value(lit)
                    if value is False:
                        return False
                    # A dummy level for already-true assumptions keeps
                    # level index == assumption index aligned.
                    self._new_level()
                    if value is None:
                        self._enqueue(lit, None)
                    continue
                branch = self._pick_branch()
                if branch is None:
                    self._model = self._value[: self._num_vars + 1]
                    return True
                self.stats.decisions += 1
                self._new_level()
                self._enqueue(branch, None)
        finally:
            self._backtrack(0)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment captured by the last successful
        :meth:`solve` (variable -> truth value)."""
        return {
            var: bool(self._model[var]) for var in range(1, len(self._model))
        }

    def model_value(self, lit: int) -> bool:
        var = abs(lit)
        value = bool(self._model[var]) if var < len(self._model) else False
        return value if lit > 0 else not value

    def learned_clauses(self) -> List[Tuple[int, ...]]:
        """A snapshot of every persisted learned clause (diagnostics and
        artifact reporting)."""
        return [tuple(clause) for clause in self._learned]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Solver(vars={self._num_vars}, clauses={len(self._clauses)}, "
            f"learned={len(self._learned)}, conflicts={self.stats.conflicts})"
        )
