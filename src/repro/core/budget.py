"""Per-decision work budgets.

Every decision the kernel serves - DIMSAT, implication, schema-level
summarizability - is a bounded but potentially exponential search.  A
service answering heavy multi-query traffic needs a robustness control
the paper's offline setting never did: a ceiling on the work one
decision may consume, expressed in search nodes (EXPAND calls) and/or
wall-clock milliseconds.  When the ceiling is hit the search raises
:class:`~repro.errors.BudgetExceeded` instead of returning a
possibly-wrong verdict; nothing is cached for the aborted decision, so a
later retry with a larger budget is correct.

One :class:`DecisionBudget` instance covers one *decision*: every
sub-search of that decision (the per-bottom implication tests of
Theorem 1, say) charges the same node counter, so the budget bounds the
decision's total work.  Budgets are deliberately not hashable cache-key
material - they never change a verdict, only whether one is reached.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.metrics import METRICS
from repro.errors import BudgetExceeded

#: Consumption metrics, updated only at decision boundaries (exhaustion,
#: :meth:`DecisionBudget.publish`) - never inside the hot per-node
#: ``charge`` checkpoint.
_M_EXCEEDED = METRICS.counter("budget.exceeded")
_G_LAST_NODES = METRICS.gauge("budget.last_nodes_charged")
_H_NODES = METRICS.histogram("budget.nodes_per_decision")


class DecisionBudget:
    """A node/time ceiling for one decision, shared by its sub-searches.

    Parameters
    ----------
    max_nodes:
        Maximum number of search nodes (DIMSAT EXPAND calls) the decision
        may charge; ``None`` means unbounded.  A budget of ``0`` nodes
        forbids any search at all - the first charge raises.
    time_ms:
        Wall-clock allowance in milliseconds, measured from construction;
        ``None`` means unbounded.

    The budget is thread-safe: threads sharing it charge the same
    counter.  :meth:`charge` is the single checkpoint - it raises
    :class:`~repro.errors.BudgetExceeded` when a ceiling is hit.
    """

    __slots__ = ("max_nodes", "time_ms", "_deadline", "_nodes", "_lock")

    def __init__(
        self,
        max_nodes: Optional[int] = None,
        time_ms: Optional[float] = None,
    ) -> None:
        if max_nodes is not None and max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")
        if time_ms is not None and time_ms < 0:
            raise ValueError("time_ms must be non-negative")
        self.max_nodes = max_nodes
        self.time_ms = time_ms
        self._deadline = (
            time.monotonic() + time_ms / 1000.0 if time_ms is not None else None
        )
        self._nodes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # The checkpoint
    # ------------------------------------------------------------------

    def charge(self, nodes: int = 1) -> None:
        """Account for ``nodes`` units of work; raise
        :class:`BudgetExceeded` on a blown deadline or node ceiling."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.publish()
            _M_EXCEEDED.inc()
            raise BudgetExceeded(
                f"decision exceeded its time budget of {self.time_ms} ms"
            )
        if self.max_nodes is not None:
            with self._lock:
                self._nodes += nodes
                over = self._nodes > self.max_nodes
            if over:
                self.publish()
                _M_EXCEEDED.inc()
                raise BudgetExceeded(
                    f"decision exceeded its node budget of {self.max_nodes}"
                )
        else:
            with self._lock:
                self._nodes += nodes

    # ------------------------------------------------------------------
    # Introspection and derivation
    # ------------------------------------------------------------------

    @property
    def nodes_charged(self) -> int:
        """Total nodes charged so far (across every sub-search)."""
        return self._nodes

    def publish(self) -> None:
        """Record this budget's consumption in the process-wide metrics
        (``budget.last_nodes_charged`` gauge and
        ``budget.nodes_per_decision`` histogram).  Called automatically
        when a ceiling is hit, and by
        :func:`~repro.core.parallel.computed` when a budgeted decision
        finishes - on every engine and on the resilience ladder's
        sequential rung."""
        nodes = self._nodes
        _G_LAST_NODES.set(nodes)
        _H_NODES.observe(nodes)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view of the budget's limits and consumption.

        The resilience layer attaches this to failure provenance when a
        budgeted decision degrades, so an UNKNOWN verdict records how much
        work was spent before the abort.
        """
        return {
            "max_nodes": self.max_nodes,
            "time_ms": self.time_ms,
            "nodes_charged": self._nodes,
        }

    def fresh(self) -> "DecisionBudget":
        """A new budget with the same limits and a restarted clock.

        The engine treats a configured budget as a *template*: every
        decision gets its own fresh copy so one slow decision cannot
        starve the next.
        """
        return DecisionBudget(self.max_nodes, self.time_ms)

    def __repr__(self) -> str:
        return (
            f"DecisionBudget(max_nodes={self.max_nodes}, "
            f"time_ms={self.time_ms}, charged={self._nodes})"
        )
