"""Metamorphic soak harness for the decision stack.

The correctness gates so far are point-in-time: one decision, one
schema, one engine.  This module drives the whole stack - the
:class:`~repro.core.resilience.ResilientDecisionEngine` over the
sequential or compiled engine - for a configurable duration
of mixed decide/navigate/edit traffic drawn from the adversarial corpus
(:mod:`repro.generators.adversarial`), optionally under injected faults,
and checks **metamorphic invariants** on every step instead of fixed
expected values:

* **implied-constraint stability** - adding a constraint the schema
  already implies (``alpha or beta`` for ``alpha`` in SIGMA) never flips
  any dimsat/implication/summarizability verdict;
* **summarizable aggregates** (Definition 6) - when the oracle proves
  ``target`` summarizable from ``sources``, the directly-computed cube
  view equals the recombined one on a concrete fact table;
* **homogenization preserves aggregates** - after null-padding
  (:func:`~repro.baselines.homogenize.homogenize`), real-member cells
  are unchanged and the padded instance's single-source recombination
  matches its direct view (rollup functions are total in a homogeneous
  instance);
* **compiled == sequential** - the compiled tier's verdicts match the
  interpreted kernel's, cross-checked on a cadence regardless of which
  engine serves the traffic;
* **cache stays verdict-clean** - after every
  :class:`~repro.olap.maintenance.SchemaEditor` edit, the engine's
  verdict on the new schema, and the compiled artifact's (moved there
  by a model-preserving edit, or built afresh), match a fresh uncached
  sequential run;
* **rekey soundness** - the verdicts an edit moved to the new
  fingerprint match the oracle: a sample after a syntactic move, every
  one after a model-preserving move.

Ground truth comes from direct sequential kernel calls with
``cache=None``: those paths carry no fault-injection sites and bypass
the :class:`~repro.core.decisioncache.DecisionCache`, so the oracle is
immune to the faults being injected into the engine under test and its
calls do not pollute the audit log the soak's own traffic produces.
Engine verdicts are compared against the oracle on every decision -
**wrong is a failure, UNKNOWN is not** (the resilience contract).

Every violation is recorded with full provenance; schema-level
falsifiers are shrunk with
:func:`~repro.generators.random_schema.shrink_schema` and written as
``repro-olap`` loadable files so they can be pinned under
``tests/regressions/`` like the seed-880 homogenize bug.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.baselines.homogenize import homogenize, is_null_member
from repro.constraints.ast import Node
from repro.constraints.printer import unparse
from repro.core.auditlog import _replay, _verdict_of
from repro.core.budget import DecisionBudget
from repro.core.compile import (
    CompilationError,
    CompiledArtifactStore,
    CompiledDecisionEngine,
)
from repro.core.implication import implies as run_implies
from repro.core.instance import DimensionInstance
from repro.core.parallel import ask
from repro.core.resilience import (
    ENGINE_NAMES,
    ResilientDecisionEngine,
    build_engine,
)
from repro.core.schema import DimensionSchema
from repro.errors import ReproError
from repro.generators.adversarial import AdversarialCase, adversarial_corpus
from repro.generators.random_schema import shrink_schema, write_falsifier
from repro.generators.workloads import mixed_trace, random_fact_table
from repro.olap.aggregates import SUM
from repro.olap.cubeview import CubeView, cube_view, recombine, views_equal
from repro.olap.facttable import FactTable
from repro.olap.maintenance import SchemaEditor

# ----------------------------------------------------------------------
# Configuration and report types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run.

    ``seconds`` is the wall-clock target; ``max_steps`` (when set) caps
    the run regardless of time, which is what the tests use for
    determinism.  Every case gets at least ``min_passes`` operations even
    if the clock has already expired, so short runs still exercise every
    generator family.
    """

    engine: str = "compiled"
    seconds: float = 5.0
    max_steps: Optional[int] = None
    min_passes: int = 1
    seed: int = 0
    families: Optional[Sequence[str]] = None
    per_family: int = 1
    #: Operations per mixed-trace cycle per case (traces regenerate with
    #: a bumped seed when exhausted).
    trace_ops: int = 40
    retries: int = 3
    budget_ms: Optional[float] = None
    #: Run the compiled-vs-sequential cross-check on every Nth decision.
    check_every: int = 5
    #: Run the homogenize invariant on every Nth aggregate check (it
    #: pads the whole instance, the most expensive check of the set).
    homogenize_every: int = 4
    #: Facts per navigation fact table.
    navigate_facts: int = 40
    #: Where shrunk falsifier schemas are written (``None`` disables
    #: emission; violations are still recorded).
    falsifier_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ReproError(
                f"unknown soak engine {self.engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )
        if self.seconds < 0:
            raise ReproError("seconds must be non-negative")
        if self.check_every < 1 or self.homogenize_every < 1:
            raise ReproError("check cadences must be at least 1")


@dataclass(frozen=True)
class InvariantViolation:
    """One metamorphic invariant falsified during a soak."""

    #: ``implied-constraint-stability`` | ``summarizable-aggregates`` |
    #: ``homogenize-preserves-aggregates`` | ``compiled-vs-sequential`` |
    #: ``cache-clean`` | ``rekey-soundness`` | ``wrong-verdict``.
    invariant: str
    case: str
    step: int
    detail: str
    #: Path of the shrunk falsifier schema, when one was emitted.
    falsifier: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "case": self.case,
            "step": self.step,
            "detail": self.detail,
            "falsifier": self.falsifier,
        }


@dataclass
class SoakReport:
    """What a soak run did and what it found."""

    engine: str
    seed: int
    steps: int = 0
    decisions: int = 0
    unknown: int = 0
    wrong_verdicts: int = 0
    edits: int = 0
    skipped_edits: int = 0
    navigations: int = 0
    aggregate_checks: int = 0
    homogenize_checks: int = 0
    cross_checks: int = 0
    cross_check_skips: int = 0
    #: Rekeyed cache entries audited against the oracle after edits.
    rekey_checks: int = 0
    elapsed_s: float = 0.0
    ops_by_kind: Dict[str, int] = field(default_factory=dict)
    families: List[str] = field(default_factory=list)
    cases: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Zero invariant violations and zero wrong verdicts."""
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "steps": self.steps,
            "decisions": self.decisions,
            "unknown": self.unknown,
            "wrong_verdicts": self.wrong_verdicts,
            "edits": self.edits,
            "skipped_edits": self.skipped_edits,
            "navigations": self.navigations,
            "aggregate_checks": self.aggregate_checks,
            "homogenize_checks": self.homogenize_checks,
            "cross_checks": self.cross_checks,
            "cross_check_skips": self.cross_check_skips,
            "rekey_checks": self.rekey_checks,
            "elapsed_s": round(self.elapsed_s, 3),
            "ops_by_kind": dict(sorted(self.ops_by_kind.items())),
            "families": self.families,
            "cases": self.cases,
            "violations": [v.as_dict() for v in self.violations],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"soak: engine={self.engine} seed={self.seed} "
            f"steps={self.steps} elapsed={self.elapsed_s:.1f}s",
            f"  families: {', '.join(self.families)}",
            f"  decisions={self.decisions} unknown={self.unknown} "
            f"wrong={self.wrong_verdicts}",
            f"  edits={self.edits} (skipped {self.skipped_edits}) "
            f"navigations={self.navigations}",
            f"  aggregate checks={self.aggregate_checks} "
            f"homogenize checks={self.homogenize_checks}",
            f"  compiled cross-checks={self.cross_checks} "
            f"(skipped {self.cross_check_skips})",
            f"  rekeyed-entry audits={self.rekey_checks}",
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            for violation in self.violations:
                where = (
                    f" [falsifier: {violation.falsifier}]"
                    if violation.falsifier
                    else ""
                )
                lines.append(
                    f"    {violation.invariant} @ step {violation.step} "
                    f"({violation.case}): {violation.detail}{where}"
                )
        else:
            lines.append("  0 invariant violations, 0 wrong verdicts")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The ground-truth oracle
# ----------------------------------------------------------------------


def oracle_decide(schema: DimensionSchema, request: Sequence[object]) -> bool:
    """Ground truth for one decision request.

    The audit replay: the kernel's dispatch with ``cache=None``, so no
    fault-injection sites, no decision cache, no audit records - the
    reference every engine verdict is compared against.
    """
    return _replay(schema, request)


def _request_fits(schema: DimensionSchema, request: Sequence[object]) -> bool:
    """Whether a shrunk candidate schema still supports the request."""
    categories = schema.hierarchy.categories
    kind = request[0]
    if kind == "dimsat":
        return request[1] in categories
    if kind == "summarizable":
        return request[1] in categories and all(
            source in categories for source in request[2]  # type: ignore[union-attr]
        )
    return True  # implies: constraint validity is checked by the oracle


def _describe_request(request: Sequence[object]) -> str:
    kind = request[0]
    if kind == "implies":
        # A cache key carries the constraint's canonical text already.
        constraint = request[1]
        text = constraint if isinstance(constraint, str) else unparse(constraint)  # type: ignore[arg-type]
        return f"implies[{text}]"
    if kind == "summarizable":
        return f"summarizable[{request[1]} <= {sorted(request[2])}]"  # type: ignore[arg-type]
    return f"dimsat[{request[1]}]"


# ----------------------------------------------------------------------
# Per-case soak state
# ----------------------------------------------------------------------


class _CaseState:
    """One adversarial case's live state across the soak.

    Owns the :class:`SchemaEditor` (so edits flow through the real cache
    and compiled-artifact invalidation paths), the mixed-trace cursor,
    the stack of constraints the trace added, and lazily-built fact
    tables / padded instances for the aggregate invariants.
    """

    def __init__(self, case: AdversarialCase, config: SoakConfig) -> None:
        self.case = case
        self.config = config
        self.editor = SchemaEditor(case.schema)
        self.added: List[Node] = []
        self._trace: List[Tuple[object, ...]] = []
        self._cursor = 0
        self._cycle = 0
        self._facts: Optional[FactTable] = None
        self._padded: Optional[DimensionInstance] = None
        self._padded_facts: Optional[FactTable] = None
        # Probe requests for the edit invariants: the root's
        # satisfiability plus implication of the first original
        # constraints.  All stay well-formed across the soak because the
        # trace edits constraints only, never categories.
        self.probes: List[Tuple[object, ...]] = [("dimsat", case.root)]
        for node in sorted(case.schema.constraints, key=unparse)[:2]:
            self.probes.append(("implies", node))

    def next_op(self) -> Tuple[object, ...]:
        if self._cursor >= len(self._trace):
            self._trace = mixed_trace(
                self.case.schema,
                n_ops=max(1, self.config.trace_ops),
                seed=self.case.seed + 7919 * self._cycle,
            )
            self._cursor = 0
            self._cycle += 1
        op = self._trace[self._cursor]
        self._cursor += 1
        return op

    @property
    def schema(self) -> DimensionSchema:
        return self.editor.schema

    def fact_table(self) -> Optional[FactTable]:
        if self.case.instance is None:
            return None
        if self._facts is None:
            self._facts = random_fact_table(
                self.case.instance,
                n_facts=self.config.navigate_facts,
                seed=self.case.seed,
            )
        return self._facts

    def padded(self) -> Tuple[DimensionInstance, FactTable]:
        """The homogenized instance plus the same facts re-hosted on it."""
        assert self.case.instance is not None
        if self._padded is None:
            self._padded = homogenize(self.case.instance)
            facts = self.fact_table()
            assert facts is not None
            self._padded_facts = FactTable(
                self._padded,
                [(fact.member, fact.measures) for fact in facts],
            )
        assert self._padded_facts is not None
        return self._padded, self._padded_facts


# ----------------------------------------------------------------------
# The soak run
# ----------------------------------------------------------------------


class _SoakRun:
    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.corpus = adversarial_corpus(
            seed=config.seed,
            families=config.families,
            per_family=config.per_family,
        )
        self.states = [_CaseState(case, config) for case in self.corpus]
        self.report = SoakReport(engine=config.engine, seed=config.seed)
        self.report.families = sorted({c.family for c in self.corpus})
        self.report.cases = [c.name for c in self.corpus]
        # The cross-check engine is deliberately cache-free and uses a
        # private artifact store: its verdicts must come from the SAT
        # artifact itself, never from a cache warmed by the engine under
        # test, and its compilations of edited schema versions must not
        # evict the process-wide store's artifacts.
        self._cross_engine = CompiledDecisionEngine(
            cache=None, store=CompiledArtifactStore()
        )
        # The post-edit artifact check, by contrast, must decide through
        # the process-wide store: that is where an edit moves artifacts.
        self._artifact_engine = CompiledDecisionEngine(cache=None)

    # -- falsifier plumbing --------------------------------------------

    def _emit_falsifier(
        self,
        schema: DimensionSchema,
        predicate: Callable[[DimensionSchema], bool],
        name: str,
        note: str,
    ) -> Optional[str]:
        """Shrink a failing schema and write it; ``None`` on any trouble.

        Falsifier emission must never take the soak down - a failure to
        shrink still leaves the violation recorded with full detail.
        """
        if self.config.falsifier_dir is None:
            return None
        try:
            small = shrink_schema(schema, predicate)
            path = f"{self.config.falsifier_dir}/{name}.json"
            return write_falsifier(small, path, note=note)
        except Exception:
            return None

    def _violation(
        self,
        invariant: str,
        state: _CaseState,
        step: int,
        detail: str,
        falsifier: Optional[str] = None,
    ) -> None:
        self.report.violations.append(
            InvariantViolation(
                invariant=invariant,
                case=state.case.name,
                step=step,
                detail=detail,
                falsifier=falsifier,
            )
        )

    # -- decision traffic ----------------------------------------------

    def _decide(
        self,
        state: _CaseState,
        engine: ResilientDecisionEngine,
        request: Sequence[object],
        step: int,
    ) -> Optional[bool]:
        """One engine decision, ground-truth checked.

        Returns the oracle verdict (the sound one) when the engine
        answered, ``None`` when it degraded to UNKNOWN.
        """
        schema = state.schema
        outcome = engine.decide(schema, request)
        self.report.decisions += 1
        if outcome.unknown:
            self.report.unknown += 1
            return None
        truth = oracle_decide(schema, request)
        if outcome.verdict != truth:
            self.report.wrong_verdicts += 1
            falsifier = self._emit_falsifier(
                schema,
                self._divergence_predicate(request),
                f"wrong-verdict-{state.case.name}-step{step}",
                f"engine={self.config.engine} said {outcome.verdict}, "
                f"sequential oracle says {truth} for "
                f"{_describe_request(request)} (soak seed "
                f"{self.config.seed}, step {step})",
            )
            self._violation(
                "wrong-verdict",
                state,
                step,
                f"{_describe_request(request)}: engine={outcome.verdict} "
                f"oracle={truth} (rung={outcome.rung})",
                falsifier,
            )
        if step % self.config.check_every == 0:
            self._cross_check(state, request, truth, step)
        return truth

    def _divergence_predicate(
        self, request: Sequence[object]
    ) -> Callable[[DimensionSchema], bool]:
        """Shrink predicate: a fresh compiled engine still diverges from
        the oracle on this request (only reproducible divergences shrink;
        fault-timing-dependent ones fail the predicate and skip)."""

        def predicate(schema: DimensionSchema) -> bool:
            if not _request_fits(schema, request):
                return False
            probe = CompiledDecisionEngine(
                cache=None, store=CompiledArtifactStore()
            )
            try:
                compiled = _verdict_of(ask(probe, schema, request))
            except Exception:
                return False
            return compiled != oracle_decide(schema, request)

        return predicate

    def _cross_check(
        self,
        state: _CaseState,
        request: Sequence[object],
        truth: bool,
        step: int,
    ) -> None:
        """The compiled-vs-sequential invariant, any traffic engine."""
        schema = state.schema
        try:
            compiled = _verdict_of(
                ask(self._cross_engine, schema, request)
            )
        except CompilationError:
            self.report.cross_check_skips += 1
            return
        except Exception:
            # Injected faults can reach even a direct call;
            # a refusal to answer is the resilience layer's business,
            # not a compiled-tier divergence.
            self.report.cross_check_skips += 1
            return
        self.report.cross_checks += 1
        if compiled != truth:
            falsifier = self._emit_falsifier(
                schema,
                self._divergence_predicate(request),
                f"compiled-divergence-{state.case.name}-step{step}",
                f"compiled tier says {compiled}, sequential oracle says "
                f"{truth} for {_describe_request(request)} (soak seed "
                f"{self.config.seed}, step {step})",
            )
            self._violation(
                "compiled-vs-sequential",
                state,
                step,
                f"{_describe_request(request)}: "
                f"compiled={compiled} oracle={truth}",
                falsifier,
            )

    # -- navigation traffic --------------------------------------------

    def _navigate(
        self,
        state: _CaseState,
        engine: ResilientDecisionEngine,
        op: Tuple[object, ...],
        step: int,
    ) -> None:
        target, sources = op[1], op[2]
        request = ("summarizable", target, sources)
        truth = self._decide(state, engine, request, step)
        self.report.navigations += 1
        facts = state.fact_table()
        if facts is None or truth is not True:
            return
        instance = state.case.instance
        assert instance is not None
        measure = "amount"
        direct = cube_view(facts, target, SUM, measure)  # type: ignore[arg-type]
        source_views = [
            cube_view(facts, source, SUM, measure) for source in sources  # type: ignore[union-attr]
        ]
        recombined = recombine(instance, target, source_views, SUM)  # type: ignore[arg-type]
        self.report.aggregate_checks += 1
        if not views_equal(direct, recombined):
            self._violation(
                "summarizable-aggregates",
                state,
                step,
                f"oracle proved {target} summarizable from {sorted(sources)} "  # type: ignore[arg-type]
                f"but direct != recombined on {len(facts)} facts "
                f"(Definition 6)",
            )
            return
        if self.report.aggregate_checks % self.config.homogenize_every == 0:
            self._check_homogenize(state, target, sources, direct, step)  # type: ignore[arg-type]

    def _check_homogenize(
        self,
        state: _CaseState,
        target: Category,
        sources: Tuple[Category, ...],
        direct: CubeView,
        step: int,
    ) -> None:
        """Null-padding preserves every real-member aggregate, and makes
        single-source recombination exact (total rollup functions)."""
        try:
            padded, padded_facts = state.padded()
        except Exception as error:
            self._violation(
                "homogenize-preserves-aggregates",
                state,
                step,
                f"homogenize raised {type(error).__name__}: {error}",
            )
            return
        self.report.homogenize_checks += 1
        measure = "amount"
        padded_direct = cube_view(padded_facts, target, SUM, measure)
        for member, value in direct.cells.items():
            padded_value = padded_direct.cells.get(member)
            if padded_value is None or abs(padded_value - value) > 1e-9:
                self._violation(
                    "homogenize-preserves-aggregates",
                    state,
                    step,
                    f"padding changed cell {member!r} at {target}: "
                    f"{value} -> {padded_value}",
                )
                return
        for member in padded_direct.cells:
            if member not in direct.cells and not is_null_member(member):
                self._violation(
                    "homogenize-preserves-aggregates",
                    state,
                    step,
                    f"padding invented a non-null cell {member!r} at "
                    f"{target}",
                )
                return
        if len(sources) == 1:
            source_view = cube_view(padded_facts, sources[0], SUM, measure)
            padded_recombined = recombine(padded, target, [source_view], SUM)
            if not views_equal(padded_direct, padded_recombined):
                self._violation(
                    "homogenize-preserves-aggregates",
                    state,
                    step,
                    f"homogeneous recombination {sources[0]} -> {target} "
                    f"!= direct view",
                )

    # -- edit traffic ---------------------------------------------------

    def _edit(
        self,
        state: _CaseState,
        engine: ResilientDecisionEngine,
        op: Tuple[object, ...],
        step: int,
    ) -> None:
        if op[1] == "drop-added":
            if not state.added:
                self.report.skipped_edits += 1
                return
            node = state.added.pop()
            state.editor.drop_constraint(node)
            self.report.edits += 1
            self._check_cache_clean(state, engine, step)
            self._check_rekey_sound(state, step)
            return

        node = op[2]  # type: ignore[assignment]
        before_schema = state.schema
        if node in before_schema.constraints:
            # A weakening that textually collided with SIGMA; adding it
            # would make the later drop remove a real constraint.
            self.report.skipped_edits += 1
            return
        if not run_implies(before_schema, node, cache=None).implied:
            # Defensive: the generator only emits implied weakenings, so
            # a non-implied one is a generator bug, not an engine bug.
            self.report.skipped_edits += 1
            return
        before = {
            _describe_request(probe): oracle_decide(before_schema, probe)
            for probe in state.probes
        }
        state.editor.add_constraint(node)
        state.added.append(node)
        self.report.edits += 1
        after_schema = state.schema
        for probe in state.probes:
            described = _describe_request(probe)
            verdict = oracle_decide(after_schema, probe)
            if verdict != before[described]:
                falsifier = self._emit_falsifier(
                    before_schema,
                    self._stability_predicate(node, probe),
                    f"implied-flip-{state.case.name}-step{step}",
                    f"adding implied constraint {unparse(node)} flipped "
                    f"{described} from {before[described]} to {verdict} "
                    f"(soak seed {self.config.seed}, step {step})",
                )
                self._violation(
                    "implied-constraint-stability",
                    state,
                    step,
                    f"adding implied {unparse(node)} flipped {described}: "
                    f"{before[described]} -> {verdict}",
                    falsifier,
                )
        self._check_cache_clean(state, engine, step)
        self._check_rekey_sound(state, step)

    def _stability_predicate(
        self, node: Node, probe: Sequence[object]
    ) -> Callable[[DimensionSchema], bool]:
        def predicate(schema: DimensionSchema) -> bool:
            if not _request_fits(schema, probe):
                return False
            try:
                extended = schema.with_constraints([node])
            except Exception:
                return False
            if not run_implies(schema, node, cache=None).implied:
                return False
            return oracle_decide(schema, probe) != oracle_decide(
                extended, probe
            )

        return predicate

    def _check_rekey_sound(self, state: _CaseState, step: int) -> None:
        """Post-edit: the verdicts the rekey carried over to the new
        fingerprint must match a fresh sequential run.  After a syntactic move a sample of four is
        checked - a mismatch means a dependency cone was computed too
        narrow.  After a model-preserving move every entry is checked -
        a mismatch means the edit was wrongly judged to keep the
        instances."""
        cache = state.editor._cache
        if cache is None:
            return
        schema = state.schema
        limit = None if state.editor.last_edit_preserved_models else 4
        checked = 0
        for full_key in cache.entries_for(schema.fingerprint()):
            stored = cache.peek(full_key)
            if stored is None:
                continue
            request = list(full_key[1:])
            truth = oracle_decide(schema, request)
            self.report.rekey_checks += 1
            if _verdict_of(stored) != truth:
                self.report.wrong_verdicts += 1
                self._violation(
                    "rekey-soundness",
                    state,
                    step,
                    f"rekeyed {_describe_request(request)}: cached="
                    f"{_verdict_of(stored)} fresh-oracle={truth} "
                    f"(fingerprint {schema.fingerprint()[:12]})",
                )
            checked += 1
            if checked == limit:
                break

    def _check_cache_clean(
        self,
        state: _CaseState,
        engine: ResilientDecisionEngine,
        step: int,
    ) -> None:
        """Post-edit: the engine's verdict on the *new* schema version,
        and the verdict of the compiled artifact the process-wide store
        holds for it, must match a fresh uncached sequential run - a
        stale verdict here means the editor's invalidation hygiene broke,
        or an artifact moved by an edit that changed the instances."""
        probe = state.probes[0]
        schema = state.schema
        truth = oracle_decide(schema, probe)
        outcome = engine.decide(schema, probe)
        self.report.decisions += 1
        verdicts = {"engine": None if outcome.unknown else outcome.verdict}
        if outcome.unknown:
            self.report.unknown += 1
        try:
            verdicts["artifact"] = _verdict_of(
                ask(self._artifact_engine, schema, probe)
            )
        except OSError:
            # An injected fault (the oracle is immune, this engine is
            # not): no verdict to compare.
            pass
        for source, verdict in verdicts.items():
            if verdict is None or verdict == truth:
                continue
            self.report.wrong_verdicts += 1
            self._violation(
                "cache-clean",
                state,
                step,
                f"post-edit {_describe_request(probe)}: {source}="
                f"{verdict} fresh-oracle={truth} "
                f"(fingerprint {schema.fingerprint()[:12]})",
            )

    # -- the loop -------------------------------------------------------

    def run(self) -> SoakReport:
        config = self.config
        engine = build_engine(
            config.engine,
            budget=(
                DecisionBudget(time_ms=config.budget_ms)
                if config.budget_ms is not None
                else None
            ),
            retries=config.retries,
        )
        started = time.monotonic()
        deadline = started + config.seconds
        min_steps = max(0, config.min_passes) * len(self.states)
        step = 0
        while True:
            if config.max_steps is not None and step >= config.max_steps:
                break
            if step >= min_steps and time.monotonic() >= deadline:
                break
            state = self.states[step % len(self.states)]
            op = state.next_op()
            kind = op[0]
            self.report.ops_by_kind[kind] = (
                self.report.ops_by_kind.get(kind, 0) + 1
            )
            if kind in ("dimsat", "implies", "summarizable"):
                self._decide(state, engine, op, step)
            elif kind == "navigate":
                self._navigate(state, engine, op, step)
            elif kind == "edit":
                self._edit(state, engine, op, step)
            else:  # pragma: no cover - mixed_trace emits no others
                raise ReproError(f"unknown trace op {kind!r}")
            step += 1
        self.report.steps = step
        self.report.elapsed_s = time.monotonic() - started
        return self.report


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one soak and return its report.

    Deterministic apart from wall-clock stopping: with ``max_steps`` set
    (and no injected faults racing real thread timing) two runs with the
    same config visit the same operations in the same order.
    """
    return _SoakRun(config).run()
