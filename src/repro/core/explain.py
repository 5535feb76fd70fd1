"""Human-readable explanations for reasoning verdicts.

A bare ``False`` from a summarizability or implication test tells a
designer nothing; the minimal-model machinery knows much more.  This
module packages it:

* which bottom category's Theorem 1 constraint failed;
* whether facts would be *lost* (no source category on the rollup path)
  or *double counted* (several source categories on it);
* the concrete witness - violating members at the instance level, a
  frozen dimension (materializable to a full counterexample instance) at
  the schema level.

Rendered explanations power the ``repro-olap explain`` subcommand and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro._types import Category, Member
from repro.constraints.ast import ThroughAtom
from repro.constraints.semantics import satisfies_at
from repro.core.frozen import FrozenDimension
from repro.core.implication import implies
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.core.summarizability import summarizability_constraints


@dataclass(frozen=True)
class MemberDiagnosis:
    """Why one base member breaks the summarizability condition."""

    member: Member
    sources_on_path: Tuple[Category, ...]

    @property
    def kind(self) -> str:
        """``"lost"`` (no source on its path) or ``"double-counted"``."""
        return "lost" if not self.sources_on_path else "double-counted"

    def render(self, target: Category) -> str:
        if not self.sources_on_path:
            return (
                f"member {self.member!r} reaches {target!r} through none of "
                f"the source categories: its facts would be LOST"
            )
        through = ", ".join(self.sources_on_path)
        return (
            f"member {self.member!r} reaches {target!r} through "
            f"{through}: its facts would be DOUBLE COUNTED"
        )


@dataclass(frozen=True)
class SummarizabilityExplanation:
    """A verdict plus its evidence."""

    target: Category
    sources: Tuple[Category, ...]
    summarizable: bool
    level: str  # "instance" or "schema"
    diagnoses: Tuple[MemberDiagnosis, ...] = ()
    counterexample: Optional[FrozenDimension] = None

    def render(self) -> str:
        head = (
            f"{self.target} is {'summarizable' if self.summarizable else 'NOT summarizable'} "
            f"from {{{', '.join(self.sources)}}} at the {self.level} level"
        )
        lines = [head]
        for diagnosis in self.diagnoses:
            lines.append(f"  - {diagnosis.render(self.target)}")
        if self.counterexample is not None:
            lines.append(
                f"  - counterexample shape: {self.counterexample.describe()}"
            )
        return "\n".join(lines)


def _diagnose_member(
    instance: DimensionInstance,
    bottom: Category,
    member: Member,
    target: Category,
    sources: Sequence[Category],
) -> Optional[MemberDiagnosis]:
    if not instance.rolls_up_to_category(member, target):
        return None  # vacuous: the constraint does not bind this member
    on_path = tuple(
        source
        for source in sorted(sources)
        if satisfies_at(instance, member, ThroughAtom(bottom, source, target))
    )
    if len(on_path) == 1:
        return None  # exactly one: this member is fine
    return MemberDiagnosis(member, on_path)


def explain_summarizability_in_instance(
    instance: DimensionInstance,
    target: Category,
    sources: Sequence[Category],
    max_diagnoses: int = 10,
) -> SummarizabilityExplanation:
    """Instance-level verdict with per-member diagnoses.

    >>> from repro.generators.location import location_instance
    >>> e = explain_summarizability_in_instance(
    ...     location_instance(), "Country", ["State", "Province"])
    >>> e.summarizable
    False
    >>> e.diagnoses[0].member
    's5'
    """
    sources = tuple(sorted(set(sources)))
    diagnoses: List[MemberDiagnosis] = []
    for bottom, _node in summarizability_constraints(
        instance.hierarchy, target, sources
    ):
        for member in sorted(instance.members(bottom), key=repr):
            diagnosis = _diagnose_member(
                instance, bottom, member, target, sources
            )
            if diagnosis is not None:
                diagnoses.append(diagnosis)
                if len(diagnoses) >= max_diagnoses:
                    break
        if len(diagnoses) >= max_diagnoses:
            break
    return SummarizabilityExplanation(
        target=target,
        sources=sources,
        summarizable=not diagnoses,
        level="instance",
        diagnoses=tuple(diagnoses),
    )


def explain_summarizability_in_schema(
    schema: DimensionSchema,
    target: Category,
    sources: Sequence[Category],
) -> SummarizabilityExplanation:
    """Schema-level verdict; on failure, the counterexample frozen
    dimension is materialized and diagnosed like data."""
    sources = tuple(sorted(set(sources)))
    for bottom, node in summarizability_constraints(
        schema.hierarchy, target, sources
    ):
        if bottom == "All":
            continue
        result = implies(schema, node)
        if result.implied:
            continue
        witness = result.counterexample
        diagnoses: Tuple[MemberDiagnosis, ...] = ()
        if witness is not None:
            instance = witness.to_instance(schema)
            found = _diagnose_member(
                instance,
                bottom,
                next(iter(instance.members(bottom))),
                target,
                sources,
            )
            if found is not None:
                diagnoses = (found,)
        return SummarizabilityExplanation(
            target=target,
            sources=sources,
            summarizable=False,
            level="schema",
            diagnoses=diagnoses,
            counterexample=witness,
        )
    return SummarizabilityExplanation(
        target=target,
        sources=sources,
        summarizable=True,
        level="schema",
    )
