"""Fact tables (Section 3.3).

A fact table ``F`` holds facts at the *base* granularity of a dimension:
each row references a member of a bottom category and carries one or more
numeric measures.  The paper's cube views are single-dimension aggregates,
so the fact table is keyed by one dimension; multi-dimensional cubes are a
cartesian composition the engine does not need for any experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro._types import Member
from repro.core.instance import DimensionInstance
from repro.errors import OlapError


@dataclass(frozen=True, slots=True)
class Fact:
    """One row: a base member plus its measures.

    Slotted, because a fact table holds one per row.
    """

    member: Member
    measures: Mapping[str, float]

    def value(self, measure: str) -> float:
        try:
            return self.measures[measure]
        except KeyError:
            raise OlapError(f"fact has no measure {measure!r}") from None


class FactTable:
    """An append-only log of facts over one dimension instance.

    Construction verifies that every fact references a member of a bottom
    category (the paper requires facts at the base granularity) and that
    all rows carry the same measure names.

    A table is immutable to its readers.  Its rows live in a list shared
    with every table :meth:`extended` from it, and the table keeps its own
    length: it is the first ``len(table)`` rows of that log, fixed when it
    was created.  Extending the table at the log's tip appends in place;
    extending an older table copies its prefix first, so two branches
    never see each other's rows.  Iterating the tip is the log's own list
    iterator, so finish an iteration before extending the same table.

    A table has a single writer: extending one table from two threads at
    once is unsupported.

    Examples
    --------
    >>> from repro.generators.location import location_instance
    >>> d = location_instance()
    >>> facts = FactTable(d, [("s1", {"sales": 10.0}), ("s3", {"sales": 5.0})])
    >>> len(facts)
    2
    """

    __slots__ = ("instance", "_log", "_n", "_measures")

    def __init__(
        self,
        instance: DimensionInstance,
        rows: Iterable[Tuple[Member, Mapping[str, float]]],
    ) -> None:
        self.instance = instance
        base = instance.base_members()
        facts: List[Fact] = []
        measures: set = set()
        for member, values in rows:
            if member not in base:
                raise OlapError(
                    f"fact references {member!r}, which is not a member of a "
                    f"bottom category"
                )
            fact = Fact(member, dict(values))
            if facts and set(fact.measures) != measures:
                raise OlapError(
                    f"fact for {member!r} has measures {sorted(fact.measures)}, "
                    f"expected {sorted(measures)}"
                )
            measures = set(fact.measures)
            facts.append(fact)
        self._log = facts
        self._n = len(facts)
        self._measures = frozenset(measures)

    @property
    def measures(self) -> frozenset:
        """The measure names all rows carry."""
        return self._measures

    def __iter__(self) -> Iterator[Fact]:
        if len(self._log) == self._n:
            return iter(self._log)
        return islice(self._log, self._n)

    def __len__(self) -> int:
        return self._n

    def extended(self, delta: "FactTable") -> "FactTable":
        """This table followed by ``delta``'s rows, in O(|delta|).

        Only the delta is checked: its members must be base members of
        this table's instance and, unless this table is empty, its
        measures must equal this table's.  A rejected delta raises
        :class:`OlapError` before anything changes.  ``self`` keeps its
        own rows either way.

        >>> from repro.generators.location import location_instance
        >>> d = location_instance()
        >>> old = FactTable(d, [("s1", {"sales": 10.0})])
        >>> new = old.extended(FactTable(d, [("s3", {"sales": 5.0})]))
        >>> len(old), len(new)
        (1, 2)
        >>> [fact.member for fact in new]
        ['s1', 's3']
        """
        if not len(delta):
            return self
        if delta.instance is not self.instance:
            base = self.instance.base_members()
            for fact in delta:
                if fact.member not in base:
                    raise OlapError(
                        f"fact references {fact.member!r}, which is not a "
                        "member of a bottom category"
                    )
        if self._n and delta.measures != self._measures:
            raise OlapError(
                f"appended facts have measures {sorted(delta.measures)}, "
                f"expected {sorted(self._measures)}"
            )
        log = self._log
        if len(log) != self._n:
            log = log[: self._n]  # a branch: never grow a log others extended
        log.extend(delta)
        table = FactTable.__new__(FactTable)
        table.instance = self.instance
        table._log = log
        table._n = len(log)
        table._measures = delta.measures
        return table

    def members(self) -> List[Member]:
        """The base members referenced, with multiplicity."""
        return [fact.member for fact in self]

    def values(self, measure: str) -> List[float]:
        """All values of one measure, in row order."""
        return [fact.value(measure) for fact in self]

    def group_by_member(self, measure: str) -> Dict[Member, List[float]]:
        """Measure values grouped by base member."""
        grouped: Dict[Member, List[float]] = {}
        for fact in self:
            grouped.setdefault(fact.member, []).append(fact.value(measure))
        return grouped

    def restrict(self, members: Sequence[Member]) -> "FactTable":
        """A new fact table with only the rows of the given members."""
        wanted = set(members)
        return FactTable(
            self.instance,
            (
                (fact.member, fact.measures)
                for fact in self
                if fact.member in wanted
            ),
        )

    def __repr__(self) -> str:
        return f"FactTable({self._n} facts, measures={sorted(self._measures)})"
