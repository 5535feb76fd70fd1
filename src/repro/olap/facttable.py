"""Fact tables (Section 3.3).

A fact table ``F`` holds facts at the *base* granularity of a dimension:
each row references a member of a bottom category and carries one or more
numeric measures.  The paper's cube views are single-dimension aggregates,
so the fact table is keyed by one dimension; multi-dimensional cubes are a
cartesian composition the engine does not need for any experiment.

A cube view aggregates a multiset of facts, so the table is free to keep
its rows in any physical order: it stores them by column and clusters
each measure's values by base member, and a scan then steps once per
distinct base member rather than once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro._types import Member
from repro.core.instance import DimensionInstance
from repro.errors import OlapError

#: One measure's values grouped by base member, each list in row order.
Grouping = Dict[Member, List[float]]


@dataclass(frozen=True, slots=True)
class Fact:
    """One row: a base member plus its measures.

    A :class:`FactTable` stores no ``Fact``; it builds one per row as it
    is iterated.
    """

    member: Member
    measures: Mapping[str, float]

    def value(self, measure: str) -> float:
        try:
            return self.measures[measure]
        except KeyError:
            raise OlapError(f"fact has no measure {measure!r}") from None


class FactTable:
    """An append-only, columnar log of facts over one dimension instance.

    Construction verifies that every fact references a member of a bottom
    category (the paper requires facts at the base granularity) and that
    all rows carry the same measure names.

    The rows live in columns: one list of members and one list of values
    per measure.  Beside them, per measure, the table keeps a *grouping*
    from each base member to its values in row order, built on the first
    scan of that measure; :func:`~repro.olap.cubeview.cube_view` walks it
    once per distinct base member.

    A table is immutable to its readers.  Its columns are shared with
    every table :meth:`extended` from it, and the table keeps its own
    length: it is the first ``len(table)`` rows of that log, fixed when it
    was created.  Extending the table at the log's tip appends to the
    columns in place; extending an older table copies its prefix first,
    so two branches never see each other's rows.  The groupings belong to
    the tip: extending the tip grows them in place by the delta and hands
    them to the new table, and a handle that is no longer the tip, or a
    branch, regroups its own prefix once when it is next scanned.  So
    finish a scan before extending the same table.

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

    __slots__ = ("instance", "_members", "_columns", "_n", "_measures", "_groups")

    def __init__(
        self,
        instance: DimensionInstance,
        rows: Iterable[Tuple[Member, Mapping[str, float]]],
    ) -> None:
        base = instance.base_members()
        members: List[Member] = []
        columns: Optional[Dict[str, List[float]]] = None
        for member, values in rows:
            if member not in base:
                raise OlapError(
                    f"fact references {member!r}, which is not a member of a "
                    f"bottom category"
                )
            if columns is None:
                columns = {name: [] for name in values}
            elif values.keys() != columns.keys():
                raise OlapError(
                    f"fact for {member!r} has measures {sorted(values)}, "
                    f"expected {sorted(columns)}"
                )
            members.append(member)
            for name, column in columns.items():
                column.append(values[name])
        self._adopt(instance, members, columns or {})

    def _adopt(
        self,
        instance: DimensionInstance,
        members: List[Member],
        columns: Dict[str, List[float]],
        groups: Optional[Dict[str, Grouping]] = None,
    ) -> None:
        self.instance = instance
        self._members = members
        self._columns = columns
        self._n = len(members)
        self._measures = frozenset(columns)
        self._groups = groups

    @classmethod
    def _of(
        cls,
        instance: DimensionInstance,
        members: List[Member],
        columns: Dict[str, List[float]],
        groups: Optional[Dict[str, Grouping]] = None,
    ) -> "FactTable":
        """A table over columns whose members are already checked."""
        table = cls.__new__(cls)
        table._adopt(instance, members, columns, groups)
        return table

    @property
    def measures(self) -> frozenset:
        """The measure names all rows carry."""
        return self._measures

    def _column(self, measure: str) -> List[float]:
        column = self._columns.get(measure)
        if column is None:
            if self._n:
                raise OlapError(f"fact has no measure {measure!r}")
            return []
        return column

    def grouping(self, measure: str) -> Grouping:
        """This table's values of ``measure`` grouped by base member.

        The grouping is the table's own, built on first use and grown in
        place by :meth:`extended`; read it, never change it, and finish
        with it before extending this table.  :meth:`group_by_member`
        returns a copy.  An unknown measure raises :class:`OlapError`
        unless the table is empty.
        """
        groups = self._groups
        if groups is None:
            groups = self._groups = {}
        grouping = groups.get(measure)
        if grouping is None:
            grouping = {}
            for _, member, value in zip(
                range(self._n), self._members, self._column(measure)
            ):
                values = grouping.get(member)
                if values is None:
                    grouping[member] = [value]
                else:
                    values.append(value)
            groups[measure] = grouping
        return grouping

    def __iter__(self) -> Iterator[Fact]:
        """The rows in order, one :class:`Fact` built per row."""
        names = tuple(self._columns)
        rows = zip(*self._columns.values()) if names else repeat(())
        return map(Fact, self.members(), map(dict, map(zip, repeat(names), rows)))

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
        added = delta.members()
        if delta.instance is not self.instance:
            base = self.instance.base_members()
            for member in added:
                if member not in base:
                    raise OlapError(
                        f"fact references {member!r}, which is not a "
                        "member of a bottom category"
                    )
        if self._n and delta.measures != self._measures:
            raise OlapError(
                f"appended facts have measures {sorted(delta.measures)}, "
                f"expected {sorted(self._measures)}"
            )
        members, columns, groups = self._members, self._columns, self._groups
        if not self._n:
            members, columns, groups = [], {name: [] for name in delta.measures}, None
        elif len(members) != self._n:
            # A branch: never grow a log others extended.
            members = members[: self._n]
            columns = {name: column[: self._n] for name, column in columns.items()}
            groups = None
        else:
            self._groups = None  # the groupings move to the new tip
        members.extend(added)
        for name, column in columns.items():
            column.extend(delta.values(name))
        for name, grouping in (groups or {}).items():
            for member, values in delta.grouping(name).items():
                mine = grouping.get(member)
                if mine is None:
                    grouping[member] = values.copy()
                else:
                    mine.extend(values)
        return FactTable._of(self.instance, members, columns, groups)

    def members(self) -> List[Member]:
        """The base members referenced, with multiplicity."""
        return self._members[: self._n]

    def values(self, measure: str) -> List[float]:
        """All values of one measure, in row order."""
        return self._column(measure)[: self._n]

    def group_by_member(self, measure: str) -> Dict[Member, List[float]]:
        """Measure values grouped by base member (a copy of
        :meth:`grouping`)."""
        return {member: values.copy() for member, values in self.grouping(measure).items()}

    def restrict(self, members: Sequence[Member]) -> "FactTable":
        """A new fact table with only the rows of the given members."""
        wanted = set(members)
        keep = [i for i, member in enumerate(self.members()) if member in wanted]
        return FactTable._of(
            self.instance,
            [self._members[i] for i in keep],
            {name: [column[i] for i in keep] for name, column in self._columns.items()},
        )

    def __repr__(self) -> str:
        return f"FactTable({self._n} facts, measures={sorted(self._measures)})"
