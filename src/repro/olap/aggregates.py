"""Distributive aggregate functions (Section 1.2, footnote 1).

A distributive aggregate function ``af`` can be computed on a set by
partitioning it, aggregating each part, and combining the partial results
with a (possibly different) aggregate ``af^c``.  Among the SQL aggregates,
``COUNT``, ``SUM``, ``MIN``, ``MAX`` are distributive with::

    COUNT^c = SUM        SUM^c = SUM        MIN^c = MIN        MAX^c = MAX

The cube-view recombination of Definition 6 applies ``af`` at the base
level and ``af^c`` when merging pre-aggregated cube views, so both halves
live on one object here.

SUM's base function and the combiner of SUM and COUNT are
:func:`math.fsum`, which is correctly rounded: a cell's value is the same
whatever order its facts or partials are read in.  So a scan may group
the facts by member (see :func:`~repro.olap.cubeview.cube_view`), and a
recombination may group the partials by target member (see
:func:`~repro.olap.cubeview.recombine`), and each still agrees bit for
bit with a fold in row order.  MIN, MAX and COUNT's base ignore order
anyway.  ``math.fsum`` raises on ``+inf`` and ``-inf`` together and on an
intermediate overflow; :func:`fold_cells`, which every view fold goes
through, reports that as an :class:`~repro.errors.OlapError` naming the
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Tuple, TypeVar

from repro.errors import OlapError

Number = float
Cell = TypeVar("Cell", bound=Hashable)


@dataclass(frozen=True)
class AggregateFunction:
    """A distributive aggregate: the base function and its combiner.

    ``base`` folds a non-empty list of raw measure values (a cube-view
    scan calls it on each cell's list directly); ``combine`` folds partial
    aggregates (the paper's ``af^c``).  ``on_empty_error`` mirrors SQL:
    MIN/MAX over nothing is undefined, COUNT/SUM of nothing is 0.
    """

    name: str
    base: Callable[[List[Number]], Number]
    combine: Callable[[Iterable[Number]], Number]
    combine_name: str
    empty_value: Number | None = None

    def aggregate(self, values: Iterable[Number]) -> Number:
        """Apply the base aggregate to raw values."""
        values = list(values)
        if not values:
            if self.empty_value is None:
                raise OlapError(f"{self.name} over an empty group is undefined")
            return self.empty_value
        return self.base(values)

    def recombine(self, partials: Iterable[Number]) -> Number:
        """Apply ``af^c`` to partial aggregates."""
        partials = list(partials)
        if not partials:
            if self.empty_value is None:
                raise OlapError(f"{self.combine_name} over an empty group is undefined")
            return self.empty_value
        return self.combine(partials)


def fold_cells(
    fold: Callable[[List[Number]], Number],
    name: str,
    where: object,
    groups: Mapping[Cell, List[Number]],
) -> Dict[Cell, Number]:
    """``{cell: fold(values)}`` over non-empty ``groups``.

    A fold with no value - ``math.fsum`` over ``+inf`` and ``-inf``, or
    past the float range - raises :class:`OlapError` naming the ``name``
    aggregate, the cell and ``where`` it lies.  Only after a failure are
    the cells folded again to find that cell, so a defined fold pays
    nothing for the search.
    """
    try:
        return {cell: fold(values) for cell, values in groups.items()}
    except (ValueError, OverflowError):
        for cell, values in groups.items():
            try:
                fold(values)
            except (ValueError, OverflowError) as exc:
                raise OlapError(
                    f"{name} of cell {cell!r} at {where!r} is undefined: {exc}"
                ) from exc
        raise


def _count(values: List[Number]) -> Number:
    return float(len(values))


SUM = AggregateFunction(
    "SUM", base=math.fsum, combine=math.fsum, combine_name="SUM", empty_value=0.0
)
COUNT = AggregateFunction(
    "COUNT", base=_count, combine=math.fsum, combine_name="SUM", empty_value=0.0
)
MIN = AggregateFunction("MIN", base=min, combine=min, combine_name="MIN")
MAX = AggregateFunction("MAX", base=max, combine=max, combine_name="MAX")

#: Every distributive aggregate the engine ships, by SQL name.
DISTRIBUTIVE: Dict[str, AggregateFunction] = {
    "SUM": SUM,
    "COUNT": COUNT,
    "MIN": MIN,
    "MAX": MAX,
}


def by_name(name: str) -> AggregateFunction:
    """Look up a distributive aggregate by (case-insensitive) SQL name.

    ``AVG`` is rejected with a pointer to the workaround the paper's
    footnote implies: maintain SUM and COUNT and divide at the end.
    """
    key = name.upper()
    if key == "AVG":
        raise OlapError(
            "AVG is not distributive; materialize SUM and COUNT instead "
            "and divide on read"
        )
    try:
        return DISTRIBUTIVE[key]
    except KeyError:
        raise OlapError(f"unknown aggregate function {name!r}") from None


def all_aggregates() -> Tuple[AggregateFunction, ...]:
    """The four distributive aggregates, in a stable order."""
    return (SUM, COUNT, MIN, MAX)
