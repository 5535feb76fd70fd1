"""CSV loaders for dimension data and facts.

Two file shapes, both ordinary ``csv`` with a header row:

*Dimension file* - one row per child/parent link::

    member,category,parent,parent_category,name
    s1,Store,Toronto,City,
    Toronto,City,Ontario,Province,Toronto

  A member may appear in several rows (one per parent).  A row with an
  empty ``parent`` declares a parentless member (useful for categories
  directly under ``All``).  ``name`` is optional; empty means identity.

*Fact file* - one row per fact, a ``member`` column plus one column per
measure::

    member,sales,profit
    s1,10.5,2.0
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Tuple

from repro._types import Member
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.errors import OlapError, SchemaError
from repro.olap.facttable import FactTable


def instance_from_csv(
    hierarchy: HierarchySchema, text: str
) -> DimensionInstance:
    """Load a dimension instance from dimension-file CSV text.

    >>> g = HierarchySchema(["Store", "City"], [("Store", "City"), ("City", "All")])
    >>> d = instance_from_csv(g, "member,category,parent,parent_category,name\\n"
    ...                          "s1,Store,Toronto,City,\\n"
    ...                          "Toronto,City,,,\\n")
    >>> d.rolls_up_to_category("s1", "City")
    True
    """
    reader = csv.DictReader(io.StringIO(text))
    required = {"member", "category"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise SchemaError(
            "dimension CSV needs at least the columns 'member' and 'category'"
        )
    members: Dict[Member, str] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []
    for line, row in enumerate(reader, start=2):
        member = (row.get("member") or "").strip()
        category = (row.get("category") or "").strip()
        if not member or not category:
            raise SchemaError(f"line {line}: empty member or category")
        previous = members.get(member)
        if previous is not None and previous != category:
            raise SchemaError(
                f"line {line}: member {member!r} redeclared from "
                f"{previous!r} to {category!r}"
            )
        members[member] = category
        parent = (row.get("parent") or "").strip()
        parent_category = (row.get("parent_category") or "").strip()
        if parent:
            if not parent_category:
                raise SchemaError(
                    f"line {line}: parent {parent!r} needs a parent_category"
                )
            existing = members.get(parent)
            if existing is not None and existing != parent_category:
                raise SchemaError(
                    f"line {line}: member {parent!r} redeclared from "
                    f"{existing!r} to {parent_category!r}"
                )
            members[parent] = parent_category
            edges.append((member, parent))
        elif parent_category:
            # A parentless row carrying a parent_category used to be
            # silently accepted, dropping the category declaration the
            # author plainly intended (``s1,Store,,City,``): the City link
            # simply vanished from the loaded instance.
            raise SchemaError(
                f"line {line}: row for member {member!r} declares "
                f"parent_category {parent_category!r} but no parent; "
                "either name the parent member or leave both columns empty"
            )
        name = (row.get("name") or "").strip()
        if name:
            names[member] = name
    return DimensionInstance(hierarchy, members, edges, names=names)


def facts_from_csv(instance: DimensionInstance, text: str) -> FactTable:
    """Load a fact table from fact-file CSV text."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or "member" not in reader.fieldnames:
        raise OlapError("fact CSV needs a 'member' column")
    measures = [c for c in reader.fieldnames if c != "member"]
    if not measures:
        raise OlapError("fact CSV needs at least one measure column")
    rows = []
    for line, row in enumerate(reader, start=2):
        member = (row.get("member") or "").strip()
        if not member:
            raise OlapError(f"line {line}: empty member")
        try:
            values = {m: float(row[m]) for m in measures}
        except (TypeError, ValueError) as exc:
            raise OlapError(f"line {line}: bad measure value ({exc})") from None
        rows.append((member, values))
    return FactTable(instance, rows)


def facts_to_csv(facts: FactTable) -> str:
    """Serialize a fact table back to CSV text (inverse of
    :func:`facts_from_csv` up to float formatting)."""
    measures = sorted(facts.measures)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["member", *measures])
    for fact in facts:
        writer.writerow([fact.member, *(fact.measures[m] for m in measures)])
    return out.getvalue()
