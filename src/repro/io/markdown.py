"""Markdown schema reports.

One call produces the document a data team would check into their wiki:
the hierarchy, the constraints with plain-language glosses, the profile
metrics, the frozen-dimension inventory, and the summarizability matrix
for the levels users aggregate over.  Exposed as ``repro-olap report``.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import ALL, Category
from repro.constraints.ast import (
    ComparisonAtom,
    EqualityAtom,
    Node,
    PathAtom,
    RollsUpAtom,
)
from repro.constraints.printer import unparse
from repro.core.dimsat import enumerate_frozen_dimensions
from repro.core.profile import schema_profile
from repro.core.schema import NK, DimensionSchema
from repro.core.summarizability import is_summarizable_in_schema


def _gloss(node: Node) -> str:
    """A best-effort plain-language reading of simple constraint shapes."""
    if isinstance(node, PathAtom) and len(node.path) == 1:
        return f"every {node.root} has a parent in {node.path[0]}"
    if isinstance(node, PathAtom):
        return f"every {node.root} has the chain {' -> '.join(node.full_path)}"
    if isinstance(node, RollsUpAtom):
        return f"every {node.root} rolls up to {node.target}"
    if isinstance(node, EqualityAtom):
        return f"constrains the {node.category} name to {node.constant!r}"
    if isinstance(node, ComparisonAtom):
        return f"constrains the {node.category} value ({node.op} {node.constant})"
    return ""


def schema_report(
    schema: DimensionSchema,
    root: Optional[Category] = None,
    matrix_targets: Optional[List[Category]] = None,
) -> str:
    """The full markdown report for one dimension schema.

    ``root`` defaults to the first bottom category; ``matrix_targets``
    defaults to every category the root reaches (except ``All``).
    """
    hierarchy = schema.hierarchy
    if root is None:
        bottoms = sorted(hierarchy.bottom_categories())
        root = bottoms[0] if bottoms else ALL
    profile = schema_profile(schema)

    lines: List[str] = ["# Dimension schema report", ""]

    lines.append("## Hierarchy")
    lines.append("")
    lines.append("| child | parents |")
    lines.append("|---|---|")
    for category in sorted(hierarchy.categories - {ALL}):
        parents = ", ".join(sorted(hierarchy.parents(category)))
        lines.append(f"| {category} | {parents} |")
    lines.append("")

    lines.append("## Constraints")
    lines.append("")
    if not schema.constraints:
        lines.append("*(none - the hierarchy schema alone)*")
    for node in schema.constraints:
        gloss = _gloss(node)
        suffix = f" — {gloss}" if gloss else ""
        lines.append(f"- `{unparse(node)}`{suffix}")
    lines.append("")

    lines.append("## Profile")
    lines.append("")
    lines.append("```")
    lines.append(profile.render())
    lines.append("```")
    lines.append("")

    lines.append(f"## Frozen dimensions (root: {root})")
    lines.append("")
    frozen = enumerate_frozen_dimensions(schema, root)
    if not frozen:
        lines.append(f"**{root} is unsatisfiable** — no data can ever live there.")
    for index, frozen_dim in enumerate(frozen, start=1):
        pinned = ", ".join(
            f"{category}={frozen_dim.name_of(category)}"
            for category in sorted(frozen_dim.categories)
            if category != ALL and frozen_dim.name_of(category) != NK
        )
        chain = ", ".join(
            f"{a}->{b}" for a, b in frozen_dim.subhierarchy.sorted_edges()
        )
        suffix = f" (pinned: {pinned})" if pinned else ""
        lines.append(f"{index}. `{chain}`{suffix}")
    lines.append("")

    lines.append("## Safe aggregation (single-source summarizability)")
    lines.append("")
    if matrix_targets is None:
        matrix_targets = sorted(
            c
            for c in hierarchy.categories
            if c != ALL and c != root and hierarchy.reaches(root, c)
        )
    sources = sorted(
        c for c in hierarchy.categories if c not in (ALL,)
    )
    lines.append("| target \\ source | " + " | ".join(sources) + " |")
    lines.append("|---|" + "---|" * len(sources))
    for target in matrix_targets:
        cells = []
        for source in sources:
            if source == target or not hierarchy.reaches(source, target):
                cells.append("·")
            elif is_summarizable_in_schema(schema, target, [source]):
                cells.append("yes")
            else:
                cells.append("**NO**")
        lines.append(f"| {target} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        "`yes` = the target view may be derived from that source view for "
        "any data under this schema; `**NO**` = a rewriting can lose or "
        "double-count facts; `·` = not applicable."
    )
    return "\n".join(lines)
