"""Graphviz DOT export for hierarchy schemas, instances, and frozen
dimensions.

The paper communicates every concept with a diagram (Figures 1, 3, 4, 7);
these exporters produce the same pictures from live objects, so examples
can drop ``.dot`` files a user renders with ``dot -Tpng``.
"""

from __future__ import annotations

from typing import Iterable

from repro._types import ALL
from repro.core.frozen import FrozenDimension
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.schema import NK


def _quote(label: object) -> str:
    escaped = str(label).replace('"', '\\"')
    return f'"{escaped}"'


def hierarchy_to_dot(
    hierarchy: HierarchySchema, name: str = "hierarchy"
) -> str:
    """The hierarchy schema as a DOT digraph (Figure 1(A) style)."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for category in sorted(hierarchy.categories):
        shape = "ellipse" if category == ALL else "box"
        lines.append(f"  {_quote(category)} [shape={shape}];")
    for child, parent in sorted(hierarchy.edges):
        lines.append(f"  {_quote(child)} -> {_quote(parent)};")
    lines.append("}")
    return "\n".join(lines)


def instance_to_dot(
    instance: DimensionInstance, name: str = "instance"
) -> str:
    """The child/parent relation as a DOT digraph (Figure 1(B) style).

    Members are clustered by category so the rendering shows the
    stratification.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for index, category in enumerate(sorted(instance.hierarchy.categories)):
        members = sorted(instance.members(category), key=repr)
        if not members:
            continue
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f"    label={_quote(category)};")
        for member in members:
            label = instance.name(member)
            rendered = (
                f"{member}" if label == member else f"{member}\\n({label})"
            )
            lines.append(f"    {_quote(member)} [label={_quote(rendered)}];")
        lines.append("  }")
    for child, parent in sorted(instance.member_edges(), key=repr):
        lines.append(f"  {_quote(child)} -> {_quote(parent)};")
    lines.append("}")
    return "\n".join(lines)


def frozen_to_dot(
    frozen: FrozenDimension, name: str = "frozen"
) -> str:
    """One frozen dimension as a DOT digraph (Figure 4 style): the induced
    subhierarchy with pinned names annotated."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for category in sorted(frozen.subhierarchy.categories):
        pinned = frozen.name_of(category)
        if category != ALL and pinned != NK:
            label = f"{category}\\n= {pinned}"
        else:
            label = category
        lines.append(f"  {_quote(category)} [label={_quote(label)}];")
    for child, parent in frozen.subhierarchy.sorted_edges():
        lines.append(f"  {_quote(child)} -> {_quote(parent)};")
    lines.append("}")
    return "\n".join(lines)


def frozen_set_to_dot(
    frozen_dimensions: Iterable[FrozenDimension], name: str = "frozen_set"
) -> str:
    """All frozen dimensions of a schema in one figure (Figure 4 itself):
    each as a cluster."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for index, frozen in enumerate(frozen_dimensions):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f"    label=\"f{index + 1}\";")
        for category in sorted(frozen.subhierarchy.categories):
            pinned = frozen.name_of(category)
            node = f"f{index}_{category}"
            if category != ALL and pinned != NK:
                label = f"{category}\\n= {pinned}"
            else:
                label = category
            lines.append(f"    {_quote(node)} [label={_quote(label)}];")
        for child, parent in frozen.subhierarchy.sorted_edges():
            lines.append(
                f"    {_quote(f'f{index}_{child}')} -> {_quote(f'f{index}_{parent}')};"
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
