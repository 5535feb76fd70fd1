"""JSON (de)serialization of schemas, instances, and constraints.

The wire format is deliberately plain - dicts of lists of strings - so
schema files can be written by hand, diffed, and checked into a repo:

.. code-block:: json

    {
      "categories": ["Store", "City", "All"],
      "edges": [["Store", "City"], ["City", "All"]],
      "constraints": ["Store -> City"]
    }

Constraints travel in the textual syntax; the parser/printer round-trip
guarantees fidelity.  Member identifiers are coerced to strings on write
(JSON has no richer keys), so reading back an instance whose members were
not strings yields string members with the same names.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.constraints.printer import unparse
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.errors import SchemaError


# ----------------------------------------------------------------------
# Hierarchy schemas
# ----------------------------------------------------------------------


def hierarchy_to_dict(hierarchy: HierarchySchema) -> Dict[str, Any]:
    """The JSON-ready representation of a hierarchy schema."""
    return {
        "categories": sorted(hierarchy.categories),
        "edges": sorted([child, parent] for child, parent in hierarchy.edges),
    }


def hierarchy_from_dict(data: Dict[str, Any]) -> HierarchySchema:
    """Rebuild a hierarchy schema; raises :class:`SchemaError` on malformed
    input."""
    try:
        categories = list(data["categories"])
        edges = [tuple(edge) for edge in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed hierarchy document: {exc}") from None
    return HierarchySchema(categories, edges)


# ----------------------------------------------------------------------
# Dimension schemas
# ----------------------------------------------------------------------


def schema_to_dict(schema: DimensionSchema) -> Dict[str, Any]:
    """The JSON-ready representation of a dimension schema."""
    document = hierarchy_to_dict(schema.hierarchy)
    document["constraints"] = [unparse(node) for node in schema.constraints]
    return document


def schema_from_dict(data: Dict[str, Any]) -> DimensionSchema:
    """Rebuild a dimension schema (constraints re-parsed and re-validated)."""
    hierarchy = hierarchy_from_dict(data)
    constraints = data.get("constraints", [])
    return DimensionSchema(hierarchy, constraints)


def schema_to_json(schema: DimensionSchema, indent: int = 2) -> str:
    """Serialize a dimension schema to a JSON string."""
    return json.dumps(schema_to_dict(schema), indent=indent, sort_keys=True)


def schema_from_json(text: str) -> DimensionSchema:
    """Parse a dimension schema from a JSON string."""
    return schema_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Dimension instances
# ----------------------------------------------------------------------


def instance_to_dict(instance: DimensionInstance) -> Dict[str, Any]:
    """The JSON-ready representation of an instance (hierarchy included)."""
    members = {
        str(member): instance.category_of(member)
        for member in instance.all_members()
    }
    edges = sorted(
        [str(child), str(parent)] for child, parent in instance.member_edges()
    )
    names = {
        str(member): instance.name(member)
        for member in instance.all_members()
        if instance.name(member) != member
    }
    return {
        "hierarchy": hierarchy_to_dict(instance.hierarchy),
        "members": members,
        "edges": edges,
        "names": names,
    }


def instance_from_dict(data: Dict[str, Any]) -> DimensionInstance:
    """Rebuild (and re-validate) an instance from its JSON form."""
    try:
        hierarchy = hierarchy_from_dict(data["hierarchy"])
        members = dict(data["members"])
        edges = [tuple(edge) for edge in data["edges"]]
        names = dict(data.get("names", {}))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed instance document: {exc}") from None
    return DimensionInstance(hierarchy, members, edges, names=names)


def instance_to_json(instance: DimensionInstance, indent: int = 2) -> str:
    """Serialize an instance to a JSON string."""
    return json.dumps(instance_to_dict(instance), indent=indent, sort_keys=True)


def instance_from_json(text: str) -> DimensionInstance:
    """Parse an instance from a JSON string."""
    return instance_from_dict(json.loads(text))
