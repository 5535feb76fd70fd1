"""The paper's running example: the ``location`` dimension (Figure 1) and
the ``locationSch`` dimension schema (Figure 3).

The hierarchy schema is reconstructed from the paper's prose (see DESIGN.md
section "Reading-level decisions"): stores roll up to City and - for USA
stores whose state is outside every sale region - directly to SaleRegion;
Canadian cities roll up through Province, Mexican and US cities through
State; Washington is the exception that rolls up straight to Country.

The concrete members below satisfy every statement the paper makes about
the instance:

* stores in all three countries, all reaching City, SaleRegion, Country;
* Canadian stores through Province, Mexican/US stores through State;
* the Washington store skipping State entirely;
* Mexican states and Canadian provinces inside sale regions, the US state
  outside them.
"""

from __future__ import annotations

from typing import Dict

from repro.core.frozen import Subhierarchy, subhierarchy_from_edges
from repro.core.hierarchy import ALL, HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema

#: The textual form of the locationSch constraints, labelled (a)-(g) as in
#: Figure 5 (left).
LOCATION_CONSTRAINTS: Dict[str, str] = {
    "a": "Store -> City",
    "b": "Store.SaleRegion",
    "c": "City = 'Washington' iff City -> Country",
    "d": "City = 'Washington' implies City.Country = 'USA'",
    "e": "State.Country = 'Mexico' or State.Country = 'USA'",
    "f": "State.Country = 'Mexico' iff State -> SaleRegion",
    "g": "Province.Country = 'Canada'",
}


def location_hierarchy() -> HierarchySchema:
    """The hierarchy schema of Figure 1(A)."""
    categories = [
        "Store",
        "City",
        "State",
        "Province",
        "SaleRegion",
        "Country",
        ALL,
    ]
    edges = [
        ("Store", "City"),
        ("Store", "SaleRegion"),
        ("City", "State"),
        ("City", "Province"),
        ("City", "Country"),  # the Washington shortcut
        ("State", "SaleRegion"),
        ("State", "Country"),
        ("Province", "SaleRegion"),
        ("SaleRegion", "Country"),
        ("Country", ALL),
    ]
    return HierarchySchema(categories, edges)


def location_schema() -> DimensionSchema:
    """The dimension schema ``locationSch`` of Figure 3 / Example 8."""
    return DimensionSchema(location_hierarchy(), LOCATION_CONSTRAINTS.values())


def location_instance() -> DimensionInstance:
    """The dimension instance ``location`` of Figure 1(B).

    Name is the identity function (as in the paper's figure), so the
    country members are literally named ``Canada``, ``Mexico``, ``USA``
    and the exceptional city is named ``Washington``.
    """
    members = {
        # Stores.
        "s1": "Store",
        "s2": "Store",
        "s3": "Store",
        "s4": "Store",
        "s5": "Store",
        "s6": "Store",
        # Cities.
        "Toronto": "City",
        "Ottawa": "City",
        "Vancouver": "City",
        "MexicoCity": "City",
        "Austin": "City",
        "Washington": "City",
        # States and provinces.
        "DF": "State",
        "Texas": "State",
        "Ontario": "Province",
        "BritishColumbia": "Province",
        # Sale regions.
        "SR-North": "SaleRegion",
        "SR-South": "SaleRegion",
        "SR-West": "SaleRegion",
        # Countries.
        "Canada": "Country",
        "Mexico": "Country",
        "USA": "Country",
    }
    child_parent = [
        # Canadian stores: Store -> City -> Province -> SaleRegion -> Country.
        ("s1", "Toronto"),
        ("s2", "Ottawa"),
        ("s6", "Vancouver"),
        ("Toronto", "Ontario"),
        ("Ottawa", "Ontario"),
        ("Vancouver", "BritishColumbia"),
        ("Ontario", "SR-North"),
        ("BritishColumbia", "SR-North"),
        ("SR-North", "Canada"),
        # Mexican store: Store -> City -> State -> SaleRegion -> Country.
        ("s3", "MexicoCity"),
        ("MexicoCity", "DF"),
        ("DF", "SR-South"),
        ("SR-South", "Mexico"),
        # US store in Texas: the state is outside every sale region, so the
        # store reaches SaleRegion directly.
        ("s4", "Austin"),
        ("s4", "SR-West"),
        ("Austin", "Texas"),
        ("Texas", "USA"),
        ("SR-West", "USA"),
        # The Washington exception: City -> Country directly.
        ("s5", "Washington"),
        ("s5", "SR-West"),
        ("Washington", "USA"),
    ]
    return DimensionInstance(location_hierarchy(), members, child_parent)


def paper_frozen_structures() -> Dict[str, Subhierarchy]:
    """The four frozen-dimension skeletons of Figure 4, keyed by the
    country structure they describe."""
    return {
        "Canada": subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("City", "Province"),
                ("Province", "SaleRegion"),
                ("SaleRegion", "Country"),
                ("Country", ALL),
            ],
        ),
        "Mexico": subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("City", "State"),
                ("State", "SaleRegion"),
                ("SaleRegion", "Country"),
                ("Country", ALL),
            ],
        ),
        "USA": subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("Store", "SaleRegion"),
                ("City", "State"),
                ("State", "Country"),
                ("SaleRegion", "Country"),
                ("Country", ALL),
            ],
        ),
        "USA-Washington": subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("Store", "SaleRegion"),
                ("City", "Country"),
                ("SaleRegion", "Country"),
                ("Country", ALL),
            ],
        ),
    }


def expected_frozen_names() -> Dict[str, Dict[str, str]]:
    """The forced name assignments of each Figure 4 frozen dimension
    (categories left out carry ``nk``)."""
    return {
        "Canada": {"Country": "Canada"},
        "Mexico": {"Country": "Mexico"},
        "USA": {"Country": "USA"},
        "USA-Washington": {"City": "Washington", "Country": "USA"},
    }


def figure5_subhierarchy() -> Subhierarchy:
    """The subhierarchy ``g`` of Example 12 / Figure 5 (right).

    Reconstructed from the reduced constraint set the paper prints: it
    contains State *and* Province (so constraints (e) and (g) survive),
    reaches Country from both State and Province, lacks the edges
    ``City -> Country`` (so (c) reduces to false) and
    ``State -> SaleRegion`` (so (f) reduces to false), and keeps a path
    ``City -> ... -> Country`` (so (d) survives).
    """
    return subhierarchy_from_edges(
        "Store",
        [
            ("Store", "City"),
            ("City", "State"),
            ("City", "Province"),
            ("State", "Country"),
            ("Province", "SaleRegion"),
            ("SaleRegion", "Country"),
            ("Country", ALL),
        ],
    )
