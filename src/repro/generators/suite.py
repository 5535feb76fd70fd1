"""A realistic schema suite (experiment E11).

Section 6 conjectures that "in most practical situations DIMSAT should
yield execution times of the order of a few seconds".  These five schemas
model the heterogeneity patterns practitioners actually hit - each is
documented with the real-world situation it encodes - and the E11
benchmark runs satisfiability and implication over all of them.

========  ==========================================================
schema    heterogeneity it models
========  ==========================================================
retail    the paper's running example (three countries, Washington)
time      ISO weeks cutting across month/quarter/year chains
product   branded items vs. generic items with different rollups
personnel staff in teams vs. external consultants skipping Team
geography independent cities that are not part of any county
========  ==========================================================
"""

from __future__ import annotations

from typing import Dict

from repro._types import ALL
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.generators.location import location_schema


def time_schema() -> DimensionSchema:
    """Calendar dimension with the ISO-week split.

    Days always roll up both the civil chain (Month/Quarter/Year) and the
    week chain.  A week lying entirely inside one civil year rolls up to
    that Year; a *boundary* week (days in two civil years) cannot - the
    strictness condition (C2) would force its days to reach two different
    Year members - so boundary weeks roll up directly to All and are
    marked with the name ``boundary``.  Consequently Year is summarizable
    from Month but not from Week, which the E11/E12 benchmarks exercise.
    """
    g = HierarchySchema(
        ["Day", "Week", "Month", "Quarter", "Year"],
        [
            ("Day", "Week"),
            ("Day", "Month"),
            ("Week", "Year"),
            ("Week", ALL),  # boundary weeks skip Year
            ("Month", "Quarter"),
            ("Quarter", "Year"),
            ("Year", ALL),
        ],
    )
    return DimensionSchema(
        g,
        [
            "Day -> Week",
            "Day -> Month",
            "Week = 'boundary' iff not (Week -> Year)",
            "Month -> Quarter",
            "Quarter -> Year",
        ],
    )


def product_schema() -> DimensionSchema:
    """Branded vs. generic products.

    Every SKU is either branded (rolls up Brand -> Company) or generic
    (rolls up GenericClass -> Department), never both; branded pharmacy
    items additionally carry a regulatory class.
    """
    g = HierarchySchema(
        ["SKU", "Brand", "GenericClass", "Company", "Department", "RegClass"],
        [
            ("SKU", "Brand"),
            ("SKU", "GenericClass"),
            ("Brand", "Company"),
            ("Brand", "RegClass"),
            ("GenericClass", "Department"),
            ("Company", ALL),
            ("Department", ALL),
            ("RegClass", ALL),
        ],
    )
    return DimensionSchema(
        g,
        [
            "one(SKU -> Brand, SKU -> GenericClass)",
            "Brand -> Company",
            "GenericClass -> Department",
            "SKU.Department = 'Pharmacy' implies SKU -> GenericClass",
            "Brand.RegClass = 'OTC' or Brand.RegClass = 'Rx' or not Brand -> RegClass",
        ],
    )


def personnel_schema() -> DimensionSchema:
    """Employees in teams vs. external consultants.

    Regular employees roll up Team -> Department -> Division; consultants
    skip Team and report directly to a Department; exactly the Washington
    pattern of the paper, driven by an attribute.
    """
    g = HierarchySchema(
        ["Employee", "Team", "Department", "Division"],
        [
            ("Employee", "Team"),
            ("Employee", "Department"),  # the consultant shortcut
            ("Team", "Department"),
            ("Department", "Division"),
            ("Division", ALL),
        ],
    )
    return DimensionSchema(
        g,
        [
            "one(Employee -> Team, Employee -> Department)",
            "Employee = 'consultant' iff Employee -> Department",
            "Team -> Department",
            "Department -> Division",
        ],
    )


def geography_schema() -> DimensionSchema:
    """Cities inside counties vs. independent cities.

    Most cities roll up City -> County -> State; independent cities roll
    up directly to State (a shortcut), and every state is in a country.
    """
    g = HierarchySchema(
        ["Address", "City", "County", "State", "Country"],
        [
            ("Address", "City"),
            ("City", "County"),
            ("City", "State"),  # independent cities
            ("County", "State"),
            ("State", "Country"),
            ("Country", ALL),
        ],
    )
    return DimensionSchema(
        g,
        [
            "Address -> City",
            "one(City -> County, City -> State)",
            "County -> State",
            "State -> Country",
        ],
    )


def suite_schemas() -> Dict[str, DimensionSchema]:
    """Every schema of the suite, keyed by short name."""
    return {
        "retail": location_schema(),
        "time": time_schema(),
        "product": product_schema(),
        "personnel": personnel_schema(),
        "geography": geography_schema(),
    }


def personnel_instance() -> DimensionInstance:
    """A small personnel instance matching :func:`personnel_schema`."""
    g = personnel_schema().hierarchy
    members = {
        "alice": "Employee",
        "bob": "Employee",
        "consultant": "Employee",
        "team-db": "Team",
        "team-ui": "Team",
        "dept-eng": "Department",
        "dept-sales": "Department",
        "div-tech": "Division",
    }
    edges = [
        ("alice", "team-db"),
        ("bob", "team-ui"),
        ("consultant", "dept-sales"),
        ("team-db", "dept-eng"),
        ("team-ui", "dept-eng"),
        ("dept-eng", "div-tech"),
        ("dept-sales", "div-tech"),
    ]
    return DimensionInstance(g, members, edges)


def time_instance() -> DimensionInstance:
    """Days around a year boundary.

    The week starting 2021-12-27 contains days of both civil years, so it
    is a boundary week: it rolls up directly to All and carries the name
    ``boundary``.  Aggregating year totals from week views silently drops
    its days - the heterogeneity trap the schema's constraints encode.
    """
    g = time_schema().hierarchy
    members = {
        "2021-12-20": "Day",
        "2021-12-31": "Day",
        "2022-01-01": "Day",
        "2022-01-05": "Day",
        "2021-W51": "Week",
        "2021-W52": "Week",  # the boundary week
        "2022-W01": "Week",
        "2021-12": "Month",
        "2022-01": "Month",
        "2021-Q4": "Quarter",
        "2022-Q1": "Quarter",
        "2021": "Year",
        "2022": "Year",
    }
    edges = [
        ("2021-12-20", "2021-W51"),
        ("2021-12-20", "2021-12"),
        ("2021-12-31", "2021-W52"),
        ("2021-12-31", "2021-12"),
        ("2022-01-01", "2021-W52"),  # same week, next civil year
        ("2022-01-01", "2022-01"),
        ("2022-01-05", "2022-W01"),
        ("2022-01-05", "2022-01"),
        ("2021-W51", "2021"),
        # 2021-W52 has no Year parent: it auto-links to All (boundary).
        ("2022-W01", "2022"),
        ("2021-12", "2021-Q4"),
        ("2022-01", "2022-Q1"),
        ("2021-Q4", "2021"),
        ("2022-Q1", "2022"),
    ]
    names = {"2021-W52": "boundary"}
    return DimensionInstance(g, members, edges, names=names)


def product_instance() -> DimensionInstance:
    """A small product instance matching :func:`product_schema`:
    two branded SKUs (one pharmacy item), one generic SKU."""
    g = product_schema().hierarchy
    members = {
        "sku-tv": "SKU",
        "sku-aspirin": "SKU",
        "sku-storecola": "SKU",
        "brand-vix": "Brand",
        "brand-relief": "Brand",
        "gen-cola": "GenericClass",
        "co-electra": "Company",
        "co-medco": "Company",
        "dept-grocery": "Department",
        "rx-otc": "RegClass",
    }
    edges = [
        ("sku-tv", "brand-vix"),
        ("sku-aspirin", "gen-cola"),  # pharmacy items are generic (rule)
        ("sku-storecola", "gen-cola"),
        ("brand-vix", "co-electra"),
        ("brand-relief", "co-medco"),
        ("brand-relief", "rx-otc"),
        ("gen-cola", "dept-grocery"),
    ]
    names = {"rx-otc": "OTC"}
    return DimensionInstance(g, members, edges, names=names)


def geography_instance() -> DimensionInstance:
    """A small geography instance matching :func:`geography_schema`:
    one county city, one independent city."""
    g = geography_schema().hierarchy
    members = {
        "a1": "Address",
        "a2": "Address",
        "a3": "Address",
        "richmond": "City",
        "fairfax-city": "City",
        "fairfax-county": "County",
        "virginia": "State",
        "usa": "Country",
    }
    edges = [
        ("a1", "richmond"),
        ("a2", "fairfax-city"),
        ("a3", "richmond"),
        ("richmond", "virginia"),       # independent city
        ("fairfax-city", "fairfax-county"),
        ("fairfax-county", "virginia"),
        ("virginia", "usa"),
    ]
    return DimensionInstance(g, members, edges)
