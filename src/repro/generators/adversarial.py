"""Adversarial scenario corpus: schemas engineered to hurt.

The suite schemas (:mod:`repro.generators.suite`) model the *benign*
heterogeneity practitioners hit every day; every one of them decides in
microseconds.  Theorem 4 says the general problem is NP-hard, so the
interesting failures - wrong verdicts, blown budgets, compiled-tier
divergence, cache corruption - live in schema shapes the suite never
produces.  This module generates those shapes on purpose, seedable and
reproducible, as the raw material for the soak harness
(:mod:`repro.core.soak`) and the differential suites.

Generator families
------------------

``deep-chain``
    A rollup chain dozens of categories tall with periodic skip edges and
    choice constraints: stresses the Definition 8 circle-operator
    reductions along long paths.
``wide-fanout``
    One bottom with many alternative parents under an ``one(...)``
    constraint: the DIMSAT branch factor (Figure 6's EXPAND loop) equals
    the fan-out, so the search's first-witness cutoff gets real work.
``many-bottoms``
    Many heterogeneous bottom categories sharing mid/top layers, half
    choice-constrained, half pinned by equality exceptions: the Theorem 1
    summarizability loop runs one implication *per bottom*, so this family
    scales the conjunct count.
``shortcut-lattice``
    A dense layered lattice where every category also keeps skip-level
    shortcut edges: maximizes the diamond count (undirected cycles) and
    the number of distinct simple paths the (C5)/(C6) conditions and the
    navigator's rewrites must consider.
``np-boundary``
    Random 3-SAT reduced to dimension-schema satisfiability exactly as in
    the Theorem 4 hardness proof: one bottom, a true/false parent pair per
    variable under ``one(...)``, one disjunctive constraint per clause, at
    the critical clauses/variables ratio (~4.3) where random 3-SAT is
    empirically hardest.  ``planted=True`` hides a satisfying assignment
    (the schema is satisfiable but the search cannot know that);
    ``unsat=True`` adds a contradictory unit-clause pair.
``census-time`` / ``census-product`` / ``census-org``
    Realistic large domains beyond ``location``: real civil/ISO calendars
    (boundary weeks included), branded-vs-generic product catalogs, and
    staff/consultant org charts - each with a *populated instance* whose
    size is a knob, so "census scale" is one argument away.  These back
    the soak harness's navigate/aggregate traffic.

Every family is a pure function of its knobs plus ``seed``; identical
calls yield identical schemas (fingerprints and all), which is what lets
a soak failure be replayed and shrunk.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import ALL, Category, Member
from repro.constraints.ast import Node, Or
from repro.constraints.builder import eq, into, one, path
from repro.core.hierarchy import HierarchySchema
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.errors import SchemaError


@dataclass(frozen=True)
class AdversarialCase:
    """One corpus entry: a schema plus the context a harness needs.

    ``root`` is the bottom category whose decisions are interesting
    (deep searches, wide branching, or the 3-SAT bottom).  ``instance``
    is populated for the census families (and any family small enough to
    materialize) so navigate/aggregate traffic has data to run on.
    """

    name: str
    family: str
    seed: int
    schema: DimensionSchema
    root: Category
    instance: Optional[DimensionInstance] = None
    notes: str = ""

    def describe(self) -> str:
        hierarchy = self.schema.hierarchy
        size = "" if self.instance is None else f", {len(self.instance)} members"
        return (
            f"{self.name}: {len(hierarchy.categories)} categories, "
            f"{len(hierarchy.edges)} edges, "
            f"{len(self.schema.constraints)} constraints{size}"
        )


# ----------------------------------------------------------------------
# deep-chain
# ----------------------------------------------------------------------


def deep_chain_schema(
    depth: int = 12, skip_every: int = 3, seed: int = 0
) -> DimensionSchema:
    """A chain ``d0 -> d1 -> ... -> All`` with periodic skip choices.

    Every ``skip_every`` levels, ``d_i`` gains a shortcut to ``d_{i+2}``
    and an ``one(d_i -> d_{i+1}, d_i -> d_{i+2})`` constraint, so frozen
    dimensions multiply along the chain (2^(depth/skip_every) shapes) and
    the circle operator reduces constraints across long paths.
    """
    if depth < 2:
        raise SchemaError("deep-chain needs depth >= 2")
    rng = random.Random(seed)
    cats = [f"d{i}" for i in range(depth)]
    edges: List[Tuple[Category, Category]] = [
        (cats[i], cats[i + 1]) for i in range(depth - 1)
    ]
    edges.append((cats[-1], ALL))
    constraints: List[Node] = []
    for i in range(depth - 1):
        if skip_every and i % skip_every == 0 and i + 2 < depth:
            edges.append((cats[i], cats[i + 2]))
            constraints.append(one(path(cats[i], cats[i + 1]), path(cats[i], cats[i + 2])))
        else:
            constraints.append(into(cats[i], cats[i + 1]))
    # One equality-conditioned exception near the bottom, anchored at a
    # random upper category: exercises the c-assignment search far from
    # the root.
    upper = cats[rng.randrange(depth // 2, depth)]
    constraints.append(eq(cats[0], upper, "census").implies(path(cats[0], cats[1])))
    return DimensionSchema(HierarchySchema(cats + [ALL], edges), constraints)


# ----------------------------------------------------------------------
# wide-fanout
# ----------------------------------------------------------------------


def wide_fanout_schema(width: int = 10, seed: int = 0) -> DimensionSchema:
    """One bottom with ``width`` alternative parents under ``one(...)``.

    ``b -> p_i -> hub -> All`` for each of the ``width`` parents; the
    ``one`` constraint over all of them makes the EXPAND branch factor
    exactly ``width``, and a seeded subset of parents carries an equality
    pin so some branches also run the c-assignment search.
    """
    if width < 2:
        raise SchemaError("wide-fanout needs width >= 2")
    rng = random.Random(seed)
    parents = [f"p{i}" for i in range(width)]
    cats = ["b", *parents, "hub"]
    edges: List[Tuple[Category, Category]] = [("b", p) for p in parents]
    edges.extend((p, "hub") for p in parents)
    edges.append(("hub", ALL))
    constraints: List[Node] = [one(*(path("b", p) for p in parents))]
    constraints.extend(into(p, "hub") for p in parents)
    for p in parents:
        if rng.random() < 0.4:
            constraints.append(eq(p, "hub", f"zone-{rng.randrange(3)}"))
    return DimensionSchema(HierarchySchema(cats + [ALL], edges), constraints)


# ----------------------------------------------------------------------
# many-bottoms
# ----------------------------------------------------------------------


def many_bottoms_schema(n_bottoms: int = 6, seed: int = 0) -> DimensionSchema:
    """Heterogeneous multi-bottom hierarchy sharing mid and top layers.

    Even bottoms choose between the two mids (``one``), odd bottoms are
    pinned into ``m0``; a seeded subset carries the Washington-style
    equality exception.  Theorem 1 queries over ``top`` run one
    implication per bottom, so the conjunct count scales with
    ``n_bottoms``.
    """
    if n_bottoms < 1:
        raise SchemaError("many-bottoms needs at least one bottom")
    rng = random.Random(seed)
    bottoms = [f"b{i}" for i in range(n_bottoms)]
    cats = [*bottoms, "m0", "m1", "top"]
    edges: List[Tuple[Category, Category]] = []
    constraints: List[Node] = []
    for i, b in enumerate(bottoms):
        edges.append((b, "m0"))
        edges.append((b, "m1"))
        if i % 2 == 0:
            constraints.append(one(path(b, "m0"), path(b, "m1")))
        else:
            constraints.append(into(b, "m0"))
        if rng.random() < 0.5:
            constraints.append(eq(b, "top", f"k{i}").implies(path(b, "m1")))
    edges.extend([("m0", "top"), ("m1", "top"), ("top", ALL)])
    constraints.extend([into("m0", "top"), into("m1", "top")])
    return DimensionSchema(HierarchySchema(cats + [ALL], edges), constraints)


# ----------------------------------------------------------------------
# shortcut-lattice
# ----------------------------------------------------------------------


def shortcut_lattice_schema(
    levels: int = 4, width: int = 3, seed: int = 0
) -> DimensionSchema:
    """A dense layered lattice with skip-level shortcut edges.

    Every category at level ``i`` gets an edge to *every* category at
    level ``i+1`` plus one seeded shortcut to level ``i+2``; choice
    constraints bind a seeded subset of the dense nodes.  The result is
    maximally diamond-dense (every pair of adjacent levels is a complete
    bipartite graph), which is the worst case for (C5)/(C6) reasoning,
    `simple_paths` enumeration, and the navigator's rewrite search.
    """
    if levels < 2 or width < 1:
        raise SchemaError("shortcut-lattice needs levels >= 2 and width >= 1")
    rng = random.Random(seed)
    layer: List[List[Category]] = [
        [f"l{i}_{k}" for k in range(width)] for i in range(levels)
    ]
    cats = [c for level in layer for c in level]
    edges: List[Tuple[Category, Category]] = []
    constraints: List[Node] = []
    for i in range(levels - 1):
        for child in layer[i]:
            for parent in layer[i + 1]:
                edges.append((child, parent))
            if i + 2 < levels:
                edges.append((child, rng.choice(layer[i + 2])))
    for top_cat in layer[-1]:
        edges.append((top_cat, ALL))
    for i in range(levels - 1):
        for child in layer[i]:
            targets = [p for (c, p) in edges if c == child]
            if rng.random() < 0.6:
                constraints.append(one(*(path(child, t) for t in targets)))
            else:
                constraints.append(Or(tuple(path(child, t) for t in targets)))
    return DimensionSchema(HierarchySchema(cats + [ALL], edges), constraints)


# ----------------------------------------------------------------------
# np-boundary (Theorem 4)
# ----------------------------------------------------------------------

#: The empirical random-3-SAT phase transition: clause/variable ratios
#: near this value produce the hardest instances.
CRITICAL_RATIO = 4.3


def np_boundary_schema(
    n_vars: int = 4,
    n_clauses: Optional[int] = None,
    seed: int = 0,
    planted: bool = True,
    unsat: bool = False,
) -> DimensionSchema:
    """Random 3-SAT as a dimension schema, per the Theorem 4 reduction.

    One bottom ``v`` with parents ``xi_T``/``xi_F`` per variable; the
    constraint set holds ``one(v -> xi_T, v -> xi_F)`` per variable and
    one disjunction per clause, so a frozen dimension rooted at ``v``
    exists iff the formula is satisfiable.  ``n_clauses`` defaults to the
    critical ratio.  With ``planted`` every clause is patched to agree
    with a hidden assignment (satisfiable by construction); ``unsat``
    appends the contradictory unit clauses ``x0`` and ``not x0``, which
    together with the ``one`` constraint kill every frozen dimension.
    """
    if n_vars < 1:
        raise SchemaError("np-boundary needs at least one variable")
    if n_clauses is None:
        n_clauses = max(1, round(CRITICAL_RATIO * n_vars))
    rng = random.Random(seed)
    lit_cat = {
        (i, True): f"x{i}_T" for i in range(n_vars)
    } | {(i, False): f"x{i}_F" for i in range(n_vars)}
    cats = ["v", *sorted(lit_cat.values())]
    edges: List[Tuple[Category, Category]] = [("v", c) for c in sorted(lit_cat.values())]
    edges.extend((c, ALL) for c in sorted(lit_cat.values()))
    constraints: List[Node] = [
        one(path("v", lit_cat[(i, True)]), path("v", lit_cat[(i, False)]))
        for i in range(n_vars)
    ]
    assignment = {i: rng.random() < 0.5 for i in range(n_vars)}
    for _ in range(n_clauses):
        k = min(3, n_vars)
        variables = rng.sample(range(n_vars), k)
        literals = [(var, rng.random() < 0.5) for var in variables]
        if planted and not any(assignment[var] == sign for var, sign in literals):
            # Patch one literal to agree with the hidden assignment.
            var, _ = literals[rng.randrange(k)]
            literals[literals.index((var, not assignment[var]))] = (
                var,
                assignment[var],
            )
        constraints.append(
            Or(tuple(path("v", lit_cat[(var, sign)]) for var, sign in literals))
        )
    if unsat:
        constraints.append(path("v", lit_cat[(0, True)]))
        constraints.append(path("v", lit_cat[(0, False)]))
    return DimensionSchema(HierarchySchema(cats + [ALL], edges), constraints)


# ----------------------------------------------------------------------
# census-scale domains
# ----------------------------------------------------------------------


def census_time_schema() -> DimensionSchema:
    """The ISO-calendar schema (the suite's ``time`` shape) at census
    scale: the schema is identical - the scale lives in the instance."""
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


def census_time_instance(
    years: int = 1, start_year: int = 2022, seed: int = 0
) -> DimensionInstance:
    """A real civil/ISO calendar instance: every day of ``years`` years.

    Boundary weeks (ISO weeks whose days straddle a civil-year boundary)
    roll up directly to ``All`` and carry the name ``boundary``, exactly
    as the schema's iff-constraint demands.  One year is ~420 members;
    ``years=50`` is census scale and still generates in well under a
    second.
    """
    if years < 1:
        raise SchemaError("census-time needs at least one year")
    members: Dict[Member, Category] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []
    seen_weeks: Dict[str, Tuple[int, int]] = {}
    day = datetime.date(start_year, 1, 1)
    end = datetime.date(start_year + years, 1, 1)
    while day < end:
        day_id = day.isoformat()
        iso_year, iso_week, _ = day.isocalendar()
        week_id = f"{iso_year}-W{iso_week:02d}"
        month_id = f"{day.year}-{day.month:02d}"
        quarter_id = f"{day.year}-Q{(day.month - 1) // 3 + 1}"
        year_id = str(day.year)
        members[day_id] = "Day"
        edges.append((day_id, week_id))
        edges.append((day_id, month_id))
        if week_id not in seen_weeks:
            seen_weeks[week_id] = (iso_year, iso_week)
            members[week_id] = "Week"
            # An ISO week is a civil-year boundary week iff its Monday
            # and Sunday fall in different civil years - a property of
            # the calendar, not of the generated range.
            monday = datetime.date.fromisocalendar(iso_year, iso_week, 1)
            sunday = datetime.date.fromisocalendar(iso_year, iso_week, 7)
            if monday.year != sunday.year:
                names[week_id] = "boundary"  # rolls up to All (auto-link)
            else:
                edges.append((week_id, str(monday.year)))
                members.setdefault(str(monday.year), "Year")
        if month_id not in members:
            members[month_id] = "Month"
            edges.append((month_id, quarter_id))
        if quarter_id not in members:
            members[quarter_id] = "Quarter"
            edges.append((quarter_id, year_id))
        members.setdefault(year_id, "Year")
        day += datetime.timedelta(days=1)
    g = census_time_schema().hierarchy
    return DimensionInstance(g, members, sorted(set(edges)), names=names)


def census_product_schema() -> DimensionSchema:
    """The branded-vs-generic product schema (the suite's shape)."""
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


def census_product_instance(
    n_skus: int = 200,
    n_brands: int = 20,
    n_companies: int = 6,
    n_classes: int = 12,
    seed: int = 0,
) -> DimensionInstance:
    """A product catalog at configurable scale.

    About 60% of SKUs are branded (roll up Brand -> Company, some brands
    regulated OTC/Rx), the rest generic (roll up GenericClass ->
    Department, one department being the ``Pharmacy`` the schema's
    conditional constraint is about).  ``n_skus=100_000`` is census scale.
    """
    if min(n_skus, n_brands, n_companies, n_classes) < 1:
        raise SchemaError("census-product needs positive sizes")
    rng = random.Random(seed)
    departments = ["Pharmacy", "Grocery", "Electronics", "Apparel"]
    members: Dict[Member, Category] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []
    for d in departments:
        members[f"dept-{d.lower()}"] = "Department"
        names[f"dept-{d.lower()}"] = d
    for i in range(n_companies):
        members[f"co-{i}"] = "Company"
    for i in range(n_brands):
        members[f"brand-{i}"] = "Brand"
        edges.append((f"brand-{i}", f"co-{rng.randrange(n_companies)}"))
        if rng.random() < 0.3:
            reg = rng.choice(("OTC", "Rx"))
            reg_id = f"reg-{reg.lower()}"
            if reg_id not in members:
                members[reg_id] = "RegClass"
                names[reg_id] = reg
            edges.append((f"brand-{i}", reg_id))
    for i in range(n_classes):
        members[f"class-{i}"] = "GenericClass"
        edges.append((f"class-{i}", f"dept-{rng.choice(departments).lower()}"))
    for i in range(n_skus):
        sku = f"sku-{i}"
        members[sku] = "SKU"
        if rng.random() < 0.6:
            edges.append((sku, f"brand-{rng.randrange(n_brands)}"))
        else:
            edges.append((sku, f"class-{rng.randrange(n_classes)}"))
    g = census_product_schema().hierarchy
    return DimensionInstance(g, members, edges, names=names)


def census_org_schema() -> DimensionSchema:
    """The staff-vs-consultant org schema (the suite's shape)."""
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


def census_org_instance(
    n_employees: int = 150,
    n_teams: int = 12,
    n_departments: int = 5,
    n_divisions: int = 2,
    consultant_fraction: float = 0.1,
    seed: int = 0,
) -> DimensionInstance:
    """An org chart at configurable scale.

    ``consultant_fraction`` of employees skip Team and report straight to
    a Department, carrying the name ``consultant`` the schema's iff-
    constraint keys on.  ``n_employees=1_000_000`` is census scale.
    """
    if min(n_employees, n_teams, n_departments, n_divisions) < 1:
        raise SchemaError("census-org needs positive sizes")
    if not 0.0 <= consultant_fraction <= 1.0:
        raise SchemaError("consultant_fraction must be in [0, 1]")
    rng = random.Random(seed)
    members: Dict[Member, Category] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []
    for i in range(n_divisions):
        members[f"div-{i}"] = "Division"
    for i in range(n_departments):
        members[f"dept-{i}"] = "Department"
        edges.append((f"dept-{i}", f"div-{rng.randrange(n_divisions)}"))
    for i in range(n_teams):
        members[f"team-{i}"] = "Team"
        edges.append((f"team-{i}", f"dept-{rng.randrange(n_departments)}"))
    for i in range(n_employees):
        emp = f"emp-{i}"
        members[emp] = "Employee"
        if rng.random() < consultant_fraction:
            names[emp] = "consultant"
            edges.append((emp, f"dept-{rng.randrange(n_departments)}"))
        else:
            edges.append((emp, f"team-{rng.randrange(n_teams)}"))
    g = census_org_schema().hierarchy
    return DimensionInstance(g, members, edges, names=names)


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------


def _case_deep_chain(seed: int) -> AdversarialCase:
    schema = deep_chain_schema(depth=10, seed=seed)
    return AdversarialCase(
        name=f"deep-chain-{seed}",
        family="deep-chain",
        seed=seed,
        schema=schema,
        root="d0",
        notes="long-path circle-operator reductions",
    )


def _case_wide_fanout(seed: int) -> AdversarialCase:
    schema = wide_fanout_schema(width=8, seed=seed)
    return AdversarialCase(
        name=f"wide-fanout-{seed}",
        family="wide-fanout",
        seed=seed,
        schema=schema,
        root="b",
        notes="EXPAND branch factor = fan-out",
    )


def _case_many_bottoms(seed: int) -> AdversarialCase:
    schema = many_bottoms_schema(n_bottoms=6, seed=seed)
    return AdversarialCase(
        name=f"many-bottoms-{seed}",
        family="many-bottoms",
        seed=seed,
        schema=schema,
        root="b0",
        notes="one Theorem 1 conjunct per bottom",
    )


def _case_shortcut_lattice(seed: int) -> AdversarialCase:
    # width 2 keeps the worst exhaustive-implication op in the tens of
    # milliseconds; width 3 at four levels already blows past minutes,
    # which is the wrong place for a harness's own ground truth to live.
    schema = shortcut_lattice_schema(levels=4, width=2, seed=seed)
    return AdversarialCase(
        name=f"shortcut-lattice-{seed}",
        family="shortcut-lattice",
        seed=seed,
        schema=schema,
        root="l0_0",
        notes="diamond-dense (C5)/(C6) pressure",
    )


def _case_np_boundary(seed: int) -> AdversarialCase:
    schema = np_boundary_schema(n_vars=4, seed=seed, planted=True)
    return AdversarialCase(
        name=f"np-boundary-{seed}",
        family="np-boundary",
        seed=seed,
        schema=schema,
        root="v",
        notes="random 3-SAT at the Theorem 4 phase transition",
    )


def _case_census_time(seed: int) -> AdversarialCase:
    return AdversarialCase(
        name=f"census-time-{seed}",
        family="census-time",
        seed=seed,
        schema=census_time_schema(),
        root="Day",
        instance=census_time_instance(years=1, start_year=2022 + (seed % 5), seed=seed),
        notes="real ISO calendar with boundary weeks",
    )


def _case_census_product(seed: int) -> AdversarialCase:
    return AdversarialCase(
        name=f"census-product-{seed}",
        family="census-product",
        seed=seed,
        schema=census_product_schema(),
        root="SKU",
        instance=census_product_instance(n_skus=120, seed=seed),
        notes="branded vs generic catalog",
    )


def _case_census_org(seed: int) -> AdversarialCase:
    return AdversarialCase(
        name=f"census-org-{seed}",
        family="census-org",
        seed=seed,
        schema=census_org_schema(),
        root="Employee",
        instance=census_org_instance(n_employees=120, seed=seed),
        notes="staff vs consultant org chart",
    )


#: Family name -> seeded case builder.  The soak harness and the sweep
#: tests iterate this registry, so adding a family here is enough to put
#: it under every gate.
FAMILIES: Dict[str, Callable[[int], AdversarialCase]] = {
    "deep-chain": _case_deep_chain,
    "wide-fanout": _case_wide_fanout,
    "many-bottoms": _case_many_bottoms,
    "shortcut-lattice": _case_shortcut_lattice,
    "np-boundary": _case_np_boundary,
    "census-time": _case_census_time,
    "census-product": _case_census_product,
    "census-org": _case_census_org,
}


def adversarial_corpus(
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
    per_family: int = 1,
) -> List[AdversarialCase]:
    """Build one corpus: ``per_family`` seeded cases from each family.

    ``families`` selects a subset by name (default: all).  Case seeds are
    derived from ``seed`` deterministically, so the whole corpus is a
    pure function of its arguments.
    """
    chosen = list(FAMILIES) if families is None else list(families)
    unknown = [f for f in chosen if f not in FAMILIES]
    if unknown:
        raise SchemaError(
            f"unknown adversarial families {unknown}; expected a subset of "
            f"{sorted(FAMILIES)}"
        )
    cases: List[AdversarialCase] = []
    for family in chosen:
        for index in range(per_family):
            cases.append(FAMILIES[family](seed + index))
    return cases
