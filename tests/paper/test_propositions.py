"""The paper's theorems and propositions as executable checks.

* Theorem 2: implication reduces to category satisfiability.
* Theorem 3: satisfiability iff a frozen dimension exists.
* Proposition 2: a subhierarchy induces a frozen dimension iff it is
  acyclic, shortcut free, and admits a satisfying c-assignment.
* Theorem 4 (NP-hardness direction): the SAT reduction is exact.
"""

from __future__ import annotations

import pytest

from repro.constraints import Not, parse, satisfies_all
from repro.core import (
    dimsat,
    enumerate_frozen_dimensions,
    implies,
    induced_frozen_dimensions,
    is_category_satisfiable,
)
from repro.baselines import brute_force_frozen_dimensions, candidate_subhierarchies
from repro.generators.location import location_schema
from repro.generators.sat_encoding import ROOT, encode, random_3cnf


class TestTheorem2:
    @pytest.mark.parametrize(
        "text",
        [
            "Store -> City",
            "Store -> SaleRegion",
            "Store.Country implies Store.City.Country",
            "Store.Province.Country",
            "City = 'Washington' implies City.Country = 'USA'",
            "State -> SaleRegion",
        ],
    )
    def test_implication_iff_unsat_of_negation(self, loc_schema, text):
        node = parse(text)
        from repro.constraints import constraint_root

        root = constraint_root(node)
        extended = loc_schema.with_constraints([Not(node)])
        assert implies(loc_schema, node).implied == (
            not is_category_satisfiable(extended, root)
        )


class TestTheorem3:
    def test_satisfiable_iff_frozen_dimension_exists(self, loc_schema):
        for category in sorted(loc_schema.hierarchy.categories):
            frozen = enumerate_frozen_dimensions(loc_schema, category)
            assert bool(frozen) == is_category_satisfiable(loc_schema, category)

    def test_frozen_dimensions_are_instances_over_ds(self, loc_schema):
        """Every enumerated frozen dimension materializes to an element of
        I(locationSch)."""
        for frozen in enumerate_frozen_dimensions(loc_schema, "Store"):
            instance = frozen.to_instance(loc_schema)
            assert instance.is_valid()
            assert satisfies_all(instance, loc_schema.constraints)


class TestProposition2:
    def test_induction_matches_first_principles(self, loc_schema):
        """For every candidate subhierarchy, the circle-operator test of
        Proposition 2 agrees with brute-force materialization."""
        brute = {
            f.subhierarchy
            for f in brute_force_frozen_dimensions(loc_schema, "Store")
        }
        for sub in candidate_subhierarchies(loc_schema, "Store"):
            induced = bool(
                list(induced_frozen_dimensions(loc_schema, "Store", sub))
            )
            assert induced == (sub in brute), str(sub)


class TestTheorem4:
    @pytest.mark.parametrize("n_vars,n_clauses", [(3, 6), (4, 10), (5, 15)])
    def test_sat_reduction_is_exact(self, n_vars, n_clauses):
        for seed in range(5):
            cnf = random_3cnf(n_vars, n_clauses, seed=seed)
            assert (
                is_category_satisfiable(encode(cnf), ROOT)
                == cnf.brute_force_satisfiable()
            )


class TestComplexityShape:
    def test_unsat_needs_exhaustion(self):
        """A negative answer explores more than a positive one (the coNP
        side of implication): forcing unsatisfiability multiplies the
        expand count."""
        schema = location_schema()
        positive = dimsat(schema, "Store").stats.expand_calls
        negative = dimsat(
            schema.with_constraints(["not Store.SaleRegion"]), "Store"
        ).stats.expand_calls
        assert negative >= positive
