"""DIMSAT tests: the circle operator, c-assignments, the EXPAND search,
options, stats, and the trace."""

from __future__ import annotations

import pytest

from repro.constraints import FALSE, TRUE, parse, satisfies_all
from repro.core import (
    ALL,
    DimsatOptions,
    NK,
    circle,
    circle_node,
    dimsat,
    enumerate_frozen_dimensions,
    induced_frozen_dimensions,
    reduced_constraints,
    satisfying_assignments,
    subhierarchy_from_edges,
)
from repro.core.budget import DecisionBudget
from repro.errors import BudgetExceeded, SchemaError
from repro.generators.location import paper_frozen_structures


class TestCircleOperator:
    def test_path_atom_true_when_edges_present(self):
        sub = paper_frozen_structures()["Canada"]
        assert circle_node(parse("Store -> City"), sub) == TRUE
        assert circle_node(parse("Store -> City -> Province"), sub) == TRUE

    def test_path_atom_false_when_edge_missing(self):
        sub = paper_frozen_structures()["Canada"]
        assert circle_node(parse("Store -> SaleRegion"), sub) == FALSE
        assert circle_node(parse("City -> State"), sub) == FALSE

    def test_composed_atoms_resolved_by_reachability(self):
        sub = paper_frozen_structures()["Canada"]
        assert circle_node(parse("Store.SaleRegion"), sub) == TRUE
        assert circle_node(parse("Store.State.Country"), sub) == FALSE
        assert circle_node(parse("Store.Province.Country"), sub) == TRUE

    def test_equality_atom_kept_when_reachable(self):
        sub = paper_frozen_structures()["Canada"]
        node = parse("Province.Country = 'Canada'")
        assert circle_node(node, sub) == node

    def test_equality_atom_false_when_unreachable(self):
        sub = paper_frozen_structures()["Canada"]
        assert circle_node(parse("State.Country = 'Mexico'"), sub) == FALSE

    def test_self_equality_kept_when_root_present(self):
        sub = paper_frozen_structures()["USA-Washington"]
        node = parse("City = 'Washington'")
        assert circle_node(node, sub) == node

    def test_connectives_survive_with_rewritten_atoms(self):
        sub = paper_frozen_structures()["Canada"]
        node = parse("City = 'Washington' iff City -> Country")
        reduced = circle_node(node, sub)
        assert str(reduced) == "City = 'Washington' iff false"

    def test_circle_over_whole_sigma(self, loc_schema):
        sub = paper_frozen_structures()["Canada"]
        reduced = circle(loc_schema.constraints, sub)
        assert len(reduced) == len(loc_schema.constraints)


class TestReducedConstraints:
    def test_vacuous_roots_dropped(self, loc_schema):
        sub = paper_frozen_structures()["Canada"]
        residual = reduced_constraints(loc_schema, "Store", sub)
        # (c) folds to "City is not Washington"; (d) keeps its equality
        # atoms (a City -> ... -> Country path exists); (g) survives whole.
        assert residual is not None
        rendered = sorted(str(n) for n in residual)
        assert rendered == [
            "City = 'Washington' implies City.Country = 'USA'",
            "Province.Country = 'Canada'",
            "not City = 'Washington'",
        ]

    def test_contradiction_returns_none(self, loc_schema):
        # Store -> City only, no SaleRegion anywhere: constraint (b) fails.
        sub = subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("City", "Country"),
                ("Country", ALL),
            ],
        )
        assert reduced_constraints(loc_schema, "Store", sub) is None

    def test_mixed_state_province_contradiction_found_by_assignment(
        self, loc_schema
    ):
        from repro.generators.location import figure5_subhierarchy

        sub = figure5_subhierarchy()
        residual = reduced_constraints(loc_schema, "Store", sub)
        assert residual is not None  # syntactically fine...
        # ...but no c-assignment satisfies it (Canada vs Mexico/USA clash).
        assert list(satisfying_assignments(loc_schema, residual)) == []


class TestSatisfyingAssignments:
    def test_unique_assignment_for_canada(self, loc_schema):
        sub = paper_frozen_structures()["Canada"]
        residual = reduced_constraints(loc_schema, "Store", sub)
        found = list(satisfying_assignments(loc_schema, residual))
        assert found == [{"City": NK, "Country": "Canada"}]

    def test_no_residual_means_single_empty_assignment(self, loc_schema):
        found = list(satisfying_assignments(loc_schema, []))
        assert found == [{}]

    def test_rejects_non_equality_residual(self, loc_schema):
        with pytest.raises(SchemaError):
            list(satisfying_assignments(loc_schema, [parse("Store -> City")]))


class TestInducedFrozenDimensions:
    def test_each_paper_structure_induces_exactly_one(self, loc_schema):
        for name, sub in paper_frozen_structures().items():
            found = list(induced_frozen_dimensions(loc_schema, "Store", sub))
            assert len(found) == 1, name

    def test_structure_check_rejects_shortcut(self, loc_schema):
        sub = subhierarchy_from_edges(
            "Store",
            [
                ("Store", "City"),
                ("Store", "SaleRegion"),
                ("City", "State"),
                ("State", "SaleRegion"),
                ("SaleRegion", "Country"),
                ("Country", ALL),
            ],
        )
        assert sub.shortcut_edges()
        found = list(
            induced_frozen_dimensions(
                loc_schema, "Store", sub, require_structure=True
            )
        )
        assert found == []


class TestDimsat:
    def test_store_satisfiable(self, loc_schema):
        result = dimsat(loc_schema, "Store")
        assert result.satisfiable
        assert result.witness is not None
        assert result.witness.root == "Store"

    def test_every_location_category_satisfiable(self, loc_schema):
        for category in loc_schema.hierarchy.categories:
            assert dimsat(loc_schema, category).satisfiable, category

    def test_all_is_trivially_satisfiable(self, loc_schema):
        result = dimsat(loc_schema, ALL)
        assert result.satisfiable
        assert result.stats.expand_calls == 0

    def test_unknown_category_rejected(self, loc_schema):
        with pytest.raises(SchemaError):
            dimsat(loc_schema, "Galaxy")

    def test_example_11_unsatisfiable_saleregion(self, loc_schema):
        extended = loc_schema.with_constraints(["not SaleRegion -> Country"])
        assert not dimsat(extended, "SaleRegion").satisfiable

    def test_witness_materializes_to_valid_instance(self, loc_schema):
        result = dimsat(loc_schema, "Store")
        instance = result.witness.to_instance(loc_schema)
        assert instance.is_valid()
        assert satisfies_all(instance, loc_schema.constraints)

    def test_stats_populated(self, loc_schema):
        result = dimsat(loc_schema, "Store")
        assert result.stats.expand_calls > 0
        assert result.stats.check_calls > 0

    def test_budget_exhaustion_raises(self, loc_schema):
        extended = loc_schema.with_constraints(["not Store -> City"])
        with pytest.raises(BudgetExceeded):
            dimsat(extended, "Store", budget=DecisionBudget(max_nodes=1))


class TestEnumeration:
    def test_figure4_set(self, loc_schema):
        found = enumerate_frozen_dimensions(loc_schema, "Store")
        assert len(found) == 4
        subs = {f.subhierarchy for f in found}
        assert subs == set(paper_frozen_structures().values())

    def test_enumeration_of_all(self, loc_schema):
        found = enumerate_frozen_dimensions(loc_schema, ALL)
        assert len(found) == 1

    def test_unsat_category_enumerates_empty(self, loc_schema):
        extended = loc_schema.with_constraints(["not Store -> City"])
        assert enumerate_frozen_dimensions(extended, "Store") == []


class TestOptions:
    @pytest.mark.parametrize(
        "options",
        [
            DimsatOptions(into_pruning=False),
            DimsatOptions(shortcut_pruning=False, cycle_pruning=False),
            DimsatOptions(
                into_pruning=False, shortcut_pruning=False, cycle_pruning=False
            ),
        ],
    )
    def test_ablations_preserve_answers(self, loc_schema, options):
        baseline = {
            category: dimsat(loc_schema, category).satisfiable
            for category in loc_schema.hierarchy.categories
        }
        for category, expected in baseline.items():
            assert dimsat(loc_schema, category, options).satisfiable == expected

    def test_ablations_preserve_enumeration(self, loc_schema):
        expected = {
            f.subhierarchy for f in enumerate_frozen_dimensions(loc_schema, "Store")
        }
        options = DimsatOptions(
            into_pruning=False, shortcut_pruning=False, cycle_pruning=False
        )
        found = {
            f.subhierarchy
            for f in enumerate_frozen_dimensions(loc_schema, "Store", options)
        }
        assert found == expected

    def test_into_pruning_reduces_work(self, loc_schema):
        fast = dimsat(loc_schema, "Store").stats.expand_calls
        slow = dimsat(
            loc_schema, "Store", DimsatOptions(into_pruning=False)
        ).stats.expand_calls
        assert fast <= slow


class TestTrace:
    def test_trace_disabled_by_default(self, loc_schema):
        assert dimsat(loc_schema, "Store").trace == []

    def test_trace_records_expansions_and_checks(self, loc_schema):
        options = DimsatOptions(keep_trace=True)
        result = dimsat(loc_schema, "Store", options)
        kinds = [entry.kind for entry in result.trace]
        assert "expand" in kinds
        assert kinds[-1] == "check"
        assert result.trace[-1].succeeded is True

    def test_trace_edges_grow_monotonically_along_expansions(self, loc_schema):
        options = DimsatOptions(keep_trace=True)
        result = dimsat(loc_schema, "Store", options)
        previous: set = set()
        for entry in result.trace:
            if entry.kind != "expand":
                continue
            edges = set(entry.edges)
            if previous <= edges:
                previous = edges
            else:
                previous = edges  # a backtrack: edge set may shrink
        assert result.trace[0].edges == ()
