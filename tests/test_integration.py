"""End-to-end integration tests: whole workflows across packages.

Each test plays a realistic session - design, load, audit, query, evolve -
crossing the constraint language, the reasoning engine, the OLAP layer,
and the serialization code in one flow.
"""

from __future__ import annotations

from repro import (
    DimensionSchema,
    HierarchySchema,
    dimsat,
    enumerate_frozen_dimensions,
    implies,
    is_summarizable_in_schema,
)
from repro.constraints import satisfies_all
from repro.core.builder import InstanceBuilder
from repro.core.implication import prune_unsatisfiable, unsatisfiable_categories
from repro.generators.location import location_instance, location_schema
from repro.generators.workloads import instance_from_frozen, random_fact_table
from repro.io import (
    facts_from_csv,
    instance_from_json,
    instance_to_json,
    schema_from_json,
    schema_to_json,
)
from repro.olap import SUM, AggregateNavigator, OlapEngine, cube_view, views_equal


class TestDesignLoadQueryWorkflow:
    """A designer builds a schema, loads data, and serves queries."""

    def test_full_lifecycle(self, tmp_path):
        # 1. Design: a courier dimension - parcels route via air or ground.
        hierarchy = HierarchySchema(
            ["Parcel", "AirHub", "GroundHub", "Region"],
            [
                ("Parcel", "AirHub"),
                ("Parcel", "GroundHub"),
                ("AirHub", "Region"),
                ("GroundHub", "Region"),
                ("Region", "All"),
            ],
        )
        schema = DimensionSchema(
            hierarchy,
            [
                "one(Parcel -> AirHub, Parcel -> GroundHub)",
                "AirHub -> Region",
                "GroundHub -> Region",
            ],
        )

        # 2. Audit at design time: everything satisfiable, two shapes.
        assert unsatisfiable_categories(schema) == []
        shapes = enumerate_frozen_dimensions(schema, "Parcel")
        assert len(shapes) == 2

        # 3. Region is only derivable from both hub kinds together.
        assert is_summarizable_in_schema(schema, "Region", ["AirHub", "GroundHub"])
        assert not is_summarizable_in_schema(schema, "Region", ["AirHub"])

        # 4. Persist and reload the schema.
        path = tmp_path / "courier.json"
        path.write_text(schema_to_json(schema))
        schema = schema_from_json(path.read_text())

        # 5. Load data with the builder.
        builder = InstanceBuilder(schema.hierarchy)
        builder.members("Region", "north", "south")
        builder.member("hub-a", "AirHub").link("hub-a", "north")
        builder.member("hub-g", "GroundHub").link("hub-g", "south")
        for index in range(6):
            parcel = f"p{index}"
            builder.member(parcel, "Parcel")
            builder.link(parcel, "hub-a" if index % 2 else "hub-g")
        instance = builder.freeze()
        assert satisfies_all(instance, schema.constraints)

        # 6. Serve queries through the engine.
        rows = [(f"p{i}", {"weight": float(i + 1)}) for i in range(6)]
        engine = OlapEngine(schema, instance, rows)
        assert engine.check_integrity() == []
        engine.materialize("AirHub", "SUM", "weight")
        engine.materialize("GroundHub", "SUM", "weight")
        view, plan = engine.query("Region", "SUM", "weight")
        assert plan.kind == "rewritten"
        assert set(plan.sources) == {"AirHub", "GroundHub"}
        assert view.cells["north"] == 2.0 + 4.0 + 6.0
        assert view.cells["south"] == 1.0 + 3.0 + 5.0


class TestEvolutionWorkflow:
    """Schema evolution: a new constraint arrives; audits catch fallout."""

    def test_constraint_addition_and_repair(self):
        schema = location_schema()
        # Policy change: sale regions report to headquarters, not countries.
        proposed = schema.with_constraints(["not SaleRegion -> Country"])
        dead = unsatisfiable_categories(proposed)
        assert set(dead) == {"SaleRegion", "Store", "Province"}
        # The repair tooling produces a consistent (if much smaller) schema.
        pruned, dropped = prune_unsatisfiable(proposed)
        assert set(dropped) == set(dead)
        assert unsatisfiable_categories(pruned) == []
        # The original data no longer fits the pruned hierarchy at all:
        # its Store category is gone.
        assert not pruned.hierarchy.has_category("Store")

    def test_counterexample_guides_the_designer(self):
        schema = location_schema()
        claim = "Store.Country implies Store.SaleRegion.Country"
        result = implies(schema, claim)
        # Believable but false: a US store may reach Country while its sale
        # region path runs in parallel... check what the witness says.
        if not result.implied:
            witness = result.counterexample.to_instance(schema)
            assert witness.is_valid()
        # Either way the engine must be decisive.
        assert result.implied in (True, False)


class TestSerializationRoundTripWorkflow:
    def test_instance_csv_json_query_pipeline(self, tmp_path):
        schema = location_schema()
        instance = location_instance()

        # JSON round trip of the instance.
        blob = instance_to_json(instance)
        restored = instance_from_json(blob)
        assert satisfies_all(restored, schema.constraints)

        # CSV facts against the restored instance.
        facts = facts_from_csv(
            restored,
            "member,sales\ns1,10\ns3,4\ns5,2\n",
        )
        direct = cube_view(facts, "Country", SUM, "sales")
        assert direct.cells == {"Canada": 10.0, "Mexico": 4.0, "USA": 2.0}

        # Navigator over the restored data agrees with direct computation.
        navigator = AggregateNavigator(facts, schema=schema)
        navigator.materialize("City", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        assert views_equal(view, direct)


class TestScaleWorkflow:
    def test_generated_warehouse_round(self):
        schema = location_schema()
        instance = instance_from_frozen(schema, "Store", copies=10, fan_out=3)
        facts = random_fact_table(instance, 2_000, seed=5)
        navigator = AggregateNavigator(facts, schema=schema)
        navigator.materialize("City", SUM, "amount")
        navigator.materialize("SaleRegion", SUM, "amount")
        for target in ("Country", "SaleRegion", "State", "Province"):
            view, plan = navigator.answer(target, SUM, "amount")
            direct = cube_view(facts, target, SUM, "amount")
            assert views_equal(view, direct), (target, plan.kind)
        # At least the Country query must have avoided the base table.
        assert navigator.stats.rewrites >= 1

    def test_dimsat_on_every_suite_schema_category(self):
        from repro.generators.suite import suite_schemas

        for name, schema in suite_schemas().items():
            for category in schema.hierarchy.categories:
                result = dimsat(schema, category)
                assert result.satisfiable, (name, category)
                if category != "All":
                    instance = result.witness.to_instance(schema)
                    assert satisfies_all(instance, schema.constraints)
