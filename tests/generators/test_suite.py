"""Suite schema tests: every realistic schema is internally consistent
and exhibits the heterogeneity it documents."""

from __future__ import annotations

import pytest

from repro.constraints import satisfies_all
from repro.core import is_implied, is_summarizable_in_schema, unsatisfiable_categories
from repro.generators.suite import (
    geography_schema,
    personnel_instance,
    personnel_schema,
    product_schema,
    suite_schemas,
    time_instance,
    time_schema,
)


class TestSuiteWideInvariants:
    def test_five_schemas(self):
        assert sorted(suite_schemas()) == [
            "geography",
            "personnel",
            "product",
            "retail",
            "time",
        ]

    @pytest.mark.parametrize("name", sorted(suite_schemas()))
    def test_every_category_satisfiable(self, name):
        schema = suite_schemas()[name]
        assert unsatisfiable_categories(schema) == []

    @pytest.mark.parametrize("name", sorted(suite_schemas()))
    def test_sigma_self_implied(self, name):
        schema = suite_schemas()[name]
        for node in schema.constraints:
            assert is_implied(schema, node), f"{name}: {node}"


class TestTime:
    def test_instance_valid_and_conformant(self):
        instance = time_instance()
        assert instance.is_valid()
        assert satisfies_all(instance, time_schema().constraints)

    def test_boundary_week_has_no_year(self):
        instance = time_instance()
        assert instance.ancestor_in("2021-W52", "Year") is None
        assert instance.ancestor_in("2021-W51", "Year") == "2021"

    def test_year_summarizable_from_month_not_week(self):
        schema = time_schema()
        assert is_summarizable_in_schema(schema, "Year", ["Month"])
        assert is_summarizable_in_schema(schema, "Year", ["Quarter"])
        assert not is_summarizable_in_schema(schema, "Year", ["Week"])


class TestPersonnel:
    def test_instance_valid_and_conformant(self):
        instance = personnel_instance()
        assert instance.is_valid()
        assert satisfies_all(instance, personnel_schema().constraints)

    def test_consultant_skips_team(self):
        instance = personnel_instance()
        assert instance.ancestor_in("consultant", "Team") is None
        assert instance.ancestor_in("consultant", "Department") == "dept-sales"

    def test_division_not_summarizable_from_team(self):
        schema = personnel_schema()
        assert is_summarizable_in_schema(schema, "Division", ["Department"])
        assert not is_summarizable_in_schema(schema, "Division", ["Team"])


class TestProduct:
    def test_branded_xor_generic(self):
        schema = product_schema()
        assert is_implied(
            schema, "one(SKU -> Brand, SKU -> GenericClass)"
        )
        assert not is_implied(schema, "SKU -> Brand")

    def test_frozen_dimensions_split_by_branch(self):
        from repro.core import enumerate_frozen_dimensions

        schema = product_schema()
        frozen = enumerate_frozen_dimensions(schema, "SKU")
        assert len(frozen) >= 2
        branded = [f for f in frozen if "Brand" in f.categories]
        generic = [f for f in frozen if "GenericClass" in f.categories]
        assert branded and generic
        assert not any("Brand" in f.categories and "GenericClass" in f.categories
                       for f in frozen)


class TestGeography:
    def test_exactly_one_route_out_of_city(self):
        schema = geography_schema()
        assert is_implied(schema, "City.State")
        assert not is_implied(schema, "City -> County")

    def test_state_summarizable_from_city(self):
        schema = geography_schema()
        assert is_summarizable_in_schema(schema, "State", ["City"])
        assert not is_summarizable_in_schema(schema, "State", ["County"])


class TestProductInstance:
    def test_valid_and_conformant(self):
        from repro.generators.suite import product_instance

        instance = product_instance()
        assert instance.is_valid()
        assert satisfies_all(instance, product_schema().constraints)

    def test_branded_and_generic_mix(self):
        from repro.generators.suite import product_instance

        instance = product_instance()
        assert instance.ancestor_in("sku-tv", "Brand") == "brand-vix"
        assert instance.ancestor_in("sku-storecola", "Brand") is None


class TestGeographyInstance:
    def test_valid_and_conformant(self):
        from repro.generators.suite import geography_instance

        instance = geography_instance()
        assert instance.is_valid()
        assert satisfies_all(instance, geography_schema().constraints)

    def test_independent_city_skips_county(self):
        from repro.generators.suite import geography_instance

        instance = geography_instance()
        assert instance.ancestor_in("richmond", "County") is None
        assert instance.ancestor_in("richmond", "State") == "virginia"

    def test_state_summarizable_from_city_in_instance(self):
        from repro.core import is_summarizable_in_instance
        from repro.generators.suite import geography_instance

        instance = geography_instance()
        assert is_summarizable_in_instance(instance, "State", ["City"])
        assert not is_summarizable_in_instance(instance, "State", ["County"])
