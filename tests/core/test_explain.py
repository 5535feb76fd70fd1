"""Explanation API tests: diagnoses name the right members and failure
modes, and renderings are readable."""

from __future__ import annotations

from repro.core.explain import (
    explain_summarizability_in_instance,
    explain_summarizability_in_schema,
)


class TestInstanceLevel:
    def test_positive_has_no_diagnoses(self, loc_instance):
        explanation = explain_summarizability_in_instance(
            loc_instance, "Country", ["City"]
        )
        assert explanation.summarizable
        assert explanation.diagnoses == ()
        assert "summarizable" in explanation.render()

    def test_lost_facts_diagnosed(self, loc_instance):
        explanation = explain_summarizability_in_instance(
            loc_instance, "Country", ["State", "Province"]
        )
        assert not explanation.summarizable
        assert [d.member for d in explanation.diagnoses] == ["s5"]
        assert explanation.diagnoses[0].kind == "lost"
        assert "LOST" in explanation.render()

    def test_double_counting_diagnosed(self, loc_instance):
        explanation = explain_summarizability_in_instance(
            loc_instance, "Country", ["City", "SaleRegion"]
        )
        assert not explanation.summarizable
        # Every store passes through both a city and a sale region.
        assert all(d.kind == "double-counted" for d in explanation.diagnoses)
        assert "DOUBLE COUNTED" in explanation.render()

    def test_max_diagnoses_caps_output(self, loc_instance):
        explanation = explain_summarizability_in_instance(
            loc_instance, "Country", ["City", "SaleRegion"], max_diagnoses=2
        )
        assert len(explanation.diagnoses) == 2

    def test_vacuous_members_not_diagnosed(self, loc_instance):
        # Nothing reaches Province except Canadian chains; the others are
        # vacuous for a Province target, and the Canadian ones pass
        # through exactly one City.
        explanation = explain_summarizability_in_instance(
            loc_instance, "Province", ["City"]
        )
        assert explanation.summarizable


class TestSchemaLevel:
    def test_positive(self, loc_schema):
        explanation = explain_summarizability_in_schema(
            loc_schema, "Country", ["City"]
        )
        assert explanation.summarizable
        assert explanation.counterexample is None

    def test_negative_carries_counterexample(self, loc_schema):
        explanation = explain_summarizability_in_schema(
            loc_schema, "Country", ["State", "Province"]
        )
        assert not explanation.summarizable
        assert explanation.counterexample is not None
        assert explanation.counterexample.name_of("City") == "Washington"
        rendered = explanation.render()
        assert "NOT summarizable" in rendered
        assert "counterexample shape" in rendered

    def test_counterexample_member_diagnosed(self, loc_schema):
        explanation = explain_summarizability_in_schema(
            loc_schema, "Country", ["State", "Province"]
        )
        assert explanation.diagnoses
        assert explanation.diagnoses[0].kind == "lost"

    def test_double_count_counterexample(self, loc_schema):
        explanation = explain_summarizability_in_schema(
            loc_schema, "Country", ["City", "SaleRegion"]
        )
        assert not explanation.summarizable
        assert explanation.diagnoses
        assert explanation.diagnoses[0].kind == "double-counted"
