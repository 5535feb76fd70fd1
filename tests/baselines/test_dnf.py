"""DNF-flattening tests (the Lehner et al. baseline) and the E14 loss
measurement."""

from __future__ import annotations

from repro.baselines import dnf_loss_report, flatten_to_dnf, total_edges
from repro.core import ALL


class TestTotalEdges:
    def test_total_edges_of_location(self, loc_instance):
        totals = total_edges(loc_instance)
        assert ("Store", "City") in totals
        assert ("Province", "SaleRegion") in totals
        assert ("SaleRegion", "Country") in totals
        assert ("Country", ALL) in totals
        # Heterogeneous edges are dropped.
        assert ("Store", "SaleRegion") not in totals
        assert ("City", "State") not in totals
        assert ("City", "Country") not in totals

    def test_homogeneous_chain_keeps_everything(self, chain_instance):
        assert total_edges(chain_instance) == chain_instance.hierarchy.edges


class TestFlatten:
    def test_location_flattens_to_store_city(self, loc_instance):
        result = flatten_to_dnf(loc_instance)
        assert result.retained_categories == frozenset({"Store", "City", ALL})
        assert sorted(result.moved_out) == [
            "Country",
            "Province",
            "SaleRegion",
            "State",
        ]

    def test_flat_instance_is_valid_and_homogeneous(self, loc_instance):
        flat = flatten_to_dnf(loc_instance).instance
        assert flat.is_valid()
        for category in flat.hierarchy.categories:
            signatures = {
                frozenset(
                    flat.category_of(a) for a in flat.ancestors_of(m)
                )
                for m in flat.members(category)
            }
            assert len(signatures) <= 1, category

    def test_flat_instance_keeps_retained_members(self, loc_instance):
        flat = flatten_to_dnf(loc_instance).instance
        assert flat.members("Store") == loc_instance.members("Store")
        assert flat.members("City") == loc_instance.members("City")

    def test_homogeneous_chain_unchanged(self, chain_instance):
        result = flatten_to_dnf(chain_instance)
        assert result.moved_out == frozenset()
        assert len(result.instance) == len(chain_instance)


class TestLossReport:
    def test_location_loses_country_pairs(self, loc_instance):
        report = dnf_loss_report(loc_instance)
        lost = set(report.lost_pairs)
        assert ("City", "Country") in lost
        assert ("SaleRegion", "Country") in lost
        assert report.loss_fraction > 0.5

    def test_surviving_pairs_within_retained(self, loc_instance):
        report = dnf_loss_report(loc_instance)
        assert ("Store", "City") in report.surviving_pairs

    def test_homogeneous_chain_loses_nothing(self, chain_instance):
        report = dnf_loss_report(chain_instance)
        assert report.lost_pairs == ()
        assert report.loss_fraction == 0.0
