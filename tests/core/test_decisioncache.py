"""Schema fingerprints and the decision cache: keying, hits, equivalence
with the uncached paths, invalidation, and eviction."""

from __future__ import annotations

import pytest

from repro.core import (
    DecisionCache,
    DimensionSchema,
    USE_DEFAULT_CACHE,
    default_decision_cache,
    implies,
    is_category_satisfiable,
    is_implied,
    is_summarizable_in_schema,
)
from repro.core.decisioncache import resolve_cache
from repro.generators.location import location_schema


@pytest.fixture()
def cache() -> DecisionCache:
    return DecisionCache()


class TestFingerprint:
    def test_rebuilt_schema_shares_fingerprint(self):
        assert location_schema().fingerprint() == location_schema().fingerprint()

    def test_constraint_order_does_not_matter(self, loc_hierarchy):
        a = DimensionSchema(loc_hierarchy, ["Store -> City", "City -> Country"])
        b = DimensionSchema(loc_hierarchy, ["City -> Country", "Store -> City"])
        assert a.fingerprint() == b.fingerprint()

    def test_extra_constraint_changes_fingerprint(self, loc_schema):
        extended = loc_schema.with_constraints(["Store -> SaleRegion"])
        assert extended.fingerprint() != loc_schema.fingerprint()

    def test_hierarchy_edit_changes_fingerprint(self, loc_hierarchy):
        a = DimensionSchema(loc_hierarchy)
        b = DimensionSchema(loc_hierarchy.without_edge("Store", "SaleRegion"))
        c = DimensionSchema(loc_hierarchy.with_category("Annex"))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


class TestResolution:
    def test_sentinel_resolves_to_process_cache(self):
        assert resolve_cache(USE_DEFAULT_CACHE) is default_decision_cache()

    def test_none_disables(self):
        assert resolve_cache(None) is None

    def test_explicit_cache_passes_through(self, cache):
        assert resolve_cache(cache) is cache


class TestMemoization:
    def test_satisfiability_hits_on_repeat(self, loc_schema, cache):
        first = is_category_satisfiable(loc_schema, "Store", cache=cache)
        assert cache.stats.misses >= 1 and cache.stats.hits == 0
        second = is_category_satisfiable(loc_schema, "Store", cache=cache)
        assert first is second is True
        assert cache.stats.hits == 1

    def test_implication_matches_uncached(self, loc_schema, cache):
        for text in ["Store -> City", "Store -> SaleRegion", "City.Country"]:
            assert is_implied(loc_schema, text, cache=cache) == is_implied(
                loc_schema, text, cache=None
            )

    def test_cached_result_object_is_reused(self, loc_schema, cache):
        first = implies(loc_schema, "Store -> City", cache=cache)
        second = implies(loc_schema, "Store -> City", cache=cache)
        assert first is second
        assert first.implied

    def test_summarizability_matches_uncached(self, loc_schema, cache):
        for target, sources in [
            ("Country", ("City",)),
            ("Country", ("State", "Province")),
            ("Country", ("SaleRegion",)),
        ]:
            cached = is_summarizable_in_schema(
                loc_schema, target, sources, cache=cache
            )
            assert cached == is_summarizable_in_schema(
                loc_schema, target, sources, cache=None
            )

    def test_source_order_shares_the_entry(self, loc_schema, cache):
        is_summarizable_in_schema(
            loc_schema, "Country", ("State", "Province"), cache=cache
        )
        hits = cache.stats.hits
        is_summarizable_in_schema(
            loc_schema, "Country", ("Province", "State"), cache=cache
        )
        assert cache.stats.hits > hits

    def test_verdicts_survive_schema_reconstruction(self, cache):
        assert is_implied(location_schema(), "Store -> City", cache=cache)
        misses = cache.stats.misses
        assert is_implied(location_schema(), "Store -> City", cache=cache)
        assert cache.stats.misses == misses  # rebuilt schema, same entry


class TestInvalidation:
    def test_invalidate_drops_only_that_schema(self, loc_schema, cache):
        other = loc_schema.with_constraints(["Store -> SaleRegion"])
        is_implied(loc_schema, "Store -> City", cache=cache)
        is_implied(other, "Store -> City", cache=cache)
        entries = len(cache)
        dropped = cache.invalidate(loc_schema)
        assert dropped >= 1
        assert len(cache) == entries - dropped
        assert cache.stats.invalidations == dropped
        # the other schema's verdict is still a hit
        hits = cache.stats.hits
        is_implied(other, "Store -> City", cache=cache)
        assert cache.stats.hits == hits + 1

    def test_invalidate_accepts_raw_fingerprint(self, loc_schema, cache):
        is_category_satisfiable(loc_schema, "Store", cache=cache)
        assert cache.invalidate(loc_schema.fingerprint()) >= 1

    def test_clear_resets_everything(self, loc_schema, cache):
        is_category_satisfiable(loc_schema, "Store", cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0


class TestEviction:
    def test_fifo_eviction_is_bounded(self, loc_schema):
        small = DecisionCache(max_entries=2)
        for category in ["Store", "City", "State", "Province"]:
            is_category_satisfiable(loc_schema, category, cache=small)
        assert len(small) == 2
        assert small.stats.evictions == 2

    def test_hot_schema_evicts_other_fingerprints_first(self, loc_schema):
        """At capacity, the oldest entry of *another* schema version goes
        before any entry of the schema being stored."""
        other = loc_schema.with_constraints(["Store -> SaleRegion"])
        small = DecisionCache(max_entries=2)
        is_category_satisfiable(other, "Store", cache=small)  # stale version
        is_category_satisfiable(loc_schema, "Store", cache=small)
        is_category_satisfiable(loc_schema, "City", cache=small)  # at capacity
        assert small.stats.evictions == 1
        assert small.stats.self_evictions == 0
        assert not small.holds(other.fingerprint())  # the stale entry went
        assert len(small.entries_for(loc_schema.fingerprint())) == 2

    def test_self_eviction_only_when_alone_and_counted(self, loc_schema):
        small = DecisionCache(max_entries=2)
        for category in ["Store", "City", "State"]:
            is_category_satisfiable(loc_schema, category, cache=small)
        assert len(small) == 2
        assert small.stats.evictions == 1
        assert small.stats.self_evictions == 1  # nothing else to evict
        # The newest entries survive; the oldest self-evicted.
        kept = {key[2] for key in small.entries_for(loc_schema.fingerprint())}
        assert kept == {"City", "State"}


class TestRekey:
    def test_unrelated_edit_moves_entries_byte_identically(self, loc_schema, cache):
        warm = implies(loc_schema, "Store.City.Country", cache=cache)
        sat = is_category_satisfiable(loc_schema, "SaleRegion", cache=cache)
        edited = loc_schema.with_constraints(
            ["Store -> City implies Store -> City"]
        )
        moved, dropped = cache.rekey(loc_schema, edited)
        # The implies cone covers every category above Store (the edit's
        # Store/City footprint hits it); SaleRegion's upward cone
        # ({SaleRegion, Country, All}) does not contain Store or City.
        assert (moved, dropped) == (1, 1)
        assert cache.stats.rekeyed == 1
        assert not cache.holds(loc_schema.fingerprint())
        hits = cache.stats.hits
        assert is_category_satisfiable(edited, "SaleRegion", cache=cache) == sat
        assert cache.stats.hits == hits + 1
        fresh = is_category_satisfiable(edited, "SaleRegion", cache=None)
        assert sat == fresh
        assert warm.implied  # the dropped one recomputes correctly fresh
        assert implies(edited, "Store.City.Country", cache=None).implied

    def test_identical_fingerprint_is_a_no_op(self, loc_schema, cache):
        is_category_satisfiable(loc_schema, "Store", cache=cache)
        rebuilt = DimensionSchema(
            loc_schema.hierarchy, list(loc_schema.constraints)
        )
        assert cache.rekey(loc_schema, rebuilt) == (0, 0)
        assert len(cache) == 1

    def test_provenance_is_recorded_per_entry(self, loc_schema, cache):
        is_category_satisfiable(loc_schema, "SaleRegion", cache=cache)
        key = (loc_schema.fingerprint(), "dimsat", "SaleRegion")
        provenance = cache.provenance_of(key)
        assert provenance is not None
        assert provenance.kind == "dimsat"
        assert "SaleRegion" in provenance.categories
        assert "Store" not in provenance.categories  # upward closure only


class TestReport:
    def test_report_mentions_every_layer(self, loc_schema, cache):
        is_category_satisfiable(loc_schema, "Store", cache=cache)
        text = cache.report()
        assert "decision cache:" in text
        assert "compiled artifacts:" in text
        assert "interned constraint nodes:" in text
        assert "hit rate" in text
        stats = cache.stats.as_dict()
        assert stats["misses"] >= 1
        assert 0.0 <= stats["hit_rate"] <= 1.0
