"""The persistent decision-cache store: round trips, atomicity,
corruption detection, version skew, and replay verification."""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.core import (
    CacheStoreError,
    DecisionCache,
    is_category_satisfiable,
    is_implied,
    is_summarizable_in_schema,
    load_cache,
    save_cache,
)
from repro.core.cachestore import FORMAT_VERSION, cache_file_path
from repro.core.faults import CacheStoreFault, inject_faults


@pytest.fixture()
def warm_cache(loc_schema) -> DecisionCache:
    cache = DecisionCache()
    is_implied(loc_schema, "Store.City.Country", cache=cache)
    is_category_satisfiable(loc_schema, "SaleRegion", cache=cache)
    is_summarizable_in_schema(loc_schema, "Country", ("City",), cache=cache)
    return cache


class TestRoundTrip:
    def test_save_load_serves_hits(self, warm_cache, loc_schema, tmp_path):
        report = save_cache(warm_cache, str(tmp_path))
        assert report.entries == len(warm_cache)
        assert report.schemas == 1
        assert os.path.exists(report.path)

        fresh = DecisionCache()
        load_report = load_cache(fresh, str(tmp_path))
        assert load_report.found and load_report.clean
        assert load_report.loaded == len(warm_cache)
        assert load_report.replayed == load_report.loaded
        assert len(fresh) == len(warm_cache)
        assert is_implied(loc_schema, "Store.City.Country", cache=fresh)
        assert fresh.stats.hits == 1 and fresh.stats.misses == 0

    def test_loaded_entries_keep_their_provenance(
        self, warm_cache, loc_schema, tmp_path
    ):
        save_cache(warm_cache, str(tmp_path))
        fresh = DecisionCache()
        load_cache(fresh, str(tmp_path))
        key = (loc_schema.fingerprint(), "dimsat", "SaleRegion")
        provenance = fresh.provenance_of(key)
        assert provenance is not None
        assert provenance == warm_cache.provenance_of(key)
        # ... so a loaded cache still rekeys across edits.
        edited = loc_schema.with_constraints(
            ["Store -> City implies Store -> City"]
        )
        moved, _dropped = fresh.rekey(loc_schema, edited)
        assert moved >= 1

    def test_missing_file_is_a_cold_start(self, tmp_path):
        report = load_cache(DecisionCache(), str(tmp_path))
        assert not report.found
        assert report.loaded == 0

    def test_skip_replay_still_checksums(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        fresh = DecisionCache()
        report = load_cache(fresh, str(tmp_path), verify_replay=False)
        assert report.loaded == len(warm_cache)
        assert report.replayed == 0


class TestIntegrity:
    def test_truncated_payload_is_rejected(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        path = cache_file_path(str(tmp_path))
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-7])
        with pytest.raises(CacheStoreError, match="checksum"):
            load_cache(DecisionCache(), str(tmp_path))

    def test_flipped_payload_byte_is_rejected(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        path = cache_file_path(str(tmp_path))
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CacheStoreError, match="checksum"):
            load_cache(DecisionCache(), str(tmp_path))

    def test_garbage_header_is_rejected(self, tmp_path):
        path = cache_file_path(str(tmp_path))
        Path(path).write_bytes(b"\x00\x01 not a cache\n")
        with pytest.raises(CacheStoreError):
            load_cache(DecisionCache(), str(tmp_path))

    def test_version_skew_is_rejected(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        path = cache_file_path(str(tmp_path))
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        header["version"] = FORMAT_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)
        with pytest.raises(CacheStoreError, match="version"):
            load_cache(DecisionCache(), str(tmp_path))

    def test_previous_format_version_is_rejected(
        self, warm_cache, tmp_path, write_previous_version_store
    ):
        """Format 1 keyed its entries ``(fingerprint, kind, query...,
        ())``; such a file is version skew, never replayed."""
        write_previous_version_store(warm_cache, str(tmp_path))
        with pytest.raises(CacheStoreError, match="version 1 "):
            load_cache(DecisionCache(), str(tmp_path))

    def test_injected_store_fault_leaves_previous_file(
        self, warm_cache, tmp_path
    ):
        save_cache(warm_cache, str(tmp_path))
        before = Path(cache_file_path(str(tmp_path))).read_bytes()
        with inject_faults("cache-store:p=1.0"):
            with pytest.raises(CacheStoreFault):
                save_cache(warm_cache, str(tmp_path))
        assert Path(cache_file_path(str(tmp_path))).read_bytes() == before
        assert not os.path.exists(cache_file_path(str(tmp_path)) + ".tmp")


class TestMergeOnSave:
    """Two processes sharing one ``--cache-dir`` (the server plus a
    sidecar CLI) must not last-writer-win away each other's verdicts."""

    def _other_cache(self, loc_schema) -> DecisionCache:
        """Warm verdicts disjoint from the ``warm_cache`` fixture."""
        cache = DecisionCache()
        is_implied(loc_schema, "City.State.Country", cache=cache)
        is_category_satisfiable(loc_schema, "Province", cache=cache)
        return cache

    def test_disjoint_writers_union_on_disk(
        self, warm_cache, loc_schema, tmp_path
    ):
        first = save_cache(warm_cache, str(tmp_path))
        assert first.merged_entries == 0
        other = self._other_cache(loc_schema)
        second = save_cache(other, str(tmp_path))
        assert second.merged_entries == len(warm_cache)
        assert second.entries == len(warm_cache) + len(other)

        union = DecisionCache()
        report = load_cache(union, str(tmp_path))
        assert report.clean
        assert report.loaded == len(warm_cache) + len(other)
        # Both writers' verdicts now serve as hits.
        is_implied(loc_schema, "Store.City.Country", cache=union)
        is_implied(loc_schema, "City.State.Country", cache=union)
        assert union.stats.hits == 2 and union.stats.misses == 0

    def test_shadowed_keys_are_not_double_counted(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        report = save_cache(warm_cache, str(tmp_path))
        # Every disk key is shadowed by the identical in-memory verdict.
        assert report.merged_entries == 0
        assert report.entries == len(warm_cache)

    def test_merged_entries_keep_provenance(
        self, warm_cache, loc_schema, tmp_path
    ):
        save_cache(warm_cache, str(tmp_path))
        save_cache(self._other_cache(loc_schema), str(tmp_path))
        union = DecisionCache()
        load_cache(union, str(tmp_path))
        key = (loc_schema.fingerprint(), "dimsat", "SaleRegion")
        assert union.provenance_of(key) == warm_cache.provenance_of(key)

    def test_merge_false_overwrites(self, warm_cache, loc_schema, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        other = self._other_cache(loc_schema)
        report = save_cache(other, str(tmp_path), merge=False)
        assert report.merged_entries == 0
        fresh = DecisionCache()
        assert load_cache(fresh, str(tmp_path)).loaded == len(other)

    def test_corrupt_previous_file_is_replaced(self, warm_cache, tmp_path):
        path = cache_file_path(str(tmp_path))
        Path(path).write_bytes(b"\x00\x01 not a cache\n")
        report = save_cache(warm_cache, str(tmp_path))
        assert report.merged_entries == 0
        fresh = DecisionCache()
        load_report = load_cache(fresh, str(tmp_path))
        assert load_report.clean and load_report.loaded == len(warm_cache)

    def test_concurrent_writers_lose_nothing(
        self, warm_cache, loc_schema, tmp_path
    ):
        """Hammer one directory from two threads; the advisory lock
        serializes the read-merge-write cycles, so the final file holds
        both writers' entries regardless of interleaving."""
        import threading

        other = self._other_cache(loc_schema)
        barrier = threading.Barrier(2)
        errors = []

        def writer(cache):
            try:
                barrier.wait(timeout=5.0)
                for _ in range(5):
                    save_cache(cache, str(tmp_path))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(cache,))
            for cache in (warm_cache, other)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        union = DecisionCache()
        report = load_cache(union, str(tmp_path))
        assert report.clean
        assert report.loaded == len(warm_cache) + len(other)


class TestReplayVerification:
    def test_divergent_entry_is_dropped_and_reported(
        self, warm_cache, loc_schema, tmp_path
    ):
        """Flip one stored verdict (with a valid checksum) - the replay
        pass must catch and drop it, keeping the honest entries."""
        save_cache(warm_cache, str(tmp_path))
        path = cache_file_path(str(tmp_path))
        with open(path, "rb") as handle:
            handle.readline()
            data = pickle.loads(handle.read())
        key = (loc_schema.fingerprint(), "dimsat", "SaleRegion")
        honest = data["entries"][key]
        data["entries"][key] = type(honest)(
            satisfiable=not honest.satisfiable,
            witness=honest.witness,
            stats=honest.stats,
            trace=honest.trace,
        )
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        import hashlib

        header = {
            "magic": "repro-decision-cache",
            "version": FORMAT_VERSION,
            "entries": len(data["entries"]),
            "schemas": len(data["schemas"]),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)

        fresh = DecisionCache()
        report = load_cache(fresh, str(tmp_path))
        assert report.dropped_divergent == 1
        assert not report.clean
        assert report.loaded == len(warm_cache) - 1
        assert fresh.peek(key) is None  # the lie never entered the cache

    def test_tampered_schema_sidecar_is_rejected(self, warm_cache, tmp_path):
        save_cache(warm_cache, str(tmp_path))
        path = cache_file_path(str(tmp_path))
        with open(path, "rb") as handle:
            handle.readline()
            data = pickle.loads(handle.read())
        fingerprint = next(iter(data["schemas"]))
        text = data["schemas"][fingerprint]
        data["schemas"][fingerprint] = text.replace(
            '"Store"', '"Depot"'
        )
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        import hashlib

        header = {
            "magic": "repro-decision-cache",
            "version": FORMAT_VERSION,
            "entries": len(data["entries"]),
            "schemas": len(data["schemas"]),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)
        with pytest.raises(CacheStoreError):
            load_cache(DecisionCache(), str(tmp_path))


class TestStoresFromEarlierBuilds:
    """Provenance once also recorded ``edges`` and ``constraints``; a
    store saved then unpickles them, and must not write them again."""

    @staticmethod
    def _with_old_fields(provenance):
        object.__setattr__(provenance, "edges", frozenset({("Store", "City")}))
        object.__setattr__(provenance, "constraints", frozenset({"Store.City"}))
        return provenance

    @staticmethod
    def _saved_provenance_fields(path):
        """The attribute names each stored provenance was pickled with."""

        class Raw:
            pass

        class RawUnpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if name == "VerdictProvenance":
                    return Raw
                return super().find_class(module, name)

        with open(path, "rb") as handle:
            handle.readline()
            data = RawUnpickler(handle).load()
        return {frozenset(vars(p)) for p in data["provenance"].values()}

    def test_old_provenance_unpickles_with_declared_fields_only(self):
        from dataclasses import fields

        from repro.core.provenance import VerdictProvenance

        old = self._with_old_fields(
            VerdictProvenance("dimsat", frozenset({"Store", "All"}))
        )
        assert {"edges", "constraints"} <= set(vars(old))
        loaded = pickle.loads(pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL))
        assert set(vars(loaded)) == {f.name for f in fields(VerdictProvenance)}
        assert loaded == VerdictProvenance("dimsat", frozenset({"Store", "All"}))

    def test_old_store_loads_and_resaves_without_the_old_fields(
        self, warm_cache, tmp_path
    ):
        import hashlib

        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        save_cache(warm_cache, str(old_dir))
        path = cache_file_path(str(old_dir))
        with open(path, "rb") as handle:
            handle.readline()
            data = pickle.loads(handle.read())
        for provenance in data["provenance"].values():
            self._with_old_fields(provenance)
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "magic": "repro-decision-cache",
            "version": FORMAT_VERSION,
            "entries": len(data["entries"]),
            "schemas": len(data["schemas"]),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)
        declared = frozenset({"kind", "categories", "bottoms"})
        assert self._saved_provenance_fields(path) == {
            declared | {"edges", "constraints"}
        }

        fresh = DecisionCache()
        report = load_cache(fresh, str(old_dir))
        assert report.clean and report.loaded == len(warm_cache)
        for key in data["entries"]:
            assert set(vars(fresh.provenance_of(key))) == declared
        save_cache(fresh, str(new_dir))
        assert self._saved_provenance_fields(cache_file_path(str(new_dir))) == {
            declared
        }
