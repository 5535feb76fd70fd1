"""Shared fixtures: the paper's running example and small synthetic
schemas used across the suite.

Also registers the ``ci`` hypothesis profile: derandomized with a fixed
seed so CI runs are reproducible.  Activated via
``HYPOTHESIS_PROFILE=ci`` in the environment.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import DimensionInstance, DimensionSchema, HierarchySchema
from repro.generators.location import (
    location_hierarchy,
    location_instance,
    location_schema,
)

settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def loc_hierarchy() -> HierarchySchema:
    """The hierarchy schema of Figure 1(A)."""
    return location_hierarchy()


@pytest.fixture(scope="session")
def loc_schema() -> DimensionSchema:
    """The dimension schema locationSch of Figure 3."""
    return location_schema()


@pytest.fixture()
def loc_instance() -> DimensionInstance:
    """The dimension instance of Figure 1(B) (fresh per test: instances
    cache ancestor sets and some tests poke at internals)."""
    return location_instance()


@pytest.fixture(scope="session")
def chain_hierarchy() -> HierarchySchema:
    """A plain homogeneous chain: Day -> Month -> Year -> All."""
    return HierarchySchema.from_paths(["Day", "Month", "Year"])


@pytest.fixture(scope="session")
def diamond_hierarchy() -> HierarchySchema:
    """A diamond: A -> B -> D, A -> C -> D, D -> All."""
    return HierarchySchema(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "All")],
    )


@pytest.fixture()
def chain_instance(chain_hierarchy) -> DimensionInstance:
    """Two days in one month in one year."""
    return DimensionInstance(
        chain_hierarchy,
        members={
            "d1": "Day",
            "d2": "Day",
            "jan": "Month",
            "y2020": "Year",
        },
        child_parent=[("d1", "jan"), ("d2", "jan"), ("jan", "y2020")],
    )


@pytest.fixture()
def write_previous_version_store():
    """``write(cache, directory)``: persist ``cache`` in cache-file format
    version 1, whose entry keys end in an empty DIMSAT-options slot."""
    import hashlib
    import json
    import pickle

    from repro.core.cachestore import MAGIC, cache_file_path, save_cache

    def write(cache, directory):
        save_cache(cache, directory)
        path = cache_file_path(directory)
        with open(path, "rb") as handle:
            handle.readline()
            data = pickle.loads(handle.read())
        for section in ("entries", "provenance"):
            data[section] = {key + ((),): value for key, value in data[section].items()}
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "magic": MAGIC,
            "version": 1,
            "entries": len(data["entries"]),
            "schemas": len(data["schemas"]),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)
        return path

    return write
