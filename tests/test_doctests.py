"""Run the doctests embedded in the library's docstrings.

Docstring examples are part of the public documentation; running them
here keeps them honest the same way tests/test_tutorial.py guards the
tutorial.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = [
    "repro.core.hierarchy",
    "repro.core.instance",
    "repro.core.schema",
    "repro.core.dimsat",
    "repro.core.implication",
    "repro.core.summarizability",
    "repro.core.explain",
    "repro.constraints.parser",
    "repro.olap.cubeview",
    "repro.olap.facttable",
    "repro.olap.maintenance",
    "repro.olap.engine",
    "repro.io.csvload",
    "repro.io.ascii",
    "repro.baselines.bruteforce",
    "repro.baselines.homogenize",
    "repro.baselines.dnf",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {name}"


def test_doctests_exist_somewhere():
    """At least a handful of modules actually carry examples (guards
    against the list silently rotting to example-free modules)."""
    total = 0
    for name in MODULES:
        module = importlib.import_module(name)
        finder = doctest.DocTestFinder()
        total += sum(len(t.examples) for t in finder.find(module))
    assert total >= 10
