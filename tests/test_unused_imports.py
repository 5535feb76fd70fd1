"""No module under ``src/repro`` or ``tests`` imports a name it never uses.

A stdlib-only AST scan (no linter needed): every name an ``import`` binds
must be referenced somewhere in the same module.  Names inside string
annotations and names listed in ``__all__`` count as referenced;
``__init__.py`` files are exempt because their imports are re-exports,
and so is an import line marked ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "repro", ROOT / "tests")


def _imported(tree: ast.Module, lines: List[str]) -> Dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname is not None:
                name = alias.asname
            elif isinstance(node, ast.Import):
                name = alias.name.partition(".")[0]
            else:
                name = alias.name
            bound[name] = node.lineno
    return bound


def _string_annotation_names(annotation: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _referenced(tree: ast.Module) -> Set[str]:
    """Every name the module reads, in code, annotations or ``__all__``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            names |= _string_annotation_names(annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value
                for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


def unused_names(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` for each imported name the source never uses."""
    tree = ast.parse(source)
    used = _referenced(tree)
    bound = _imported(tree, source.splitlines())
    return sorted((name, line) for name, line in bound.items() if name not in used)


def _modules() -> List[Path]:
    return sorted(
        path
        for top in SCANNED
        for path in top.rglob("*.py")
        if path.name != "__init__.py"
    )


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for name, line in unused_names(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_scan_flags_an_unused_import():
    source = (
        "from typing import List, Optional, Tuple as Pair\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "__all__ = ['Pair']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_names(source) == [("Optional", 1), ("os", 2)]
