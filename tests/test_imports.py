"""Every module-level import of the package is read where it is imported."""

import ast
from pathlib import Path

import pytest

import nsfd_epi

# __init__.py is exempt: its imports are the package's re-exports.
SOURCES = sorted(p for p in Path(nsfd_epi.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each name bound by a module-level import (under ``if TYPE_CHECKING:`` too)
    that the module never reads and does not list in ``__all__``, unless its line says ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported: set[str] = set()
    imports = []
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imports += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
    return [
        f"{line}: {name}"
        for line, name in imports
        if name not in read and name not in exported and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_what_is_neither_read_nor_exported():
    source = """\
from __future__ import annotations
import math, os.path
from typing import TYPE_CHECKING, Any
from .model import DomainError, HostParams
from .nsfd import step  # noqa: F401
if TYPE_CHECKING:
    import argparse
    import numpy as np
__all__ = ["HostParams"]
def f(x: np.ndarray) -> Any:
    return math.sqrt(x)
"""
    assert unused_imports(source) == ["2: os", "4: DomainError", "7: argparse"]
