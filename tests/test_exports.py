"""The export lists name only what the package defines."""

import ast
import importlib
from pathlib import Path

import mlml


def test_every_exported_name_resolves():
    for module in ("frames", "kripke", "proofs", "prop4"):
        namespace = importlib.import_module(f"mlml.{module}")
        assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == [], module
    tree = ast.parse(Path(mlml.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(mlml, name)] == []
