"""No dead imports: every name a ``src/`` module imports is used in that
module or listed in its ``__all__``, checked on the source with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

import trisplit

SRC = Path(trisplit.__file__).resolve().parent


def imported_names(tree):
    """The names each import statement of ``tree`` binds, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree):
    """The strings of a module-level ``__all__ = [...]`` or ``(...)``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(source):
    """The imported names of ``source`` that it neither uses nor exports."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used - exported_names(tree))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert dead_imports(path.read_text()) == []


def test_a_dead_import_is_reported():
    source = "import os.path\nfrom json import dumps, loads as read\n__all__ = ['dumps']\nread('1')\n"
    assert dead_imports(source) == ["os"]
