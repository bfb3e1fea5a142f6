"""Every name a library module imports is used in that module.

A name counts as used when it appears as an ``ast.Name`` node, which
covers the base of an attribute chain (``np`` in ``np.linalg.eigh``) and
annotations.  A name that only docstrings or comments mention is dead.
``__init__.py`` is skipped, since its imports are the package's
re-exports, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dpstates"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_name_only_a_docstring_mentions_is_unused():
    source = '"""Raises ValueError."""\nfrom itertools import product\nimport numpy as np\nimport os.path\nnp.eye(os.path.sep)\n'
    assert unused_imports(source) == ["product (line 2)"]
