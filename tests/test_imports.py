"""Every name a library module imports is used there, and every public name is exported once.

A name counts as used when it appears as an ``ast.Name`` node, which
covers the base of an attribute chain (``np`` in ``np.linalg.eigh``) and
annotations.  A name that only docstrings or comments mention is dead.
``__init__.py`` is skipped, since its imports are the package's
re-exports, and so is ``from __future__``.

Each library module (every module but ``__init__``, ``__main__`` and
``cli``) lists in ``__all__`` exactly the public functions and classes it
defines, and the package exports the sorted union of those lists.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpstates

SRC = Path(__file__).resolve().parent.parent / "src" / "dpstates"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
LIBRARY = [path.stem for path in MODULES if path.stem not in ("__main__", "cli")]


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


def defined_public_names(module) -> set[str]:
    """The functions and classes ``module`` defines whose names have no leading underscore."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_exactly_what_the_module_defines(name):
    module = importlib.import_module(f"dpstates.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    # a name another module defines would be exported twice
    assert set(module.__all__) == defined_public_names(module)


def test_package_exports_the_sorted_union_of_the_module_lists():
    names = [name for module in LIBRARY for name in importlib.import_module(f"dpstates.{module}").__all__]
    assert dpstates.__all__ == sorted(names)
    assert len(set(dpstates.__all__)) == len(dpstates.__all__)
    namespace: dict = {}
    exec("from dpstates import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == dpstates.__all__


def test_the_documented_identification_entry_points_are_exported():
    from dpstates import DpsMeasurement, bures_from_fidelity, measure_dps

    assert measure_dps is dpstates.bloch.measure_dps
    assert DpsMeasurement is dpstates.bloch.DpsMeasurement
    assert bures_from_fidelity is dpstates.metrics.bures_from_fidelity


def test_every_public_class_has_one_of_four_forms():
    # a result record is a NamedTuple; a value type that checks its input on construction is a
    # frozen dataclass whose __post_init__ is that check
    for name in dpstates.__all__:
        obj = getattr(dpstates, name)
        if not inspect.isclass(obj) or issubclass(obj, Exception) or obj is dpstates.DensityMatrix:
            continue
        record = issubclass(obj, tuple) and hasattr(obj, "_fields")
        value_type = dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen and "__post_init__" in vars(obj)
        assert record or value_type, name


def test_import_loads_every_library_module():
    # eager, not lazy: the first call into any module pays no import.  The api-calls benchmark
    # times fill_caches right after `import dpstates` as its setup_s, about 3 ms; a lazy package
    # would move the ~10 ms of compiling bloch, metrics, linalg, errors and channels into it
    code = "import sys, dpstates; print(' '.join(sorted(m for m in sys.modules if m.startswith('dpstates.'))))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == [f"dpstates.{name}" for name in LIBRARY]
