"""The public API: every exported name exists, and there is one list of them.
The tests' oracles live in one module, `dense_oracles`, apart from the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import domechain

MODULES = sorted(m.name for m in pkgutil.iter_modules(domechain.__path__))
TESTS = Path(__file__).parent


def test_package_all_resolves():
    assert [name for name in domechain.__all__ if not hasattr(domechain, name)] == []
    assert len(set(domechain.__all__)) == len(domechain.__all__)


def test_package_all_is_pinned():
    # 34 names: the T/4 targets are test oracles (`dense_oracles`), and
    # numerical breakdown has a class of its own.
    assert len(domechain.__all__) == 34
    assert "NumericalBreakdownError" in domechain.__all__
    assert not {"chain_bell_target", "corner_w_target"} & set(domechain.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_lists_only_existing_names(module):
    # Each module lists existing names, all of them re-exported by the package.
    mod = importlib.import_module(f"domechain.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
    assert sorted(set(names) - set(domechain.__all__)) == []


def _imports(path: Path):
    """(module, imported names) of every import statement in a file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple(alias.name for alias in node.names)


def _top_level_defs(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_dense_oracles_import_nothing_from_domechain():
    # A bug in the package cannot reach the numbers it is checked against.
    roots = {module.split(".")[0] for module, _ in _imports(TESTS / "dense_oracles.py")}
    assert "domechain" not in roots
    assert not {root for root in roots if root.startswith("test_")}  # they import domechain


def test_test_modules_take_oracles_from_dense_oracles_only():
    # No test module imports an oracle from another test module, or keeps a
    # copy of one of its own.
    oracles = _top_level_defs(TESTS / "dense_oracles.py")
    assert {"brute_force_reduce", "entrywise_reduce", "expm_evolve", "simulate_qpt"} <= oracles
    for path in sorted(TESTS.glob("test_*.py")):
        for module, names in _imports(path):
            if module.startswith("test_"):
                assert not oracles & set(names), (path.name, module, names)
        assert not oracles & _top_level_defs(path), path.name
