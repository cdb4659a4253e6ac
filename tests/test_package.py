"""The public API: every exported name exists, and there is one list of them."""

import importlib
import pkgutil

import pytest

import domechain

MODULES = sorted(m.name for m in pkgutil.iter_modules(domechain.__path__))


def test_package_all_resolves():
    assert [name for name in domechain.__all__ if not hasattr(domechain, name)] == []
    assert len(set(domechain.__all__)) == len(domechain.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_lists_only_existing_names(module):
    # Each module lists existing names, all of them re-exported by the package.
    mod = importlib.import_module(f"domechain.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []
    assert sorted(set(names) - set(domechain.__all__)) == []

