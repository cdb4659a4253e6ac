"""The public API: every exported name exists."""

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
    mod = importlib.import_module(f"domechain.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
