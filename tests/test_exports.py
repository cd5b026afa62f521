"""Every name a module exports must exist."""

import importlib
import pkgutil

import pytest

import rsmsim

MODULES = [rsmsim] + [
    importlib.import_module(f"rsmsim.{info.name}") for info in pkgutil.iter_modules(rsmsim.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
