"""Every module's public name list stays in step with what it defines."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import adaptqsd

_MODULES = sorted(m.name for m in pkgutil.iter_modules(adaptqsd.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"adaptqsd.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
