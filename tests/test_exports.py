"""Every module's public name list stays in step with what it defines, and
importing the package pulls in only what it uses."""
from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import adaptqsd

_MODULES = sorted(m.name for m in pkgutil.iter_modules(adaptqsd.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"adaptqsd.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_import_loads_no_scipy_stats_or_multiprocessing():
    # a fresh interpreter, since this one may have loaded either already;
    # shard imports multiprocessing only in a call that shards
    code = (
        "import importlib, json, sys\n"
        f"sys.path[:] = {sys.path!r}\n"
        f"for name in {_MODULES!r}:\n"
        "    importlib.import_module('adaptqsd.' + name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []
    assert [m for m in loaded if m == "multiprocessing" or m.startswith("multiprocessing.")] == []
