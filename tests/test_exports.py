"""Export lists name only what exists: every name in a module's __all__
resolves and star-imports, and the package namespace holds no layer's
names, only its version."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import framedf

MODULES = sorted(m.name for m in pkgutil.iter_modules(framedf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_star_imports(name):
    module = importlib.import_module(f"framedf.{name}")
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [x for x in exported if not hasattr(module, x)] == []
    namespace = {}
    exec(f"from framedf.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_a_fresh_import_binds_only_the_version():
    # every caller names the layer it uses; the package itself loads none
    code = ("import json, sys, framedf; "
            "names = sorted(set(vars(framedf)) - {'__name__', '__doc__', '__package__', "
            "'__loader__', '__spec__', '__path__', '__file__', '__cached__', '__builtins__'}); "
            "[exec(f'from framedf import {m}') for m in json.loads(sys.argv[1])]; "
            "print(json.dumps(names))")
    src = str(Path(framedf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(MODULES)], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout) == ["__version__"]
