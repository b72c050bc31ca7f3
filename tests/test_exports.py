"""Export lists name only what exists: every name in a module's __all__
resolves and star-imports, and every top-level framedf name is exported by
the module that defines it."""

import importlib
import pkgutil

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


def test_top_level_names_are_exported_by_their_modules():
    for attr, obj in vars(framedf).items():
        if attr.startswith("_") or attr in MODULES:
            continue
        home = importlib.import_module(obj.__module__)
        assert attr in home.__all__, f"framedf.{attr} is not in {obj.__module__}.__all__"
