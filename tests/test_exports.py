"""Every name a module of the package exports exists: a stale ``__all__``
entry would break ``from soilcausal.<module> import *``."""

import importlib
import pkgutil

import pytest

import soilcausal

MODULES = sorted(info.name for info in pkgutil.iter_modules(soilcausal.__path__, "soilcausal."))


def test_the_package_modules_are_found():
    assert {"soilcausal.engine", "soilcausal.gnn", "soilcausal.baselines"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
