"""Every public name a module declares in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import qdistmat

MODULES = ["qdistmat"] + sorted(
    info.name for info in pkgutil.walk_packages(qdistmat.__path__, "qdistmat.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    declared = getattr(module, "__all__", [])
    missing = [n for n in declared if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(declared)) == len(declared), f"{name}.__all__ repeats a name"


def test_every_module_is_walked():
    assert {"qdistmat.closedforms", "qdistmat.exactdet", "qdistmat.permlab"} <= set(MODULES)
