"""The names that tools outside the library reach into must keep resolving.

``perfbench/layers.py`` wraps each function of its ``TARGETS`` table by
replacing the attribute on its owner (a module or a class), so the function
must sit in the owner's own ``vars``.  A rename would otherwise surface only
in a traced benchmark run.  ``perfbench/`` is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pathgeom

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


TARGETS = _traced_targets()


@pytest.mark.parametrize("name, mod, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_function_is_owned_where_the_tracer_looks(name, mod, attr):
    owner = importlib.import_module(f"pathgeom.{mod}")
    *classes, fname = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(fname)), f"{name}: pathgeom.{mod}.{attr} is not defined on its owner"


@pytest.mark.parametrize("name", pathgeom.__all__)
def test_exported_name_resolves(name):
    assert hasattr(pathgeom, name)


def test_exported_names_are_listed_by_dir():
    assert set(pathgeom.__all__) <= set(dir(pathgeom))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pathgeom import *", namespace)
    assert set(pathgeom.__all__) <= set(namespace)
    assert namespace["OMEGA0"] is pathgeom.exterior.OMEGA0 and namespace["eds"] is pathgeom.eds


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pathgeom.no_such_name
