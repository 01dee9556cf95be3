"""The names that tools outside the library reach into must keep resolving.

``perfbench/layers.py`` wraps each function of its ``TARGETS`` table by
replacing the attribute on its owner (a module or a class), so the function
must sit in the owner's own ``vars``.  A rename would otherwise surface only
in a traced benchmark run.  ``perfbench/`` is only read here.  Every other
definition of the library has a caller in the library, and every number a
caller hands in is read by ``scalars.to_scalar``.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import pathgeom
from pathgeom import linalg
from pathgeom.eds import CurvatureSample
from pathgeom.polynomials import Poly

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


def _references(node) -> Counter:
    """Each identifier named under ``node``: a Name, an Attribute's attribute or a whole string constant."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs[n.value] += 1
    return refs


def test_every_internal_definition_has_a_library_caller():
    """A module-level def or class of ``src/pathgeom`` is named there outside its own body.

    Exported names, dunders and the functions the tracer wraps are exempt; a
    helper that only tests call belongs in ``tests/``.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(pathgeom.__file__).parent.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    exempt = set(pathgeom._SOURCE) | {attr.split(".")[0] for _, _, attr in TARGETS}
    uncalled = [
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exempt
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert uncalled == []


def _is_int_literal(node) -> bool:
    """An int literal, its negation, or a conditional between two such."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.IfExp):
        return _is_int_literal(node.body) and _is_int_literal(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_scalars_are_read_in_one_place():
    """Outside ``scalars``, a one-argument ``Fraction(...)`` takes only an int literal or unpacks ``*args``.

    Any other value is read by ``to_scalar``, which refuses a number whose
    digits would take unbounded work before ``Fraction`` expands them.
    """
    src = Path(pathgeom.__file__).parent
    reads = sorted({
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Fraction"
        and len(node.args) == 1 and not node.keywords
        and not isinstance(node.args[0], ast.Starred) and not _is_int_literal(node.args[0])
    })
    assert reads == []


def test_default_tolerances_are_written_once():
    """The float ``1e-9`` is written only as ``scalars.DEFAULT_TOL``, and ``1e-10`` only as ``hypersurface.COFRAME_TOL``."""
    sites = []
    for path in sorted(Path(pathgeom.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {id(node.value): node.targets[0].id for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        sites += [(node.value, path.name, named.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float and node.value in (1e-9, 1e-10)]
    assert sorted(sites) == [(1e-10, "hypersurface.py", "COFRAME_TOL"), (1e-9, "scalars.py", "DEFAULT_TOL")]


@pytest.mark.parametrize("read", [
    lambda: linalg.det([["1e5000"]]),
    lambda: Poly.constant("1e5000", 3),
    lambda: CurvatureSample("1e5000", 0, 0, 0),
], ids=["det", "poly-constant", "curvature-sample"])
def test_caller_scalars_past_the_digit_limit_are_refused(read):
    with pytest.raises(ValueError, match="decimal exponents"):
        read()
