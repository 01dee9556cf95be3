"""pathgeom: exact geometry of 2-form pairs, splittings and hypersurfaces.

A library and CLI for computations on an oriented 4-space and its
hypersurfaces: the wedge pairing and its split (3,3) signature, elliptic
pairs of 2-forms and their κ-normal form, splittings of complex structures
with the degree invariant, the path geometry and CR structure induced on
parametrized hypersurfaces of ℂ², and an exact Cartan-test involutivity
verification on the associated 12-dimensional model space.

Every value is an exact ``fractions.Fraction``, so whatever can be decided
without square roots is decided with zero tolerance; only values a square
root away (κ, the degree, the normal-form and adapted coframes) are floats.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    """``pathgeom.<name>``, put in ``sys.modules`` now and executed on its first attribute access.

    A request then runs only the modules it uses, while every submodule is
    bound on the package and listed in ``sys.modules`` from the start, as an
    eager import would leave it; tools that wrap functions module by module,
    such as ``perfbench/layers.py``, see all of them.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# every submodule but ``cli``, which ``python -m pathgeom.cli`` runs as ``__main__``
scalars, linalg, exterior, polynomials, pairs, splitting, hypersurface, eds = map(_lazy_submodule, (
    "scalars", "linalg", "exterior", "polynomials", "pairs", "splitting", "hypersurface", "eds"))

#: the submodule that defines each exported name
_SOURCE = {
    **dict.fromkeys((
        "MultiVector", "VolumeForm", "DEFAULT_VOLUME", "OMEGA0", "PHI0", "J0_MATRIX", "EllipticPair",
        "wedge", "evaluate", "pullback", "conformal_pairing", "gram_matrix", "pairing_signature",
    ), "exterior"),
    **dict.fromkeys((
        "NormalForm", "is_symplectic", "is_elliptic", "orthogonalize",
        "kappa_invariant", "kappa_invariant_squared", "normal_form", "pullback_pair_independent",
    ), "pairs"),
    **dict.fromkeys((
        "J0", "ComplexStructure", "OrientedPositivePlane", "Splitting", "plane_of", "j_of_plane",
        "degree", "degree_squared", "canonical_model", "equivalent", "act",
    ), "splitting"),
    **dict.fromkeys(("Poly", "RatFunc"), "polynomials"),
    **dict.fromkeys((
        "ParamMap", "PolyForm3", "AdaptedCoframe", "PathGeometrySample", "CRSample",
        "pullback_splitting", "star_coefficients", "adapted_coframe_at", "line_fields_at",
        "is_nondegenerate_at", "cr_structure_at", "compatibility_check",
        "heisenberg_model", "affine_plane_model", "sphere_chart_model",
    ), "hypersurface"),
}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "eds", "__version__"]


def __getattr__(name: str):
    """An exported name, read from its submodule on first use (PEP 562)."""
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
