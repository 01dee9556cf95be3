"""pathgeom: exact geometry of 2-form pairs, splittings and hypersurfaces.

A library and CLI for computations on an oriented 4-space and its
hypersurfaces: the wedge pairing and its split (3,3) signature, elliptic
pairs of 2-forms and their κ-normal form, splittings of complex structures
with the degree invariant, the path geometry and CR structure induced on
parametrized hypersurfaces of ℂ², and an exact Cartan-test involutivity
verification on the associated 12-dimensional model space.

Exact-rational and floating scalar backends coexist; whatever can be decided
without square roots is computed with zero tolerance.
"""

from .exterior import (
    DEFAULT_VOLUME,
    J0_MATRIX,
    OMEGA0,
    PHI0,
    LinearMap,
    MultiVector,
    VolumeForm,
    conformal_pairing,
    evaluate,
    gram_matrix,
    pairing_signature,
    pullback,
    wedge,
)
from .pairs import (
    EllipticPair,
    NormalForm,
    is_elliptic,
    is_symplectic,
    kappa_invariant,
    kappa_invariant_squared,
    normal_form,
    orthogonalize,
    pullback_pair_independent,
)
from .polynomials import Poly, RatFunc
from .splitting import (
    J0,
    ComplexStructure,
    OrientedPositivePlane,
    Splitting,
    act,
    canonical_model,
    degree,
    degree_squared,
    equivalent,
    j_of_plane,
    plane_of,
)
from .hypersurface import (
    AdaptedCoframe,
    CRSample,
    PathGeometrySample,
    ParamMap,
    PolyForm3,
    adapted_coframe_at,
    affine_plane_model,
    compatibility_check,
    cr_structure_at,
    heisenberg_model,
    is_nondegenerate_at,
    line_fields_at,
    pullback_splitting,
    sphere_chart_model,
    star_coefficients,
)
from . import eds

__version__ = "0.1.0"

__all__ = [
    "MultiVector", "VolumeForm", "LinearMap", "DEFAULT_VOLUME",
    "OMEGA0", "PHI0", "J0_MATRIX", "J0",
    "wedge", "evaluate", "pullback", "conformal_pairing", "gram_matrix", "pairing_signature",
    "EllipticPair", "NormalForm", "is_symplectic", "is_elliptic",
    "orthogonalize", "kappa_invariant", "kappa_invariant_squared",
    "normal_form", "pullback_pair_independent",
    "ComplexStructure", "OrientedPositivePlane", "Splitting",
    "plane_of", "j_of_plane", "degree", "degree_squared",
    "canonical_model", "equivalent", "act",
    "Poly", "RatFunc",
    "ParamMap", "PolyForm3", "AdaptedCoframe",
    "PathGeometrySample", "CRSample",
    "pullback_splitting", "star_coefficients", "adapted_coframe_at",
    "line_fields_at", "is_nondegenerate_at", "cr_structure_at",
    "compatibility_check",
    "heisenberg_model", "affine_plane_model", "sphere_chart_model",
    "eds",
    "__version__",
]
