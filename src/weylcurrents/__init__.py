"""weylcurrents: exact graded characters of affine Lie algebra modules and
level-restricted Kostka polynomials, by three independently verified routes."""

from .affine import (
    AffineWeight,
    AffineWeylElement,
    act_affine,
    cosets_up_to_shift,
    dominant_dot_rep,
    dot_action,
    length,
    level_one_weights,
    level_restricted_dominant,
    reduced_word,
    rho_shift,
)
from .characters import (
    GradedCharacter,
    char_global_weyl,
    char_integrable,
    char_irreducible,
    char_local_weyl,
    char_parabolic_verma,
    demazure_word,
    expand_in_global_weyl,
)
from .crystals import (
    CrystalGraph,
    apply_op,
    build_crystal,
    combinatorial_R,
    local_crystal,
    local_energy,
    restricted_paths,
    tensor_stats,
)
from .errors import ExpansionError, StructuralError, VerificationFailure
from .kostka import (
    KostkaResult,
    kostka_alt_sum,
    kostka_by_route,
    kostka_characters,
    kostka_characters_unrestricted,
    kostka_fermionic,
    kostka_paths,
    kostka_paths_restricted,
    level_one_multiplicities,
)
from .qseries import QPolynomial
from .rootsystem import RootSystem, Weight, build_root_system, parse_type

__version__ = "0.1.0"

__all__ = [
    "AffineWeight",
    "AffineWeylElement",
    "CrystalGraph",
    "ExpansionError",
    "GradedCharacter",
    "KostkaResult",
    "QPolynomial",
    "RootSystem",
    "StructuralError",
    "VerificationFailure",
    "Weight",
    "act_affine",
    "apply_op",
    "build_crystal",
    "build_root_system",
    "char_global_weyl",
    "char_integrable",
    "char_irreducible",
    "char_local_weyl",
    "char_parabolic_verma",
    "combinatorial_R",
    "cosets_up_to_shift",
    "demazure_word",
    "dominant_dot_rep",
    "dot_action",
    "expand_in_global_weyl",
    "kostka_alt_sum",
    "kostka_by_route",
    "kostka_characters",
    "kostka_characters_unrestricted",
    "kostka_fermionic",
    "kostka_paths",
    "kostka_paths_restricted",
    "length",
    "level_one_multiplicities",
    "level_one_weights",
    "level_restricted_dominant",
    "local_crystal",
    "local_energy",
    "parse_type",
    "reduced_word",
    "restricted_paths",
    "rho_shift",
    "tensor_stats",
]
