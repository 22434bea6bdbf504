"""Level-restricted Kostka polynomials by three independent routes, plus the
level-one decomposition multiplicities.

Route conventions are aligned so all three emit the same polynomial in q; the
calibration point is the A1 value kostka_paths_restricted(2w1, 0, k=1) = q.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from . import characters, crystals
from .affine import check_level, cosets_up_to_shift
from .characters import (
    Expansion,
    _integrable_layers,
    _layer_rows,
    _local_weyl_top,
    _peel_global_weyl,
    check_cutoff,
    kostka_fermionic,
)
from .crystals import restricted_paths
from .qseries import QPolynomial
from .rootsystem import RootSystem, Weight, build_root_system, weight_from_ints


ROUTES = ("paths", "altsum", "chars")


# k is a positive int, or None for the unrestricted limit; value a QPolynomial
KostkaResult = namedtuple("KostkaResult", "mu lam k value route")


def kostka_paths(n: int, mu: Weight, lam: Weight, k=None, cache_dir=None) -> QPolynomial:
    """Sum of q^{-D} over classical-highest elements of weight lam in the
    mu-crystal, with the level cut eps_0 <= k unless k is None (the
    unrestricted graded multiplicity). restricted_paths checks mu."""
    rs = build_root_system("A", n)
    if k is None:
        rs.check_dominant(lam)
    else:
        check_level(rs, k, lam)
    acc = {}
    for _, w, d in restricted_paths(n, mu, k, cache_dir=cache_dir):
        if w == lam:
            acc[-d] = acc.get(-d, 0) + 1
    return QPolynomial(acc)


def kostka_paths_restricted(
    n: int, mu: Weight, lam: Weight, k: int, cache_dir=None
) -> QPolynomial:
    """kostka_paths at level k, for lam in P_+^k."""
    return kostka_paths(n, mu, lam, k, cache_dir=cache_dir)


def kostka_alt_sum(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> QPolynomial:
    """Affine alternating sum over dot-dominant images: terms
    sign * q^offset * (unrestricted value at the image weight), each value the
    fermionic sum kostka_fermionic, so no crystal is built and every type
    runs; the sweep is complete because images with norm beyond mu's
    contribute zero; a negative gap leaves none."""
    rs.check_dominant(mu)
    check_level(rs, k, lam)
    L = k + rs.dual_coxeter
    max_offset = _scaled_gap(rs, mu, lam) // (2 * L * rs.det)
    total = QPolynomial.zero()
    for rep in cosets_up_to_shift(rs, lam, k, max_offset):
        inner_val = kostka_fermionic(rs, mu, rep.image.classical)
        if inner_val:
            total = total + rep.sign * inner_val.shifted(rep.offset)
    return total


def required_cutoff(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> int:
    """Smallest cutoff N whose norm region reaches mu when expanding ch L_k(lam),
    from the integer part of the gap (mu + rho, mu + rho) - (lam + rho, lam + rho)."""
    gap = _scaled_gap(rs, mu, lam)
    L = k + rs.dual_coxeter
    if gap <= 0:
        return 0
    q, r = divmod(gap // rs.det, 2 * L)
    return q + (1 if r else 0)


def _scaled_gap(rs: RootSystem, mu: Weight, lam: Weight) -> int:
    """det(C) ((mu + rho, mu + rho) - (lam + rho, lam + rho))."""
    top, low = (mu + rs.rho).coeffs, (lam + rs.rho).coeffs
    return rs.scaled_inner(top, top) - rs.scaled_inner(low, low)


def kostka_characters(
    rs: RootSystem, mu: Weight, lam: Weight, k: int, N=None
) -> QPolynomial:
    """Coefficient of the global Weyl character of mu in the expansion of
    ch L_k(lam), the whole polynomial. N is only checked: an N that would cut
    the answer short is an error, and a larger one changes nothing, since the
    work runs at default_cutoff, which covers the answer, and layer d of the
    ratio does not depend on the cutoff.

    Only the up-set of mu, the rows lam' >= mu, is peeled: the table of nu
    writes only to rows lam' <= nu, so those rows never read the others. The
    peel ends with the row of mu, the lowest of them, and reads each table
    entry [W(nu) : V(lam')] from the fermionic sum (kostka_fermionic)."""
    rs.check_dominant(mu)
    check_level(rs, k, lam)
    check_cutoff(N)
    whole = default_cutoff(rs, mu, lam, k)
    if N is not None and N < whole:
        raise ValueError(
            f"cutoff N={N} truncates the answer at mu={mu}; need at least N={whole}"
        )
    rows = {
        nu: row
        for nu, row in _layer_rows(_integrable_layers(rs, lam, k, whole)).items()
        if rs.dominance_leq(mu, weight_from_ints(nu))
    }
    return _peel_global_weyl(rs, rows, 0, whole, mu.coeffs).coeff(mu)


def default_cutoff(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> int:
    """Cutoff at which the chars route returns the whole polynomial: the norm
    region reaches mu, and q^N covers the top degree of the local Weyl module
    of mu (_local_weyl_top), which bounds every graded multiplicity V(lam)
    has in it."""
    return max(required_cutoff(rs, mu, lam, k), _local_weyl_top(rs, mu))


@cache
def integrable_weyl_expansion(rs: RootSystem, lam: Weight, k: int, N: int) -> Expansion:
    """Expansion of ch L_k(lam) (truncated at q^N) in global Weyl characters,
    peeled from the irreducible layers of the Weyl-Kac ratio (head at q^0),
    which check k, lam and N."""
    rows = _layer_rows(_integrable_layers(rs, lam, k, N))
    return _peel_global_weyl(rs, rows, 0, N)


_EXPANSIONS = integrable_weyl_expansion  # taken once: a rebound name still clears it


def clear_caches():
    """Empty every in-process memo the routes use: the expansions here and the
    caches of `characters` and `crystals`."""
    _EXPANSIONS.cache_clear()
    characters.clear_caches()
    crystals.clear_caches()


def kostka_characters_unrestricted(rs: RootSystem, mu: Weight, lam: Weight) -> QPolynomial:
    """Graded multiplicity of V(lam) in the local Weyl module of mu (the
    level-infinity limit; the dual twist by -w_0 and the q-flip cancel): the
    one entry kostka_fermionic(mu, lam)."""
    return kostka_fermionic(rs, mu, lam)


def level_one_multiplicities(rs: RootSystem, w1: Weight, N: int) -> Expansion:
    """Global-Weyl multiplicities of the level-one integrable module with class
    w1: each is a single monomial q^{((lam,lam)-(w1,w1))/2} supported on the
    dominant part of w1 + Q (verified by the acceptance suite); w1 is in P_+^1."""
    return integrable_weyl_expansion(rs, w1, 1, N)


def kostka_by_route(
    rs: RootSystem, mu: Weight, lam: Weight, k, route: str, N=None, cache_dir=None
) -> KostkaResult:
    """Dispatch a single route; k None means the unrestricted limit."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route == "paths" and rs.family != "A":
        raise ValueError(f"route {route!r} uses the column-crystal model (type A only)")
    # the weights first, so a bad weight reads the same on every route; each
    # route checks k against lam
    rs.check_dominant(mu)
    rs.check_dominant(lam)
    check_cutoff(N)
    if k is None:
        if route == "paths":
            val = kostka_paths(rs.rank, mu, lam, cache_dir=cache_dir)
        elif route == "chars":
            val = kostka_characters_unrestricted(rs, mu, lam)
        else:
            raise ValueError("the alternating sum needs a finite level")
    else:
        if route == "paths":
            val = kostka_paths_restricted(rs.rank, mu, lam, k, cache_dir=cache_dir)
        elif route == "altsum":
            val = kostka_alt_sum(rs, mu, lam, k)
        else:
            val = kostka_characters(rs, mu, lam, k, N)
    return KostkaResult(mu, lam, k, val, route)
