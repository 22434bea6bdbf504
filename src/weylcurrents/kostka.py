"""Level-restricted Kostka polynomials by three independent routes, plus the
level-one decomposition multiplicities.

Route conventions are aligned so all three emit the same polynomial in q; the
calibration point is the A1 value kostka_paths_restricted(2w1, 0, k=1) = q.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import product
from operator import mul, sub

from . import characters, crystals
from .affine import cosets_up_to_shift, in_level_dominant, level_one_weights
from .characters import (
    Expansion,
    _integrable_layers,
    _layer_rows,
    _local_weyl,
    _local_weyl_top,
    _peel_global_weyl,
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
    unrestricted graded multiplicity)."""
    acc = {}
    for _, w, d in restricted_paths(n, mu, k, cache_dir=cache_dir):
        if w == lam:
            acc[-d] = acc.get(-d, 0) + 1
    return QPolynomial(acc)


def kostka_paths_restricted(
    n: int, mu: Weight, lam: Weight, k: int, cache_dir=None
) -> QPolynomial:
    """kostka_paths at level k, for lam in P_+^k."""
    if not in_level_dominant(build_root_system("A", n), lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    return kostka_paths(n, mu, lam, k, cache_dir=cache_dir)


def kostka_alt_sum(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> QPolynomial:
    """Affine alternating sum over dot-dominant images: terms
    sign * q^offset * (unrestricted value at the image weight), each value the
    fermionic sum kostka_fermionic, so no crystal is built and every type
    runs; the sweep is complete because images with norm beyond mu's
    contribute zero."""
    if not in_level_dominant(rs, lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    L = k + rs.dual_coxeter
    gap = rs.inner(mu + rs.rho, mu + rs.rho) - rs.inner(lam + rs.rho, lam + rs.rho)
    max_offset = int(Fraction(gap, 2 * L)) if gap >= 0 else -1
    total = QPolynomial.zero()
    for rep in cosets_up_to_shift(rs, lam, k, max_offset):
        inner_val = kostka_fermionic(rs, mu, rep.image.classical)
        if inner_val:
            total = total + rep.sign * inner_val.shifted(rep.offset)
    return total


def required_cutoff(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> int:
    """Smallest cutoff N whose norm region reaches mu when expanding ch L_k(lam)."""
    gap = rs.inner(mu + rs.rho, mu + rs.rho) - rs.inner(lam + rs.rho, lam + rs.rho)
    L = k + rs.dual_coxeter
    if gap <= 0:
        return 0
    q, r = divmod(int(gap), 2 * L)
    return q + (1 if r else 0)


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
    if not in_level_dominant(rs, lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    if not rs.is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    need = required_cutoff(rs, mu, lam, k)
    if N is not None and N < need:
        raise ValueError(
            f"cutoff N={N} cannot reach mu={mu}; need at least N={need}"
        )
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
    return _peel_global_weyl(rs, rows, 0, whole, partial(_upset_table, rs, mu)).coeff(mu)


def _upset_table(rs: RootSystem, mu: Weight, nu: Weight) -> dict:
    """The rows lam' >= mu of the local Weyl table of nu, {coeffs:
    kostka_fermionic(nu, lam')}: lam' = mu + sum_a e_a alpha_a dominant, with
    0 <= e_a <= the root coordinates of nu - mu."""
    span = [c // rs.det for c in rs.scaled_root_coords(tuple(map(sub, nu.coeffs, mu.coeffs)))]
    out = {}
    for e in product(*[range(s + 1) for s in span]):
        # alpha_a is row a of the (symmetric) Cartan matrix
        coeffs = tuple([m + sum(map(mul, row, e)) for m, row in zip(mu.coeffs, rs.cartan)])
        if min(coeffs) >= 0:
            entry = kostka_fermionic(rs, nu, weight_from_ints(coeffs))
            if entry:
                out[coeffs] = entry
    return out


def default_cutoff(rs: RootSystem, mu: Weight, lam: Weight, k: int) -> int:
    """Cutoff at which the chars route returns the whole polynomial: the norm
    region reaches mu, and q^N covers the top degree of the local Weyl module
    of mu (_local_weyl_top), which bounds every graded multiplicity V(lam)
    has in it."""
    return max(required_cutoff(rs, mu, lam, k), _local_weyl_top(rs, mu))


def check_level_and_cutoff(k, N):
    if k is not None and k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if N is not None and N < 0:
        raise ValueError(f"cutoff N must be >= 0, got {N}")


@cache
def integrable_weyl_expansion(rs: RootSystem, lam: Weight, k: int, N: int) -> Expansion:
    """Expansion of ch L_k(lam) (truncated at q^N) in global Weyl characters,
    peeled from the irreducible layers of the Weyl-Kac ratio (head at q^0)."""
    check_level_and_cutoff(k, N)
    rows = _layer_rows(_integrable_layers(rs, lam, k, N))
    return _peel_global_weyl(rs, rows, 0, N, partial(_local_weyl, rs))


def _partitions(n: int, most: int):
    """The partitions of n into parts <= most, each as {part: multiplicity}."""
    if n == 0:
        yield {}
        return
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield {**rest, part: rest.get(part, 0) + 1}


@cache
def _q_binomial(n: int, m: int) -> tuple:
    """[n choose m]_q as the coefficients of q^0..q^(m(n-m)), by the Pascal
    rule [n, m] = [n-1, m-1] + q^m [n-1, m]."""
    if m == 0 or m == n:
        return (1,)
    out = [0] * (m * (n - m) + 1)
    for e, c in enumerate(_q_binomial(n - 1, m - 1)):
        out[e] += c
    for e, c in enumerate(_q_binomial(n - 1, m)):
        out[e + m] += c
    return tuple(out)


def _dense_times(a, b) -> list:
    """Product of two polynomials given as coefficient lists from q^0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@cache
def kostka_fermionic(rs: RootSystem, mu: Weight, lam: Weight) -> QPolynomial:
    """[W(mu) : V(lam)], the graded multiplicity of V(lam) in the local Weyl
    module of mu, head at q^0, as the fermionic sum of Kirillov-Reshetikhin in
    the convention of Hatayama-Kuniba-Okado-Takagi-Yamada (1999):

        M = sum_m q^Q(m) prod_{a,i} [P_{a,i} + m_{a,i} choose m_{a,i}]_q,

    over the families with m_a = (m_{a,i})_i a partition of l_a, where
    mu - lam = sum_a l_a alpha_a, and every vacancy number
    P_{a,i} = mu_a - sum_b C_ab sum_j min(i, j) m_{b,j} >= 0 (i = 1..max l);
    Q(m) = 1/2 sum_{a,b,i,j} C_ab min(i, j) m_{a,i} m_{b,j}. It equals the
    Demazure table of _local_weyl (Chari-Loktev 2006), which `verify
    fermionic` checks. The memo hands every caller the same value."""
    if not (rs.is_dominant(mu) and rs.is_dominant(lam)):
        raise ValueError("both weights must be dominant")
    if not rs.dominance_leq(lam, mu):
        return QPolynomial.zero()
    ell = [c // rs.det for c in rs.scaled_root_coords(tuple(map(sub, mu.coeffs, lam.coeffs)))]
    depth = max(ell, default=0)
    # each partition of l_a with its sums f(i) = sum_j min(i, j) m_j, i = 1..depth
    choices = [
        [
            (part, [sum(min(i, j) * m for j, m in part.items()) for i in range(1, depth + 1)])
            for part in _partitions(l, l)
        ]
        for l in ell
    ]
    top, nbrs = mu.coeffs, rs.neighbours  # simply laced: C_ab = 2, or -1 on an edge
    family: list = [None] * rs.rank
    total: dict = {}

    def vacancy(a, placed):
        """P_{a,i}, i = 1..depth, with the nodes after `placed` at their
        largest sums f = l (parts of size one): exact once they are placed."""
        f = family[a][1]
        rest = top[a] + sum(ell[b] for b in nbrs[a] if b > placed)
        near = [family[b][1] for b in nbrs[a] if b <= placed]
        return [rest - 2 * f[i] + sum(g[i] for g in near) for i in range(depth)]

    def place(a):
        """Sum over the partitions of the nodes a.. into total, pruning each
        placement that leaves a vacancy number negative at every completion."""
        for choice in choices[a]:
            family[a] = choice
            if any(min(vacancy(b, a), default=0) < 0 for b in (a, *nbrs[a]) if b <= a):
                continue
            if a + 1 < rs.rank:
                place(a + 1)
                continue
            twice_q, term = 0, (1,)
            for b, (part, _) in enumerate(family):
                vac = vacancy(b, a)
                for i, m in part.items():  # sum_c C_bc f_c(i) = mu_b - P_{b,i}
                    twice_q += m * (top[b] - vac[i - 1])
                    term = _dense_times(term, _q_binomial(vac[i - 1] + m, m))
            for e, c in enumerate(term, twice_q // 2):
                total[e] = total.get(e, 0) + c

    place(0)
    return QPolynomial(total)


# taken once: a rebound name still clears its memo
_MEMOS = (integrable_weyl_expansion, kostka_fermionic, _q_binomial)


def clear_caches():
    """Empty every in-process memo the routes use: the expansions here and the
    caches of `characters` and `crystals`."""
    for memo in _MEMOS:
        memo.cache_clear()
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
    dominant part of w1 + Q (verified by the acceptance suite)."""
    if w1 not in level_one_weights(rs):
        raise ValueError(f"{w1} is not a level-one dominant class")
    return integrable_weyl_expansion(rs, w1, 1, N)


def kostka_by_route(
    rs: RootSystem, mu: Weight, lam: Weight, k, route: str, N=None, cache_dir=None
) -> KostkaResult:
    """Dispatch a single route; k None means the unrestricted limit."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route == "paths" and rs.family != "A":
        raise ValueError(f"route {route!r} uses the column-crystal model (type A only)")
    check_level_and_cutoff(k, N)
    for w in (mu, lam):
        if not rs.is_dominant(w):
            raise ValueError(f"{w} is not dominant")
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
