"""The integer forms of the library against the Fraction formulas they
replaced, kept here as the reference: every internal caller reads the form
det(C) C^{-1} in integers, and must give the value the Fraction code gives,
including where `int()` truncates a non-integral value toward zero."""

import random

import pytest

from weylcurrents import kostka
from weylcurrents.affine import (
    AffineWeight,
    AffineWeylElement,
    _mat_vec,
    act_affine,
    element_from_word,
    length,
    level_restricted_dominant,
    rc_norm2,
)
from weylcurrents.characters import _level_one_class, _local_weyl_top
from weylcurrents.kostka import kostka_alt_sum, required_cutoff
from weylcurrents.rootsystem import Weight, build_root_system

TYPES = [("A", n) for n in range(1, 5)] + [("D", 4), ("D", 5)] + [("E", n) for n in (6, 7, 8)]
SYSTEMS = [build_root_system(*t) for t in TYPES]
IDS = [f"{f}{n}" for f, n in TYPES]


def weight_grid(rs):
    """0, rho, each w_i and 2 w_i, w_1 + w_n, and the non-dominant -w_i and
    w_1 - w_n: every type has classes off the root lattice but E8."""
    n = rs.rank
    om = [rs.fundamental_weight(i) for i in range(1, n + 1)]
    out = [rs.zero(), rs.rho, om[0] + om[-1], om[0] - om[-1]]
    return out + om + [2 * w for w in om] + [-w for w in om]


# -- the Fraction formulas -------------------------------------------------------


def ref_gap(rs, mu, lam):
    return rs.inner(mu + rs.rho, mu + rs.rho) - rs.inner(lam + rs.rho, lam + rs.rho)


def ref_required_cutoff(rs, mu, lam, k):
    gap = ref_gap(rs, mu, lam)
    if gap <= 0:
        return 0
    q, r = divmod(int(gap), 2 * (k + rs.dual_coxeter))
    return q + (1 if r else 0)


def ref_local_weyl_top(rs, lam):
    c = _level_one_class(rs, lam)
    return int((rs.inner(lam, lam) - rs.inner(c, c)) / 2)


def ref_act_affine(rs, g, w):
    gamma = rs.from_root_coords(g.translation)
    lam, k, m = w
    pairing = int(rs.inner(lam, gamma))
    moved = lam + k * gamma
    m2 = m - pairing - (k * rc_norm2(rs, g.translation)) // 2
    return AffineWeight(Weight(_mat_vec(g.matrix, moved.coeffs)), k, m2)


def ref_length(rs, g):
    gamma = rs.from_root_coords(g.translation)
    total = 0
    for alpha in rs.positive_roots:
        ip = int(rs.inner(gamma, alpha))
        walpha_rc = rs.root_coords(Weight(_mat_vec(g.matrix, alpha.coeffs)))
        total += abs(ip) if all(c >= 0 for c in walpha_rc) else abs(ip + 1)
    return total


# -- the comparisons ------------------------------------------------------------


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_dual_coxeter_and_local_weyl_top(rs):
    assert rs.dual_coxeter == int(rs.inner(rs.highest_root, rs.rho)) + 1
    for lam in weight_grid(rs):
        assert _local_weyl_top(rs, lam) == ref_local_weyl_top(rs, lam), lam


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_required_cutoff_and_max_offset(rs, monkeypatch):
    grid = weight_grid(rs)
    for mu in grid:
        for lam in grid:
            for k in (1, 2, 3):
                assert required_cutoff(rs, mu, lam, k) == ref_required_cutoff(rs, mu, lam, k)
    # altsum's max_offset is the cutoff it hands the coset sweep
    offsets = []
    monkeypatch.setattr(kostka, "cosets_up_to_shift", lambda rs, lam, k, N: offsets.append(N) or [])
    cases = [
        (mu, lam, k)
        for k in (1, 2)
        for lam in level_restricted_dominant(rs, k)[:6]
        for mu in grid
        if rs.is_dominant(mu)
    ]
    gaps = [ref_gap(rs, mu, lam) for mu, lam, _ in cases]
    for mu, lam, k in cases:
        kostka_alt_sum(rs, mu, lam, k)
    assert offsets == [gap // (2 * (k + rs.dual_coxeter)) for gap, (_, _, k) in zip(gaps, cases)]
    assert any(gap <= 0 for gap in gaps)
    # mu off the class of lam: a non-integral gap of each sign, where norms
    # are non-integral (all but D4 and E8)
    if any(rs.inner(w, w).denominator > 1 for w in grid):
        assert any(gap < 0 and gap.denominator > 1 for gap in gaps)
        assert any(gap > 0 and gap.denominator > 1 for gap in gaps)


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_act_affine_and_length(rs):
    rng = random.Random(rs.rank)
    n = rs.rank
    words = [[rng.randrange(n + 1) for _ in range(rng.randrange(7))] for _ in range(12)]
    elements = [element_from_word(rs, word) for word in words]
    elements += [AffineWeylElement.translation_by(rs, rc) for rc in ((1,) * n, (-1,) + (0,) * (n - 1))]
    weights = [
        AffineWeight(lam, k, m) for lam in weight_grid(rs)[:8] for k, m in ((0, 0), (1, 2), (2, -1))
    ]
    for g in elements:
        assert length(rs, g) == ref_length(rs, g)
        for w in weights:
            assert act_affine(rs, g, w) == ref_act_affine(rs, g, w)


def test_reflect_root_truncates_toward_zero():
    # for a root the pairing is an integer, so the Fraction code's int() cut
    # nothing; a weight that is not a root is refused: (w1, w1) = 2/3, which
    # the Fraction code truncated to 0, and 2 alpha_1 has (., .) = 8
    a2 = build_root_system("A", 2)
    w1 = a2.fundamental_weight(1)
    for alpha in (a2.highest_root, -a2.highest_root, *a2.simple_roots):
        for lam in weight_grid(a2):
            pairing = a2.inner(alpha, lam)
            assert a2.reflect_root(alpha, lam) == lam - int(pairing) * alpha
    for alpha in (w1, -w1, 2 * a2.simple_roots[0]):
        with pytest.raises(ValueError, match="is not a root$"):
            a2.reflect_root(alpha, w1)

