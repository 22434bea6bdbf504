import random
from fractions import Fraction

import pytest

from weylcurrents.characters import _placed_forms
from weylcurrents.rootsystem import Weight, _integer_inverse, build_root_system, parse_type


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def d4():
    return build_root_system("D", 4)


def test_a1_data(a1):
    assert a1.cartan == ((2,),)
    assert list(a1.positive_roots) == [Weight([2])]
    assert a1.highest_root == Weight([2])
    assert a1.dual_coxeter == 2


def test_a2_data(a2):
    assert len(a2.positive_roots) == 3
    assert a2.highest_root == Weight([1, 1])
    assert a2.highest_root == a2.simple_roots[0] + a2.simple_roots[1]
    assert a2.dual_coxeter == 3


def test_d4_and_e6_counts(d4):
    assert len(d4.positive_roots) == 12
    assert d4.dual_coxeter == 6
    e6 = build_root_system("E", 6)
    assert len(e6.positive_roots) == 36
    assert e6.dual_coxeter == 12


def test_large_exceptional_data():
    e7 = build_root_system("E", 7)
    assert (len(e7.positive_roots), e7.dual_coxeter) == (63, 18)
    assert e7.highest_root == e7.fundamental_weight(1)
    e8 = build_root_system("E", 8)
    assert (len(e8.positive_roots), e8.dual_coxeter) == (120, 30)
    assert e8.highest_root == e8.fundamental_weight(8)


def test_invalid_types_rejected():
    for family, rank in (("B", 2), ("D", 3), ("E", 9), ("A", 0), ("F", 4)):
        with pytest.raises(ValueError):
            build_root_system(family, rank)


def test_parse_type():
    assert parse_type("A2").rank == 2
    assert parse_type("d4").family == "D"
    with pytest.raises(ValueError, match="e.g. 'A2'"):
        parse_type("A")


def test_reflection_examples(a1, a2):
    assert a1.reflect(1, Weight([1])) == Weight([-1])
    lam = Weight([1, 1])
    assert a2.reflect(1, a2.reflect(1, lam)) == lam
    assert a2.reflect(2, Weight([1, 0])) == Weight([1, 0])
    with pytest.raises(ValueError):
        a1.reflect(2, Weight([1]))


def test_fundamental_weight_index_in_range(a2):
    assert [a2.fundamental_weight(i) for i in (1, 2)] == [Weight([1, 0]), Weight([0, 1])]
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"^fundamental-weight index {i} out of range 1\.\.2$"):
            a2.fundamental_weight(i)


def test_inner_products(a1, a2):
    w = Weight([1])
    assert a1.inner(w, w) == Fraction(1, 2)
    assert a1.inner(a1.simple_roots[0], a1.simple_roots[0]) == 2
    assert a2.inner(Weight([1, 0]), Weight([0, 1])) == Fraction(1, 3)
    # (varpi_i, alpha_j) = delta_ij and (varpi_i, varpi_j) = inverse Cartan
    for i in range(2):
        ei = Weight([1 if t == i else 0 for t in range(2)])
        for j in range(2):
            ej = Weight([1 if t == j else 0 for t in range(2)])
            assert a2.inner(ei, a2.simple_roots[j]) == (1 if i == j else 0)
            assert a2.inner(ei, ej) == a2.inverse_cartan[i][j]


def test_inner_weyl_invariance(a2, d4):
    rng = random.Random(11)
    for rs in (a2, d4):
        for _ in range(25):
            lam = Weight([rng.randint(-3, 3) for _ in range(rs.rank)])
            mu = Weight([rng.randint(-3, 3) for _ in range(rs.rank)])
            i = rng.randint(1, rs.rank)
            assert rs.inner(rs.reflect(i, lam), rs.reflect(i, mu)) == rs.inner(lam, mu)


def test_dominance(a1, a2):
    assert a1.dominance_leq(Weight([0]), Weight([2]))
    assert a2.dominance_leq(Weight([0, 0]), Weight([1, 1]))
    assert not a2.dominance_leq(Weight([1, 0]), Weight([0, 1]))
    assert not a1.dominance_leq(Weight([0]), Weight([1]))  # not in the root lattice


def test_dominance_is_partial_order(a2):
    rng = random.Random(5)
    pool = [Weight([rng.randint(-2, 3), rng.randint(-2, 3)]) for _ in range(30)]
    for lam in pool:
        assert a2.dominance_leq(lam, lam)
    for lam in pool:
        for mu in pool:
            if a2.dominance_leq(lam, mu) and a2.dominance_leq(mu, lam):
                assert lam == mu
            for nu in pool:
                if a2.dominance_leq(lam, mu) and a2.dominance_leq(mu, nu):
                    assert a2.dominance_leq(lam, nu)


def test_freudenthal_sl2(a1):
    table = a1.freudenthal_weights(Weight([2]))
    assert table == {Weight([2]): 1, Weight([0]): 1, Weight([-2]): 1}
    assert a1.freudenthal_weights(Weight([0])) == {Weight([0]): 1}
    with pytest.raises(ValueError):
        a1.freudenthal_weights(Weight([-1]))


def test_freudenthal_adjoint_sl3(a2):
    table = a2.freudenthal_weights(Weight([1, 1]))
    assert table[Weight([0, 0])] == 2
    assert sum(table.values()) == 8
    assert a2.weyl_dimension(Weight([1, 1])) == 8


def test_freudenthal_vector_rep(a2):
    table = a2.freudenthal_weights(Weight([1, 0]))
    assert len(table) == 3 and set(table.values()) == {1}


def test_freudenthal_dimension_oracle(a2, d4):
    rng = random.Random(3)
    for rs in (a2, d4):
        for _ in range(4):
            lam = Weight([rng.randint(0, 2) for _ in range(rs.rank)])
            table = rs.freudenthal_weights(lam)
            assert sum(table.values()) == rs.weyl_dimension(lam)
            # W-orbit constancy
            for w, m in list(table.items())[:10]:
                for v in rs.weyl_orbit(w):
                    assert table[v] == m


def test_longest_element(a2, d4):
    # w_0 = -1 in D4; in A2 it is minus the coordinate flip
    assert d4.longest_element_image(Weight([1, 2, 3, 4])) == Weight([-1, -2, -3, -4])
    assert a2.longest_element_image(Weight([2, 1])) == Weight([-1, -2])


def test_weight_rejects_non_integral_coordinates():
    # one rule for every coordinate type: accepted only when int(c) == c
    for bad in (Fraction(1, 2), 1.5, "2"):
        with pytest.raises(ValueError, match="non-integral weight coordinate"):
            Weight([bad, 0])
    assert Weight([Fraction(4, 2), 1]) == Weight([2, 1])
    assert Weight([Fraction(4, 2)]).coeffs == (2,) and type(Weight([Fraction(4, 2)]).coeffs[0]) is int
    # arithmetic on two weights stays integral and checked by rank
    w = Weight([3, -1]) + Weight([1, 2]) - Weight([0, 1])
    assert w == Weight([4, 0]) and all(type(c) is int for c in w.coeffs)
    with pytest.raises(ValueError):
        Weight([1]) + Weight([1, 0])


def test_integer_form_matches_fraction_inverse(d4):
    for rs in (build_root_system("A", 3), d4, build_root_system("E", 6)):
        n = rs.rank
        for i in range(n):
            for j in range(n):
                expected = sum(
                    Fraction(rs.form[i][t]) * rs.cartan[t][j] for t in range(n)
                )
                assert expected == (rs.det if i == j else 0)


def _fraction_inverse(M):
    """(det M, det M * M^{-1}) by Gauss-Jordan elimination over Fraction, the
    reference for the fraction-free `_integer_inverse`."""
    n = len(M)
    A = [[Fraction(x) for x in [*row, *(int(i == j) for j in range(n))]] for i, row in enumerate(M)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        piv = A[c][c]
        det *= piv
        A[c] = [x / piv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    adj = tuple(tuple(x * det for x in row[n:]) for row in A)
    assert det.denominator == 1 and all(x.denominator == 1 for row in adj for x in row)
    return int(det), tuple(tuple(int(x) for x in row) for row in adj)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8"])
def test_integer_inverse_equals_the_fraction_inverse(name):
    # the Cartan matrix and every placed-form matrix of `_placed_forms`, on
    # the breadth-first node orders the fermionic sum can take: from each leaf,
    # neighbours in increasing and in decreasing index order. These are
    # positive definite, so two matrices whose elimination swaps rows join them.
    rs = parse_type(name)
    matrices = [rs.cartan, ((0, 1), (1, 0)), ((0, 2, 1), (1, 1, 0), (3, 0, 1))]
    for start in (a for a in range(rs.rank) if len(rs.neighbours[a]) <= 1):
        for by_l in (range(rs.rank), range(rs.rank - 1, -1, -1)):
            order = [start]
            for a in order:
                order += [b for b in by_l if b in rs.neighbours[a] and b not in order]
            blocks = [
                [[rs.form[a][b] for b in order[:p]] for a in order[:p]] for p in range(1, rs.rank + 1)
            ]
            assert _placed_forms(rs, tuple(order)) == [_integer_inverse(M) for M in blocks]
            matrices += blocks
    for M in matrices:
        det, adj = _integer_inverse(M)
        assert (det, adj) == _fraction_inverse(M)
        n = len(M)
        product = [[sum(M[i][t] * adj[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)]
