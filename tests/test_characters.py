import functools
import random
from itertools import product

import pytest

from weylcurrents.affine import (
    cosets_up_to_shift,
    level_restricted_dominant,
)
from weylcurrents.characters import (
    GradedCharacter,
    _hilbert_dense,
    char_global_weyl,
    char_integrable,
    char_integrable_dominant,
    char_irreducible,
    char_local_weyl,
    char_parabolic_verma,
    demazure_word,
    expand_in_global_weyl,
    expand_in_irreducibles,
    hilbert_series,
)
from weylcurrents.errors import ExpansionError, StructuralError
from weylcurrents.qseries import QPolynomial, geometric_series
from weylcurrents.rootsystem import Weight, build_root_system
from weylcurrents.verify import brute_force_induced_factor, full_word_local_weyl

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)

one = QPolynomial.one()
q = QPolynomial.monomial(1)


def test_char_irreducible():
    ch = char_irreducible(A1, Weight([2]))
    assert ch.terms == {Weight([2]): one, Weight([0]): one, Weight([-2]): one}
    assert char_irreducible(A1, Weight([0])).terms == {Weight([0]): one}
    ch = char_irreducible(A2, Weight([1, 0]))
    assert len(ch.terms) == 3 and all(p == one for p in ch.terms.values())
    with pytest.raises(ValueError):
        char_irreducible(A1, Weight([-1]))


def test_parabolic_verma_against_brute_force():
    # N = 0: bare irreducible character
    assert char_parabolic_verma(A1, Weight([1]), 0) == char_irreducible(A1, Weight([1]))
    # expected values computed by the independent monomial-enumeration oracle
    for rs, lam, N in ((A1, Weight([0]), 3), (A1, Weight([2]), 2), (A2, Weight([0, 0]), 2)):
        oracle = brute_force_induced_factor(rs, N) * char_irreducible(rs, lam)
        assert char_parabolic_verma(rs, lam, N) == oracle.truncated(N)


def brute_force_pbw(rs, N):
    """prod_{n>=1} (1-q^n)^{-rank} prod_alpha (1-q^n e^alpha)^{-1} up to q^N,
    one geometric factor at a time with plain dicts: coeffs -> {degree: coeff}."""
    zero = (0,) * rs.rank
    roots = [a.coeffs for a in rs.positive_roots]
    roots += [tuple(-c for c in a) for a in roots]
    factors = [(zero, n) for n in range(1, N + 1) for _ in range(rs.rank)]
    factors += [(a, n) for n in range(1, N + 1) for a in roots]
    acc = {(zero, 0): 1}
    for step, n in factors:
        out = dict(acc)
        for (w, d), c in acc.items():
            for j in range(1, (N - d) // n + 1):
                key = (tuple(x + j * y for x, y in zip(w, step)), d + j * n)
                out[key] = out.get(key, 0) + c
        acc = out
    table = {}
    for (w, d), c in acc.items():
        table.setdefault(w, {})[d] = c
    return table


def test_parabolic_verma_desk_values():
    pv = char_parabolic_verma(A1, Weight([0]), 2)
    # degree-1 layer is the adjoint: weights alpha, 0, -alpha
    assert pv.coeff(Weight([2])).coeff(1) == 1
    assert pv.coeff(Weight([0])).coeff(1) == 1
    # weight-0 coefficient at q^2 is 3 (monomials e1 f1, h1^2, h2); the value 4
    # is inconsistent with the level-one character 1 + q + 2q^2
    assert pv.coeff(Weight([0])).coeff(2) == 3


def test_integrable_a1_level_one():
    L = char_integrable(A1, Weight([0]), 1, 2)
    assert L.coeff(Weight([0])) == QPolynomial({0: 1, 1: 1, 2: 2})
    assert L.coeff(Weight([2])) == QPolynomial({1: 1, 2: 1})
    assert L.coeff(Weight([-2])) == QPolynomial({1: 1, 2: 1})
    assert char_integrable(A1, Weight([0]), 3, 0).terms == {Weight([0]): one}
    with pytest.raises(ValueError):
        char_integrable(A1, Weight([2]), 1, 2)


def test_integrable_nonneg_and_weyl_invariant():
    for rs, lams, k in ((A1, level_restricted_dominant(A1, 2), 2), (A2, level_restricted_dominant(A2, 1), 1)):
        for lam in lams:
            L = char_integrable(rs, lam, k, 6)
            assert L.has_nonneg_coeffs()
            for w, p in L.terms.items():
                for v in rs.weyl_orbit(w):
                    assert L.coeff(v) == p


def test_demazure_word_strings():
    # D_0(e^{Lambda0}) = e^{Lambda0} + e^{Lambda0 - alpha_0} = e^{Lambda0} + q e^{2 w1}
    vacuum = GradedCharacter.monomial(Weight([0]))
    d = demazure_word(A1, [0], vacuum, 1)
    assert d.terms == {Weight([0]): one, Weight([2]): q}
    # cut case: the q e^{2 w1} term lies above cutoff 0
    cut = demazure_word(A1, [0], GradedCharacter.monomial(Weight([0]), cutoff=0), 1)
    assert cut.terms == {Weight([0]): one} and cut.cutoff == 0
    # a two-node word is the two one-node calls in turn
    assert demazure_word(A1, [0, 1], vacuum, 1) == demazure_word(A1, [1], d, 1)
    # wall case at level 0: pairing 0 kills the term
    wall = GradedCharacter.monomial(Weight([-1]))
    assert demazure_word(A1, [1], wall, 0).terms == {}
    # negative branch: m = -2 gives two subtracted terms (forced by the
    # divided-difference definition; makes the operator idempotent)
    c = GradedCharacter.monomial(Weight([-3]))
    d = demazure_word(A1, [1], c, 0)
    assert d.terms == {Weight([-1]): -one, Weight([1]): -one}
    # a node outside 0..rank: -1 read D_1 through a negative index, 3 an IndexError
    for node in (-1, 3):
        with pytest.raises(ValueError, match=f"^affine index {node} out of range 0..2$"):
            demazure_word(A2, [node], GradedCharacter.monomial(Weight([1, 0])), 1)


def test_demazure_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = Weight([rng.randint(-3, 3), rng.randint(-3, 3)])
            terms.setdefault(w, {})[-rng.randint(-2, 0)] = rng.randint(-2, 2)
        c = GradedCharacter(terms)
        for i in (0, 1, 2):
            assert demazure_word(A2, [i, i], c, 1) == demazure_word(A2, [i], c, 1)


def test_local_weyl_a1():
    assert char_local_weyl(A1, Weight([0])).terms == {Weight([0]): one}
    assert char_local_weyl(A1, Weight([1])).terms == {Weight([1]): one, Weight([-1]): one}
    ch = char_local_weyl(A1, Weight([2]))
    assert ch.terms == {
        Weight([2]): one,
        Weight([0]): one + q,
        Weight([-2]): one,
    }
    assert ch.dimension_at_q1() == 4


def test_local_weyl_fundamental_a2():
    for i in (1, 2):
        ch = char_local_weyl(A2, A2.fundamental_weight(i))
        assert ch == char_irreducible(A2, A2.fundamental_weight(i))


def test_local_weyl_minuscule_beyond_type_a():
    # minuscule classes across families: the module is the bare irreducible
    for family, rank, node, dim in (("D", 4, 1, 8), ("E", 6, 1, 27), ("E", 7, 7, 56)):
        rs = build_root_system(family, rank)
        w = rs.fundamental_weight(node)
        ch = char_local_weyl(rs, w)
        assert ch == char_irreducible(rs, w)
        assert ch.dimension_at_q1() == dim
    # a non-minuscule class: the adjoint-type module picks up one graded level
    d4 = build_root_system("D", 4)
    theta_ch = char_local_weyl(d4, d4.highest_root)
    assert theta_ch.dimension_at_q1() == 29
    assert theta_ch.coeff(d4.zero()) == QPolynomial({0: 4, 1: 1})


def test_global_weyl():
    gw = char_global_weyl(A1, Weight([1]), 2)
    s = QPolynomial({0: 1, 1: 1, 2: 1})
    assert gw.terms == {Weight([1]): s, Weight([-1]): s}
    assert char_global_weyl(A1, Weight([0]), 5).terms == {Weight([0]): one}
    assert char_global_weyl(A1, Weight([2]), 1).coeff(Weight([2])) == one + q


def test_hilbert_helpers():
    lam = Weight([2, 1])
    num = QPolynomial(dict(enumerate(_hilbert_dense(lam.coeffs, 4, False))))
    assert num == QPolynomial({0: 1, 1: -2, 3: 2, 4: -1})  # (1-q)^2 (1-q^2)
    ser = hilbert_series(lam, 8)
    assert (num * ser).truncated(hi=8) == one
    assert _hilbert_dense((0, 0), 3, False) == [1, 0, 0, 0]
    # 1/((1-q)(1-q^2)) * extra (1-q) factor from m_2 = 1
    assert hilbert_series(Weight([2, 0]), 4) == (
        geometric_series(1, 4) * geometric_series(2, 4)
    ).truncated(hi=4)


def test_expand_basis_element_roundtrip():
    for rs, lam in ((A1, Weight([3])), (A2, Weight([1, 1]))):
        gw = char_global_weyl(rs, lam, 7)
        ex = expand_in_global_weyl(rs, gw)
        assert ex.multiplicities == {lam: one}


def test_expand_integrable_level_one():
    L = char_integrable(A1, Weight([0]), 1, 6)
    ex = expand_in_global_weyl(A1, L)
    assert ex.multiplicities == {
        Weight([0]): one,
        Weight([2]): q,
        Weight([4]): QPolynomial.monomial(4),
    }
    assert ex.trusted_degree == 6


def test_expand_parabolic_verma_matches_local_weyl_multiplicities():
    # the projective-module reciprocity: multiplicities of the induced module
    # in the global-Weyl basis equal graded multiplicities of V(lam) inside
    # local Weyl modules, compared within the trusted window
    N = 8
    for lam in (Weight([0]), Weight([1]), Weight([2])):
        ex = expand_in_global_weyl(A1, char_parabolic_verma(A1, lam, N))
        assert ex.multiplicities, "induced module must contain global Weyl factors"
        for mu, poly in ex.multiplicities.items():
            table = expand_in_irreducibles(A1, char_local_weyl(A1, mu))
            oracle = table.get(lam, QPolynomial.zero()).truncated(hi=ex.trusted_degree)
            assert poly == oracle
            assert poly.has_nonneg_coeffs()


def test_expansion_is_linear_on_differences():
    # the expansion is a genuine basis expansion: it reports negative
    # coefficients faithfully instead of failing
    diff = char_global_weyl(A1, Weight([4]), 6) - char_global_weyl(A1, Weight([2]), 6)
    ex = expand_in_global_weyl(A1, diff)
    assert ex.multiplicities == {Weight([4]): one, Weight([2]): -1 * one}


def test_expand_detects_inconsistency(monkeypatch):
    import weylcurrents.characters as chars

    real = chars.kostka_fermionic

    def corrupted(rs, mu, lam, *cap):
        entry = real(rs, mu, lam, *cap)
        return entry + QPolynomial.monomial(1) if mu == lam else entry

    # the head entry [W(nu) : V(nu)] of each local Weyl table the peel reads,
    # one degree up: inside the window from the second highest weight on
    monkeypatch.setattr(chars, "kostka_fermionic", corrupted)
    with pytest.raises(ExpansionError):
        chars.expand_in_global_weyl(A1, char_integrable(A1, Weight([0]), 1, 4))


def test_local_weyl_dimension_multiplicative():
    d4 = build_root_system("D", 4)
    cases = (
        (A1, Weight([3])),
        (A2, Weight([2, 1])),
        (A2, Weight([1, 1])),
        (d4, Weight([1, 0, 1, 0])),
        (d4, Weight([0, 1, 0, 1])),
    )
    for rs, lam in cases:
        total = char_local_weyl(rs, lam).dimension_at_q1()
        prod = 1
        for i, m in enumerate(lam.coeffs, start=1):
            prod *= char_local_weyl(rs, rs.fundamental_weight(i)).dimension_at_q1() ** m
        assert total == prod


def test_dimension_is_the_number_of_weights():
    cases = [(build_root_system("A", n), 2) for n in range(1, 5)]
    cases += [(build_root_system("D", 4), 2), (build_root_system("D", 5), 2)]
    cases += [(build_root_system("E", 6), 1)]
    for rs, top in cases:
        for lam in product(range(top + 1), repeat=rs.rank):
            if sum(lam) <= top:
                want = sum(rs.freudenthal_weights(Weight(lam)).values())
                assert rs.weyl_dimension(Weight(lam)) == want, (rs, lam)


# -- the Weyl-Kac ratio: denominator, tensor products, division -------------


def spread(rs, layers):
    """Irreducible-basis layers as full weight tables, {(coeffs, degree): coeff}."""
    out = {}
    for d, layer in enumerate(layers):
        for lam, m in layer.items():
            for w, mult in rs.freudenthal_weights(Weight(lam)).items():
                key = (w.coeffs, d)
                out[key] = out.get(key, 0) + m * mult
    return {key: c for key, c in out.items() if c}


def test_denominator_inverts_the_induced_factor():
    import weylcurrents.characters as chars

    for family, rank, N in (("A", 1, 8), ("A", 2, 4), ("A", 3, 3), ("D", 4, 3), ("E", 6, 2)):
        rs = build_root_system(family, rank)
        delta = spread(rs, chars._denominator(rs, N))
        factor = {
            (w.coeffs, d): c
            for w, p in brute_force_induced_factor(rs, N).items()
            for d, c in p.items()
        }
        by_degree = {}
        for (w, d), c in factor.items():
            by_degree.setdefault(d, []).append((w, c))
        product_ = {}
        for (w1, d1), c1 in delta.items():
            for d2 in range(N + 1 - d1):
                for w2, c2 in by_degree.get(d2, ()):
                    key = (tuple(map(sum, zip(w1, w2))), d1 + d2)
                    product_[key] = product_.get(key, 0) + c1 * c2
        assert {key: c for key, c in product_.items() if c} == {(rs.zero().coeffs, 0): 1}, rs


def test_ratio_matches_numerator_times_the_pbw_factor():
    # the Weyl-Kac formula as a product: the coset numerator spread over full
    # orbits times the brute-force PBW factor, on every dominant weight
    import weylcurrents.characters as chars

    d4 = build_root_system("D", 4)
    instances = [
        (rs, lam, k, N)
        for rs, k_max, N in ((A1, 3, 10), (A2, 2, 6))
        for k in range(1, k_max + 1)
        for lam in level_restricted_dominant(rs, k)
    ]
    instances += [(d4, d4.zero(), 1, 3), (d4, d4.fundamental_weight(1), 1, 3)]
    for rs, lam, k, N in instances:
        numerator = [{} for _ in range(N + 1)]
        for rep in cosets_up_to_shift(rs, lam, k, N):
            layer = numerator[rep.offset]
            image = rep.image.classical.coeffs
            layer[image] = layer.get(image, 0) + rep.sign
        pbw = brute_force_pbw(rs, N)
        want = {}
        for (w, d1), c in spread(rs, numerator).items():
            for u, series in pbw.items():
                nu = tuple(map(sum, zip(w, u)))
                if min(nu) >= 0:
                    row = want.setdefault(nu, {})
                    for d2, c2 in series.items():
                        if d1 + d2 <= N:
                            row[d1 + d2] = row.get(d1 + d2, 0) + c * c2
        want = {Weight(nu): QPolynomial(row) for nu, row in sorted(want.items())}
        got = chars.char_integrable_dominant(rs, lam, k, N)
        assert list(got.items()) == [(w, p) for w, p in want.items() if p], (rs, lam, k)


def test_tensor_product_is_symmetric_and_multiplies_dimensions():
    import weylcurrents.characters as chars

    d4 = build_root_system("D", 4)
    pairs = [
        (A2, (1, 0), (0, 1)),
        (A2, (1, 1), (1, 1)),
        (A2, (2, 1), (1, 0)),  # the smaller factor comes second
        (A2, (0, 0), (3, 0)),
        (d4, (1, 0, 0, 0), (0, 0, 1, 0)),
        (d4, (0, 1, 0, 0), (0, 0, 0, 1)),  # the smaller factor comes second
        (d4, (1, 0, 1, 0), (0, 1, 0, 0)),
    ]
    for rs, a, b in pairs:
        ab, ba = chars._tensor(rs, a, b), chars._tensor(rs, b, a)
        assert ab == ba and chars._times(rs, b, a) == ab, (rs, a, b)
        dims = {lam: rs.weyl_dimension(Weight(lam)) for lam in (a, b, *ab)}
        assert sum(m * dims[lam] for lam, m in ab.items()) == dims[a] * dims[b]
        weight_basis = char_irreducible(rs, Weight(a)) * char_irreducible(rs, Weight(b))
        want = {w.coeffs: p.coeff(0) for w, p in expand_in_irreducibles(rs, weight_basis).items()}
        assert ab == want, (rs, a, b)


def test_ratio_checks_the_denominator_and_the_head(monkeypatch):
    import weylcurrents.characters as chars

    real_sweep = chars._alcove_sweep

    def flipped(rs, lam_rho, L, N):
        # one more reflection on every coset: each sign of Delta flips
        for nu, offset, word in real_sweep(rs, lam_rho, L, N):
            yield nu, offset, word + [0]

    chars.clear_caches()
    monkeypatch.setattr(chars, "_alcove_sweep", flipped)
    with pytest.raises(StructuralError, match="denominator"):
        chars.char_integrable_dominant(A1, Weight([0]), 1, 4)
    monkeypatch.undo()

    def headless(rs, lam_rho, L, N):
        # drop the identity coset of the numerator; Delta (lam_rho = rho) keeps it
        for nu, offset, word in real_sweep(rs, lam_rho, L, N):
            if offset or lam_rho == rs.rho:
                yield nu, offset, word

    chars.clear_caches()
    monkeypatch.setattr(chars, "_alcove_sweep", headless)
    with pytest.raises(StructuralError, match="ratio"):
        chars.char_integrable_dominant(A2, Weight([1, 0]), 1, 3)
    monkeypatch.undo()
    chars.clear_caches()


def orbit_expansion(rs, char, N=None):
    """The expansion loop over full-orbit global Weyl characters, with
    QPolynomial arithmetic throughout."""
    if isinstance(char, GradedCharacter):
        if N is None:
            N = char.cutoff
        residual = dict(char.dominant_part(rs))
    else:
        residual = {w: p for w, p in char.items() if p}
    mults = {}
    while residual:
        nu = max(residual, key=lambda w: (sum(rs.scaled_root_coords(w.coeffs)), w.coeffs))
        numerator = one
        for m in nu.coeffs:
            for j in range(1, m + 1):
                numerator = numerator * QPolynomial({0: 1, j: -1})
        m = (residual[nu] * numerator).truncated(hi=N)
        mults[nu] = m
        for w, p in char_global_weyl(rs, nu, N).dominant_part(rs).items():
            upd = (residual.get(w, QPolynomial.zero()) - m * p).truncated(hi=N)
            if upd:
                residual[w] = upd
            elif w in residual:
                del residual[w]
        if nu in residual:
            raise ExpansionError(f"expansion failed to clear weight {nu}")
    return mults


def test_dense_expansion_matches_the_orbit_loop():
    import weylcurrents.characters as chars

    inputs = [
        (rs, chars.char_integrable_dominant(rs, lam, k, 12), 12)
        for rs, levels in ((A1, (1, 2, 3)), (A2, (1, 2)))
        for k in levels
        for lam in level_restricted_dominant(rs, k)
    ]
    inputs += [(A1, char_parabolic_verma(A1, Weight([m]), 8), None) for m in (0, 1, 2)]
    inputs += [(A2, char_parabolic_verma(A2, Weight([1, 0]), 5), None)]
    for rs, big, small in ((A1, Weight([4]), Weight([2])), (A2, Weight([2, 1]), Weight([1, 0]))):
        diff = char_global_weyl(rs, big, 6) - char_global_weyl(rs, small, 6)
        inputs.append((rs, diff, None))
    # Laurent input: the window starts at q^-1
    for rs, lam in ((A1, Weight([2])), (A2, Weight([1, 1]))):
        shifted = char_global_weyl(rs, rs.zero(), 6).scaled(QPolynomial.monomial(-1))
        inputs.append((rs, shifted + char_global_weyl(rs, lam, 6), None))
    chars.clear_caches()
    dense = [expand_in_global_weyl(rs, ch, N) for rs, ch, N in inputs]
    chars.clear_caches()
    reference = [orbit_expansion(rs, ch, N) for rs, ch, N in inputs]
    chars.clear_caches()
    for got, want, (_, ch, N) in zip(dense, reference, inputs):
        assert list(got.multiplicities.items()) == list(want.items())
        assert got.trusted_degree == (ch.cutoff if N is None else N)
    assert any(p.min_exponent() < 0 for got in dense for p in got.multiplicities.values())
    assert any(not p.has_nonneg_coeffs() for got in dense for p in got.multiplicities.values())
    # a shifted global Weyl character with an infinite Hilbert series: the
    # basis is carried to q^(N+1), where the orbit loop cut it at q^N and failed
    for rs, lam in ((A1, Weight([3])), (A2, Weight([1, 1]))):
        shifted = char_global_weyl(rs, lam, 6).scaled(QPolynomial.monomial(-1))
        got = expand_in_global_weyl(rs, shifted, 5)
        assert got.multiplicities == {lam: QPolynomial.monomial(-1)}
        with pytest.raises(ExpansionError):
            orbit_expansion(rs, shifted, 5)


def test_scaling_by_a_negative_power_lowers_the_cutoff():
    # q^-1 times a character cut at q^6 is known only up to q^5; keeping the
    # cutoff at 6 made the expansion read the missing q^6 terms as zeros
    shifted = char_global_weyl(A1, Weight([3]), 6).scaled(QPolynomial.monomial(-1))
    assert shifted.cutoff == 5
    got = expand_in_global_weyl(A1, shifted)
    assert got.multiplicities == {Weight([3]): QPolynomial.monomial(-1)}
    assert got.trusted_degree == 5
    assert char_global_weyl(A1, Weight([3]), 6).scaled(q * q).cutoff == 6


def test_truncating_never_raises_the_cutoff():
    # a character known up to q^6 cut "at q^8" is still known only up to q^6;
    # claiming q^8 made the expansion read the missing q^7, q^8 terms as zeros
    gw = char_global_weyl(A1, Weight([3]), 6)
    assert gw.truncated(8).cutoff == 6
    assert gw.truncated(4).cutoff == 4
    got = expand_in_global_weyl(A1, gw.truncated(8))
    assert got.multiplicities == {Weight([3]): one}
    assert got.trusted_degree == 6
    assert GradedCharacter({Weight([0]): one}).truncated(3).cutoff == 3


def test_product_with_a_negative_power_lowers_the_cutoff():
    # as for scaled: each factor's cutoff drops by the other factor's least
    # negative exponent
    gw = char_global_weyl(A1, Weight([3]), 6)
    shift = GradedCharacter({Weight([0]): QPolynomial.monomial(-1)})
    for prod in (gw * shift, shift * gw):
        assert prod.cutoff == 5
        assert expand_in_global_weyl(A1, prod).multiplicities == {
            Weight([3]): QPolynomial.monomial(-1)
        }
    assert (gw * GradedCharacter({Weight([0]): q})).cutoff == 6


def test_multiplying_by_zero_gives_the_zero_character():
    # a factor with no nonzero term made the lowered cutoff min(0) of nothing,
    # a TypeError
    gw = char_global_weyl(A1, Weight([1]), 3)
    for prod in (
        gw * GradedCharacter({}, cutoff=3),
        GradedCharacter({}, cutoff=3) * gw,
        gw.scaled(QPolynomial.zero()),
    ):
        assert prod.is_zero() and prod.cutoff == 3
    assert char_global_weyl(A1, Weight([1]), -1).is_zero()


def test_integrable_layers_extend_one_solved_prefix(monkeypatch):
    import weylcurrents.characters as chars

    real_ratio = chars._ratio
    solves = []

    def counted(rs, lam, sweep, N, solved=()):
        solves.append((len(solved), N))
        return real_ratio(rs, lam, sweep, N, solved)

    D4 = build_root_system("D", 4)
    for rs, lam, k in ((A2, Weight([1, 0]), 2), (D4, Weight([0, 0, 0, 0]), 1)):
        chars.clear_caches()
        fresh = {N: chars._integrable_layers(rs, lam, k, N) for N in (6, 2)}
        chars.clear_caches()
        # one solved prefix per (lam, k), extended from its last degree
        solves.clear()
        monkeypatch.setattr(chars, "_ratio", counted)
        for N in (2, 4, 6, 3):
            layers = chars._integrable_layers(rs, lam, k, N)
            assert len(layers) == N + 1
            assert layers == fresh[6][: N + 1]
        monkeypatch.undo()
        assert solves == [(0, 2), (3, 4), (5, 6)]
        assert fresh[2] == fresh[6][:3]
        assert chars._solved_layers.cache_info().currsize == 1
        assert len(chars._solved_layers(rs, lam, k)) == 7
        with pytest.raises(ValueError, match="cutoff N must be >= 0"):
            chars._integrable_layers(rs, lam, k, -1)
    chars.clear_caches()


def test_negative_cutoff_is_rejected_by_every_ratio():
    # N = -1 reached the denominator's empty layer list, an IndexError
    for call in (
        lambda: char_integrable_dominant(A1, Weight([0]), 1, -1),
        lambda: char_integrable(A2, Weight([1, 0]), 1, -1),
        lambda: char_parabolic_verma(A1, Weight([1]), -1),
    ):
        with pytest.raises(ValueError, match="cutoff N must be >= 0"):
            call()


def test_local_weyl_table_matches_the_full_word_strings():
    import weylcurrents.characters as chars

    A3, D4, E6 = (build_root_system(f, r) for f, r in (("A", 3), ("D", 4), ("E", 6)))

    def box(rs, total):
        return [
            Weight(c)
            for c in product(range(total + 1), repeat=rs.rank)
            if 0 < sum(c) <= total
        ]

    cases = [(A1, Weight([m])) for m in range(11)]
    cases += [(A2, w) for w in box(A2, 6)] + [(A3, w) for w in box(A3, 3)]
    cases += [(D4, w) for w in box(D4, 2)]
    cases += [(E6, E6.fundamental_weight(i)) for i in (1, 6, 2)]
    cases.append((E6, E6.fundamental_weight(1) + E6.fundamental_weight(6)))
    chars.clear_caches()
    kernel = [chars._local_weyl_table(rs, lam.coeffs) for rs, lam in cases]
    chars.clear_caches()
    for (rs, lam), got in zip(cases, kernel):
        assert got == full_word_local_weyl(rs, lam), (rs, lam)


def test_fermionic_node_order_matches_the_full_word_strings_on_e7_and_e8():
    # the breadth-first node order and the vacancy numbers updated in place
    # give the whole Demazure table; E7 w4 and E8 w2-w6 are left out for the
    # oracle's time (2.1 s on E7 w4, 2.3 s on E8 w2, 44 s on E8 w3)
    import weylcurrents.characters as chars

    E7, E8 = build_root_system("E", 7), build_root_system("E", 8)
    cases = [(E7, i) for i in (1, 2, 3, 5, 6, 7)] + [(E8, i) for i in (1, 7, 8)]
    for rs, i in cases:
        lam = rs.fundamental_weight(i)
        got = chars._local_weyl_table(rs, lam.coeffs)
        assert got == full_word_local_weyl(rs, lam), (rs, i)
