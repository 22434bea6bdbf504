import functools
import random
from itertools import product

import pytest

from weylcurrents.affine import (
    AffineWeight,
    AffineWeylElement,
    act_affine,
    chamber_ascent,
    cosets_up_to_shift,
    level_one_weights,
    level_restricted_dominant,
)
from weylcurrents.characters import (
    AffineCharacter,
    GradedCharacter,
    _pbw_raw,
    char_global_weyl,
    char_integrable,
    char_irreducible,
    char_local_weyl,
    char_parabolic_verma,
    demazure_step,
    expand_in_global_weyl,
    expand_in_irreducibles,
    hilbert_numerator,
    hilbert_series,
)
from weylcurrents.errors import ExpansionError, StructuralError
from weylcurrents.qseries import QPolynomial, geometric_series
from weylcurrents.rootsystem import Weight, build_root_system
from weylcurrents.verify import brute_force_induced_factor

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


def test_pbw_kernel_is_the_dominant_part_of_the_product():
    for family, rank, N in (("A", 1, 10), ("A", 2, 8), ("A", 3, 5), ("D", 4, 4)):
        rs = build_root_system(family, rank)
        full = brute_force_pbw(rs, N)
        dominant = {w: p for w, p in full.items() if min(w) >= 0}
        got = {
            kappa: {d: c for d, c in enumerate(series) if c}
            for kappa, series in _pbw_raw(rs, N).items()
        }
        assert got == dominant, (family, rank, N)
        # the product is W-invariant, so the dominant chamber determines it
        for w, p in full.items():
            assert p == dominant[rs.dominant_representative(Weight(w)).coeffs]


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


def test_demazure_step_strings():
    # D_0(e^{Lambda0}) = e^{Lambda0} + e^{Lambda0 - alpha_0}
    c = AffineCharacter.monomial(AffineWeight(Weight([0]), 1, 0))
    d = demazure_step(A1, 0, c)
    assert d.terms == {((0,), 0): 1, ((2,), -1): 1}
    # wall case: pairing 0 kills the term
    wall = AffineCharacter.monomial(AffineWeight(Weight([-1]), 0, 0))
    assert demazure_step(A1, 1, wall).terms == {}
    # negative branch: m = -2 gives two subtracted terms (forced by the
    # divided-difference definition; makes the operator idempotent)
    c = AffineCharacter.monomial(AffineWeight(Weight([-3]), 0, 0))
    d = demazure_step(A1, 1, c)
    assert d.terms == {((-1,), 0): -1, ((1,), 0): -1}


def test_demazure_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[(w, rng.randint(-2, 0))] = rng.randint(-2, 2)
        c = AffineCharacter(1, terms)
        for i in (0, 1, 2):
            once = demazure_step(A2, i, c)
            twice = demazure_step(A2, i, once)
            assert twice == once


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
    num = hilbert_numerator(lam)
    ser = hilbert_series(lam, 8)
    assert (num * ser).truncated(hi=8) == one
    assert hilbert_numerator(Weight([0, 0])) == one
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

    real = chars._local_weyl

    def corrupted(rs, lam):
        bad = dict(real(rs, lam))
        bad[lam.coeffs] = bad[lam.coeffs] + QPolynomial.monomial(1)
        return bad

    # the irreducible table the expansion reads its basis from
    monkeypatch.setattr(chars, "_local_weyl", corrupted)
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


# -- the chars kernel against test-local copies of the loops it replaced ------


def rho_shifted_ball(rs, lam, k, N):
    """Dominant mu in lam + Q with (mu+rho, mu+rho) <= (lam+rho, lam+rho) +
    2(k+h)N: the wider ball the integrable sum used to run over."""
    bound = rs.inner(lam + rs.rho, lam + rs.rho) + 2 * (k + rs.dual_coxeter) * N
    out = []
    coords = [0] * rs.rank

    def rec(i):
        if i == rs.rank:
            mu = Weight(coords)
            if rs.inner(mu + rs.rho, mu + rs.rho) <= bound:
                if rs.in_root_lattice(mu - lam):
                    out.append(mu.coeffs)
            return
        a = 0
        while True:
            coords[i] = a
            partial = Weight(coords[: i + 1] + [0] * (rs.rank - i - 1))
            if rs.inner(partial + rs.rho, partial + rs.rho) > bound:
                coords[i] = 0
                return
            rec(i + 1)
            a += 1

    rec(0)
    return out


def test_kac_ball_keeps_every_nonzero_weight(monkeypatch):
    import weylcurrents.characters as chars

    cases = (("A", 1, 4, 12), ("A", 2, 3, 8), ("A", 3, 2, 5), ("D", 4, 1, 5), ("D", 4, 2, 3))
    instances = [
        (build_root_system(f, r), lam, k, N)
        for f, r, k_max, N in cases
        for k in range(1, k_max + 1)
        for lam in level_restricted_dominant(build_root_system(f, r), k)
    ]
    chars.clear_caches()
    kernel = [list(chars.char_integrable_dominant(*inst).items()) for inst in instances]
    chars.clear_caches()
    monkeypatch.setattr(chars, "_dominant_in_ball", rho_shifted_ball)
    reference = [list(chars.char_integrable_dominant(*inst).items()) for inst in instances]
    chars.clear_caches()
    assert kernel == reference
    d4 = build_root_system("D", 4)
    w1 = d4.fundamental_weight(1)
    assert len(rho_shifted_ball(d4, w1, 1, 7)) == 86
    monkeypatch.undo()
    assert len(chars._dominant_in_ball(d4, w1, 1, 7)) == 13


@functools.cache
def full_orbit_support(rs, N):
    """Every weight of the PBW support mapped to its dominant representative."""
    import weylcurrents.characters as chars

    pbw = chars._pbw_raw(rs, N)
    return {w.coeffs: kappa for kappa in pbw for w in rs.weyl_orbit(Weight(kappa))}


def full_orbit_integrable(rs, lam, k, N):
    """The integrable sum over full Weyl orbits: the numerator spread over the
    orbit of each dominant weight, read through the full PBW support."""
    import weylcurrents.characters as chars

    numerator = {}
    for rep in cosets_up_to_shift(rs, lam, k, N):
        for mu, m in chars._freudenthal_dominant(rs, rep.image.classical.coeffs).items():
            for w in rs.weyl_orbit(Weight(mu)):
                tgt = numerator.setdefault(w.coeffs, {})
                tgt[rep.offset] = tgt.get(rep.offset, 0) + rep.sign * m
    pbw = chars._pbw_raw(rs, N)
    support = full_orbit_support(rs, N)
    result = {}
    for nu in chars._dominant_in_ball(rs, lam, k, N):
        gathered = {}  # PBW chamber -> numerator coefficients by offset
        for w, offsets in numerator.items():
            kappa = support.get(tuple(a - b for a, b in zip(nu, w)))
            if kappa is not None:
                by_offset = gathered.setdefault(kappa, [0] * (N + 1))
                for off, m in offsets.items():
                    by_offset[off] += m
        acc = [0] * (N + 1)
        for kappa, by_offset in gathered.items():
            for off, m in enumerate(by_offset):
                for e in range(N + 1 - off):
                    acc[e + off] += m * pbw[kappa][e]
        poly = QPolynomial(dict(enumerate(acc)))
        if poly:
            result[Weight(nu)] = poly
    return result


def test_ball_sum_matches_the_full_orbit_loop():
    import weylcurrents.characters as chars

    d4 = build_root_system("D", 4)
    instances = [
        (rs, lam, k, N)
        for rs, k_max, N in ((A1, 3, 12), (A2, 2, 8))
        for k in range(1, k_max + 1)
        for lam in level_restricted_dominant(rs, k)
    ]
    instances += [(d4, lam, 1, 7) for lam in level_one_weights(d4)]
    chars.clear_caches()
    kernel = [list(chars.char_integrable_dominant(*inst).items()) for inst in instances]
    # the reference reads the same PBW and Freudenthal tables, not the ball sum
    reference = [list(full_orbit_integrable(*inst).items()) for inst in instances]
    chars.clear_caches()
    assert kernel == reference


def test_orbit_size_is_the_length_of_the_orbit():
    import weylcurrents.characters as chars

    cases = [(build_root_system("A", n), 2) for n in range(1, 5)]
    cases += [(build_root_system("D", 4), 2), (build_root_system("E", 6), 1)]
    for rs, top in cases:
        for mu in product(range(top + 1), repeat=rs.rank):
            assert chars._orbit_size(rs, mu) == len(rs.weyl_orbit(Weight(mu))), (rs, mu)


def test_parabolic_orbit_size_is_the_length_of_the_parabolic_orbit():
    import weylcurrents.characters as chars

    def parabolic_orbit(rs, z, nodes):
        seen, frontier = {z}, [z]
        while frontier:
            nxt = []
            for w in frontier:
                for i in nodes:
                    r = tuple(x - w[i] * c for x, c in zip(w, rs.cartan[i]))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return seen

    for rs in (A2, build_root_system("A", 3), build_root_system("D", 4)):
        for mask in product((False, True), repeat=rs.rank):
            nodes = tuple(i for i in range(rs.rank) if mask[i])
            for z in product(range(-1, 2), repeat=rs.rank):
                if all(z[i] >= 0 for i in nodes):
                    size = len(parabolic_orbit(rs, z, nodes))
                    assert chars._orbit_size(rs, z, nodes) == size, (rs, z, nodes)


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


def full_word_local_weyl(rs, lam):
    """The local Weyl character by demazure_step along the whole chamber-ascent
    word, on the full affine character, expanded in irreducibles by the
    triangular solve: {dominant coeffs: graded multiplicity}."""
    cls_w = next(w for w in level_one_weights(rs) if rs.in_root_lattice(lam - w))
    top = AffineWeight(cls_w, 1, 0)
    gamma_rc = tuple(int(c) for c in rs.root_coords(rs.longest_element_image(lam) - cls_w))
    target = act_affine(rs, AffineWeylElement.translation_by(rs, gamma_rc), top)
    reached, word = chamber_ascent(rs, target)
    assert reached == top
    ch = AffineCharacter.monomial(top)
    for i in reversed(word):
        ch = demazure_step(rs, i, ch)
    assert ch.min_degree() == target.degree
    degrees = {}
    for (coeffs, deg), c in ch.items():
        degrees.setdefault(Weight(coeffs), {})[deg - target.degree] = c
    table = expand_in_irreducibles(rs, GradedCharacter(degrees))
    return {w.coeffs: p for w, p in table.items()}


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
    kernel = [chars._local_weyl(rs, lam) for rs, lam in cases]
    chars.clear_caches()
    for (rs, lam), got in zip(cases, kernel):
        assert got == full_word_local_weyl(rs, lam), (rs, lam)


def test_string_rows_raise_on_a_term_beyond_the_window():
    import weylcurrents.characters as chars

    # D_0 e^{Lambda0} = e^{Lambda0} + e^{Lambda0 - alpha0}, one degree lower:
    # the row needs room below its entry
    assert chars._string_rows(A1, 0, {(0,): [0, 1]}) == {(0,): [0, 1], (2,): [1, 0]}
    with pytest.raises(StructuralError):
        chars._string_rows(A1, 0, {(0,): [1]})
    # the negative branch moves up in degree
    assert chars._string_rows(A1, 0, {(3,): [1, 0]}) == {(1,): [0, -1]}
    with pytest.raises(StructuralError):
        chars._string_rows(A1, 0, {(3,): [1]})
