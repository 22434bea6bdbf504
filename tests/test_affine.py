import random
from itertools import product

import pytest

from weylcurrents.affine import (
    AffineWeight,
    AffineWeylElement,
    act_affine,
    af_pairing,
    compose,
    cosets_up_to_shift,
    dominant_dot_rep,
    dot_action,
    element_from_word,
    inverse,
    length,
    level_one_weights,
    level_restricted_dominant,
    reduced_word,
    reflect_affine,
    rho_shift,
    simple_element,
)
from weylcurrents.rootsystem import Weight, build_root_system
from weylcurrents.verify import bfs_lengths

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)


def t_gamma(rs, gamma_fw):
    rc = tuple(int(c) for c in rs.root_coords(gamma_fw))
    return AffineWeylElement.translation_by(rs, rc)


def test_affine_root_pairings():
    lam = AffineWeight(Weight([3]), 2, 0)
    assert af_pairing(A1, 0, lam) == 2 - 3
    assert af_pairing(A1, 1, lam) == 3
    rk = rho_shift(A1, 1)
    assert af_pairing(A1, 0, rk) == 2 and af_pairing(A1, 1, rk) == 1
    rk2 = rho_shift(A2, 2)
    assert af_pairing(A2, 0, rk2) == 3
    assert all(af_pairing(A2, i, rk2) == 1 for i in (1, 2))


def test_translation_normalization():
    # t_{-theta} acts like s_theta s_0 and equals it as a group element
    lam = AffineWeight(Weight([1]), 1, 0)
    tm = t_gamma(A1, -A1.highest_root)
    comp = compose(A1, simple_element(A1, 1), simple_element(A1, 0))
    assert act_affine(A1, tm, lam) == act_affine(A1, comp, lam)
    assert tm == comp


def test_translation_formula():
    assert act_affine(A1, t_gamma(A1, A1.simple_roots[0]), AffineWeight(Weight([0]), 1, 0)) == AffineWeight(
        Weight([2]), 1, -1
    )
    e = AffineWeylElement.identity(A1)
    lam = AffineWeight(Weight([5]), 3, -2)
    assert act_affine(A1, e, lam) == lam


def test_group_law_and_inverse():
    rng = random.Random(2)
    words = [[rng.randint(0, 2) for _ in range(rng.randint(0, 6))] for _ in range(12)]
    for w1 in words:
        g = element_from_word(A2, w1)
        gi = inverse(A2, g)
        assert compose(A2, g, gi).is_identity()
        assert compose(A2, gi, g).is_identity()
    for w1 in words[:6]:
        for w2 in words[6:]:
            g, h = element_from_word(A2, w1), element_from_word(A2, w2)
            lam = AffineWeight(Weight([1, 2]), 2, 1)
            assert act_affine(A2, compose(A2, g, h), lam) == act_affine(
                A2, g, act_affine(A2, h, lam)
            )


def test_action_is_linear():
    rng = random.Random(13)
    for _ in range(12):
        g = element_from_word(A2, [rng.randint(0, 2) for _ in range(rng.randint(1, 6))])
        x = AffineWeight(Weight([rng.randint(-2, 2), rng.randint(-2, 2)]), rng.randint(-1, 2), rng.randint(-2, 2))
        y = AffineWeight(Weight([rng.randint(-2, 2), rng.randint(-2, 2)]), rng.randint(-1, 2), rng.randint(-2, 2))
        assert act_affine(A2, g, x + y) == act_affine(A2, g, x) + act_affine(A2, g, y)
        assert act_affine(A2, g, 3 * x) == 3 * act_affine(A2, g, x)


def test_action_preserves_level_and_form():
    rng = random.Random(7)

    def form(rs, x, y):
        return rs.inner(x.classical, y.classical) + x.level * y.degree + y.level * x.degree

    for _ in range(20):
        g = element_from_word(A2, [rng.randint(0, 2) for _ in range(rng.randint(1, 7))])
        x = AffineWeight(Weight([rng.randint(-2, 2), rng.randint(-2, 2)]), rng.randint(0, 2), rng.randint(-2, 2))
        y = AffineWeight(Weight([rng.randint(-2, 2), rng.randint(-2, 2)]), rng.randint(0, 2), rng.randint(-2, 2))
        gx, gy = act_affine(A2, g, x), act_affine(A2, g, y)
        assert gx.level == x.level
        assert form(A2, gx, gy) == form(A2, x, y)


def test_dot_action_examples():
    s0 = simple_element(A1, 0)
    e = AffineWeylElement.identity(A1)
    lam = AffineWeight(Weight([0]), 1, 0)
    assert dot_action(A1, e, lam, 1) == lam
    assert dot_action(A1, s0, lam, 1) == AffineWeight(Weight([4]), 1, -2)
    assert dot_action(A1, s0, AffineWeight(Weight([0]), 0, 0), 0) == AffineWeight(
        Weight([2]), 0, -1
    )
    # classical input at level 0 matches the embedded form up to k*Lambda0
    emb = dot_action(A1, s0, AffineWeight(Weight([0]), 1, 0), 1)
    cls = dot_action(A1, s0, AffineWeight(Weight([0]), 0, 0), 1)
    assert emb == AffineWeight(cls.classical, cls.level + 1, cls.degree)


def test_dot_inverse_roundtrip():
    rng = random.Random(4)
    for _ in range(15):
        g = element_from_word(A2, [rng.randint(0, 2) for _ in range(rng.randint(1, 6))])
        lam = AffineWeight(Weight([rng.randint(-3, 3), rng.randint(-3, 3)]), 0, rng.randint(-2, 2))
        k = rng.randint(1, 3)
        img = dot_action(A2, g, lam, k)
        back = dot_action(A2, inverse(A2, g), img, k)
        assert back == lam


def test_length_examples_and_bfs():
    assert length(A1, AffineWeylElement.identity(A1)) == 0
    assert length(A1, t_gamma(A1, -A1.highest_root)) == 2
    assert length(A2, t_gamma(A2, A2.highest_root)) == 4
    for rs in (A1, A2):
        for g, d in bfs_lengths(rs, 6).items():
            assert length(rs, g) == d


def test_reduced_words():
    assert reduced_word(A1, AffineWeylElement.identity(A1)) == []
    tm = t_gamma(A1, -A1.highest_root)
    assert reduced_word(A1, tm) == [1, 0]
    g = t_gamma(A2, A2.highest_root)
    w = reduced_word(A2, g)
    assert len(w) == 4 and element_from_word(A2, w) == g


def greedy_descent_word(rs, g):
    """Reference reduced word: strip the first simple reflection that lowers
    the closed-form length, until the identity is reached."""
    word = []
    cur, cur_len = g, length(rs, g)
    while cur_len > 0:
        for i in range(0, rs.rank + 1):
            cand = compose(rs, simple_element(rs, i), cur)
            if length(rs, cand) < cur_len:
                word.append(i)
                cur, cur_len = cand, cur_len - 1
                break
        else:
            raise AssertionError("no descent found")
    assert cur.is_identity()
    return word


def test_reduced_word_matches_greedy_descent_on_bfs_balls():
    for rs, radius in ((A1, 7), (A2, 6), (D4, 3)):
        for g, d in bfs_lengths(rs, radius).items():
            w = reduced_word(rs, g)
            assert w == greedy_descent_word(rs, g)
            assert len(w) == d


def dot_rep_loop(rs, lam, k):
    """Reference dominant_dot_rep: the ascent with the group element composed
    step by step, as (on_wall, element, weight, degree, sign)."""
    w = lam if isinstance(lam, AffineWeight) else AffineWeight(lam, 0, 0)
    shift = AffineWeight(rs.rho, k + rs.dual_coxeter - w.level, 0)
    x = w + shift
    g = AffineWeylElement.identity(rs)
    steps = 0
    while True:
        neg = next((i for i in range(rs.rank + 1) if af_pairing(rs, i, x) < 0), None)
        if neg is None:
            break
        x = reflect_affine(rs, neg, x)
        g = compose(rs, simple_element(rs, neg), g)
        steps += 1
    if any(af_pairing(rs, i, x) == 0 for i in range(rs.rank + 1)):
        return True, g, None, 0, 0
    res = x - shift
    return False, g, res.classical, res.degree, -1 if steps % 2 else 1


def test_dominant_dot_rep_matches_the_step_by_step_loop():
    cases = [(A1, 4), (A2, 4), (A3, 3)]
    for (rs, box), k, degree in product(cases, (1, 2, 3), (-2, 0, 3)):
        for coeffs in product(range(-box, box + 1), repeat=rs.rank):
            lam = AffineWeight(Weight(coeffs), 0, degree)
            rep = dominant_dot_rep(rs, lam, k)
            got = (rep.on_wall, rep.element, rep.weight, rep.degree, rep.sign)
            assert got == dot_rep_loop(rs, lam, k)


def test_coset_sign_is_the_length_parity():
    for rs, lam, k, N in ((A2, Weight([1, 0]), 2, 24), (D4, Weight([0, 0, 1, 0]), 1, 10)):
        reps = cosets_up_to_shift(rs, lam, k, N)
        assert len(reps) > 10
        for rep in reps:
            assert rep.sign == (-1) ** length(rs, rep.element)


def test_cosets_match_a_brute_force_sweep():
    # every gamma of a box with offset (lam+rho, gamma) + L(gamma,gamma)/2 <= N
    # is a coset W.t_gamma the sweep must return, and no other
    for rs, lam, k, N, box in ((A3, Weight([1, 0, 1]), 2, 6, 6), (D4, Weight([0, 0, 0, 1]), 1, 5, 4)):
        L = k + rs.dual_coxeter
        lam_rho = lam + rs.rho
        want = {}
        for rc in product(range(-box, box + 1), repeat=rs.rank):
            gamma = rs.from_root_coords(rc)
            offset = rs.inner(lam_rho, gamma) + L * rs.inner(gamma, gamma) / 2
            if offset <= N:
                want[rc] = offset
        assert max(abs(c) for rc in want for c in rc) <= box - 2  # the box is generous
        got = {rep.element.translation: rep.offset for rep in cosets_up_to_shift(rs, lam, k, N)}
        assert got == want


def gamma_box_cosets(rs, lam, k, N):
    """The coset sweep over a box of the root lattice: every gamma of offset
    (lam+rho, gamma) + L (gamma, gamma)/2 <= N, pushed to the dominant chamber
    with the finite word applied after t_gamma."""
    L = k + rs.dual_coxeter
    lam_rho = lam + rs.rho
    # |(lam+rho, gamma)| <= |lam+rho| |gamma| bounds (gamma, gamma) by r2
    a = float(rs.inner(lam_rho, lam_rho))
    r2 = int(((a**0.5 + (a + 2 * L * N) ** 0.5) / L) ** 2 + 1e-9)
    box = [int((r2 * rs.inverse_cartan[i][i]) ** 0.5) + 1 for i in range(rs.rank)]
    edges = [(i, j) for i in range(rs.rank) for j in range(i) if rs.cartan[i][j]]
    out = []
    for rc in product(*(range(-b, b + 1) for b in box)):
        if 2 * sum(c * c for c in rc) - 2 * sum(rc[i] * rc[j] for i, j in edges) > r2:
            continue
        gamma = rs.from_root_coords(rc)
        offset = rs.inner(lam_rho, gamma) + L * rs.inner(gamma, gamma) / 2
        if offset > N:
            continue
        t = AffineWeylElement.translation_by(rs, rc)
        x = act_affine(rs, t, AffineWeight(lam_rho, L, 0))
        dom, word = rs.to_dominant(x.classical)
        g = compose(rs, element_from_word(rs, reversed(word)), t)
        image = AffineWeight(dom - rs.rho, 0, x.degree)
        out.append((g, image, int(offset), -1 if len(word) % 2 else 1))
    out.sort(key=lambda c: (c[2], c[1].classical.coeffs))
    return out


def test_alcove_sweep_matches_the_gamma_box_sweep():
    cases = [(rs, k, N) for rs, N in ((A1, 12), (A2, 8), (A3, 5)) for k in (1, 2)]
    cases += [(D4, 1, 7), (D4, 2, 3)]
    instances = [(rs, lam, k, N) for rs, k, N in cases for lam in level_restricted_dominant(rs, k)]
    e6 = build_root_system("E", 6)
    instances.append((e6, e6.zero(), 1, 4))
    for inst in instances:
        got = [(r.element, r.image, r.offset, r.sign) for r in cosets_up_to_shift(*inst)]
        assert got == gamma_box_cosets(*inst), inst


def test_cosets_examples():
    reps = cosets_up_to_shift(A1, Weight([0]), 1, 2)
    assert [(r.offset, r.image.classical.coeffs) for r in reps] == [(0, (0,)), (2, (4,))]
    assert reps[0].element.is_identity() and reps[0].sign == 1
    assert reps[1].sign == -1 and reps[1].element == simple_element(A1, 0)

    reps = cosets_up_to_shift(A1, Weight([1]), 1, 1)
    assert [(r.offset, r.image.classical.coeffs) for r in reps] == [(0, (1,)), (1, (3,))]

    assert len(cosets_up_to_shift(A2, Weight([0, 0]), 2, 0)) == 1
    with pytest.raises(ValueError):
        cosets_up_to_shift(A1, Weight([2]), 1, 4)


def test_cosets_complete_against_cayley_enumeration():
    # independent completeness oracle: walk the Cayley ball, keep the
    # minimal-length right-coset representatives (no classical descent), and
    # compare their dot images against the sweep
    for rs, lam, k, radius in ((A1, Weight([0]), 1, 7), (A2, Weight([1, 0]), 1, 6)):
        ball = bfs_lengths(rs, radius)
        shift = rho_shift(rs, k)
        found = {}
        for g, d in ball.items():
            if d >= radius:
                continue  # boundary elements may have unexplored descents
            if any(
                ball.get(compose(rs, simple_element(rs, i), g), d + 1) < d
                for i in range(1, rs.rank + 1)
            ):
                continue
            img = act_affine(rs, g, AffineWeight(lam, 0, 0) + shift) - shift
            found[(img.classical.coeffs, img.degree)] = d
        offsets = [-deg for (_, deg) in found]
        window = max(o for o in offsets if offsets.count(o) >= 1)
        # restrict to a window certainly exhausted by the ball
        window = min(window, radius // 2)
        swept = {
            (r.image.classical.coeffs, r.image.degree)
            for r in cosets_up_to_shift(rs, lam, k, window)
        }
        oracle = {key for key, _ in found.items() if -key[1] <= window}
        assert swept == oracle


def test_cosets_complete_and_monotone():
    # completeness: enlarging the window never loses earlier representatives,
    # offsets weakly increase with length
    small = cosets_up_to_shift(A2, Weight([1, 0]), 1, 4)
    big = cosets_up_to_shift(A2, Weight([1, 0]), 1, 8)
    keys = {(r.image.classical.coeffs, r.offset) for r in small}
    assert keys <= {(r.image.classical.coeffs, r.offset) for r in big}
    for r in big:
        assert r.offset >= 0
        assert A2.is_dominant(r.image.classical)
    by_len = sorted(big, key=lambda r: length(A2, r.element))
    for a, b in zip(by_len, by_len[1:]):
        la, lb = length(A2, a.element), length(A2, b.element)
        if la < lb:
            assert a.offset <= b.offset


def test_dominant_dot_rep():
    r = dominant_dot_rep(A1, Weight([0]), 1)
    assert not r.on_wall and r.weight == Weight([0]) and r.sign == 1
    # inverse of s_0 @1 0 = 4w1 - 2delta
    r = dominant_dot_rep(A1, Weight([4]), 1)
    assert not r.on_wall and r.weight == Weight([0]) and r.degree == 2 and r.sign == -1
    # the level-1 wall in A1 sits at 2w1 (pairing with alpha_0^vee vanishes)
    r = dominant_dot_rep(A1, Weight([2]), 1)
    assert r.on_wall
    # 3w1 is regular at level 1 and lands on w1 with one reflection
    r = dominant_dot_rep(A1, Weight([3]), 1)
    assert not r.on_wall and r.weight == Weight([1]) and r.sign == -1 and r.degree == 1


def test_level_restricted_sets():
    assert {w.coeffs for w in level_one_weights(A1)} == {(0,), (1,)}
    assert {w.coeffs for w in level_one_weights(A2)} == {(0, 0), (1, 0), (0, 1)}
    d4 = build_root_system("D", 4)
    assert {w.coeffs for w in level_one_weights(d4)} == {
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }
    assert len(level_restricted_dominant(A2, 2)) == 6


def _bfs(start, steps, keep):
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for lam in frontier:
            for mu in steps(lam):
                if keep(mu) and mu not in seen:
                    seen.add(mu)
                    nxt.append(mu)
        frontier = nxt
    return seen


def _bfs_level_restricted(rs, k):
    # add fundamental weights while <theta, lam> <= k
    fundamentals = [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    found = _bfs(
        rs.zero(),
        lambda lam: (lam + w for w in fundamentals),
        lambda mu: rs.inner(rs.highest_root, mu) <= k,
    )
    return sorted(found, key=lambda w: w.coeffs)


def _bfs_dominant_below(rs, lam):
    # subtract positive roots while the weight stays dominant
    return _bfs(lam, lambda mu: (mu - a for a in rs.positive_roots), rs.is_dominant)


@pytest.mark.parametrize("rs", [A1, A2, A3, D4], ids=["A1", "A2", "A3", "D4"])
def test_dominant_enumerators_match_the_bfs(rs):
    for k in range(5):
        assert level_restricted_dominant(rs, k) == _bfs_level_restricted(rs, k)
    for lam in level_restricted_dominant(rs, 3) + [3 * rs.highest_root]:
        assert rs.dominant_weights_below(lam) == _bfs_dominant_below(rs, lam)
