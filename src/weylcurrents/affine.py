"""Affine weights and the affine Weyl group W ⋉ Q for a simply-laced root system.

Conventions, fixed once and validated by tests:
  * an affine weight is (classical part, level, degree) = lam + k*Lambda0 + m*delta;
  * alpha_0 = (-theta, 0, 1), so <alpha_0^vee, (lam,k,m)> = k - (theta, lam);
  * a group element is stored as g = w . t_gamma (finite part acting after the
    translation), with group law (w,a)(w',b) = (ww', w'^{-1}a + b);
  * t_gamma(lam,k,m) = (lam + k*gamma, k, m - (lam,gamma) - k*(gamma,gamma)/2),
    normalized so that t_{-theta} = s_theta s_0;
  * the rho-shifted action w@k shifts so the shifted weight has level k + h^vee,
    which makes acting on a classical weight (level 0) and on lam + k*Lambda0
    give matching orbits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import product
from operator import mul

from .errors import StructuralError
from .rootsystem import RootSystem, Weight, weight_from_ints


class AffineWeight(namedtuple("AffineWeight", "classical level degree")):
    """lam + k*Lambda0 + m*delta as (classical part, level, degree); + and - act
    coordinate-wise, an int multiplies every coordinate."""

    __slots__ = ()

    def __add__(self, other):
        return AffineWeight(
            self.classical + other.classical,
            self.level + other.level,
            self.degree + other.degree,
        )

    def __sub__(self, other):
        return AffineWeight(
            self.classical - other.classical,
            self.level - other.level,
            self.degree - other.degree,
        )

    def __neg__(self):
        return AffineWeight(-self.classical, -self.level, -self.degree)

    def __mul__(self, n: int):
        return AffineWeight(n * self.classical, n * self.level, n * self.degree)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AffineWeight({self.classical.coeffs}, level={self.level}, degree={self.degree})"


def affine_root(rs: RootSystem, i: int) -> AffineWeight:
    """alpha_i as an affine weight; i = 0 gives -theta + delta."""
    if i == 0:
        return AffineWeight(-rs.highest_root, 0, 1)
    return AffineWeight(rs.simple_roots[i - 1], 0, 0)


def af_pairing(rs: RootSystem, i: int, w: AffineWeight) -> int:
    """<alpha_i^vee, w> for i in {0, 1, ..., rank}."""
    if i == 0:
        # (theta, lam) = sum_j rc_j(theta) <alpha_j^vee, lam>
        return w.level - sum(map(mul, rs.highest_root_coords, w.classical.coeffs))
    return w.classical.coeffs[i - 1]


def reflect_affine(rs: RootSystem, i: int, w: AffineWeight) -> AffineWeight:
    p = af_pairing(rs, i, w)
    if p == 0:
        return w
    return w - p * affine_root(rs, i)


def chamber_ascent(rs: RootSystem, x: AffineWeight):
    """(dominant affine weight, word) for an affine weight of positive level:
    reflect at the first i in 0..rank with <alpha_i^vee, x> < 0 until there is
    none, so the result is s_{word[-1]} ... s_{word[0]} (x)."""
    word = []
    while True:
        if len(word) > 10**6:
            raise StructuralError("affine chamber ascent did not terminate")
        for i in range(0, rs.rank + 1):
            if af_pairing(rs, i, x) < 0:
                x = reflect_affine(rs, i, x)
                word.append(i)
                break
        else:
            return x, word


def rho_shift(rs: RootSystem, k: int) -> AffineWeight:
    """rho + (k + h^vee) Lambda0: pairs to 1 with every alpha_i^vee and k+1 with alpha_0^vee."""
    return AffineWeight(rs.rho, k + rs.dual_coxeter, 0)


def level_restricted_dominant(rs: RootSystem, k: int):
    """P_+^k: dominant classical weights with <theta^vee, lam> <= k, that is
    sum_i a_i lam_i <= k over the marks a_i, in lexicographic order."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    marks = rs.highest_root_coords
    box = product(*(range(k // a + 1) for a in marks))
    return [Weight(c) for c in box if sum(map(mul, marks, c)) <= k]


def in_level_dominant(rs: RootSystem, lam: Weight, k: int) -> bool:
    return rs.is_dominant(lam) and rs.inner(rs.highest_root, lam) <= k


def level_one_weights(rs: RootSystem):
    """P_+^1 (includes 0): the trivial weight and the minuscule fundamentals."""
    return level_restricted_dominant(rs, 1)


# -- matrices for the finite part ----------------------------------------


def _mat_id(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[r][k] * B[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def _mat_vec(A, v):
    n = len(A)
    return tuple(sum(A[r][k] * v[k] for k in range(n)) for r in range(n))


class AffineWeylElement:
    """Element g = w . t_gamma: finite part as an integer matrix on
    fundamental-weight coordinates, translation gamma in root coordinates."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix, translation):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.translation = tuple(int(x) for x in translation)

    @classmethod
    def identity(cls, rs: RootSystem):
        return cls(_mat_id(rs.rank), (0,) * rs.rank)

    @classmethod
    def translation_by(cls, rs: RootSystem, gamma_rc):
        return cls(_mat_id(rs.rank), tuple(gamma_rc))

    def is_identity(self) -> bool:
        n = len(self.translation)
        return self.matrix == _mat_id(n) and self.translation == (0,) * n

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylElement)
            and self.matrix == other.matrix
            and self.translation == other.translation
        )

    def __hash__(self):
        return hash((self.matrix, self.translation))

    def __repr__(self):
        return f"AffineWeylElement(matrix={self.matrix}, t={self.translation})"


@cache
def _simple_matrix(rs: RootSystem, i: int):
    """Matrix of s_i (1-based classical index) on fundamental-weight coordinates."""
    n = rs.rank
    C = rs.cartan
    return tuple(
        tuple((1 if r == c else 0) - (C[i - 1][r] if c == i - 1 else 0) for c in range(n))
        for r in range(n)
    )


@cache
def _theta_matrix(rs: RootSystem):
    n = rs.rank
    theta = rs.highest_root
    cols = []
    for j in range(n):
        e = Weight([1 if t == j else 0 for t in range(n)])
        cols.append(rs.reflect_root(theta, e).coeffs)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def simple_element(rs: RootSystem, i: int) -> AffineWeylElement:
    """s_i as a group element; s_0 = s_theta . t_{-theta}."""
    n = rs.rank
    if i == 0:
        return AffineWeylElement(_theta_matrix(rs), tuple(-c for c in rs.highest_root_coords))
    if not 1 <= i <= n:
        raise ValueError(f"affine index {i} out of range 0..{n}")
    return AffineWeylElement(_simple_matrix(rs, i), (0,) * n)


def _mat_inv_weyl(rs: RootSystem, M):
    """Inverse of a finite Weyl matrix: M^{-1} = C M^T C^{-1} (form-orthogonality)."""
    n = rs.rank
    C = rs.cartan
    F = rs.form  # det(C) * C^{-1}
    MT = tuple(tuple(M[c][r] for c in range(n)) for r in range(n))
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            v, rem = divmod(
                sum(C[r][a] * MT[a][b] * F[b][c] for a in range(n) for b in range(n)), rs.det
            )
            if rem:
                raise AssertionError("finite part is not a Weyl matrix")
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


def _act_rc(rs: RootSystem, M, rc):
    """Finite part acting on root coordinates."""
    fw = rs._rc_to_fw(tuple(rc))
    wfw = _mat_vec(M, fw)
    return tuple(c // rs.det for c in rs.scaled_root_coords(wfw))


def compose(rs: RootSystem, g: AffineWeylElement, h: AffineWeylElement) -> AffineWeylElement:
    """Group product g.h under (w,a)(w',b) = (ww', w'^{-1}a + b)."""
    w = _mat_mul(g.matrix, h.matrix)
    hinv = _mat_inv_weyl(rs, h.matrix)
    moved = _act_rc(rs, hinv, g.translation)
    return AffineWeylElement(w, tuple(a + b for a, b in zip(moved, h.translation)))


def inverse(rs: RootSystem, g: AffineWeylElement) -> AffineWeylElement:
    winv = _mat_inv_weyl(rs, g.matrix)
    moved = _act_rc(rs, g.matrix, g.translation)
    return AffineWeylElement(winv, tuple(-c for c in moved))


def element_from_word(rs: RootSystem, word) -> AffineWeylElement:
    """Product of simple reflections in word order (word[0] leftmost)."""
    acc = AffineWeylElement.identity(rs)
    for i in word:
        acc = compose(rs, acc, simple_element(rs, i))
    return acc


def rc_norm2(rs: RootSystem, rc) -> int:
    """(gamma, gamma) for gamma in root coordinates (the Gram matrix is the Cartan matrix)."""
    n = rs.rank
    C = rs.cartan
    return sum(rc[i] * C[i][j] * rc[j] for i in range(n) for j in range(n))


def act_affine(rs: RootSystem, g: AffineWeylElement, w: AffineWeight) -> AffineWeight:
    """Linear action: translation first, then the finite part; level preserved."""
    gamma = rs.from_root_coords(g.translation)
    lam, k, m = w.classical, w.level, w.degree
    pairing = int(rs.inner(lam, gamma))
    nn = rc_norm2(rs, g.translation)
    if (k * nn) % 2:
        raise AssertionError("odd lattice norm: translation degree is not integral")
    moved = lam + k * gamma
    m2 = m - pairing - (k * nn) // 2
    return AffineWeight(Weight(_mat_vec(g.matrix, moved.coeffs)), k, m2)


def dot_action(rs: RootSystem, g: AffineWeylElement, w: AffineWeight, k: int) -> AffineWeight:
    """rho-shifted action at level k: g(w + shift) - shift, where the shift is the
    rho-like weight that brings w to total level k + h^vee. Classical weights
    (level 0) and their level-k embeddings give matching orbits:
    g@k(lam + k*Lambda0) = (g@k lam) + k*Lambda0."""
    s = k + rs.dual_coxeter - w.level
    shift = AffineWeight(rs.rho, s, 0)
    return act_affine(rs, g, w + shift) - shift


def length(rs: RootSystem, g: AffineWeylElement) -> int:
    """Closed-form length of g = w.t_gamma: sum over positive roots alpha of
    |(gamma,alpha)| when w(alpha) > 0 and |(gamma,alpha) + 1| when w(alpha) < 0.
    Matches Cayley-graph distance (tested by BFS oracle)."""
    gamma = rs.from_root_coords(g.translation)
    total = 0
    for alpha in rs.positive_roots:
        ip = int(rs.inner(gamma, alpha))
        walpha_rc = rs.root_coords(Weight(_mat_vec(g.matrix, alpha.coeffs)))
        if all(c >= 0 for c in walpha_rc):
            total += abs(ip)
        else:
            total += abs(ip + 1)
    return total


# Result of pushing a weight to the rho-shifted dominant chamber: on_wall,
# element (AffineWeylElement), weight (Weight, or None on a wall), degree, sign.
DotRepresentative = namedtuple("DotRepresentative", "on_wall element weight degree sign")


def dominant_dot_rep(rs: RootSystem, lam, k: int) -> DotRepresentative:
    """Dominant representative under the level-k dot action, or the wall flag.

    Accepts a classical Weight (taken at level 0, degree 0) or an AffineWeight.
    The shifted weight is pushed up by the chamber ascent; a zero pairing at
    the top signals a nontrivial stabilizer (wall).
    """
    if k < 1:
        raise ValueError("dominant_dot_rep needs k >= 1")
    w = lam if isinstance(lam, AffineWeight) else AffineWeight(lam, 0, 0)
    s = k + rs.dual_coxeter - w.level
    shift = AffineWeight(rs.rho, s, 0)
    x, word = chamber_ascent(rs, w + shift)
    g = element_from_word(rs, reversed(word))
    if any(af_pairing(rs, i, x) == 0 for i in range(0, rs.rank + 1)):
        return DotRepresentative(True, g, None, 0, 0)
    res = x - shift
    return DotRepresentative(False, g, res.classical, res.degree, -1 if len(word) % 2 else 1)


# Minimal-length representative of a W\\W_af coset together with its dot image:
# element (AffineWeylElement), image (g @k lam, level 0: dominant classical part
# + degree), offset (<d, lam - g@k lam> >= 0), sign.
CosetRepresentative = namedtuple("CosetRepresentative", "element image offset sign")


def _alcove_sweep(rs: RootSystem, lam_rho: Weight, L: int, N: int):
    """(nu, offset, word) for each coset W.g of W_af with offset <= N, where g
    sends lam_rho + L Lambda0 to (nu, L, -offset) and the chamber ascent word
    of that image spells g. lam_rho must lie in the open fundamental alcove at
    level L: regular dominant with (theta, lam_rho) < L.

    The coset W.t_gamma sends lam_rho + L Lambda0 to (nu, L, -offset), nu the
    dominant representative of lam_rho + L gamma, and the form gives offset =
    ((nu, nu) - (lam_rho, lam_rho)) / 2L. W x LQ acts simply transitively on
    the level-L alcoves, so the images are exactly the regular dominant nu of
    that norm ball whose chamber ascent at level L reaches lam_rho + L Lambda0."""
    top = AffineWeight(lam_rho, L, 0)
    A = rs.scaled_inner(lam_rho.coeffs, lam_rho.coeffs)
    step = 2 * L * rs.det  # det(C) (nu, nu) per unit of offset
    for nu in rs.dominant_in_ball(lam_rho.coeffs, A + N * step, low=1):
        offset, rem = divmod(rs.scaled_inner(nu, nu) - A, step)
        if rem:
            continue
        nu = weight_from_ints(nu)
        reached, word = chamber_ascent(rs, AffineWeight(nu, L, -offset))
        if reached == top:
            yield nu, offset, word


def cosets_up_to_shift(rs: RootSystem, lam: Weight, k: int, N: int):
    """All minimal-length right-coset representatives whose dot image lies within
    degree offset N of lam; complete and duplicate-free (the alcove sweep of
    lam + rho at level L = k + h^vee, see _alcove_sweep)."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    if not in_level_dominant(rs, lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    if N < 0:
        return []
    out = []
    for nu, offset, word in _alcove_sweep(rs, lam + rs.rho, k + rs.dual_coxeter, N):
        # the ascent word spells g, so the sign is (-1)^len(word)
        image = AffineWeight(nu - rs.rho, 0, -offset)
        sign = -1 if len(word) % 2 else 1
        out.append(CosetRepresentative(element_from_word(rs, word), image, offset, sign))
    out.sort(key=lambda c: (c.offset, c.image.classical.coeffs))
    return out


def reduced_word(rs: RootSystem, g: AffineWeylElement):
    """A reduced word for g; product in word order equals g.

    x = rho + h^vee Lambda0 pairs to 1 with every alpha_i^vee, so it is regular
    dominant and <alpha_i^vee, g x> < 0 exactly when s_i g is shorter than g.
    The chamber ascent of g x therefore strips g one descent at a time."""
    x = rho_shift(rs, 0)
    top, word = chamber_ascent(rs, act_affine(rs, g, x))
    if top != x:
        raise StructuralError("chamber ascent ended off the fundamental chamber")
    return word
