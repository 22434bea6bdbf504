"""Truncated graded characters: irreducible, parabolically induced, and integrable
module characters, Demazure operators, local/global Weyl module characters, and
expansion in the global-Weyl character basis.

Grading convention (fixed once, validated by nonnegativity of the integrable
characters and the A1 desk examples): q stands for e^{-delta}; every character is
normalized so its head sits at q-degree 0, so all stored exponents lie in [0, N].
"""

from __future__ import annotations

from functools import cache
from operator import add, mul, sub

from .affine import (
    AffineWeight,
    AffineWeylElement,
    act_affine,
    chamber_ascent,
    cosets_up_to_shift,
    in_level_dominant,
    level_one_weights,
)
from .errors import ExpansionError, StructuralError
from .qseries import QPolynomial
from .rootsystem import RootSystem, Weight, weight_from_ints


class GradedCharacter:
    """Finite association Weight -> Laurent polynomial in q, with an explicit
    truncation cutoff (cutoff None means the character is exact, not truncated)."""

    __slots__ = ("cutoff", "terms")

    def __init__(self, terms=None, cutoff=None):
        self.cutoff = cutoff
        self.terms = {}
        for w, p in (terms or {}).items():
            if not isinstance(p, QPolynomial):
                p = QPolynomial(p)
            if cutoff is not None:
                p = p.truncated(hi=cutoff)
            if p:
                self.terms[w] = p

    @classmethod
    def monomial(cls, w: Weight, poly=None, cutoff=None):
        return cls({w: poly if poly is not None else QPolynomial.one()}, cutoff=cutoff)

    def coeff(self, w: Weight) -> QPolynomial:
        return self.terms.get(w, QPolynomial.zero())

    def support(self):
        return self.terms.keys()

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, p) for w, p in self.terms.items()))

    @staticmethod
    def _merge_cutoff(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        cut = self._merge_cutoff(self.cutoff, other.cutoff)
        out = {w: dict(p.items()) for w, p in self.terms.items()}
        for w, p in other.terms.items():
            tgt = out.setdefault(w, {})
            for e, c in p.items():
                tgt[e] = tgt.get(e, 0) + c
        return GradedCharacter(out, cutoff=cut)

    def __sub__(self, other):
        return self + other.scaled(QPolynomial.monomial(0, -1))

    @staticmethod
    def _lowered_cutoff(cutoff, factor_polys):
        """cutoff lowered by m when a factor has a q^-m term, m > 0: the
        products that would fill the top m degrees come from terms beyond the
        old cutoff, which were never kept."""
        if cutoff is None:
            return None
        return cutoff + min(0, *(p.min_exponent() for p in factor_polys if p))

    def scaled(self, poly: QPolynomial):
        """Multiply by a Laurent polynomial (see _lowered_cutoff)."""
        cut = self._lowered_cutoff(self.cutoff, (poly,))
        return GradedCharacter({w: p * poly for w, p in self.terms.items()}, cutoff=cut)

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            return self.scaled(other)
        cut = self._merge_cutoff(
            self._lowered_cutoff(self.cutoff, other.terms.values()),
            self._lowered_cutoff(other.cutoff, self.terms.values()),
        )
        out = {}
        for w1, p1 in self.terms.items():
            for w2, p2 in other.terms.items():
                p = p1 * p2
                if cut is not None:
                    p = p.truncated(hi=cut)
                if p:
                    w = w1 + w2
                    out[w] = out[w] + p if w in out else p
        return GradedCharacter(out, cutoff=cut)

    def truncated(self, cutoff: int):
        """Cut at q^cutoff; never above the cutoff already known."""
        return GradedCharacter(self.terms, cutoff=self._merge_cutoff(self.cutoff, cutoff))

    def dimension_at_q1(self) -> int:
        return sum(p.evaluate(1) for p in self.terms.values())

    def has_nonneg_coeffs(self) -> bool:
        return all(p.has_nonneg_coeffs() for p in self.terms.values())

    def dominant_part(self, rs: RootSystem):
        return {w: p for w, p in self.terms.items() if rs.is_dominant(w)}

    def __repr__(self):
        n = len(self.terms)
        return f"GradedCharacter({n} weights, cutoff={self.cutoff})"


# -- irreducible and parabolic-Verma characters ---------------------------


def char_irreducible(rs: RootSystem, lam: Weight) -> GradedCharacter:
    """q-free character of the irreducible module with highest weight lam."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    one = QPolynomial.one()
    return GradedCharacter({w: one * m for w, m in rs.freudenthal_weights(lam).items()})


@cache
def _pbw_raw(rs: RootSystem, N: int):
    """Dominant part of the character P of the symmetric algebra on g tensor
    z*C[z], truncated at q^N, as a dict dominant coeffs -> [P_0, ..., P_N] of
    multiplicities by q-degree. Independent of the level.

    P = prod_{n>=1} (1 - q^n)^{-rank} prod_{alpha in Phi} (1 - q^n e^alpha)^{-1}
    is W-invariant, so its dominant chamber determines it. Taking q d/dq of
    log P gives the power-sum recursion d P_d = sum_{j=1..d} A_j P_{d-j} with
    A_j = sum_{m n = j} n (rank e^0 + sum_alpha e^{m alpha}), where P_{d-j} at
    any weight is read at its dominant representative. A degree-d monomial has
    weight a sum of at most d roots, so P_d needs only the dominant kappa <=
    d theta."""
    roots = [a.coeffs for a in rs.positive_roots]
    roots += [tuple(-c for c in a) for a in roots]

    def first_degree(kappa):
        """Least d with kappa <= d theta."""
        rc = [c // rs.det for c in rs.scaled_root_coords(kappa)]
        return max(-(-c // t) for c, t in zip(rc, rs.highest_root_coords))

    by_degree = [[] for _ in range(N + 1)]
    for kappa in rs.dominant_weights_below(N * rs.highest_root):
        by_degree[first_degree(kappa.coeffs)].append(kappa.coeffs)
    support = {kappa for layer in by_degree for kappa in layer}
    sigma = [0] + [sum(n for n in range(1, j + 1) if j % n == 0) for j in range(1, N + 1)]
    zero = rs.zero().coeffs
    table = {zero: [1] + [0] * N}
    dominant = {}  # weight -> dominant representative, for this call only
    images = {}  # (kappa, m) -> {dom(kappa - m alpha) in the support: number of roots alpha}

    def root_images(kappa, m):
        out = images[kappa, m] = {}  # filled once, read at every later degree
        for alpha in roots:
            x = tuple([c - m * a for c, a in zip(kappa, alpha)])
            y = dominant.get(x)
            if y is None:
                y = dominant[x] = rs.ascend(x)[0]
            if y in support:
                out[y] = out.get(y, 0) + 1
        return out

    active = by_degree[0]
    for d in range(1, N + 1):
        active += sorted(by_degree[d])
        for kappa in active:
            own = table.get(kappa)
            total = rs.rank * sum(sigma[j] * own[d - j] for j in range(1, d + 1)) if own else 0
            for m in range(1, d + 1):
                steps = range(1, d // m + 1)
                image = images.get((kappa, m))
                if image is None:
                    image = root_images(kappa, m)
                for y, count in image.items():
                    series = table.get(y)
                    if series is not None:
                        total += count * sum(n * series[d - m * n] for n in steps)
            value, rem = divmod(total, d)
            if rem:
                raise StructuralError(f"PBW recursion: degree {d} at {kappa} is not integral")
            if value:
                if own is None:
                    own = table[kappa] = [0] * (N + 1)
                own[d] = value
    return table


def char_parabolic_verma(rs: RootSystem, lam: Weight, N: int) -> GradedCharacter:
    """Character of the module induced from V(lam) over the z-positive part:
    ch V(lam) times the symmetric-algebra factor, truncated at q^N."""
    pbw = {}
    for kappa, series in _pbw_raw(rs, N).items():
        poly = QPolynomial(dict(enumerate(series)))
        for w in rs.weyl_orbit(Weight(kappa)):
            pbw[w] = poly
    return char_irreducible(rs, lam) * GradedCharacter(pbw, cutoff=N)


# -- integrable characters by the affine alternating sum ------------------


def _dominant_in_ball(rs: RootSystem, lam: Weight, k: int, N: int):
    """Dominant nu in lam + Q with (nu, nu) <= (lam, lam) + 2kN, as coefficient
    tuples in lexicographic order: the only nu at which ch L_k(lam) can be
    nonzero up to q^N, since a weight nu + k Lambda0 - d delta of L_k(lam) has
    norm (nu, nu) - 2kd <= (lam, lam) (Kac, Prop. 11.4). Enumerated in
    det(C)-scaled integers by `RootSystem.dominant_in_ball`."""
    bound = rs.scaled_inner(lam.coeffs, lam.coeffs) + 2 * k * N * rs.det
    return rs.dominant_in_ball(lam.coeffs, bound)


@cache
def _parabolic_order(rs: RootSystem, nodes: tuple) -> int:
    """|W_K| for the parabolic subgroup W_K generated by the s_i with i in
    nodes (0-based): the product of (ht alpha + 1) / ht alpha over the positive
    roots supported on those nodes (Macdonald 1972)."""
    num = den = 1
    for rc in rs.positive_root_coords:
        if all(c == 0 or i in nodes for i, c in enumerate(rc)):
            h = sum(rc)
            num *= h + 1
            den *= h
    order, rem = divmod(num, den)
    if rem:
        raise StructuralError(f"parabolic subgroup order at {nodes} is not an integer")
    return order


def _orbit_size(rs: RootSystem, coeffs: tuple, nodes=None) -> int:
    """|W_K coeffs| for a coefficient tuple dominant on the nodes K (all nodes
    when None, so W_K = W): |W_K| / |W_J|, J the nodes of K where coeffs
    vanishes, since the stabiliser is the parabolic subgroup W_J."""
    if nodes is None:
        nodes = tuple(range(rs.rank))
    wall = tuple(i for i in nodes if coeffs[i] == 0)
    return _parabolic_order(rs, nodes) // _parabolic_order(rs, wall)


@cache
def char_integrable_dominant(rs: RootSystem, lam: Weight, k: int, N: int):
    """Dominant sector of ch L_k(lam) truncated at q^N, as Weight -> QPolynomial.

    Truncated Weyl-Kac sum: each coset representative contributes
    sign * q^offset * ch V(image) * (symmetric-algebra factor), evaluated
    only at the dominant nu of the norm ball (see _dominant_in_ball). The
    numerator is kept on the dominant chamber, num[mu] for dominant mu, and
    the factor P is stored there too (see _pbw_raw). P is W-invariant, so the
    orbit summed over can be swapped:
    sum_{x in W mu} P[dom(nu - x)] = |W mu| / |W nu| sum_{z in W nu} P[dom(z - mu)],
    and only the short orbits of the ball weights are walked. The stabiliser
    W_mu fixes P[dom(z - mu)] on each of its orbits in W nu, so z runs over
    the element of each that is dominant on the nodes where mu vanishes,
    weighted by the orbit's size."""
    if not in_level_dominant(rs, lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    numerator: dict = {}  # dominant coeffs -> {offset: coefficient}
    for rep in cosets_up_to_shift(rs, lam, k, N):
        for mu, m in _freudenthal_dominant(rs, rep.image.classical.coeffs).items():
            tgt = numerator.setdefault(mu, {})
            tgt[rep.offset] = tgt.get(rep.offset, 0) + rep.sign * m
    terms = []  # [(offset, |W mu| * coefficient)] for each numerator weight mu
    by_wall: dict = {}  # nodes where mu vanishes -> [(index in terms, mu)]
    for mu, offsets in numerator.items():
        size = _orbit_size(rs, mu)
        offsets = [(off, size * m) for off, m in offsets.items() if m]
        if offsets:
            wall = tuple(i for i, c in enumerate(mu) if c == 0)
            by_wall.setdefault(wall, []).append((len(terms), mu))
            terms.append(offsets)
    pbw = _pbw_raw(rs, N)
    dominant: dict = {}  # weight -> dominant representative, for this call only
    result = {}
    for nu in _dominant_in_ball(rs, lam, k, N):
        orbit = rs.orbit_coeffs(nu)
        hits: dict = {}  # (PBW chamber, index in terms) -> weighted count of z
        for wall, members in by_wall.items():
            reps = [(z, _orbit_size(rs, z, wall)) for z in orbit if all(z[i] >= 0 for i in wall)]
            for t, mu in members:
                for z, weight in reps:
                    x = tuple(map(sub, z, mu))
                    kappa = dominant.get(x)
                    if kappa is None:
                        kappa = dominant[x] = rs.ascend(x)[0]
                    if kappa in pbw:
                        hits[kappa, t] = hits.get((kappa, t), 0) + weight
        # numerator coefficients by offset, gathered per PBW chamber
        gathered: dict = {}
        for (kappa, t), count in hits.items():
            by_offset = gathered.get(kappa)
            if by_offset is None:
                by_offset = gathered[kappa] = [0] * (N + 1)
            for off, m in terms[t]:
                by_offset[off] += count * m
        acc = [0] * (N + 1)
        for kappa, by_offset in gathered.items():
            series = pbw[kappa]
            for off, m in enumerate(by_offset):
                if m:
                    for e in range(N + 1 - off):
                        acc[e + off] += m * series[e]
        row = []
        for c in acc:
            c, rem = divmod(c, len(orbit))
            if rem:
                raise StructuralError(f"ball sum at {nu} is not divisible by its orbit size")
            row.append(c)
        poly = QPolynomial(dict(enumerate(row)))
        if poly:
            result[weight_from_ints(nu)] = poly
    return result


def char_integrable(rs: RootSystem, lam: Weight, k: int, N: int) -> GradedCharacter:
    """ch L_k(lam) truncated at q^N (full Weyl-orbit support)."""
    dom = char_integrable_dominant(rs, lam, k, N)
    terms = {}
    for nu, poly in dom.items():
        for w in rs.weyl_orbit(nu):
            terms[w] = poly
    return GradedCharacter(terms, cutoff=N)


# -- Demazure operators ----------------------------------------------------


class AffineCharacter:
    """Finite Z-combination of affine weights at a fixed level, keyed by
    (classical coeffs, degree); the working object for Demazure strings."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms=None):
        self.level = level
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, w: AffineWeight):
        return cls(w.level, {(w.classical.coeffs, w.degree): 1})

    def __eq__(self, other):
        return (
            isinstance(other, AffineCharacter)
            and self.level == other.level
            and self.terms == other.terms
        )

    def min_degree(self):
        return min((d for (_, d) in self.terms), default=None)

    def items(self):
        return self.terms.items()


def demazure_step(rs: RootSystem, i: int, char: AffineCharacter, floor=None) -> AffineCharacter:
    """Isobaric divided-difference operator for the affine node i applied to a
    truncated affine character; linear, idempotent, geometric-string on monomials."""
    k = char.level
    hvee = rs.dual_coxeter
    theta = rs.highest_root
    out: dict = {}

    def add_term(coeffs, deg, c):
        if floor is not None and deg < floor:
            return
        key = (coeffs, deg)
        n = out.get(key, 0) + c
        if n:
            out[key] = n
        elif key in out:
            del out[key]

    if i == 0:
        alpha_cl, alpha_deg = (-theta).coeffs, 1
        # (theta, w + rho) = sum_j rc_j(theta) (w_j + 1)
        theta_rc = rs.highest_root_coords
        top = k + hvee - sum(theta_rc)
    else:
        alpha_cl, alpha_deg = rs.simple_roots[i - 1].coeffs, 0
    for (coeffs, deg), c in char.terms.items():
        if i == 0:
            m = top - sum(map(mul, theta_rc, coeffs))
        else:
            m = coeffs[i - 1] + 1
        w = coeffs
        if m >= 1:
            for j in range(m):
                add_term(w, deg - j * alpha_deg, c)
                w = tuple(map(sub, w, alpha_cl))
        elif m <= -1:
            for j in range(1, -m + 1):
                w = tuple(map(add, w, alpha_cl))
                add_term(w, deg + j * alpha_deg, -c)
    return AffineCharacter(k, out)


# -- local and global Weyl module characters -------------------------------


def _level_one_class(rs: RootSystem, lam: Weight) -> Weight:
    """The level-one dominant weight congruent to lam modulo the root lattice."""
    for w in level_one_weights(rs):
        if rs.in_root_lattice(lam - w):
            return w
    raise StructuralError("no level-one representative found")


def char_local_weyl(rs: RootSystem, lam: Weight, N=None) -> GradedCharacter:
    """Graded character of the local Weyl module with top V(lam), head at q^0,
    truncated at q^N when N is given: the irreducible table of _local_weyl
    spread over the weights of each V(lam')."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    terms: dict = {}
    for mu, poly in _local_weyl(rs, lam).items():
        for w, m in rs.freudenthal_weights(weight_from_ints(mu)).items():
            terms[w] = terms[w] + poly * m if w in terms else poly * m
    out = GradedCharacter(terms)
    return out if N is None else out.truncated(N)


def _shifted_row(row: list, s: int) -> list:
    """row moved s places up (s < 0: down), in a row of the same length; a
    nonzero coefficient moved off either end raises."""
    if s == 0:
        return row
    if any(row[:-s] if s < 0 else row[-s:]):
        raise StructuralError("a Demazure string leaves the degree window of the module")
    return row[-s:] + [0] * -s if s < 0 else [0] * s + row[:-s]


def _string_rows(rs: RootSystem, i: int, rows: dict) -> dict:
    """demazure_step for node i at level one, on rows {classical coeffs:
    coefficients by q-degree}. A string's length depends only on the
    classical weight, so a whole row moves along it at once; a step of the
    alpha_0 string lowers the degree by one, so it shifts the row."""
    if i == 0:
        step, shift = rs.highest_root.coeffs, -1  # -alpha_0 = theta - delta
        theta_rc = rs.highest_root_coords
        top = 1 + rs.dual_coxeter - sum(theta_rc)
    else:
        step, shift = tuple(-c for c in rs.simple_roots[i - 1].coeffs), 0
    back = tuple(-c for c in step)
    out: dict = {}
    for w, row in rows.items():
        m = top - sum(map(mul, theta_rc, w)) if i == 0 else w[i - 1] + 1
        if m >= 1:  # + row at w + j step for j = 0..m-1
            op, move, js = add, step, range(m)
        else:  # - row at w + j step for j = -1..m
            op, move, js = sub, back, range(-1, m - 1, -1)
            w = tuple(map(add, w, back))
        for j in js:
            src = _shifted_row(row, j * shift)
            tgt = out.get(w)
            if tgt is None:
                out[w] = src if op is add else [-c for c in src]
            else:
                out[w] = list(map(op, tgt, src))
            w = tuple(map(add, w, move))
    return {w: row for w, row in out.items() if any(row)}


@cache
def _local_weyl(rs: RootSystem, lam: Weight) -> dict:
    """The local Weyl character with top V(lam) in the irreducible basis,
    {dominant coeffs: graded multiplicity}, head at q^0.

    The module is the level-one Demazure module of the extremal weight
    t_{w_0 lam - class}(class + Lambda0) (class = level-one representative of
    lam mod Q), whose character is the divided differences along the
    chamber-ascent word from that weight up to class + Lambda0, applied to
    e^{class + Lambda0}. The character is W-invariant and D_{w0} D_i = D_{w0}
    for finite i, so the finite prefix of the word, up to its first 0, is
    replaced by D_{w0}. The affine part acts on dense q-rows (_string_rows);
    then D_{w0} e^mu = +-ch V(dom(mu+rho) - rho), or 0 when mu+rho lies on a
    wall (Weyl's character formula), with the sign of the ascent's parity.
    The memo hands every caller the same dict: read it, never change it."""
    cls_w = _level_one_class(rs, lam)
    top = AffineWeight(cls_w, 1, 0)
    gamma_rc = tuple(int(c) for c in rs.root_coords(rs.longest_element_image(lam) - cls_w))
    target = act_affine(rs, AffineWeylElement.translation_by(rs, gamma_rc), top)
    reached, word = chamber_ascent(rs, target)
    if reached != top:
        raise StructuralError("ascent to the dominant extremal weight failed")
    # index e of a row is q^e: the extremal weight's degree maps to q^0
    rows = {cls_w.coeffs: [0] * -target.degree + [1]}
    first_affine = word.index(0) if 0 in word else len(word)
    for i in reversed(word[first_affine:]):
        rows = _string_rows(rs, i, rows)
    table: dict = {}
    for mu, row in rows.items():
        nu, ascent = rs.ascend(tuple([c + 1 for c in mu]))
        if 0 in nu:
            continue
        lam_prime = tuple([c - 1 for c in nu])
        tgt = table.get(lam_prime, [0] * len(row))
        table[lam_prime] = list(map(sub if len(ascent) % 2 else add, tgt, row))
    out = {mu: QPolynomial(dict(enumerate(row))) for mu, row in table.items() if any(row)}
    if not any(p.coeff(0) for p in out.values()):
        raise StructuralError("Demazure character does not reach the extremal degree")
    if out.get(lam.coeffs) != QPolynomial.one():
        raise StructuralError("local Weyl head multiplicity is not 1")
    return out


@cache
def _freudenthal_dominant(rs: RootSystem, lam: tuple) -> dict:
    """Dominant weight multiplicities of V(lam), {coeffs: multiplicity}, for a
    dominant coefficient tuple lam."""
    return {mu.coeffs: m for mu, m in rs.freudenthal_dominant(weight_from_ints(lam)).items()}


# taken once: a rebound name (a tracer, say) still clears its memo
_MEMOS = (_pbw_raw, char_integrable_dominant, _local_weyl, _freudenthal_dominant, _parabolic_order)


def clear_caches():
    """Empty the in-process memos of this module (PBW, integrable, local Weyl,
    Freudenthal, parabolic subgroup orders)."""
    for memo in _MEMOS:
        memo.cache_clear()


def _hilbert_dense(coeffs, top: int, inverse: bool) -> list:
    """prod_i prod_{j=1}^{m_i} (1 - q^j) for the weight with coordinates m_i,
    or its inverse series if inverse, as the coefficients of q^0..q^top."""
    out = [1] + [0] * top
    for m in coeffs:
        for j in range(1, m + 1):
            if inverse:
                for e in range(j, top + 1):
                    out[e] += out[e - j]
            else:
                for e in range(top, j - 1, -1):
                    out[e] -= out[e - j]
    return out


def hilbert_numerator(lam: Weight) -> QPolynomial:
    """prod_i prod_{j=1}^{m_i} (1 - q^j) for the symmetric-function algebra on lam."""
    top = sum(m * (m + 1) // 2 for m in lam.coeffs)
    return QPolynomial(dict(enumerate(_hilbert_dense(lam.coeffs, top, False))))


def hilbert_series(lam: Weight, N: int) -> QPolynomial:
    """prod_i prod_{j=1}^{m_i} (1 - q^j)^{-1} truncated at q^N."""
    return QPolynomial(dict(enumerate(_hilbert_dense(lam.coeffs, N, True))))


def char_global_weyl(rs: RootSystem, lam: Weight, N: int) -> GradedCharacter:
    """ch of the global Weyl module: local Weyl character times the Hilbert series
    of its highest-weight-algebra, truncated at q^N."""
    return char_local_weyl(rs, lam).truncated(N) * GradedCharacter(
        {Weight([0] * rs.rank): hilbert_series(lam, N)}, cutoff=N
    )


# -- basis expansions -------------------------------------------------------


class Expansion:
    """Result of a basis expansion: weight -> multiplicity polynomial, exact up
    to q^trusted_degree; weights whose multiplicity starts beyond the window do
    not appear."""

    __slots__ = ("multiplicities", "trusted_degree")

    def __init__(self, multiplicities, trusted_degree):
        self.multiplicities = multiplicities
        self.trusted_degree = trusted_degree

    def coeff(self, w: Weight) -> QPolynomial:
        return self.multiplicities.get(w, QPolynomial.zero())


def _rc_height(rs: RootSystem, coeffs) -> int:
    """det(C) times the height of a weight: orders weights as the height does."""
    return sum(rs.scaled_root_coords(coeffs))


def expand_in_global_weyl(rs: RootSystem, char, N=None) -> Expansion:
    """Expand a W-invariant truncated character in the global-Weyl basis.

    Processes dominant weights in decreasing dominance order: the top residual
    coefficient divided by the Hilbert series (implemented as multiplication by
    the polynomial numerator, hence exact) is the multiplicity; the subtracted
    residual must vanish identically within the window, else the input was not
    a nonnegative combination and an ExpansionError is raised.

    Only the dominant chamber is kept, as dense integer rows over the window
    q^lo..q^N, lo the least exponent of the input. The basis element at nu is
    the dominant part of the local Weyl character, read off its irreducible
    table as sum_lam' c_lam'(q) mult_{V(lam')}(w), times the Hilbert series
    of nu, cut at q^(N-lo): a multiplicity term at q^e with e < 0 moves basis
    terms up to that degree into the window."""
    if isinstance(char, GradedCharacter):
        if N is None:
            N = char.cutoff
        char = char.dominant_part(rs)
    if N is None:
        raise ValueError("expansion needs a truncation cutoff")
    char = {w: p for w, p in char.items() if p}
    lo = min((p.min_exponent() for p in char.values()), default=0)
    width = N + 1 - lo
    residual = {}  # dominant coeffs -> coefficients of q^lo..q^N
    for w, p in char.items():
        row = [p.coeff(e) for e in range(lo, N + 1)]
        if any(row):
            residual[w.coeffs] = row
    mults: dict = {}
    while residual:
        nu = max(residual, key=lambda c: (_rc_height(rs, c), c))
        top = residual[nu]
        numerator = _hilbert_dense(nu, width - 1, False)
        m = [
            sum(top[e - j] * numerator[j] for j in range(e + 1) if numerator[j])
            for e in range(width)
        ]
        if not any(m):
            raise StructuralError("vanishing extraction from a nonzero residual")
        nu_w = weight_from_ints(nu)
        mults[nu_w] = QPolynomial({e + lo: c for e, c in enumerate(m) if c})
        local: dict = {}  # dominant coeffs -> local Weyl coefficients in the window
        for lam_prime, p in _local_weyl(rs, nu_w).items():
            for w, mult in _freudenthal_dominant(rs, lam_prime).items():
                row = local.get(w)
                if row is None:
                    row = local[w] = [0] * width
                for e, c in p.items():
                    if e < width:
                        row[e] += c * mult
        series = _hilbert_dense(nu, width - 1, True)
        for w, row in local.items():
            basis = [0] * width  # local coefficient times the Hilbert series
            for e, c in enumerate(row):
                if c:
                    for j in range(width - e):
                        basis[e + j] += c * series[j]
            tgt = residual.get(w)
            if tgt is None:
                tgt = [0] * width
            for i, mi in enumerate(m):
                if mi:
                    for j in range(width - i):
                        tgt[i + j] -= mi * basis[j]
            if any(tgt):
                residual[w] = tgt
            elif w in residual:
                del residual[w]
        if nu in residual:
            raise ExpansionError(f"expansion failed to clear weight {nu_w}")
    return Expansion(mults, N)


def expand_in_irreducibles(rs: RootSystem, char: GradedCharacter) -> dict:
    """Expand a finite W-invariant character in irreducible characters (exact)."""
    residual = dict(char.dominant_part(rs).items())
    out = {}
    while residual:
        nu = max(residual, key=lambda w: (_rc_height(rs, w.coeffs), w.coeffs))
        m = residual[nu]
        out[nu] = m
        for w, mult in rs.freudenthal_dominant(nu).items():
            upd = residual.get(w, QPolynomial.zero()) - m * mult
            if upd:
                residual[w] = upd
            elif w in residual:
                del residual[w]
        if nu in residual:
            raise ExpansionError(f"irreducible expansion failed at {nu}")
    return out
