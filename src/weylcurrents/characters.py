"""Truncated graded characters: irreducible, parabolically induced, and integrable
module characters, Demazure operators, local/global Weyl module characters, and
expansion in the global-Weyl character basis.

Grading convention (fixed once, validated by nonnegativity of the integrable
characters and the A1 desk examples): q stands for e^{-delta}; every character is
normalized so its head sits at q-degree 0, so all stored exponents lie in [0, N].
"""

from __future__ import annotations

from functools import cache, partial
from operator import add, mul, sub

from .affine import (
    AffineWeight,
    _alcove_sweep,
    chamber_ascent,
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
        return cutoff + min([0, *(p.min_exponent() for p in factor_polys if p)])

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


# -- irreducible characters ------------------------------------------------


def char_irreducible(rs: RootSystem, lam: Weight) -> GradedCharacter:
    """q-free character of the irreducible module with highest weight lam."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    one = QPolynomial.one()
    return GradedCharacter({w: one * m for w, m in rs.freudenthal_weights(lam).items()})


# -- parabolic-Verma and integrable characters as Weyl-Kac ratios -----------
# A graded character in the irreducible basis is a list of layers, layer d the
# dict {dominant coeffs: multiplicity of V at q^d}.


@cache
def _orbit(rs: RootSystem, mu: tuple) -> list:
    """The W-orbit of the dominant coefficient tuple mu (RootSystem.orbit_coeffs),
    which the Brauer-Klimyk products of _tensor read once per factor weight.
    The memo hands every caller the same list: read it, never change it."""
    return rs.orbit_coeffs(mu)


@cache
def _tensor(rs: RootSystem, a: tuple, b: tuple) -> dict:
    """ch V(a) ch V(b) in the irreducible basis, {dominant coeffs:
    multiplicity}, for a <= b (one memo entry per unordered pair; see _times).

    Brauer-Klimyk: with x over the weights of the smaller factor (by Weyl's
    dimension formula) and c the other highest weight, each e^{c + x}
    straightens to +-ch V(dom(c + rho + x) - rho), with the sign of the
    ascent's parity, or to 0 when c + rho + x lies on a wall."""
    if rs.weyl_dimension(weight_from_ints(a)) > rs.weyl_dimension(weight_from_ints(b)):
        a, b = b, a
    shifted = [c + 1 for c in b]
    out: dict = {}
    for mu, m in _freudenthal_dominant(rs, a).items():
        for x in _orbit(rs, mu):
            nu, ascent = rs.ascend(tuple(map(add, shifted, x)))
            if 0 not in nu:
                key = tuple([c - 1 for c in nu])
                out[key] = out.get(key, 0) + (-m if len(ascent) % 2 else m)
    return {lam: m for lam, m in out.items() if m}


def _times(rs: RootSystem, a: tuple, b: tuple) -> dict:
    """ch V(a) ch V(b), read from the memo entry of the unordered pair."""
    return _tensor(rs, a, b) if a <= b else _tensor(rs, b, a)


def _sweep_layers(sweep, N: int) -> list:
    """The layers up to q^N of sum (-1)^len(word) q^offset ch V(nu - rho)
    over the terms (nu, offset, word) of an alcove sweep (affine._alcove_sweep)."""
    layers: list = [{} for _ in range(N + 1)]
    for nu, offset, word in sweep:
        layers[offset][tuple([c - 1 for c in nu.coeffs])] = -1 if len(word) % 2 else 1
    return layers


@cache
def _denominator(rs: RootSystem, N: int) -> list:
    """The layers of Delta = prod_{n>=1} (1 - q^n)^rank prod_alpha (1 - q^n e^alpha)
    up to q^N, the inverse of the character P of the symmetric algebra on
    g tensor zC[z]. By the Macdonald identity (Kac, Ch. 10 and 12) Delta is
    the alcove sweep of rho at level h^vee (lam = 0 at level 0). The memo
    hands every caller the same list: read it, never change it."""
    layers = _sweep_layers(_alcove_sweep(rs, rs.rho, rs.dual_coxeter, N), N)
    if layers[0] != {rs.zero().coeffs: 1}:
        raise StructuralError("the Macdonald denominator does not start at V(0)")
    return layers


def _ratio(rs: RootSystem, lam: tuple, sweep, N: int, solved=()) -> list:
    """The layers of X = Num / Delta up to q^N, Num the terms of sweep (see
    _sweep_layers), solved degree by degree after the layers `solved`, a
    prefix of X: Delta_0 = V(0), so X_d = Num_d - sum_{j>=1} Delta_j X_{d-j}.
    X_0 must be V(lam), the head of the module."""
    if N < 0:
        raise ValueError(f"cutoff N must be >= 0, got {N}")
    numerator = _sweep_layers(sweep, N)
    delta = _denominator(rs, N)
    out = list(solved)
    for d in range(len(out), N + 1):
        layer = numerator[d]
        for j in range(1, d + 1):
            for a, ca in delta[j].items():
                for b, cb in out[d - j].items():
                    for c, m in _times(rs, a, b).items():
                        layer[c] = layer.get(c, 0) - ca * cb * m
        out.append({c: m for c, m in layer.items() if m})
    if out[0] != {lam: 1}:
        raise StructuralError(f"the Weyl-Kac ratio does not start at V({lam})")
    return out


@cache
def _solved_layers(rs: RootSystem, lam: Weight, k: int) -> list:
    """The layers of ch L_k(lam) solved so far, one list per (lam, k) that
    _integrable_layers extends; layer d does not depend on the cutoff."""
    return []


@cache
def _integrable_layers(rs: RootSystem, lam: Weight, k: int, N: int) -> list:
    """The layers of ch L_k(lam) up to q^N by Weyl-Kac as a ratio, Num / Delta
    (see _ratio), Num the alcove sweep of lam + rho at level k + h^vee. The
    ratio goes on from the last layer solved at an earlier cutoff. The memo
    hands every caller the same list: read it, never change it."""
    if not in_level_dominant(rs, lam, k):
        raise ValueError(f"{lam} is not in P_+^{k}")
    if k < 1:
        raise ValueError("level k must be >= 1")
    if N < 0:
        raise ValueError(f"cutoff N must be >= 0, got {N}")
    solved = _solved_layers(rs, lam, k)
    if len(solved) <= N:
        sweep = _alcove_sweep(rs, lam + rs.rho, k + rs.dual_coxeter, N)
        solved[:] = _ratio(rs, lam.coeffs, sweep, N, solved)
    return solved[: N + 1]


def _layer_rows(layers: list) -> dict:
    """Irreducible-basis layers as rows {dominant coeffs: coefficients of
    q^0..q^N}, one row per V."""
    rows: dict = {}
    for d, layer in enumerate(layers):
        for lam, m in layer.items():
            rows.setdefault(lam, [0] * len(layers))[d] = m
    return rows


def _weight_rows(rs: RootSystem, layers: list) -> dict:
    """Irreducible-basis layers spread over the dominant weights of each V, as
    rows {dominant coeffs: coefficients of q^0..q^N}."""
    rows: dict = {}
    for lam, row in _layer_rows(layers).items():
        for mu, mult in _freudenthal_dominant(rs, lam).items():
            tgt = rows.get(mu) or [0] * len(row)
            rows[mu] = [a + mult * b for a, b in zip(tgt, row)]
    return rows


def char_parabolic_verma(rs: RootSystem, lam: Weight, N: int) -> GradedCharacter:
    """Character of the module induced from V(lam) over the z-positive part,
    truncated at q^N: ch V(lam) times the character of the symmetric algebra
    on g tensor zC[z], which is 1/Delta (see _denominator)."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    layers = _ratio(rs, lam.coeffs, [(lam + rs.rho, 0, ())], N)  # Num = V(lam)
    terms = {}  # the character is W-invariant: each dominant row fills its orbit
    for mu, row in _weight_rows(rs, layers).items():
        for w in rs.orbit_coeffs(mu):
            terms[weight_from_ints(w)] = dict(enumerate(row))
    return GradedCharacter(terms, cutoff=N)


@cache
def char_integrable_dominant(rs: RootSystem, lam: Weight, k: int, N: int):
    """Dominant sector of ch L_k(lam) truncated at q^N, as Weight -> QPolynomial,
    in lexicographic order of the weights: the irreducible layers of
    _integrable_layers, each V spread over its dominant weights."""
    rows = _weight_rows(rs, _integrable_layers(rs, lam, k, N))
    return {
        weight_from_ints(mu): QPolynomial(dict(enumerate(row)))
        for mu, row in sorted(rows.items())
        if any(row)
    }


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


def _local_weyl_top(rs: RootSystem, lam: Weight) -> int:
    """Top q-degree of the local Weyl module with top V(lam):
    ((lam,lam) - (c,c))/2, c the level-one class of lam. It is the depth of
    the extremal weight _local_weyl starts from, so it bounds every row of
    that table; the rows reach it, as the weight c stays at that depth."""
    cls_w = _level_one_class(rs, lam)
    return int((rs.inner(lam, lam) - rs.inner(cls_w, cls_w)) / 2)


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
    t_{w_0 lam - class}(class + Lambda0) = w_0 lam + Lambda0
    - ((lam,lam) - (class,class))/2 delta (class = level-one representative
    of lam mod Q), whose character is the divided differences along the
    chamber-ascent word from that weight up to class + Lambda0, applied to
    e^{class + Lambda0}. The character is W-invariant and D_{w0} D_i = D_{w0}
    for finite i, so the finite prefix of the word, up to its first 0, is
    replaced by D_{w0}. The affine part acts on dense q-rows (_string_rows);
    then D_{w0} e^mu = +-ch V(dom(mu+rho) - rho), or 0 when mu+rho lies on a
    wall (Weyl's character formula), with the sign of the ascent's parity.
    The memo hands every caller the same dict: read it, never change it."""
    cls_w = _level_one_class(rs, lam)
    top = AffineWeight(cls_w, 1, 0)
    target = AffineWeight(rs.longest_element_image(lam), 1, -_local_weyl_top(rs, lam))
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
_MEMOS = (
    char_integrable_dominant,
    _integrable_layers,
    _solved_layers,
    _denominator,
    _tensor,
    _orbit,
    _local_weyl,
    _freudenthal_dominant,
)


def clear_caches():
    """Empty the in-process memos of this module (integrable characters and
    their layers, solved and per cutoff, Macdonald denominator, tensor
    products and the orbits they read, local Weyl, Freudenthal)."""
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


def _window_rows(polys: dict, lo: int, hi: int) -> dict:
    """{coeffs: coefficients of q^lo..q^hi} for the rows of {Weight:
    QPolynomial} that are nonzero in that window."""
    rows = {}
    for w, p in polys.items():
        row = [p.coeff(e) for e in range(lo, hi + 1)]
        if any(row):
            rows[w.coeffs] = row
    return rows


def _irreducible_rows(rs: RootSystem, rows: dict) -> dict:
    """Rows {dominant coeffs: coefficients by degree} of a W-invariant
    character rewritten in the irreducible basis, in decreasing (height,
    coeffs) order: the highest weight left is the highest weight of a V, whose
    dominant multiplicities are then subtracted (a triangular solve)."""
    residual = dict(rows)
    out = {}
    while residual:
        nu = max(residual, key=lambda c: (_rc_height(rs, c), c))
        top = out[nu] = residual.pop(nu)
        for mu, mult in _freudenthal_dominant(rs, nu).items():
            if mu != nu:
                row = [a - mult * b for a, b in zip(residual.get(mu, [0] * len(top)), top)]
                if any(row):
                    residual[mu] = row
                else:
                    residual.pop(mu, None)
    return out


def expand_in_global_weyl(rs: RootSystem, char, N=None) -> Expansion:
    """Expand a W-invariant truncated character in the global-Weyl basis.

    The dominant part is read as dense integer rows over the window q^lo..q^N,
    lo the least exponent of the input, rewritten in the irreducible basis
    (_irreducible_rows) and peeled (_peel_global_weyl)."""
    if isinstance(char, GradedCharacter):
        if N is None:
            N = char.cutoff
        char = char.dominant_part(rs)
    if N is None:
        raise ValueError("expansion needs a truncation cutoff")
    lo = min((p.min_exponent() for p in char.values() if p), default=0)
    rows = _irreducible_rows(rs, _window_rows(char, lo, N))
    return _peel_global_weyl(rs, rows, lo, N, partial(_local_weyl, rs))


def _peel_global_weyl(rs: RootSystem, residual: dict, lo: int, N: int, table) -> Expansion:
    """The global-Weyl expansion of rows {dominant coeffs: coefficients of
    q^lo..q^N} in the irreducible basis; the rows are used up.

    The highest weights are processed in decreasing (height, coeffs) order:
    the top residual row divided by the Hilbert series (implemented as
    multiplication by the polynomial numerator, hence exact) is the
    multiplicity m, and the whole basis element, the local Weyl table of nu,
    table(nu), times the Hilbert series and m, cut at q^(N-lo), is
    subtracted. As m = top times the numerator, that element is the local
    Weyl table times the top row itself within the window. The head must
    clear, else the input was not a combination of the basis and an
    ExpansionError is raised.

    table(nu) is {dominant coeffs: graded multiplicity}: the whole local
    Weyl table (_local_weyl) for the whole expansion, or only its rows in an
    up-set of weights closed under the peel, to expand only that up-set (as
    kostka_characters does)."""
    width = N + 1 - lo
    mults: dict = {}
    while residual:
        nu = max(residual, key=lambda c: (_rc_height(rs, c), c))
        top = residual[nu][:]  # the subtraction below writes into residual[nu]
        numerator = _hilbert_dense(nu, width - 1, False)
        m = [
            sum(top[e - j] * numerator[j] for j in range(e + 1) if numerator[j])
            for e in range(width)
        ]
        if not any(m):
            raise StructuralError("vanishing extraction from a nonzero residual")
        nu_w = weight_from_ints(nu)
        mults[nu_w] = QPolynomial({e + lo: c for e, c in enumerate(m) if c})
        for lam_prime, p in table(nu_w).items():
            tgt = residual.get(lam_prime) or [0] * width
            for e, c in p.items():
                for j in range(width - e):
                    tgt[e + j] -= c * top[j]
            if any(tgt):
                residual[lam_prime] = tgt
            else:
                residual.pop(lam_prime, None)
        if nu in residual:
            raise ExpansionError(f"expansion failed to clear weight {nu_w}")
    return Expansion(mults, N)


def expand_in_irreducibles(rs: RootSystem, char: GradedCharacter) -> dict:
    """Expand a finite W-invariant character in irreducible characters (exact)."""
    polys = char.dominant_part(rs)
    lo = min((p.min_exponent() for p in polys.values()), default=0)
    hi = max((p.max_exponent() for p in polys.values()), default=0)
    return {
        weight_from_ints(lam): QPolynomial({e + lo: c for e, c in enumerate(row)})
        for lam, row in _irreducible_rows(rs, _window_rows(polys, lo, hi)).items()
    }
