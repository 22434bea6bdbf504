"""Truncated graded characters: irreducible, parabolically induced, and integrable
module characters, Demazure operators, local/global Weyl module characters, and
expansion in the global-Weyl character basis.

Grading convention (fixed once, validated by nonnegativity of the integrable
characters and the A1 desk examples): q stands for e^{-delta}; every character is
normalized so its head sits at q-degree 0, so all stored exponents lie in [0, N].
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, mul, sub

from .affine import _alcove_sweep, check_level, check_node, level_one_weights
from .errors import ExpansionError, StructuralError
from .qseries import QPolynomial
from .rootsystem import RootSystem, Weight, _integer_inverse, weight_from_ints


def check_cutoff(N):
    """Raise ValueError unless the cutoff N is None (no truncation) or an int >= 0."""
    if N is None:
        return
    if type(N) is not int:
        raise ValueError(f"cutoff N must be an int, got {N!r}")
    if N < 0:
        raise ValueError(f"cutoff N must be >= 0, got {N}")


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
    rs.check_dominant(lam)
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
    check_level(rs, k, lam)
    check_cutoff(N)
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
    rs.check_dominant(lam)
    check_cutoff(N)
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


def demazure_word(rs: RootSystem, nodes, char: GradedCharacter, k: int) -> GradedCharacter:
    """Apply the isobaric divided-difference operator D_i of each affine node i
    in `nodes`, in turn, to e^{k Lambda0} char; D_i is linear, idempotent and a
    geometric string on monomials. A term above char.cutoff is dropped, and the
    result keeps that cutoff."""
    cut = char.cutoff
    theta_rc = rs.highest_root_coords
    # (theta, w + rho) = sum_j rc_j(theta) (w_j + 1)
    top = k + rs.dual_coxeter - sum(theta_rc)
    terms = {(w.coeffs, e): c for w, p in char.items() for e, c in p.items()}
    for i in nodes:
        check_node(rs, i)
        # alpha_0 = delta - theta and q = e^{-delta}: each alpha_0 taken off a
        # weight raises its q-degree by one
        if i == 0:
            alpha, step = (-rs.highest_root).coeffs, 1
        else:
            alpha, step = rs.simple_roots[i - 1].coeffs, 0
        out: dict = {}
        for (w, e), c in terms.items():
            m = top - sum(map(mul, theta_rc, w)) if i == 0 else w[i - 1] + 1
            if m < 0:  # -(e^{w + alpha} + ... + e^{w - m alpha}), from its top
                w = tuple(a - m * b for a, b in zip(w, alpha))
                e, c, m = e + m * step, -c, -m
            if step and cut is not None:  # q-degrees rise along the string
                m = min(m, cut + 1 - e)
            for _ in range(m):
                key = (w, e)
                n = out.get(key, 0) + c
                if n:
                    out[key] = n
                else:
                    del out[key]
                w = tuple(map(sub, w, alpha))
                e += step
        terms = out
    polys: dict = {}
    for (w, e), c in terms.items():
        polys.setdefault(weight_from_ints(w), {})[e] = c
    return GradedCharacter(polys, cutoff=cut)


# -- local and global Weyl module characters -------------------------------


def _level_one_class(rs: RootSystem, lam: Weight) -> Weight:
    """The level-one dominant weight congruent to lam modulo the root lattice."""
    for w in level_one_weights(rs):
        if rs.in_root_lattice(lam - w):
            return w
    raise StructuralError("no level-one representative found")


def _local_weyl_top(rs: RootSystem, lam: Weight) -> int:
    """Top q-degree of the local Weyl module with top V(lam):
    ((lam,lam) - (c,c))/2, c the level-one class of lam, which V(c) reaches.
    Every nonzero entry of V(lam') checked reaches _local_weyl_top(lam) -
    _local_weyl_top(lam') = ((lam,lam) - (lam',lam'))/2; the peel reads that
    only to choose when to cap an entry, and a capped entry is exact."""
    c = _level_one_class(rs, lam).coeffs
    # lam - c = gamma in Q, and (lam,lam) - (c,c) = (gamma,gamma) + 2 (gamma,c) is even
    return (rs.scaled_inner(lam.coeffs, lam.coeffs) - rs.scaled_inner(c, c)) // (2 * rs.det)


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
def _placed_forms(rs: RootSystem, order: tuple) -> list:
    """(d, adj) = _integer_inverse of det(C) C^-1 on the first p nodes of
    order, p = 1..rank: det(C) adj / d is the Schur complement of C there."""
    return [
        _integer_inverse([[rs.form[a][b] for b in order[:p]] for a in order[:p]])
        for p in range(1, rs.rank + 1)
    ]


@cache
def kostka_fermionic(rs: RootSystem, mu: Weight, lam: Weight, cap=None) -> QPolynomial:
    """[W(mu) : V(lam)], the graded multiplicity of V(lam) in the local Weyl
    module of mu, head at q^0, as the fermionic sum of Kirillov-Reshetikhin in
    the convention of Hatayama-Kuniba-Okado-Takagi-Yamada (1999):

        M = sum_m q^Q(m) prod_{a,i} [P_{a,i} + m_{a,i} choose m_{a,i}]_q,

    over the families with m_a = (m_{a,i})_i a partition of l_a, where
    mu - lam = sum_a l_a alpha_a, and every vacancy number
    P_{a,i} = mu_a - sum_b C_ab sum_j min(i, j) m_{b,j} >= 0 (i = 1..max l);
    Q(m) = 1/2 sum_{a,b,i,j} C_ab min(i, j) m_{a,i} m_{b,j}. It is the local
    Weyl table (Chari-Loktev 2006), which `verify fermionic` checks against
    the full-word Demazure character.

    The nodes are placed breadth first from the leaf with the smallest l_a,
    neighbours by increasing l_a. An unplaced node counts at f = l (parts of
    size one), so a placed node's P only falls: each placement updates P of
    the node and its neighbours in place, pruned once a placed P is negative.

    With cap, only the terms up to q^cap are kept: Q(m) = 1/2 sum_k x_k C x_k,
    x_k[a] the number of parts >= k in m_a, and C is positive definite, so Q
    is at least the Schur complement form of the placed nodes (_placed_forms),
    and a partial family with det(C) sum_k x_k adj x_k > 2 cap d is pruned.
    The memo hands every caller the same value."""
    rs.check_dominant(mu)
    rs.check_dominant(lam)
    if not rs.dominance_leq(lam, mu):
        return QPolynomial.zero()
    ell = [c // rs.det for c in rs.scaled_root_coords(tuple(map(sub, mu.coeffs, lam.coeffs)))]
    depth = max(ell, default=0)
    # each partition of l_a with its sums f(i) = sum_j min(i, j) m_j, i = 1..depth,
    # and the moves 2 (l_a - f) of its own P and f - l_a of its neighbours' P
    choices = []
    for l in ell:
        row = []
        for part in _partitions(l, l):
            f = [sum(min(i, j) * m for j, m in part.items()) for i in range(1, depth + 1)]
            row.append((list(part.items()), f, [2 * (l - x) for x in f], [x - l for x in f]))
        choices.append(row)
    nbrs = rs.neighbours
    by_l = sorted(range(rs.rank), key=lambda a: (ell[a], a))
    order = [next(a for a in by_l if len(nbrs[a]) <= 1)]
    for a in order:  # breadth first: the loop reads the nodes appended here
        order += [b for b in by_l if b in nbrs[a] and b not in order]
    placed = [[b for b in nbrs[a] if b in order[:p]] for p, a in enumerate(order)]
    later = [[b for b in nbrs[a] if b in order[p:]] for p, a in enumerate(order)]
    top, vac = mu.coeffs, [[c] * depth for c in lam.coeffs]  # P with every node at f = l
    family: list = [None] * rs.rank
    gram = [[0] * rs.rank for _ in order]  # sum_k x_k[a] x_k[b] = sum_i m_{a,i} f_b(i), by place
    forms = _placed_forms(rs, tuple(order)) if cap is not None else ()
    total: dict = {}

    def place(p):
        """Sum over the partitions of the nodes order[p:] into total."""
        a = order[p]
        own, near, far = vac[a], placed[p], later[p]
        for choice in choices[a]:
            items, _, up, down = choice
            raised = list(map(add, own, up))
            lowered = [list(map(add, vac[b], down)) for b in near]
            if min(raised, default=0) < 0 or any(min(v, default=0) < 0 for v in lowered):
                continue
            family[a] = choice
            if forms:
                for r in range(p + 1):
                    gram[p][r] = gram[r][p] = sum(m * family[order[r]][1][i - 1] for i, m in items)
                d, adj = forms[p]
                least = sum(map(mul, chain(*adj), chain(*(g[: p + 1] for g in gram[: p + 1]))))
                if rs.det * least > 2 * cap * d:
                    continue
            saved = [vac[b] for b in (a, *near, *far)]
            vac[a] = raised
            for b, v in zip(near, lowered):
                vac[b] = v
            for b in far:
                vac[b] = list(map(add, vac[b], down))
            if p + 1 < rs.rank:
                place(p + 1)
            else:
                add_term()
            for b, v in zip((a, *near, *far), saved):
                vac[b] = v

    def add_term():
        twice_q, term = 0, (1,)
        for b, (items, *_) in enumerate(family):
            for i, m in items:  # sum_c C_bc f_c(i) = mu_b - P_{b,i}
                twice_q += m * (top[b] - vac[b][i - 1])
                term = _dense_times(term, _q_binomial(vac[b][i - 1] + m, m))
        for e, c in enumerate(term, twice_q // 2):
            if cap is None or e <= cap:
                total[e] = total.get(e, 0) + c

    place(0)
    return QPolynomial(total)


@cache
def _dominant_below(rs: RootSystem, nu: tuple) -> list:
    """The dominant lam' <= nu, as sorted coefficient tuples: the rows of the
    local Weyl table of nu."""
    return sorted(lam.coeffs for lam in rs.dominant_weights_below(weight_from_ints(nu)))


def _local_weyl_table(rs: RootSystem, nu: tuple, cap=None, floor=None) -> dict:
    """The local Weyl table of nu, {dominant coeffs: graded multiplicity}:
    kostka_fermionic(nu, lam') over the dominant lam' <= nu, only lam' >= floor
    when floor is given. With cap, an entry whose top degree ((nu,nu) -
    (lam',lam'))/2 lies above cap keeps only its terms up to q^cap."""
    nu_w = weight_from_ints(nu)
    reach = rs.scaled_inner(nu, nu) - 2 * rs.det * cap if cap is not None else 0
    table = {}
    for lam in _dominant_below(rs, nu):
        # lam' and floor lie below nu in one coset, so lam' - floor is integral
        if floor is not None and min(rs.scaled_root_coords(tuple(map(sub, lam, floor)))) < 0:
            continue
        cut = (cap,) if rs.scaled_inner(lam, lam) < reach else ()  # the cap binds here
        entry = kostka_fermionic(rs, nu_w, weight_from_ints(lam), *cut)
        if entry:
            table[lam] = entry
    return table


def char_local_weyl(rs: RootSystem, lam: Weight) -> GradedCharacter:
    """Graded character of the local Weyl module with top V(lam), head at q^0:
    the irreducible table of _local_weyl_table spread over the weights of
    each V(lam')."""
    rs.check_dominant(lam)
    terms: dict = {}
    for mu, poly in _local_weyl_table(rs, lam.coeffs).items():
        for w, m in rs.freudenthal_weights(weight_from_ints(mu)).items():
            terms[w] = terms[w] + poly * m if w in terms else poly * m
    return GradedCharacter(terms)


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
    kostka_fermionic,
    _placed_forms,
    _q_binomial,
    _dominant_below,
    _freudenthal_dominant,
)


def clear_caches():
    """Empty the in-process memos of this module (integrable characters and
    their layers, solved and per cutoff, Macdonald denominator, tensor
    products and their orbits, the fermionic sum and its parts, Freudenthal)."""
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
    return char_local_weyl(rs, lam).truncated(N).scaled(hilbert_series(lam, N))


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
    return _peel_global_weyl(rs, rows, lo, N)


def _peel_global_weyl(rs: RootSystem, residual: dict, lo: int, N: int, floor=None) -> Expansion:
    """The global-Weyl expansion of rows {dominant coeffs: coefficients of
    q^lo..q^N} in the irreducible basis; the rows are used up.

    The highest weights are processed in decreasing (height, coeffs) order:
    the top residual row divided by the Hilbert series (implemented as
    multiplication by the polynomial numerator, hence exact) is the
    multiplicity m, and the whole basis element, the local Weyl table of nu
    (_local_weyl_table) times the Hilbert series and m, cut at q^(N-lo), is
    subtracted. As m = top times the numerator, that element is the local
    Weyl table times the top row itself within the window, so the table is
    read only up to q^c, c = N - lo - the first degree of the top row. The
    head must clear, else the input was not a combination of the basis and an
    ExpansionError is raised.

    With floor, only the rows lam' >= floor of each table are read: an
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
        cap = width - 1 - next(j for j, c in enumerate(top) if c)
        for lam_prime, p in _local_weyl_table(rs, nu, cap, floor).items():
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
