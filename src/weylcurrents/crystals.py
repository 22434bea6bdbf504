"""Type-A affine column crystals, their tensor products, the combinatorial R
isomorphism, local energy, the global degree function, and restricted paths.

A column of height r is a strictly increasing r-subset of {1..n+1} (tuple);
a tensor element is a tuple of columns, heights read left to right. The affine
operators use promotion on columns: f_0 replaces the letter n+1 by 1. String
statistics follow the eps/phi naming (phi is sometimes written psi elsewhere).
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from functools import cache
from itertools import combinations, compress, product, repeat
from math import comb, prod
from operator import add, mul, sub

from .errors import StructuralError
from .qseries import QPolynomial
from .rootsystem import Weight, build_root_system, weight_from_ints

# Orientation of the local energy across 0-arrows, calibrated once against the
# degree-function axioms (checked on every built graph): moving along e_0, a
# step acting on the left factor both before and after R raises H by one, a
# step acting on the right factor in both lowers it by one.
ENERGY_ORIENTATION = "e0:LL=+1,RR=-1"


def column_vertices(n: int, r: int):
    if not 1 <= r <= n:
        raise ValueError(f"column height {r} out of range 1..{n}")
    return [tuple(c) for c in combinations(range(1, n + 2), r)]


def _letter_pair(n: int, i: int):
    """The letters (a, b) of node i: f_i turns a into b and e_i turns b into a.
    They are (i, i + 1) for i >= 1, and (n + 1, 1) for i = 0 (promotion)."""
    return (n + 1, 1) if i == 0 else (i, i + 1)


def column_weight(n: int, col) -> Weight:
    """phi_j - eps_j for j = 1..n, the pairing of the weight with alpha_j^vee."""
    return Weight([column_phi(n, j, col) - column_eps(n, j, col) for j in range(1, n + 1)])


def column_apply(n: int, direction: str, i: int, col):
    """e_i / f_i on a single column; None when the operator vanishes. A
    direction other than "e" or "f" raises ValueError."""
    a, b = _letter_pair(n, i)
    if direction == "e":
        a, b = b, a
    elif direction != "f":
        raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")
    if a not in col or b in col:
        return None
    return tuple(sorted(b if x == a else x for x in col))


def column_eps(n: int, i: int, col) -> int:
    a, b = _letter_pair(n, i)
    return int(b in col and a not in col)


def column_phi(n: int, i: int, col) -> int:
    a, b = _letter_pair(n, i)
    return int(a in col and b not in col)


def tensor_weight(n: int, b) -> Weight:
    w = Weight([0] * n)
    for col in b:
        w = w + column_weight(n, col)
    return w


def tensor_stats(n: int, b):
    """(weight, eps, phi) of a tensor element, eps/phi indexed by 0..n.

    Folds the two-factor rules eps(x⊗y) = eps(x) + max(0, eps(y) - phi(x)) and
    phi(x⊗y) = phi(y) + max(0, phi(x) - eps(y)) left to right."""
    eps = [0] * (n + 1)
    phi = [0] * (n + 1)
    for col in b:
        for i in range(n + 1):
            e2, p2 = column_eps(n, i, col), column_phi(n, i, col)
            e1, p1 = eps[i], phi[i]
            eps[i] = e1 + max(0, e2 - p1)
            phi[i] = p2 + max(0, p1 - e2)
    return tensor_weight(n, b), tuple(eps), tuple(phi)


def apply_op(n: int, direction: str, i: int, b):
    """e_i / f_i on a tensor element by the signature rule; None when it
    vanishes. A direction other than "e" or "f" raises ValueError."""
    if direction not in ("e", "f"):
        raise ValueError(f"direction must be 'e' or 'f', got {direction!r}")
    if not b:  # the empty element, eps_i = phi_i = 0
        return None
    prefix, last = b[:-1], b[-1]
    p1 = tensor_stats(n, prefix)[2][i]
    e2 = column_eps(n, i, last)
    if direction == "e":
        act_left = p1 >= e2
    else:
        act_left = p1 > e2
    if act_left:
        res = apply_op(n, direction, i, prefix)
        return None if res is None else res + (last,)
    col = column_apply(n, direction, i, last)
    return None if col is None else prefix + (col,)


# -- combinatorial R and local energy (memoized per (n, r, s)) -------------
#
# Both are flat tables over the two-factor fold _fold(n, (r, s)), whose vertex
# p * m_s + q is the pair of the columns at positions p and q (m_s the number
# of height-s columns); the per-pair functions look them up. The memos hand
# every caller the same lists: read them, never change them.


def _pair_index(n: int, pair) -> int:
    """The vertex of the two-factor fold that is the pair of columns."""
    b, c = pair
    right = _column_tables(n, len(c))
    return _column_tables(n, len(b))[1][b] * len(right[0]) + right[1][c]


@cache
def _two_factor(n: int, r: int, s: int):
    """(weights, f_arrows, label, highest) of the fold of (r, s), with the
    classical components of `_classical_components`; `_build_R` reads it
    for both orders of the heights and `_build_H` once more."""
    _, weights, eps, _, f_arrows, _ = _fold(n, (r, s), energy=False)
    arrows = _arrows(f_arrows)
    label, highest = _classical_components(n, eps, arrows, _e_arrows(len(weights), arrows))
    return weights, f_arrows, label, highest


def combinatorial_R(n: int, pair):
    """The unique classical isomorphism B^{r,1} x B^{s,1} -> B^{s,1} x B^{r,1},
    read from the table of `_build_R`."""
    b, c = pair
    r, s = len(b), len(c)
    if r == s:
        return pair
    left, right = _column_tables(n, s)[0], _column_tables(n, r)[0]
    p, q = divmod(_build_R(n, r, s)[_pair_index(n, pair)], len(right))
    return left[p], right[q]


@cache
def _build_R(n: int, r: int, s: int):
    """R as a table: the vertex of the (s, r) fold that each vertex of the
    (r, s) fold maps to. Classical-highest vertices of equal weight are
    matched, then R is carried along the classical f_i arrows of both folds."""
    weights, f_arrows, _, highest = _two_factor(n, r, s)
    back_weights, back_f_arrows, _, back_highest = _two_factor(n, s, r)
    by_weight = {}
    for h in back_highest:
        if back_weights[h] in by_weight:
            raise StructuralError("classical decomposition is not multiplicity-free")
        by_weight[back_weights[h]] = h
    R = [-1] * len(weights)
    classical = list(zip(f_arrows[1:], back_f_arrows[1:]))
    for h in highest:
        if weights[h] not in by_weight:
            raise StructuralError("no weight-matched component for the R isomorphism")
        R[h] = by_weight[weights[h]]
        stack = [h]
        while stack:
            u = stack.pop()
            for f, back_f in classical:
                t = f[u]
                if t >= 0 and R[t] < 0:
                    R[t] = back_f[R[u]]
                    if R[t] < 0:
                        raise StructuralError("R propagation lost a lowering arrow")
                    stack.append(t)
    if -1 in R:
        raise StructuralError("R isomorphism does not cover the crystal")
    return R


def local_energy(n: int, pair) -> int:
    """H on B^{r,1} x B^{s,1}, read from the table of `_build_H`."""
    b, c = pair
    return _build_H(n, len(b), len(c))[_pair_index(n, pair)]


def _acts_left(n: int, r: int, s: int):
    """For each vertex (p, q) of the fold of (r, s): whether e_0 acts on its
    left factor, phi_0(p) >= eps_0(q)."""
    return [a >= b for a in _column_tables(n, r)[4][0] for b in _column_tables(n, s)[3][0]]


@cache
def _build_H(n: int, r: int, s: int):
    """H as a table over the (r, s) fold: constant on classical components, 0
    on the component of vertex 0 (the two top columns), and stepping across
    every f_0 arrow u -> v by ENERGY_ORIENTATION: H(v) - H(u) is -1 when e_0
    acts on the left factor of both v and R(v), +1 when on the right factor
    of both, else 0. Every 0-arrow must agree and every component be reached."""
    _, f_arrows, label, highest = _two_factor(n, r, s)
    R = _build_R(n, r, s)
    here, there = _acts_left(n, r, s), _acts_left(n, s, r)
    links = {c: [] for c in highest}
    for u, v in enumerate(f_arrows[0]):
        if v < 0:
            continue
        step = 1 - here[v] - there[R[v]]
        links[label[u]].append((label[v], step))
        links[label[v]].append((label[u], -step))
    H = {label[0]: 0}
    stack = [label[0]]
    while stack:
        c = stack.pop()
        for d, step in links[c]:
            if d not in H:
                H[d] = H[c] + step
                stack.append(d)
            elif H[d] != H[c] + step:
                raise StructuralError("local energy propagation is inconsistent")
    if len(H) != len(highest):
        raise StructuralError("two-factor crystal is not connected")
    return [H[c] for c in label]


def energy_of_element(n: int, b) -> int:
    """Degree statistic D: sum over factor pairs i < j of the local energy
    H(b_i, x), where x is b_j transported next to b_i by successive R swaps.
    Each b_j is moved leftward once, past b_{j-1}, ..., b_0 in turn: pair
    (i, j) needs the swaps of pair (i + 1, j) plus one more."""
    total = 0
    for j in range(1, len(b)):
        x = b[j]
        for i in range(j - 1, -1, -1):
            total += local_energy(n, (b[i], x))
            x = combinatorial_R(n, (b[i], x))[0]
    return total


# -- the table-driven kernel -----------------------------------------------
#
# The vertices of B^{r_1,1} x ... x B^{r_L,1} are product(*columns) in
# lexicographic order, so a vertex index is the mixed-radix number of its
# column positions, and the prefix of length l of vertex t is t divided by the
# product of the remaining column counts. Folding the factors in left to right
# computes each prefix once for all the vertices that share it. Tables are
# column-major: one list per coordinate, indexed by column or by state.


class TensorVertices(Sequence):
    """The vertices product(*columns) of a tensor crystal, read-only: vertex t
    is the tuple of the columns at the mixed-radix digits of t, computed when
    asked, so no vertex tuple is stored; a slice gives the list of its
    vertices. No columns (mu = 0) give the one vertex ()."""

    __slots__ = ("columns", "size")

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.size = prod(map(len, self.columns))

    def __len__(self):
        return self.size

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[u] for u in range(self.size)[t]]
        if not -self.size <= t < self.size:
            raise IndexError("vertex index out of range")
        digits = []  # floor division reads a negative t as t + size
        for cols in reversed(self.columns):
            t, p = divmod(t, len(cols))
            digits.append(cols[p])
        return tuple(reversed(digits))

    def __iter__(self):
        return product(*self.columns)


@cache
def _column_tables(n: int, r: int):
    """The height-r columns and their tables (columns, positions, weight, eps,
    phi, f): positions maps each column to its index, then the int tables of
    the weight coefficients j = 1..n, and of eps, phi and f for i = 0..n, where
    f_i is the position of the image column (-1 when f_i vanishes). The memo
    hands every caller the same tables: read them, never change them."""
    cols = column_vertices(n, r)
    pos = {c: p for p, c in enumerate(cols)}
    ops = range(n + 1)
    wts = list(zip(*(column_weight(n, c).coeffs for c in cols)))
    eps = [[column_eps(n, i, c) for c in cols] for i in ops]
    phi = [[column_phi(n, i, c) for c in cols] for i in ops]
    f = [[pos.get(column_apply(n, "f", i, c), -1) for c in cols] for i in ops]
    return cols, pos, wts, eps, phi, f


def _groups(keys):
    """The distinct keys of the columns, each with the columns that have it."""
    groups = {}
    for c, key in enumerate(keys):
        groups.setdefault(key, []).append(c)
    return list(groups.items())


@cache
def _column_groups(n: int, r: int):
    """The height-r columns grouped by the values `_fold` writes per slice:
    by each weight coefficient, then for i = 0..n by (c, eps_i, f_i), one
    column each, by eps_i and by (eps_i, phi_i). The memo hands every caller
    the same lists: read them, never change them."""
    _, _, wts, eps, phi, f = _column_tables(n, r)
    return (
        [_groups(zip(w)) for w in wts],
        [_groups(zip(range(len(g)), e, g)) for e, g in zip(eps, f)],
        [_groups(zip(e)) for e in eps],
        [_groups(zip(e, p)) for e, p in zip(eps, phi)],
    )


def _by_column(m: int, size: int, groups, make):
    """A table of `size` entries whose slice c::m, the states that end in
    column c, is the list make(*key) for the key of c in `groups`."""
    out = [0] * size
    for key, cs in groups:
        values = make(*key)
        for c in cs:
            out[c::m] = values
    return out


def _fold(n: int, heights, energy: bool):
    """(vertices, weights, eps, phi, f_arrows, D) of the tensor crystal with
    the given column heights, vertices in lexicographic order (a
    `TensorVertices`); eps, phi and f_arrows are indexed [i][t], and D is None
    unless `energy`.

    Factor l extends every prefix state s by every column c, giving state
    s * m + c, so the states that end in c are the slice c::m of the new
    table. A column's statistics take few values, and each table is written
    one slice at a time from one list over the prefix states per distinct
    value (`_by_column`); a value that leaves the prefix's entry as it is
    writes the prefix table itself. The statistics follow the two-factor
    rules of `tensor_stats`. f_i follows the signature rule of `apply_op`: it
    acts on the prefix when phi_i(prefix) > eps_i(c), else on c; its slice
    carries c and the column's image, so each column makes its own. D is
    `energy_of_element` by transport tables: for each height r still to come,
    T[r][s * m_r + x] is the energy a height-r column x collects moving left
    through prefix s. Then D(s * m + c) = D(s) + T[r][s * m + c], and the new
    factor p extends each table by T[r](s ⊗ p, x) = H(p, x) + T[r](s, R(p,
    x)[0])."""
    tables = {r: _column_tables(n, r) for r in set(heights)}
    pairs = {}
    if energy:
        for a, b in {(a, b) for j, b in enumerate(heights) for a in heights[:j]}:
            m_a = len(tables[a][0])
            R = [t // m_a for t in _build_R(n, a, b)]
            pairs[a, b] = len(R), _groups(zip(_build_H(n, a, b), R))
    if heights:
        # the states of the first factor are its columns, and each transport
        # table starts as H of that column and the later one
        r = heights[0]
        W, E, P, F = ([list(row) for row in table] for table in tables[r][2:])
        D = [0] * len(F[0])
        T = {later: list(_build_H(n, r, later)) for later in set(heights[1:])} if energy else {}
    else:  # the empty prefix is the one state
        W, E, P = ([[0] for _ in range(rows)] for rows in (n, n + 1, n + 1))
        F = [[-1] for _ in range(n + 1)]
        D = [0]
    for level, r in enumerate(heights[1:], start=1):
        gw, gf, ge, gp = _column_groups(n, r)
        m = len(tables[r][0])
        size = len(E[0]) * m
        W = [
            _by_column(m, size, groups, lambda v: [x + v for x in Wj] if v else Wj)
            for Wj, groups in zip(W, gw)
        ]
        F = [
            _by_column(
                m,
                size,
                groups,
                lambda c, a, g: [
                    t * m + c if q > a else u
                    for t, q, u in zip(Fi, Pi, range(g, size, m) if g >= 0 else repeat(-1))
                ],
            )
            for Fi, Pi, groups in zip(F, P, gf)
        ]
        E = [
            _by_column(
                m,
                size,
                groups,
                lambda a: [e + a - q if a > q else e for e, q in zip(Ei, Pi)] if a else Ei,
            )
            for Ei, Pi, groups in zip(E, P, ge)
        ]
        P = [
            _by_column(
                m,
                size,
                groups,
                lambda a, b: [b + q - a if q > a else b for q in Pi] if a or b else Pi,
            )
            for Pi, groups in zip(P, gp)
        ]
        if energy:
            D = list(map(add, _by_column(m, size, [((), range(m))], lambda: D), T[r]))
            extended = {}
            for later in set(heights[level + 1 :]):
                M, groups = pairs[r, later]
                Tl, ml = T[later], M // m
                extended[later] = _by_column(
                    M,
                    size * ml,
                    groups,
                    lambda h, x: [h + v for v in Tl[x::ml]] if h else Tl[x::ml],
                )
            T = extended
    distinct = {w: weight_from_ints(w) for w in set(zip(*W))}
    weights = [distinct[w] for w in zip(*W)]
    vertices = TensorVertices([tables[r][0] for r in heights])
    return vertices, weights, E, P, F, D if energy else None


# -- sealed crystal graphs -------------------------------------------------

CACHE_ENV = "WEYLCURRENTS_CACHE"
CACHE_FORMAT = 2  # the disk cache document
EXPORT_FORMAT = 1  # the `export --format json` document


def _arrows(f_arrows):
    """The sources and the targets of the f_i arrows, for each i. The sources
    are taken from one list of the vertex indices, so every table that keeps
    them shares its int objects instead of holding one per arrow."""
    V = list(range(len(f_arrows[0])))
    out = []
    for row in f_arrows:
        has = [d >= 0 for d in row]
        out.append((list(compress(V, has)), list(compress(row, has))))
    return out


def _e_arrows(size, arrows):
    """e_i as tables: the source of the f_i arrow into each vertex, else -1."""
    tables = []
    for src, dst in arrows:
        e = [-1] * size
        for s, d in zip(src, dst):
            e[d] = s
        tables.append(e)
    return tables


def _classical_components(n: int, eps, arrows, e_arrows):
    """(label, highest): each vertex labelled by the classical-highest vertex
    (eps_i = 0 for i >= 1) of its classical component, and those vertices in
    index order.

    One raising pass: vertices are in lexicographic order and a classical e_i
    turns one letter i + 1 into i, so e_i(t) < t and its label is already set.
    A classical-highest vertex labels itself; any other vertex takes the label
    of e_i(t) for its first i >= 1 with eps_i(t) > 0, and has none when that
    arrow is missing. Every classical f_i arrow must then keep its label, so no
    component has two such vertices. (A raising cycle, the one way a label
    could name a vertex that is not classical-highest, breaks the weight shift
    that the axiom check tests on every arrow.)"""
    label = list(range(len(eps[0])))
    for i in range(n, 0, -1):
        label = [s if e else u for u, e, s in zip(label, eps[i], e_arrows[i])]
    if -1 in label:
        raise StructuralError("component without a classical-highest element")
    for t, s in enumerate(label):
        label[t] = label[s]
    for src, dst in arrows[1:]:
        if list(map(label.__getitem__, src)) != list(map(label.__getitem__, dst)):
            raise StructuralError("component with two classical-highest elements")
    return label, sorted(set(label))


class CrystalGraph:
    """Sealed tensor-product crystal with cached statistics, arrows, classical
    components and the degree function; immutable after construction. The
    tables are those of `_fold`: eps, phi, f_arrows and e_arrows indexed
    [i][t], weights, D and component indexed by vertex."""

    __slots__ = (
        "n",
        "heights",
        "vertices",
        "weights",
        "eps",
        "phi",
        "f_arrows",
        "e_arrows",
        "D",
        "component",
        "component_highest",
    )

    def __init__(self, n, heights, vertices, weights, eps, phi, f_arrows, D):
        self.n = n
        self.heights = tuple(heights)
        self.vertices = vertices
        self.weights = weights
        self.eps = eps
        self.phi = phi
        self.f_arrows = f_arrows
        self.D = D
        arrows = _arrows(f_arrows)
        self.e_arrows = _e_arrows(len(vertices), arrows)
        self.component, self.component_highest = _classical_components(
            n, eps, arrows, self.e_arrows
        )
        self._verify_axioms(arrows)

    def _verify_axioms(self, arrows):
        """Check the crystal and degree-function axioms, one pass over the
        column tables per operator; `arrows` holds the sources and the targets
        of the f_i arrows."""
        n = self.n
        rs = build_root_system("A", n)
        V = range(len(self.vertices))
        D = self.D
        # affine connectivity: every classical component is connected, so it
        # suffices that the 0-arrows join the components into one
        comp = self.component
        links = {c: set() for c in self.component_highest}
        for a, b in set(zip(*(map(comp.__getitem__, ends) for ends in arrows[0]))):
            links[a].add(b)
            links[b].add(a)
        seen, stack = {comp[0]}, [comp[0]]
        while stack:
            new = links[stack.pop()] - seen
            seen |= new
            stack.extend(new)
        if len(seen) != len(links):
            raise StructuralError("tensor crystal is not affinely connected")
        coeffs = [w.coeffs for w in self.weights]
        mu = tensor_weight(n, tuple(tuple(range(1, r + 1)) for r in self.heights)).coeffs
        if coeffs.count(mu) != 1:
            raise StructuralError("highest-weight vertex is not unique")
        if D[coeffs.index(mu)] != 0:
            raise StructuralError("degree normalization D(b_0) = 0 fails")
        # <alpha_0^vee, wt> = -(theta, wt) with theta in simple-root coordinates;
        # f_i lowers the weight by alpha_i, whose classical part is -theta at i = 0
        coroots = [tuple(-c for c in rs.highest_root_coords)]
        coroots += [tuple(int(j == i) for j in range(n)) for i in range(n)]
        shifts = [tuple(-c for c in rs.highest_root.coeffs)]
        shifts += [a.coeffs for a in rs.simple_roots]
        # the weights by their positions in `distinct`, compared as ints
        distinct = list(set(coeffs))
        position = {w: k for k, w in enumerate(distinct)}
        wid = list(map(position.__getitem__, coeffs))
        E, P = self.eps, self.phi
        for p, e, coroot in zip(P, E, coroots):
            pairing = [sum(map(mul, coroot, w)) for w in distinct]
            if list(map(sub, p, e)) != list(map(pairing.__getitem__, wid)):
                raise StructuralError("crystal axiom <a_i^vee, wt> = phi - eps fails")
        for i, ((src, dst), p, shift) in enumerate(zip(arrows, P, shifts)):
            if src != list(compress(V, [x > 0 for x in p])):
                raise StructuralError("f_i arrow existence disagrees with phi")
            image = [position.get(tuple(map(sub, w, shift)), -1) for w in distinct]
            moved = map(image.__getitem__, map(wid.__getitem__, src))
            if list(moved) != list(map(wid.__getitem__, dst)):
                raise StructuralError("arrow does not shift the weight by alpha_i")
            if i >= 1 and list(map(D.__getitem__, src)) != list(map(D.__getitem__, dst)):
                raise StructuralError("degree changes along a classical arrow")
        e0 = self.e_arrows[0]
        for t in compress(V, [e >= 2 for e in E[0]]):
            src = e0[t]
            if src < 0:
                raise StructuralError("eps_0 >= 2 but no raising 0-arrow")
            if D[src] != D[t] - 1:
                raise StructuralError("D(e_0 b) != D(b) - 1 at eps_0 >= 2")

    # queries

    def classical_highest(self):
        return list(self.component_highest)

    def restricted_paths(self, k=None):
        """Vertices with eps_i = 0 for all classical i, and eps_0 <= k if k finite;
        returns (element, weight, D) triples."""
        out = []
        for t in self.classical_highest():
            if k is not None and self.eps[0][t] > k:
                continue
            out.append((self.vertices[t], self.weights[t], self.D[t]))
        return out

    def graded_character(self):
        """sum_b q^{D(b)} e^{wt b} as Weight -> QPolynomial (Laurent: D <= 0)."""
        out: dict = {}
        for t, w in enumerate(self.weights):
            p = QPolynomial.monomial(self.D[t])
            out[w] = out[w] + p if w in out else p
        return out

    def to_dot(self) -> str:
        lines = [
            "digraph crystal {",
            "  rankdir=TB;",
            '  node [shape=box, fontname="monospace"];',
        ]
        for t, v in enumerate(self.vertices):
            label = element_label(v)
            wt = ",".join(str(c) for c in self.weights[t].coeffs)
            lines.append(f'  v{t} [label="{label}\\nwt=({wt}), D={self.D[t]}"];')
        for i in range(self.n + 1):
            for src, dst in enumerate(self.f_arrows[i]):
                if dst >= 0:
                    lines.append(f'  v{src} -> v{dst} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """The `export --format json` document, every table of the graph, with
        one eps and one phi row per vertex; json writes a tuple as an
        array."""
        return {
            "format": EXPORT_FORMAT,
            "n": self.n,
            "heights": self.heights,
            "orientation": ENERGY_ORIENTATION,
            "vertices": list(self.vertices),
            "weights": [w.coeffs for w in self.weights],
            "eps": list(zip(*self.eps)),
            "phi": list(zip(*self.phi)),
            "f": {str(i): self.f_arrows[i] for i in range(self.n + 1)},
            "D": self.D,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CrystalGraph":
        """The graph stored in a cache document. Vertices, statistics and
        arrows are recomputed from n and heights; the stored D (the expensive
        table) must hold one int per vertex and is checked by the axioms."""
        if not isinstance(data, dict):
            raise StructuralError("crystal cache is not a JSON object")
        if data.get("format") != CACHE_FORMAT:
            raise StructuralError("unsupported crystal cache format")
        if data.get("orientation") != ENERGY_ORIENTATION:
            raise StructuralError("crystal cache has a foreign energy orientation")
        n, heights = data.get("n"), data.get("heights")
        if not (
            type(n) is int
            and n >= 1
            and isinstance(heights, list)
            and all(type(r) is int and 1 <= r <= n for r in heights)
        ):
            raise StructuralError("crystal cache has invalid n or heights")
        heights = tuple(heights)
        D = data.get("D")
        if not (isinstance(D, list) and len(D) == prod(comb(n + 1, r) for r in heights)):
            raise StructuralError("crystal cache D does not cover the crystal")
        if not set(map(type, D)) <= {int}:
            raise StructuralError("crystal cache D is not a list of ints")
        return cls(n, heights, *_fold(n, heights, energy=False)[:5], D)


def element_label(b) -> str:
    return "|".join(",".join(str(x) for x in col) for col in b)


def heights_for_weight(mu: Weight):
    """Column heights of the tensor model for a dominant weight, lowest first."""
    heights = []
    for i, m in enumerate(mu.coeffs, start=1):
        if m < 0:
            raise ValueError(f"{mu} is not dominant")
        heights.extend([i] * m)
    return tuple(heights)


# Sealed graphs by (n, heights). A dict, not a function memo: an entry is
# loaded from the disk cache or built, and a hit still writes the disk cache
# when its file is missing.
_GRAPH_CACHE: dict = {}
# taken once: a rebound name still clears its memo
_MEMOS = (_column_tables, _column_groups, _two_factor, _build_R, _build_H)


def clear_caches():
    """Empty the in-process memo tables: sealed graphs, column tables and
    groups, two-factor folds, R and H."""
    _GRAPH_CACHE.clear()
    for memo in _MEMOS:
        memo.cache_clear()


def _cache_path(cache_dir, n, heights):
    name = f"crystal_v{CACHE_FORMAT}_n{n}_h{'-'.join(str(h) for h in heights)}.json"
    return os.path.join(cache_dir, name)


def build_crystal(n: int, heights, cache_dir=None) -> CrystalGraph:
    """Build (or load from the on-disk cache) the sealed tensor crystal with the
    given column heights. Cache writes are atomic (temp file + rename)."""
    heights = tuple(heights)
    key = (n, heights)
    cache_dir = cache_dir or os.environ.get(CACHE_ENV)
    path = _cache_path(cache_dir, n, heights) if cache_dir else None
    hit = _GRAPH_CACHE.get(key)
    if hit is not None:
        if path and not os.path.exists(path):
            _write_cache(hit, cache_dir, path)
        return hit
    if path and os.path.exists(path):
        data = _read_cache(path)
        try:
            graph = CrystalGraph.from_json(data)
        except StructuralError as exc:
            raise StructuralError(f"crystal cache {path}: {exc}") from exc
        if graph.n != n or graph.heights != heights:
            raise StructuralError(f"crystal cache {path}: key mismatch")
        _GRAPH_CACHE[key] = graph
        return graph
    graph = CrystalGraph(n, heights, *_fold(n, heights, energy=True))
    if path:
        _write_cache(graph, cache_dir, path)
    _GRAPH_CACHE[key] = graph
    return graph


def _read_cache(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise StructuralError(f"crystal cache {path} is not valid JSON: {exc}") from exc


def _write_cache(graph: CrystalGraph, cache_dir: str, path: str):
    """Store the cache document: D under its key, the one table a load does
    not recompute."""
    document = {
        "format": CACHE_FORMAT,
        "n": graph.n,
        "heights": graph.heights,
        "orientation": ENERGY_ORIENTATION,
        "D": graph.D,
    }
    import tempfile  # here, not at the top: only a cache write reads it

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def local_crystal(mu: Weight, cache_dir=None) -> CrystalGraph:
    """The tensor crystal modeling the local Weyl module with top weight mu."""
    return build_crystal(len(mu.coeffs), heights_for_weight(mu), cache_dir=cache_dir)


def restricted_paths(n: int, mu: Weight, k=None, cache_dir=None):
    """Classical-highest elements of the mu-crystal, further cut by eps_0 <= k
    when k is finite; (element, weight, D) triples."""
    if len(mu.coeffs) != n:
        raise ValueError("rank mismatch between n and mu")
    graph = local_crystal(mu, cache_dir=cache_dir)
    return graph.restricted_paths(k)
