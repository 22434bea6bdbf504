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
from functools import cache, reduce
from itertools import combinations, compress, count, product, repeat
from math import comb, prod
from operator import add, mul, ne, or_, sub

from .affine import check_level
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
    classical components of `_classical_components` and each f_i row decoded
    into a list of targets (-1 where f_i vanishes); `_build_R` reads it for
    both orders of the heights and `_build_H` once more."""
    _, weights, eps, phi, f_arrows, _ = _fold(n, (r, s), energy=False)
    label, highest = _classical_components(eps, phi, f_arrows)
    return weights, [list(row) for row in f_arrows], label, highest


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


class WeightTable(Sequence):
    """The weights of a tensor crystal's vertices, read-only: `ids[t]` is the
    position of the weight of vertex t in `distinct`, the `Weight` of each
    distinct weight, so the table holds one shared int per vertex and one
    `Weight` per distinct weight. A slice gives the list of its weights."""

    __slots__ = ("ids", "distinct")

    def __init__(self, ids, distinct):
        self.ids = ids
        self.distinct = distinct

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return list(map(self.distinct.__getitem__, self.ids[t]))
        return self.distinct[self.ids[t]]

    def __iter__(self):
        return map(self.distinct.__getitem__, self.ids)


class ArrowRow(Sequence):
    """The f_i arrows of a tensor crystal, read-only, one byte per vertex:
    `codes[t]` is 0 where f_i vanishes at vertex t, else the code k of the
    arrow t -> t + steps[k]. An arrow changes one factor, column c to column
    g of factor l, so its step is (g - c) times the stride of factor l, and a
    row has few codes. `row[t]` is the target of vertex t or -1. `steps` is a
    list, whose __getitem__ maps faster than a tuple's."""

    __slots__ = ("codes", "steps")

    def __init__(self, codes, steps):
        self.codes = codes
        self.steps = steps

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, t):
        k = self.codes[t]
        return t % len(self.codes) + self.steps[k] if k else -1

    def __iter__(self):
        steps = self.steps
        return (t + steps[k] if k else -1 for t, k in enumerate(self.codes))

    def targets(self):
        """The targets of the row's arrows in the order of their sources,
        each decoded as it is read, so no list of them is made."""
        has = self.codes.translate(_indicator(1))
        steps = map(self.steps.__getitem__, compress(self.codes, has))
        return map(add, compress(count(), has), steps)


@cache
def _column_tables(n: int, r: int):
    """The height-r columns and their tables (columns, positions, weights,
    eps, phi, f): positions maps each column to its index, weights holds the
    weight coefficients of each column, and eps, phi and f the int tables for
    i = 0..n, where f_i is the position of the image column (-1 when f_i
    vanishes). The memo hands every caller the same tables: read them, never
    change them."""
    cols = column_vertices(n, r)
    pos = {c: p for p, c in enumerate(cols)}
    ops = range(n + 1)
    wts = [column_weight(n, c).coeffs for c in cols]
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
    for i = 0..n by (eps_i, g - c) for the column c and its f_i image g (0
    when f_i vanishes at c), by eps_i and by (eps_i, phi_i). The memo hands
    every caller the same lists: read them, never change them."""
    _, _, _, eps, phi, f = _column_tables(n, r)
    steps = [[g - c if g >= 0 else 0 for c, g in enumerate(fi)] for fi in f]
    return (
        [_groups(zip(e, d)) for e, d in zip(eps, steps)],
        [_groups(zip(e)) for e in eps],
        [_groups(zip(e, p)) for e, p in zip(eps, phi)],
    )


def _by_column(m: int, groups, make, out):
    """The table `out`, m entries per prefix state, with its slice c::m (the
    states that end in column c) set to make(*key) for the key of c in
    `groups`."""
    for key, cs in groups:
        values = make(*key)
        for c in cs:
            out[c::m] = values
    return out


@cache
def _phi_rule(a: int, b: int) -> bytes:
    """The translate table of phi's two-factor rule for a column with eps_i =
    a and phi_i = b: the prefix's phi_i = q becomes b + max(0, q - a). Every
    entry is at most the number of factors, and 255 factors would make at
    least 2^255 vertices, so the cap at 255 is never reached."""
    return bytes(min(255, b + max(0, q - a)) for q in range(256))


@cache
def _eps_rule(a: int) -> bytes:
    """The translate table of what eps's two-factor rule adds to the prefix's
    eps_i for a column with eps_i = a: max(0, a - q) at the prefix's phi_i =
    q."""
    return bytes(max(0, a - q) for q in range(256))


@cache
def _indicator(lo: int, hi: int = 256, value: int = 1) -> bytes:
    """The translate table that maps a byte q to `value` when lo <= q < hi,
    else 0."""
    return bytes(value if lo <= q < hi else 0 for q in range(256))


def _add_bytes(x: bytes, y: bytes) -> bytes:
    """x + y byte by byte, through one int each: no carry occurs while every
    sum is below 256."""
    return (int.from_bytes(x, "little") + int.from_bytes(y, "little")).to_bytes(len(x), "little")


def _arrow_level(m: int, groups, row: ArrowRow, P: bytes) -> ArrowRow:
    """The f_i row of the next level from the prefix's row and phi_i row P,
    for the height-m columns grouped by (eps_i(c), g - c) (`_column_groups`).
    By the signature rule f_i acts on the prefix where phi_i(prefix) > eps_i(c),
    and the state keeps the prefix's code, whose step is m times the
    prefix's; elsewhere it acts on c, and the state takes the code of the
    step g - c, which no prefix step (a multiple of m) equals. Each slice is
    a bytewise select, prefix code & mask | column code, through one int
    each."""
    steps = [s * m for s in row.steps]
    code = {0: 0}  # g - c = 0: f_i vanishes at c
    prefix = int.from_bytes(row.codes, "little")

    def select(a, d):
        k = code.setdefault(d, len(steps))
        if k == len(steps):
            if k == 256:
                raise StructuralError("f_i row needs more than 256 step codes")
            steps.append(d)
        keep = prefix & int.from_bytes(P.translate(_indicator(a + 1, 256, 255)), "little")
        own = int.from_bytes(P.translate(_indicator(0, a + 1, k)), "little")
        return (keep | own).to_bytes(len(P), "little")

    codes = bytes(_by_column(m, groups, select, bytearray(len(P) * m)))
    return ArrowRow(codes, steps)


class _Shared(dict):
    """Maps each value looked up to the first equal value looked up, so that
    `map(_Shared().__getitem__, values)` makes equal entries one object:
    CPython caches only the ints -5..256, and each sum or parsed int is
    otherwise an object of its own."""

    def __missing__(self, value):
        self[value] = value
        return value


def _fold(n: int, heights, energy: bool):
    """(vertices, weights, eps, phi, f_arrows, D) of the tensor crystal with
    the given column heights, vertices in lexicographic order (a
    `TensorVertices`) and weights a `WeightTable`; eps, phi and f_arrows are
    indexed [i][t], each eps_i and phi_i row `bytes` and each f_i row an
    `ArrowRow` (one byte per vertex), and D is None unless `energy`.

    Factor l extends every prefix state s by every column c, giving state
    s * m + c, so the states that end in c are the slice c::m of the new
    table. A column's statistics take few values, and each table is written
    one slice at a time from one list over the prefix states per distinct
    value (`_by_column`); a value that leaves the prefix's entry as it is
    writes the prefix table itself. The weight of a state is its id among the
    distinct weights of its level: column c moves each prefix id to the id of
    that weight plus the weight of c, one transition list per column read by
    one `map` per slice. The statistics follow the two-factor rules of
    `tensor_stats`, each eps_i and phi_i slice a `bytes.translate` of the
    prefix's phi_i (`_phi_rule`, `_eps_rule`), the eps_i one added byte by
    byte to the prefix's eps_i. f_i follows the signature rule of `apply_op`,
    each slice a bytewise select between the prefix's step codes and the
    code of the column's own step (`_arrow_level`). D is
    `energy_of_element` by transport tables: for each height r still to come,
    T[r][s * m_r + x] is the energy a height-r column x collects moving left
    through prefix s. Then D(s * m + c) = D(s) + T[r][s * m + c], and the new
    factor p extends each table by T[r](s ⊗ p, x) = H(p, x) + T[r](s, R(p,
    x)[0]); each new D maps its sums through `_Shared`, so each degree is one
    int object."""
    tables = {r: _column_tables(n, r) for r in set(heights)}
    pairs = {}
    if energy:
        for a, b in {(a, b) for j, b in enumerate(heights) for a in heights[:j]}:
            m_a = len(tables[a][0])
            R = [t // m_a for t in _build_R(n, a, b)]
            pairs[a, b] = len(R), _groups(zip(_build_H(n, a, b), R))
    if heights:
        # the states of the first factor are its columns, whose weights are
        # distinct, their f_i rows the one select over the empty prefix (one
        # state, no arrow, phi_i = 0), and each transport table starts as H of
        # that column and the later one
        r = heights[0]
        distinct = tables[r][2]
        ids = list(range(len(distinct)))
        E, P = ([bytes(row) for row in table] for table in tables[r][3:5])
        m = len(distinct)
        empty = ArrowRow(bytes(1), [0])
        F = [_arrow_level(m, groups, empty, bytes(1)) for groups in _column_groups(n, r)[0]]
        D = [0] * m
        T = {later: list(_build_H(n, r, later)) for later in set(heights[1:])} if energy else {}
    else:  # the empty prefix is the one state
        distinct, ids = [(0,) * n], [0]
        E = [bytes(1) for _ in range(n + 1)]
        P = [bytes(1) for _ in range(n + 1)]
        F = [ArrowRow(bytes(1), [0]) for _ in range(n + 1)]
        D = [0]
    for level, r in enumerate(heights[1:], start=1):
        gf, ge, gp = _column_groups(n, r)
        m = len(tables[r][0])
        size = len(ids) * m
        index = {}
        moves = [
            [index.setdefault(tuple(map(add, w, v)), len(index)) for w in distinct]
            for v in tables[r][2]
        ]
        distinct = list(index)
        prefix_ids, ids = ids, [0] * size
        for c, move in enumerate(moves):
            ids[c::m] = map(move.__getitem__, prefix_ids)
        F = [_arrow_level(m, groups, row, Pi) for row, Pi, groups in zip(F, P, gf)]
        E = [
            bytes(
                _by_column(
                    m,
                    groups,
                    lambda a: _add_bytes(Ei, Pi.translate(_eps_rule(a))) if a else Ei,
                    bytearray(size),
                )
            )
            for Ei, Pi, groups in zip(E, P, ge)
        ]
        P = [
            bytes(
                _by_column(
                    m,
                    groups,
                    lambda a, b: Pi.translate(_phi_rule(a, b)) if a or b else Pi,
                    bytearray(size),
                )
            )
            for Pi, groups in zip(P, gp)
        ]
        if energy:
            prefix = _by_column(m, [((), range(m))], lambda: D, [0] * size)
            D = list(map(_Shared().__getitem__, map(add, prefix, T[r])))
            del prefix
            extended = {}
            for later in set(heights[level + 1 :]):
                M, groups = pairs[r, later]
                Tl, ml = T[later], M // m
                extended[later] = _by_column(
                    M,
                    groups,
                    lambda h, x: [h + v for v in Tl[x::ml]] if h else Tl[x::ml],
                    [0] * (size * ml),
                )
            T = extended
    weights = WeightTable(ids, list(map(weight_from_ints, distinct)))
    vertices = TensorVertices([tables[r][0] for r in heights])
    return vertices, weights, E, P, F, D if energy else None


# -- sealed crystal graphs -------------------------------------------------

CACHE_FORMAT = 2  # the disk cache document
EXPORT_FORMAT = 1  # the `export --format json` document


def _classical_components(eps, phi, f_arrows):
    """(label, highest): each vertex labelled by the classical-highest vertex
    (eps_i = 0 for i >= 1) of its classical component, and those vertices in
    index order.

    Each classical f_i row must hold an arrow exactly where phi_i > 0 (its
    nonzero codes and phi_i compared as bytes). Then a breadth-first walk
    down the classical arrows from each classical-highest vertex decodes each
    target as it goes and gives it the label, so the walk reads every
    classical arrow once and a component's queue is the one list of new ints.
    A target with another label joins two classical-highest vertices, and a
    vertex the walk leaves unlabelled has none. So every classical arrow
    keeps its label, and each component has exactly one classical-highest
    vertex."""
    for f, p in zip(f_arrows[1:], phi[1:]):
        if f.codes.translate(_indicator(1)) != p.translate(_indicator(1)):
            raise StructuralError("f_i arrow existence disagrees with phi")
    # classical-highest: a zero byte of the bitwise or of the classical eps_i
    # rows, each read as one int
    ored = reduce(or_, map(int.from_bytes, eps[1:], repeat("little")))
    zero = ored.to_bytes(len(eps[0]), "little").translate(_indicator(0, 1))
    highest = list(compress(count(), zero))
    label = [None] * len(eps[0])
    any(map(label.__setitem__, highest, highest))
    rows = [(f.codes, f.steps) for f in f_arrows[1:]]
    for top in highest:
        queue = [top]
        for u in queue:
            for codes, steps in rows:
                k = codes[u]
                if k:
                    t = u + steps[k]
                    seen = label[t]
                    if seen is None:
                        label[t] = top
                        queue.append(t)
                    elif seen != top:
                        raise StructuralError("component with two classical-highest elements")
    if None in label:
        raise StructuralError("component without a classical-highest element")
    return label, highest


class CrystalGraph:
    """Sealed tensor-product crystal with cached statistics, arrows, classical
    components and the degree function; immutable after construction. The
    tables are those of `_fold`: eps, phi and f_arrows indexed [i][t] (each
    eps_i and phi_i row `bytes`, each f_i row an `ArrowRow`), the
    `WeightTable` weights, and D and component indexed by vertex."""

    __slots__ = (
        "n",
        "heights",
        "vertices",
        "weights",
        "eps",
        "phi",
        "f_arrows",
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
        self.component, self.component_highest = _classical_components(eps, phi, f_arrows)
        self._verify_axioms()

    def _verify_axioms(self):
        """Check the crystal and degree-function axioms, one operator at a
        time over the column tables, the 0-arrows last; the weights are
        compared as ids. The component walk read every classical arrow, so D
        is constant along them when each vertex has the D of its label."""
        n, D = self.n, self.D
        ids = self.weights.ids
        distinct = [w.coeffs for w in self.weights.distinct]
        position = {w: k for k, w in enumerate(distinct)}
        mu = tensor_weight(n, tuple(tuple(range(1, r + 1)) for r in self.heights)).coeffs
        top = position.get(mu, -1)
        if ids.count(top) != 1:
            raise StructuralError("highest-weight vertex is not unique")
        if D[ids.index(top)] != 0:
            raise StructuralError("degree normalization D(b_0) = 0 fails")
        if list(map(D.__getitem__, self.component)) != D:
            raise StructuralError("degree changes along a classical arrow")
        rs = build_root_system("A", n)
        # <alpha_0^vee, wt> = -(theta, wt) with theta in simple-root coordinates;
        # f_i lowers the weight by alpha_i, whose classical part is -theta at i = 0
        coroots = [tuple(-c for c in rs.highest_root_coords)]
        coroots += [tuple(int(j == i) for j in range(n)) for i in range(n)]
        shifts = [tuple(-c for c in rs.highest_root.coeffs)]
        shifts += [a.coeffs for a in rs.simple_roots]
        for i in (*range(1, n + 1), 0):
            pairing = [sum(map(mul, coroots[i], w)) for w in distinct]
            image = [position.get(tuple(map(sub, w, shifts[i])), -1) for w in distinct]
            self._verify_operator(i, pairing, image)

    def _verify_operator(self, i, pairing, image):
        """The axioms that read operator i, given <alpha_i^vee, w> and the id
        of w - alpha_i (-1 when no vertex has it) for each distinct weight w.
        phi_i is compared as bytes, and the mask of the vertices where f_i
        acts (phi_i > 0) with the mask of the nonzero step codes. The arrow
        checks then read the sources through the mask and the targets as
        `ArrowRow.targets` decodes them, so no list of the arrows is made."""
        E, P, F, D = self.eps[i], self.phi[i], self.f_arrows[i], self.D
        ids = self.weights.ids
        try:
            paired = bytes(map(add, E, map(pairing.__getitem__, ids)))
        except ValueError:  # a value outside 0..255, which no phi_i byte holds
            paired = None
        if P != paired:
            raise StructuralError("crystal axiom <a_i^vee, wt> = phi - eps fails")
        del paired
        acts = P.translate(_indicator(1))
        if i == 0:  # over the arrows that F holds, whether or not phi_0 agrees
            self._verify_connected(F)
        if F.codes.translate(_indicator(1)) != acts:
            raise StructuralError("f_i arrow existence disagrees with phi")
        moved = map(image.__getitem__, compress(ids, acts))
        if any(map(ne, moved, map(ids.__getitem__, F.targets()))):
            raise StructuralError("arrow does not shift the weight by alpha_i")
        if i:
            return
        # e_0 is read only where eps_0 >= 2, through D(e_0 t): the D of each
        # 0-arrow's source written onto its target (mapping __setitem__ keeps
        # the loop in C), after which the mask is done with
        below = [None] * len(D)
        any(map(below.__setitem__, F.targets(), compress(D, acts)))
        del acts
        wanted = E.translate(_indicator(2))
        if None in compress(below, wanted):
            raise StructuralError("eps_0 >= 2 but no raising 0-arrow")
        if any(map(ne, compress(below, wanted), map(sub, compress(D, wanted), repeat(1)))):
            raise StructuralError("D(e_0 b) != D(b) - 1 at eps_0 >= 2")

    def _verify_connected(self, F):
        """Affine connectivity: every classical component is connected, so it
        suffices that the 0-arrows of F join the components into one. The
        distinct pairs of labels that the arrows join, each as one int, feed
        a union-find over the components."""
        label, size = self.component, len(self.component)
        ends = map(label.__getitem__, F.targets())
        starts = compress(label, F.codes.translate(_indicator(1)))
        pairs = set(map(add, map(mul, starts, repeat(size)), ends))
        root = {c: c for c in self.component_highest}
        joined = 0
        for pair in pairs:
            a, b = divmod(pair, size)
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                joined += 1
        if joined != len(root) - 1:
            raise StructuralError("tensor crystal is not affinely connected")

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
            "f": {str(i): list(self.f_arrows[i]) for i in range(self.n + 1)},
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
        # the document's own list, its entries shared in place before the fold,
        # so the parsed ints that are not kept are freed first
        D[:] = map(_Shared().__getitem__, D)
        return cls(n, heights, *_fold(n, heights, energy=False)[:5], D)


def element_label(b) -> str:
    return "|".join(",".join(str(x) for x in col) for col in b)


def heights_for_weight(mu: Weight):
    """Column heights of the tensor model for a dominant weight, lowest first."""
    build_root_system("A", len(mu.coeffs)).check_dominant(mu)
    return tuple(i for i, m in enumerate(mu.coeffs, start=1) for _ in range(m))


# Sealed graphs by (n, heights). A dict, not a function memo: an entry is
# loaded from the disk cache or built, and is found again whatever cache dir
# the next call names.
_GRAPH_CACHE: dict = {}
# taken once: a rebound name still clears its memo
_MEMOS = (
    _column_tables,
    _column_groups,
    _phi_rule,
    _eps_rule,
    _indicator,
    _two_factor,
    _build_R,
    _build_H,
)


def clear_caches():
    """Empty the in-process memo tables: sealed graphs, column tables and
    groups, the translate tables, two-factor folds, R and H."""
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
    hit = _GRAPH_CACHE.get(key)
    if hit is not None:
        return hit
    path = _cache_path(cache_dir, n, heights) if cache_dir else None
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
    not recompute. The text is json.dumps of the document, written with D in
    slices of 4,096 entries, so no str holds the whole of D."""
    document = {
        "format": CACHE_FORMAT,
        "n": graph.n,
        "heights": graph.heights,
        "orientation": ENERGY_ORIENTATION,
        "D": [],
    }
    D = graph.D
    import tempfile  # here, not at the top: only a cache write reads it

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document)[:-2])  # up to the [ of D
            for start in range(0, len(D), 4096):
                fh.write((", " if start else "") + json.dumps(D[start : start + 4096])[1:-1])
            fh.write("]}")
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
    rs = build_root_system("A", n)
    rs.check_dominant(mu)
    if k is not None:
        check_level(rs, k)
    graph = local_crystal(mu, cache_dir=cache_dir)
    return graph.restricted_paths(k)
