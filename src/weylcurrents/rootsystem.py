"""Finite simply-laced root systems: Cartan data, roots, the Weyl group action,
dominance order, and Freudenthal weight multiplicities.

Weights are stored in fundamental-weight coordinates, so <alpha_i^vee, lam> is
coordinate lookup and the invariant form needs one inverse-Cartan contraction.
The form is kept as the integer matrix det(C) * C^{-1}, so every internal
computation is in integers; `inner` and `root_coords` divide by det(C) only
when they return. Simple-root indices are 1-based throughout the public API
(0 is reserved for the affine node elsewhere).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add, mul, neg, sub


def _integral(c) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integral weight coordinate {c}")
        return c.numerator
    return int(c)


class Weight:
    """Integral weight in fundamental-weight coordinates (immutable)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not all(type(c) is int for c in cs):
            cs = tuple(map(_integral, cs))
        self.coeffs = cs

    def __add__(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("rank mismatch in weight arithmetic")
        return weight_from_ints(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("rank mismatch in weight arithmetic")
        return weight_from_ints(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return weight_from_ints(tuple(map(neg, self.coeffs)))

    def __mul__(self, n: int):
        if type(n) is not int:
            return Weight(n * a for a in self.coeffs)
        return weight_from_ints(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        return f"Weight{self.coeffs}"


def weight_from_ints(coeffs: tuple) -> Weight:
    """Weight from a tuple of ints, without the constructor's coordinate check."""
    w = object.__new__(Weight)
    w.coeffs = coeffs
    return w


_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120},
}


def _cartan_matrix(family: str, rank: int):
    ok = (
        (family == "A" and rank >= 1)
        or (family == "D" and rank >= 4)
        or (family == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise ValueError(f"not a valid simply-laced type: {family}{rank}")
    C = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        C[i][i] = 2

    def join(i, j):
        C[i][j] = C[j][i] = -1

    if family == "A":
        for i in range(rank - 1):
            join(i, i + 1)
    elif family == "D":
        for i in range(rank - 3):
            join(i, i + 1)
        join(rank - 3, rank - 2)
        join(rank - 3, rank - 1)
    else:  # E, Bourbaki numbering: node 2 hangs off node 4 of the 1-3-4-5-... chain
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            join(a, b)
        join(1, 3)
    return tuple(tuple(row) for row in C)


def _integer_inverse(M):
    """(det M, det M * M^{-1}) for an invertible integer matrix, both exact integers."""
    n = len(M)
    A = [
        [Fraction(M[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
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
    if det.denominator != 1 or any(x.denominator != 1 for row in adj for x in row):
        raise AssertionError("adjugate of an integer matrix is not integral")
    return int(det), tuple(tuple(int(x) for x in row) for row in adj)


class RootSystem:
    """Immutable simply-laced root system data; safe for concurrent reads."""

    def __init__(self, family: str, rank: int):
        family = family.upper()
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        # (lam, mu) = lam . form . mu / det with form = det(C) * C^{-1} integral
        self.det, self.form = _integer_inverse(self.cartan)
        self.inverse_cartan = tuple(
            tuple(Fraction(x, self.det) for x in row) for row in self.form
        )
        # simply laced: C[i][j] = -1 exactly for the Dynkin neighbours j of i
        self.neighbours = tuple(
            tuple(j for j in range(rank) if j != i and self.cartan[i][j]) for i in range(rank)
        )
        # alpha_i in fundamental-weight coordinates is row i of the Cartan matrix
        self.simple_roots = tuple(Weight(self.cartan[i]) for i in range(rank))
        self.rho = Weight([1] * rank)
        self._build_positive_roots()
        self._check_invariants()

    # -- construction ---------------------------------------------------

    def _build_positive_roots(self):
        n = self.rank
        seen = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for rc in frontier:
                fw = self._rc_to_fw(rc)
                for i in range(n):
                    pairing = fw[i]
                    new = list(rc)
                    new[i] -= pairing
                    new = tuple(new)
                    if all(x >= 0 for x in new) and new not in seen:
                        seen.add(new)
                        nxt.append(new)
            frontier = nxt
        rcs = sorted(seen, key=lambda rc: (sum(rc), rc))
        self.positive_root_coords = tuple(rcs)
        self.positive_roots = tuple(Weight(self._rc_to_fw(rc)) for rc in rcs)
        dominant = [r for r in self.positive_roots if all(c >= 0 for c in r.coeffs)]
        if len(dominant) != 1:
            raise AssertionError("highest root is not unique")
        self.highest_root = dominant[0]
        self.highest_root_coords = rcs[self.positive_roots.index(self.highest_root)]
        hrho = self.inner(self.highest_root, self.rho)
        self.dual_coxeter = int(hrho) + 1

    def _check_invariants(self):
        expected = _POSITIVE_ROOT_COUNTS[self.family]
        expected = expected[self.rank] if isinstance(expected, dict) else expected(self.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError("positive root count mismatch")
        if self.inner(self.highest_root, self.highest_root) != 2:
            raise AssertionError("(theta, theta) != 2")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.inner(self.simple_roots[i], self.simple_roots[j]) != self.cartan[i][j]:
                    raise AssertionError("(alpha_i, alpha_j) != cartan entry")

    # -- coordinates ----------------------------------------------------

    def _rc_to_fw(self, rc):
        C = self.cartan
        n = self.rank
        return tuple(sum(C[i][j] * rc[j] for j in range(n)) for i in range(n))

    def scaled_root_coords(self, coeffs) -> tuple:
        """det(C) times the simple-root coordinates of a coefficient tuple (ints)."""
        return tuple(sum(map(mul, row, coeffs)) for row in self.form)

    def root_coords(self, lam: Weight):
        """Coordinates of lam over the simple roots (Fractions in general)."""
        det = self.det
        return tuple(Fraction(c, det) for c in self.scaled_root_coords(lam.coeffs))

    def from_root_coords(self, rc) -> Weight:
        return Weight(self._rc_to_fw(tuple(rc)))

    def in_root_lattice(self, lam: Weight) -> bool:
        det = self.det
        return all(c % det == 0 for c in self.scaled_root_coords(lam.coeffs))

    # -- basic operations -----------------------------------------------

    def reflect(self, i: int, lam: Weight) -> Weight:
        """Simple reflection s_i, 1-based i."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple-root index {i} out of range 1..{self.rank}")
        c = lam.coeffs[i - 1]
        if c == 0:
            return lam
        return lam - c * self.simple_roots[i - 1]

    def reflect_root(self, alpha: Weight, lam: Weight) -> Weight:
        """Reflection by an arbitrary root (simply laced: <alpha^vee,.> = (alpha,.))."""
        c = self.inner(alpha, lam)
        return lam - int(c) * alpha

    def scaled_inner(self, a, b) -> int:
        """det(C) times the invariant form of two coefficient tuples (an int)."""
        return sum(map(mul, a, self.scaled_root_coords(b)))

    def inner(self, lam: Weight, mu: Weight) -> Fraction:
        """W-invariant form normalized by (theta, theta) = 2."""
        return Fraction(self.scaled_inner(lam.coeffs, mu.coeffs), self.det)

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam.coeffs)

    def dominance_leq(self, lam: Weight, mu: Weight) -> bool:
        """lam <= mu iff mu - lam is a nonnegative integral sum of simple roots."""
        det = self.det
        rc = self.scaled_root_coords(tuple(map(sub, mu.coeffs, lam.coeffs)))
        return all(c >= 0 and c % det == 0 for c in rc)

    def zero(self) -> Weight:
        return Weight([0] * self.rank)

    def fundamental_weight(self, i: int) -> Weight:
        return Weight([1 if j == i - 1 else 0 for j in range(self.rank)])

    # -- Weyl group -----------------------------------------------------

    def to_dominant(self, lam: Weight):
        """Dominant representative of the W-orbit plus the ascent word.

        Returns (mu, word) with mu = s_{word[-1]} ... s_{word[0]} (lam) dominant;
        word entries are 1-based simple indices.
        """
        cur, word = self.ascend(lam.coeffs)
        return weight_from_ints(cur), word

    def ascend(self, coeffs):
        """(dominant coefficient tuple, ascent word) for a coefficient tuple:
        the greedy ascent that reflects at the first negative coordinate."""
        cur = coeffs
        word = []
        while True:
            for i, c in enumerate(cur):
                if c < 0:
                    # s_i: coordinate i to -c, each Dynkin neighbour + c
                    cur = list(cur)
                    cur[i] = -c
                    for j in self.neighbours[i]:
                        cur[j] += c
                    cur = tuple(cur)
                    word.append(i + 1)
                    break
            else:
                return cur, tuple(word)

    def orbit_coeffs(self, coeffs):
        """Full W-orbit of a coefficient tuple, as a list of tuples in
        breadth-first order down from the dominant representative: every
        orbit element is reached by reflections s_i at positive coordinates,
        and s_i moves only coordinate i (to -c) and its Dynkin neighbours (+c)."""
        top = self.ascend(coeffs)[0]
        seen = {top}
        order = [top]
        frontier = [top]
        while frontier:
            nxt = []
            for w in frontier:
                for i, c in enumerate(w):
                    if c > 0:
                        r = list(w)
                        r[i] = -c
                        for j in self.neighbours[i]:
                            r[j] += c
                        r = tuple(r)
                        if r not in seen:
                            seen.add(r)
                            nxt.append(r)
            order += nxt
            frontier = nxt
        return order

    def weyl_orbit(self, lam: Weight):
        """Full W-orbit as a set of Weights."""
        return {weight_from_ints(w) for w in self.orbit_coeffs(lam.coeffs)}

    def dominant_in_ball(self, coset, bound: int, low: int = 0):
        """Dominant coefficient tuples nu with every coordinate >= low, nu -
        coset in the root lattice and det(C) (nu, nu) <= bound, in
        lexicographic order.

        The form det(C) C^{-1} has positive entries, so on the dominant chamber
        raising a coordinate raises the norm, and a partial weight (its later
        coordinates at low) past the bound prunes all of its completions."""
        form, det, n = self.form, self.det, self.rank
        target = self.scaled_root_coords(coset)
        start = (low,) * n
        out = []
        coords = list(start)

        def rec(i, rc, norm):
            # rc = det(C) * root coordinates of coords, norm = det(C) * (coords, coords)
            if i == n:
                if all((a - b) % det == 0 for a, b in zip(rc, target)):
                    out.append(tuple(coords))
                return
            row = form[i]
            while norm <= bound:
                rec(i + 1, rc, norm)
                norm += 2 * rc[i] + row[i]
                rc = tuple(map(add, rc, row))
                coords[i] += 1
            coords[i] = low

        rec(0, self.scaled_root_coords(start), self.scaled_inner(start, start))
        return out

    def longest_element_image(self, lam: Weight) -> Weight:
        """w_0(lam), computed through the antidominant representative."""
        word = self._w0_word()
        cur = lam
        for i in word:
            cur = self.reflect(i, cur)
        return cur

    @cache
    def _w0_word(self):
        # w_0 sends -rho to rho; the ascent word from -rho realizes it
        _, word = self.to_dominant(Weight([-1] * self.rank))
        return word

    # -- weight multiplicities -------------------------------------------

    def dominant_weights_below(self, lam: Weight):
        """All dominant mu <= lam. They lie in the ball (mu, mu) <= (lam, lam),
        since (lam, lam) - (mu, mu) = (lam - mu, lam + mu) >= 0."""
        if not self.is_dominant(lam):
            raise ValueError("expected a dominant weight")
        ball = self.dominant_in_ball(lam.coeffs, self.scaled_inner(lam.coeffs, lam.coeffs))
        return {mu for mu in map(weight_from_ints, ball) if self.dominance_leq(mu, lam)}

    def freudenthal_dominant(self, lam: Weight):
        """Multiplicities of the dominant weights of the irreducible module V(lam)."""
        if not self.is_dominant(lam):
            raise ValueError("expected a dominant weight")
        top = lam.coeffs
        det = self.det
        # root coordinates of lam - mu: integers >= 0 for mu <= lam
        depth = {
            mu.coeffs: tuple(
                c // det for c in self.scaled_root_coords(tuple(map(sub, top, mu.coeffs)))
            )
            for mu in self.dominant_weights_below(lam)
        }
        doms = sorted(depth, key=lambda c: (sum(depth[c]), c))
        roots = [(a.coeffs, rc) for a, rc in zip(self.positive_roots, self.positive_root_coords)]
        dominant = {}  # nu -> dominant representative, for this call only

        def norm(c):
            c = tuple(x + 1 for x in c)  # c + rho
            return self.scaled_inner(c, c)

        nlam = norm(top)
        mult = {top: 1}
        for mu in doms:
            if mu == top:
                continue
            total = 0
            for alpha, alpha_rc in roots:
                nu = mu
                below = depth[mu]
                while True:
                    nu = tuple(map(add, nu, alpha))
                    below = tuple(map(sub, below, alpha_rc))
                    if min(below) < 0:
                        break
                    dom = dominant.get(nu)
                    if dom is None:
                        dom = dominant[nu] = self.ascend(nu)[0]
                    m = mult.get(dom, 0)
                    if m:
                        # (nu, alpha) = sum_i rc_i(alpha) <alpha_i^vee, nu>
                        total += m * sum(map(mul, alpha_rc, nu))
            val, rem = divmod(2 * det * total, nlam - norm(mu))
            if rem or val < 0:
                raise AssertionError("Freudenthal recursion produced a non-integer")
            if val:
                mult[mu] = val
        return {weight_from_ints(mu): m for mu, m in mult.items()}

    def freudenthal_weights(self, lam: Weight):
        """Full weight-multiplicity table of V(lam)."""
        table = {}
        for mu, m in self.freudenthal_dominant(lam).items():
            for w in self.weyl_orbit(mu):
                table[w] = m
        return table

    def weyl_dimension(self, lam: Weight) -> int:
        """dim V(lam) by Weyl's formula: the product over the positive roots
        alpha = sum_i c_i alpha_i of (lam + rho, alpha) / (rho, alpha). Simply
        laced, so (lam + rho, alpha) = sum_i c_i (lam_i + 1) and (rho, alpha)
        = ht alpha."""
        shifted = [m + 1 for m in lam.coeffs]
        num = den = 1
        for rc in self.positive_root_coords:
            num *= sum(map(mul, rc, shifted))
            den *= sum(rc)
        dim, rem = divmod(num, den)
        if rem:
            raise AssertionError("Weyl dimension is not an integer")
        return dim

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RootSystem)
            and (self.family, self.rank) == (other.family, other.rank)
        )

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank})"


@cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """Validated, cached root system for a simply-laced (family, rank)."""
    return RootSystem(family, int(rank))


def parse_type(type_str: str) -> RootSystem:
    """Parse a family letter followed by the rank, such as 'A2' or 'd4'."""
    s = type_str.strip().upper()
    if len(s) < 2 or not s[1:].isdigit():
        raise ValueError(f"type {type_str!r} needs a family and a rank, e.g. 'A2'")
    return build_root_system(s[0], int(s[1:]))
