"""Verification suites: independent oracles and exact identities run by the CLI
`verify` command and by the acceptance tests.

Oracles here deliberately avoid the code paths they check: the Cayley-graph BFS
checks the closed length formula, the lattice theta-function checks the
alternating-sum integrable characters, the crystal graded character checks the
local Weyl characters on type A, and the full-word Demazure character checks the
fermionic sum every local Weyl table is read from. The tests, not a suite, run
brute-force symmetric-algebra counting against the induced-module factor.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import product as _iproduct

from .affine import (
    AffineWeight,
    AffineWeylElement,
    act_affine,
    chamber_ascent,
    compose,
    dominant_dot_rep,
    length,
    level_one_weights,
    level_restricted_dominant,
    reduced_word,
    element_from_word,
    rc_norm2,
    simple_element,
)
from .characters import (
    AffineCharacter,
    GradedCharacter,
    char_integrable,
    char_local_weyl,
    demazure_step,
    expand_in_irreducibles,
)
from .crystals import (
    column_apply,
    column_vertices,
    combinatorial_R,
    local_crystal,
    restricted_paths,
)
from .errors import ExpansionError, StructuralError, VerificationFailure
from .kostka import (
    check_level_and_cutoff,
    kostka_alt_sum,
    kostka_characters,
    kostka_fermionic,
    kostka_paths,
    kostka_paths_restricted,
    level_one_multiplicities,
)
from .qseries import QPolynomial, geometric_series
from .rootsystem import Weight, build_root_system, parse_type


CheckResult = namedtuple("CheckResult", "suite name ok detail", defaults=("",))


# -- grids ------------------------------------------------------------------


def coordinate_sum_grid(family, rank, most):
    """(rs, mu) for every mu != 0 whose coordinates sum to at most `most`, in
    lexicographic order."""
    rs = build_root_system(family, rank)
    return [
        (rs, Weight(c)) for c in _iproduct(range(most + 1), repeat=rank) if 1 <= sum(c) <= most
    ]


def a1_a2_grid(max_mu, max_total):
    """A1 with mu <= max_mu, then A2 with coordinate sum at most max_total."""
    return coordinate_sum_grid("A", 1, max_mu) + coordinate_sum_grid("A", 2, max_total)


def cross_route_grid(max_mu=6):
    for rs, mu in a1_a2_grid(max_mu, 3):
        for k in (1, 2, 3) if rs.rank == 1 else (1, 2):
            yield rs, mu, k


def _keep_type(rs, types) -> bool:
    return types is None or f"{rs.family}{rs.rank}" in types


# -- independent oracles ------------------------------------------------------


def bfs_lengths(rs, radius: int):
    """Word-length metric on the Cayley graph of the affine simple reflections."""
    gens = [simple_element(rs, i) for i in range(rs.rank + 1)]
    dist = {AffineWeylElement.identity(rs): 0}
    frontier = list(dist)
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(rs, s, g)
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
        frontier = nxt
    return dist


def brute_force_induced_factor(rs, N: int):
    """Graded character of the symmetric algebra on (Cartan + all root vectors)
    tensor z^n (1 <= n <= N) by direct monomial enumeration; exponential in N,
    desk sizes only."""
    gens = []
    for n in range(1, N + 1):
        for _ in range(rs.rank):
            gens.append((rs.zero(), n))
        for alpha in rs.positive_roots:
            gens.append((alpha, n))
            gens.append((-alpha, n))
    acc = {(rs.zero().coeffs, 0): 1}
    for wt, deg in gens:
        tgt = dict(acc)
        for (w, d), c in acc.items():
            cw, cd = Weight(w), d
            while True:
                cw, cd = cw + wt, cd + deg
                if cd > N:
                    break
                key = (cw.coeffs, cd)
                tgt[key] = tgt.get(key, 0) + c
        acc = tgt
    out = {}
    for (w, d), c in acc.items():
        out.setdefault(Weight(w), {})[d] = c
    return GradedCharacter({w: QPolynomial(p) for w, p in out.items()}, cutoff=N)


def root_lattice_ball(rs, max_norm2):
    """All gamma in Q (root coordinates) with (gamma,gamma) <= max_norm2, by a
    box sweep."""
    if max_norm2 < 0:
        return
    n = rs.rank
    bounds = []
    for i in range(n):
        b2 = Fraction(max_norm2) * rs.inverse_cartan[i][i]
        bounds.append(math.isqrt(int(b2)) + 1)
    for rc in _iproduct(*(range(-b, b + 1) for b in bounds)):
        if rc_norm2(rs, rc) <= max_norm2:
            yield rc


def frenkel_kac_character(rs, class_weight: Weight, N: int) -> GradedCharacter:
    """Lattice realization of the level-one character: theta-function sum
    q^{(w,gamma)+(gamma,gamma)/2} e^{w+gamma} times the rank-fold partition factor."""
    if class_weight not in level_one_weights(rs):
        raise ValueError("need a level-one dominant class")
    base = rs.inner(class_weight, class_weight)
    radius = math.sqrt(float(base)) + math.sqrt(float(base + 2 * N))
    max_norm2 = int(radius * radius) + 2
    theta_terms = {}
    for rc in root_lattice_ball(rs, max_norm2):
        gamma = rs.from_root_coords(rc)
        expo = int(rs.inner(class_weight, gamma)) + rc_norm2(rs, rc) // 2
        if 0 <= expo <= N:
            theta_terms[class_weight + gamma] = QPolynomial.monomial(expo)
        elif expo < 0:
            raise StructuralError("negative theta exponent: lattice sweep broken")
    part = QPolynomial.one()
    for n in range(1, N + 1):
        part = (part * geometric_series(n, N)).truncated(hi=N)
    factor = part
    for _ in range(1, rs.rank):
        factor = (factor * part).truncated(hi=N)
    return GradedCharacter(theta_terms, cutoff=N) * GradedCharacter(
        {rs.zero(): factor}, cutoff=N
    )


# -- suites -------------------------------------------------------------------


def suite_length_oracle(types=None, radius=6):
    types = types or ("A1", "A2")
    for t in types:
        rs = parse_type(t)
        dist = bfs_lengths(rs, radius)
        bad = [g for g, d in dist.items() if length(rs, g) != d]
        yield CheckResult(
            "length-oracle",
            f"{t}: closed formula vs BFS (l <= {radius}, {len(dist)} elements)",
            not bad,
            f"{len(bad)} mismatches" if bad else "",
        )
        ok = True
        for g in (g for g, d in dist.items() if d >= radius - 2):
            w = reduced_word(rs, g)
            ok = ok and len(w) == length(rs, g) and element_from_word(rs, w) == g
        yield CheckResult("length-oracle", f"{t}: reduced-word roundtrip", ok)
        t_minus = AffineWeylElement.translation_by(rs, tuple(-c for c in rs.highest_root_coords))
        lhs = act_affine(rs, t_minus, AffineWeight(rs.fundamental_weight(1), 1, 0))
        s_theta_word = rs.to_dominant(-rs.highest_root)[1]
        s_theta = element_from_word(rs, s_theta_word)
        rhs = act_affine(
            rs,
            compose(rs, s_theta, simple_element(rs, 0)),
            AffineWeight(rs.fundamental_weight(1), 1, 0),
        )
        yield CheckResult(
            "length-oracle",
            f"{t}: normalization t_-theta = s_theta s_0",
            lhs == rhs and t_minus == compose(rs, s_theta, simple_element(rs, 0)),
        )


def _yang_baxter(n, heights):
    triples = list(_iproduct(*(column_vertices(n, r) for r in heights)))

    def swap(t, pos):
        cur = list(t)
        out = combinatorial_R(n, (cur[pos], cur[pos + 1]))
        cur[pos], cur[pos + 1] = out
        return tuple(cur)

    ok = True
    for t in triples:
        lhs = swap(swap(swap(t, 0), 1), 0)
        rhs = swap(swap(swap(t, 1), 0), 1)
        if lhs != rhs:
            ok = False
            break
    yield CheckResult(
        "energy-axioms",
        f"A{n}: Yang-Baxter braid relation on heights {heights} ({len(triples)} triples)",
        ok,
    )


def _promotion(n):
    ok = True
    for r in range(1, n + 1):
        for col in column_vertices(n, r):
            shifted = tuple(sorted((x % (n + 1)) + 1 for x in col))
            for i in range(0, n + 1):
                img = column_apply(n, "f", i, col)
                img_shift = column_apply(n, "f", (i + 1) % (n + 1), shifted)
                want = (
                    tuple(sorted((x % (n + 1)) + 1 for x in img)) if img is not None else None
                )
                if want != img_shift:
                    ok = False
    yield CheckResult("energy-axioms", f"A{n}: promotion conjugates f_i to f_(i+1)", ok)


def suite_energy_axioms(types=None, max_mu=6, max_factors=None):
    """Degree-function axioms on every tensor crystal in the grid, plus the
    structural crystal oracles (Yang-Baxter, promotion, specialization count)."""
    grid = a1_a2_grid(max_mu, 3)
    grid = [(rs, mu) for rs, mu in grid if _keep_type(rs, types)]
    if max_factors is not None:
        grid = [
            (rs, mu) for rs, mu in grid if sum(mu.coeffs) <= max_factors
        ]
    for rs, mu in grid:
        graph = local_crystal(mu)
        size = len(graph.vertices)
        expected = 1
        for i, m in enumerate(mu.coeffs, start=1):
            expected *= math.comb(rs.rank + 1, i) ** m
        ok = size == expected
        detail = "" if ok else f"size {size} != {expected}"
        spec_sum = sum(
            kostka_paths(rs.rank, mu, lam).evaluate(1)
            * rs.weyl_dimension(lam)
            for lam in {w for _, w, _ in restricted_paths(rs.rank, mu, None)}
        )
        yield CheckResult(
            "energy-axioms",
            f"{rs.family}{rs.rank} mu={mu.coeffs}: axioms + specialization ({size} vertices)",
            ok and spec_sum == expected,
            detail,
        )
    for n in (1, 2):
        if types is not None and f"A{n}" not in types:
            continue
        for heights in _iproduct(*([range(1, n + 1)] * 3)):
            yield from _yang_baxter(n, heights)
        yield from _promotion(n)


def _cross_route_points(types, max_mu, max_k):
    """(rs, mu, k, lams) for each point of the cross-route grid, lams the
    weights of P_+^k in mu + Q: cross_route_grid, then D4 with coordinate sum
    at most 2 and E6 with at most 1, at k = 1, 2; no level above max_k."""
    de_grid = coordinate_sum_grid("D", 4, 2) + coordinate_sum_grid("E", 6, 1)
    de_points = [(rs, mu, k) for rs, mu in de_grid for k in (1, 2)]
    for rs, mu, k in [*cross_route_grid(max_mu), *de_points]:
        if k <= max_k and _keep_type(rs, types):
            lams = [lam for lam in level_restricted_dominant(rs, k) if rs.in_root_lattice(mu - lam)]
            yield rs, mu, k, lams


def suite_cross_route(types=None, max_mu=6, max_k=3):
    """Route equality: paths = alternating sum = character expansion, exactly;
    off type A, where paths has no crystal model, alternating sum = character
    expansion."""
    for rs, mu, k, lams in _cross_route_points(types, max_mu, max_k):
        all_ok = True
        bad = ""
        for lam in lams:
            a = kostka_alt_sum(rs, mu, lam, k)
            p = kostka_characters(rs, mu, lam, k)
            x = a  # paths has its column-crystal model on type A only
            if rs.family == "A":
                x = kostka_paths_restricted(rs.rank, mu, lam, k)
            if not (x == a == p):
                all_ok = False
                bad = f"lam={lam.coeffs}: {x} | {a} | {p}"
                break
            if not x.has_nonneg_coeffs():
                all_ok = False
                bad = f"lam={lam.coeffs}: negative coefficient"
                break
        yield CheckResult(
            "cross-route",
            f"{rs.family}{rs.rank} mu={mu.coeffs} k={k} ({len(lams)} weights)",
            all_ok,
            bad,
        )
    if types is not None and "A1" not in types:
        return
    a1 = build_root_system("A", 1)
    desk = (
        kostka_paths_restricted(1, Weight([2]), Weight([0]), 1) == QPolynomial.monomial(1)
        and kostka_paths(1, Weight([2]), Weight([0])) == QPolynomial.monomial(1)
        and kostka_paths(1, Weight([2]), Weight([2])) == QPolynomial.one()
        and kostka_characters(a1, Weight([0]), Weight([0]), 1, 4) == QPolynomial.one()
        and kostka_characters(a1, Weight([0]), Weight([0]), 3, 4) == QPolynomial.one()
    )
    yield CheckResult("cross-route", "desk values (A1)", desk)


def suite_level_one(types=None, N=10):
    """Level-one decomposition: every multiplicity is the single monomial
    q^{((lam,lam)-(w,w))/2}, the support is exactly the dominant classes of the
    coset within the window, and positivity holds. Each type checks all of its
    level-one classes; the default grid is A1-A3 and the D4 vacuum."""
    systems = [parse_type(t) for t in types or ("A1", "A2", "A3")]
    jobs = [(rs, w) for rs in systems for w in level_one_weights(rs)]
    if types is None:
        d4 = build_root_system("D", 4)
        jobs.append((d4, d4.zero()))
    for rs, w in jobs:
        ex = level_one_multiplicities(rs, w, N)
        ok = True
        detail = ""
        expected_support = set()
        base = rs.inner(w, w)
        for lam, poly in ex.multiplicities.items():
            expo = (rs.inner(lam, lam) - base) / 2
            if not (
                poly.is_monomial()
                and poly.coeff(poly.min_exponent()) == 1
                and poly.min_exponent() == expo
            ):
                ok = False
                detail = f"lam={lam.coeffs}: {poly} != q^{expo}"
                break
        # a dominant lam has (lam, lam) >= c_i^2 (w_i, w_i) for each coordinate
        # c_i, since C^{-1} > 0, so the window 0 <= expo <= N lies in this box
        bound = 2 * N + base
        box = [
            range(math.isqrt(int(bound / rs.inner(om, om))) + 1)
            for om in map(rs.fundamental_weight, range(1, rs.rank + 1))
        ]
        for coeffs in _iproduct(*box):
            lam = Weight(coeffs)
            if rs.in_root_lattice(lam - w):
                expo = (rs.inner(lam, lam) - base) / 2
                if 0 <= expo <= N:
                    expected_support.add(lam)
        if ok and set(ex.multiplicities) != expected_support:
            ok = False
            detail = "support differs from the extremal-class prediction"
        yield CheckResult(
            "level-one",
            f"{rs.family}{rs.rank} class={w.coeffs} ({len(ex.multiplicities)} classes, N={N})",
            ok,
            detail,
        )


def suite_frenkel_kac(types=None, N=10):
    """Alternating-sum integrable characters against the lattice realization."""
    types = types or ("A1", "A2", "A3")
    for t in types:
        rs = parse_type(t)
        for w in level_one_weights(rs):
            lhs = char_integrable(rs, w, 1, N)
            rhs = frenkel_kac_character(rs, w, N)
            yield CheckResult(
                "frenkel-kac", f"{t} class={w.coeffs} (N={N}, {len(lhs.terms)} weights)", lhs == rhs
            )


def suite_demazure_vs_crystal(types=None, max_mu=4):
    """Local Weyl characters (char_local_weyl, read from the fermionic sum)
    against the crystal graded character (q-inverted), plus the dimension
    multiplicativity oracle."""
    grid = a1_a2_grid(max_mu, 2)
    grid = [(rs, mu) for rs, mu in grid if _keep_type(rs, types)]
    for rs, mu in grid:
        dem = char_local_weyl(rs, mu)
        graph = local_crystal(mu)
        crystal_terms = {}
        for wgt, poly in graph.graded_character().items():
            crystal_terms[wgt] = poly.conjugate()
        crystal_char = GradedCharacter(crystal_terms)
        ok = dem == crystal_char
        dim = dem.dimension_at_q1()
        factor_dim = 1
        for i, m in enumerate(mu.coeffs, start=1):
            factor_dim *= char_local_weyl(rs, rs.fundamental_weight(i)).dimension_at_q1() ** m
        ok = ok and dim == factor_dim
        yield CheckResult(
            "demazure-vs-crystal", f"{rs.family}{rs.rank} mu={mu.coeffs} (dim {dim})", ok
        )
        irr = expand_in_irreducibles(rs, dem)
        path_ok = all(
            irr.get(lam, QPolynomial.zero()) == kostka_paths(rs.rank, mu, lam)
            for lam in irr
        )
        yield CheckResult(
            "demazure-vs-crystal",
            f"{rs.family}{rs.rank} mu={mu.coeffs}: irreducible multiplicities = path polynomials",
            path_ok,
        )


def demazure_limit_character(rs, lam: Weight, k: int, N: int, margin=None):
    """Iterate divided differences along cyclic sweeps of the affine nodes on
    e^{lam + k Lambda0} until the window [0, N] stabilizes; returns the window."""
    if margin is None:
        margin = 3 * N + 16
    floor = -(N + margin)
    ch = AffineCharacter.monomial(AffineWeight(lam, k, 0))

    def window(c):
        out = {}
        for (coeffs, deg), v in c.items():
            if deg >= -N:
                out.setdefault(Weight(coeffs), {})[-deg] = v
        return out

    prev = None
    stable = 0
    for _ in range(4 * (N + rs.rank + 4)):
        for i in range(0, rs.rank + 1):
            ch = demazure_step(rs, i, ch, floor=floor)
        cur = window(ch)
        if cur == prev:
            stable += 1
            if stable >= 2:
                return GradedCharacter(
                    {w: QPolynomial(p) for w, p in cur.items()}, cutoff=N
                )
        else:
            stable = 0
        prev = cur
    raise VerificationFailure("Demazure limit did not stabilize")


def suite_weyl_kac_demazure(types=None, N=6):
    """Criterion: iterated Demazure operators stabilize to the alternating-sum
    integrable character (A1, k=1, lam in {0, w1})."""
    if types is not None and "A1" not in types:
        return
    rs = build_root_system("A", 1)
    for lam in (Weight([0]), Weight([1])):
        target = char_integrable(rs, lam, 1, N)
        limit = demazure_limit_character(rs, lam, 1, N)
        yield CheckResult("demazure-limit", f"A1 lam={lam.coeffs} k=1 N={N}", limit == target)


def vertex_identity_sides(rs, mu: Weight, k: int):
    """Both sides of the character identity for the level-k vacuum tensor the
    mu-crystal, as coefficient maps lam_+ -> Laurent polynomial on the
    linearly independent symbols chi(e^{lam_+ + k Lambda0})."""
    n = rs.rank
    lhs: dict = {}
    graph = local_crystal(mu)
    for wgt, d in zip(graph.weights, graph.D):
        rep = dominant_dot_rep(rs, AffineWeight(wgt, k, -d), k)
        if rep.on_wall:
            continue
        term = QPolynomial.monomial(-rep.degree, rep.sign)
        lhs[rep.weight] = lhs.get(rep.weight, QPolynomial.zero()) + term
    lhs = {w: p for w, p in lhs.items() if p}
    rhs: dict = {}
    for _, wgt, d in restricted_paths(n, mu, k):
        rhs[wgt] = rhs.get(wgt, QPolynomial.zero()) + QPolynomial.monomial(d)
    return lhs, rhs


def suite_vertex_identity(types=None, max_mu=6, N=8):
    """Exact symbolic form of the tensor-decomposition character identity over
    the cross-route grid, plus one instantiated truncated comparison on A1."""
    for rs, mu, k in cross_route_grid(max_mu):
        if not _keep_type(rs, types):
            continue
        lhs, rhs = vertex_identity_sides(rs, mu, k)
        yield CheckResult(
            "vertex-identity", f"{rs.family}{rs.rank} mu={mu.coeffs} k={k}", lhs == rhs
        )
    if types is not None and "A1" not in types:
        return
    rs = build_root_system("A", 1)
    mu, k = Weight([2]), 1
    lhs, rhs = vertex_identity_sides(rs, mu, k)
    shift = max(0, *(-(p.min_exponent() or 0) for p in rhs.values()))

    def instantiate(side):
        total = GradedCharacter({}, cutoff=N)
        for lam_plus, poly in side.items():
            total = total + char_integrable(rs, lam_plus, k, N + shift).scaled(
                poly.shifted(shift)
            ).truncated(N)
        return total

    yield CheckResult(
        "vertex-identity",
        f"A1 mu={mu.coeffs} k=1: instantiated at N={N}",
        instantiate(lhs) == instantiate(rhs),
    )


# (family, rank, largest coordinate sum of mu) for the fermionic suite
FERMIONIC_GRID = (("A", 2, 6), ("A", 3, 3), ("A", 4, 2), ("D", 4, 2), ("D", 5, 2), ("E", 6, 1))


def full_word_local_weyl(rs, lam: Weight) -> dict:
    """The local Weyl table of lam, {dominant coeffs: graded multiplicity},
    head at q^0: the level-one Demazure module of t_{w_0 lam - c}(c + Lambda0),
    c the class of lam, by demazure_step along the whole chamber-ascent word
    on the full affine character, expanded in irreducibles."""
    cls_w = next(w for w in level_one_weights(rs) if rs.in_root_lattice(lam - w))
    top = AffineWeight(cls_w, 1, 0)
    gamma_rc = tuple(int(c) for c in rs.root_coords(rs.longest_element_image(lam) - cls_w))
    target = act_affine(rs, AffineWeylElement.translation_by(rs, gamma_rc), top)
    reached, word = chamber_ascent(rs, target)
    if reached != top:
        raise StructuralError("ascent to the dominant extremal weight failed")
    ch = AffineCharacter.monomial(top)
    for i in reversed(word):
        ch = demazure_step(rs, i, ch)
    if min(d for _, d in ch.terms) != target.degree:
        raise StructuralError("Demazure character does not reach the extremal degree")
    degrees: dict = {}
    for (coeffs, deg), c in ch.items():
        degrees.setdefault(Weight(coeffs), {})[deg - target.degree] = c
    table = expand_in_irreducibles(rs, GradedCharacter(degrees))
    return {w.coeffs: p for w, p in table.items()}


def suite_fermionic(types=None):
    """The fermionic sum M(mu, lam) (kostka_fermionic), every local Weyl table
    of the library, equals the full-word Demazure table (full_word_local_weyl)
    at every dominant lam <= mu, zero entries included, for every mu != 0 with
    coordinates summing to at most a bound per type."""
    for family, rank, most in FERMIONIC_GRID:
        rs = build_root_system(family, rank)
        if not _keep_type(rs, types):
            continue
        weights = entries = 0
        bad = ""
        for _, mu in coordinate_sum_grid(family, rank, most):
            table = full_word_local_weyl(rs, mu)
            below = sorted(lam.coeffs for lam in rs.dominant_weights_below(mu))
            weights, entries = weights + 1, entries + len(below)
            stray = sorted(set(table).difference(below))
            wrong = [
                lam
                for lam in below
                if kostka_fermionic(rs, mu, Weight(lam)) != table.get(lam, QPolynomial.zero())
            ]
            if (stray or wrong) and not bad:
                bad = f"mu={mu.coeffs} lam={(wrong or stray)[0]}"
        yield CheckResult(
            "fermionic",
            f"{family}{rank} |mu| <= {most}: M = local Weyl table "
            f"({weights} weights, {entries} entries)",
            not bad,
            bad,
        )


SUITES = {
    "energy-axioms": suite_energy_axioms,
    "cross-route": suite_cross_route,
    "level-one": suite_level_one,
    "demazure-vs-crystal": suite_demazure_vs_crystal,
    "frenkel-kac": suite_frenkel_kac,
    "length-oracle": suite_length_oracle,
    "vertex-identity": suite_vertex_identity,
    "demazure-limit": suite_weyl_kac_demazure,
    "fermionic": suite_fermionic,
}


def run_suite(name: str, **options):
    """Run one suite (or 'all'); returns the list of CheckResults. A suite
    gets exactly the options its signature names; an option that no suite
    to run names is an error, as is an empty grid bound. A consistency fault
    inside a suite keeps the checks it has yielded, adds one failed `stopped`
    check with the fault's message, and the next suite runs; a ValueError or
    OSError propagates."""
    check_level_and_cutoff(None, options.get("N"))
    for bound in ("max_mu", "max_factors", "max_k"):
        if options.get(bound) is not None and options[bound] < 1:
            raise ValueError(f"{bound} must be >= 1")
    if name == "all":
        suites = list(SUITES.items())
    elif name in SUITES:
        suites = [(name, SUITES[name])]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    import inspect  # here, not at the top: no command but verify should pay its import

    reads = [inspect.signature(fn).parameters for _, fn in suites]
    unread = sorted(set(options).difference(*reads))
    if unread:
        raise ValueError(f"suite {name} reads no option {', '.join(unread)}")
    out = []
    for (suite, fn), names in zip(suites, reads):
        try:  # extend appends as the suite yields, so a fault keeps the lines before it
            out.extend(fn(**{k: v for k, v in options.items() if k in names}))
        except (StructuralError, ExpansionError, VerificationFailure) as exc:
            out.append(CheckResult(suite, "stopped", False, str(exc)))
    return out
