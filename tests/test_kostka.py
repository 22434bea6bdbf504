import math
import re
from fractions import Fraction
from itertools import product

import pytest

from weylcurrents import crystals
from weylcurrents.affine import cosets_up_to_shift, dominant_dot_rep, level_restricted_dominant
from weylcurrents.characters import (
    _integrable_layers,
    _local_weyl_table,
    _local_weyl_top,
    char_integrable,
    char_integrable_dominant,
    char_irreducible,
    char_local_weyl,
    char_parabolic_verma,
    expand_in_global_weyl,
)
from weylcurrents.kostka import (
    ROUTES,
    clear_caches,
    default_cutoff,
    integrable_weyl_expansion,
    kostka_alt_sum,
    kostka_by_route,
    kostka_characters,
    kostka_characters_unrestricted,
    kostka_fermionic,
    kostka_paths,
    kostka_paths_restricted,
    level_one_multiplicities,
)
from weylcurrents.qseries import QPolynomial
from weylcurrents.rootsystem import Weight, build_root_system
from weylcurrents.verify import coordinate_sum_grid

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)

one = QPolynomial.one()
q = QPolynomial.monomial(1)


def test_path_route_desk_values():
    assert kostka_paths(1, Weight([2]), Weight([2])) == one
    assert kostka_paths(1, Weight([2]), Weight([0])) == q
    assert kostka_paths(1, Weight([2]), Weight([1])).is_zero()
    assert kostka_paths(1, Weight([0]), Weight([0])) == one


def test_restricted_path_route():
    assert kostka_paths_restricted(1, Weight([2]), Weight([0]), 1) == q
    assert kostka_paths_restricted(1, Weight([1]), Weight([1]), 1) == one
    with pytest.raises(ValueError):
        kostka_paths_restricted(1, Weight([2]), Weight([2]), 1)
    # k at least the factor count reproduces the unrestricted polynomial
    for m in range(1, 5):
        mu = Weight([m])
        for lam in range(m % 2, m + 1, 2):
            assert kostka_paths_restricted(1, mu, Weight([lam]), m) == kostka_paths(
                1, mu, Weight([lam])
            )


def test_alt_sum_examples():
    assert kostka_alt_sum(A1, Weight([2]), Weight([0]), 1) == q
    assert kostka_alt_sum(A1, Weight([0]), Weight([0]), 1) == one
    # large level: all non-identity terms fall outside the support
    for m in (2, 3, 4):
        mu = Weight([m])
        for lam in range(m % 2, m + 1, 2):
            assert kostka_alt_sum(A1, mu, Weight([lam]), m + 1) == kostka_paths(
                1, mu, Weight([lam])
            )


def _points_below(family, rank, most, levels):
    """(rs, mu, lam, k) for every mu != 0 with coordinates summing to at most
    `most`, k in levels and lam in P_+^k with lam <= mu."""
    for rs, mu in coordinate_sum_grid(family, rank, most):
        for k in levels:
            for lam in level_restricted_dominant(rs, k):
                if rs.dominance_leq(lam, mu):
                    yield rs, mu, lam, k


def test_alt_sum_equals_paths_on_a_wide_type_a_grid():
    grids = (("A", 1, 12), ("A", 2, 5), ("A", 3, 3))
    points = [p for grid in grids for p in _points_below(*grid, (1, 2, 3))]
    assert len(points) == 279
    for rs, mu, lam, k in points:
        paths = kostka_paths_restricted(rs.rank, mu, lam, k)
        assert kostka_alt_sum(rs, mu, lam, k) == paths, (mu.coeffs, lam.coeffs, k)


def test_alt_sum_equals_chars_on_d_and_e():
    grids = (("D", 4, 2), ("D", 5, 1), ("E", 6, 1))
    points = [p for grid in grids for p in _points_below(*grid, (1, 2))]
    assert len(points) == 74
    for rs, mu, lam, k in points:
        chars = kostka_characters(rs, mu, lam, k)
        assert kostka_alt_sum(rs, mu, lam, k) == chars, (rs.family, mu.coeffs, lam.coeffs, k)


def test_alt_sum_builds_no_crystal():
    clear_caches()
    value = kostka_alt_sum(A2, Weight([6, 6]), Weight([0, 0]), 3)
    assert value.evaluate(1) > 0
    assert crystals._GRAPH_CACHE == {}
    assert crystals._column_tables.cache_info().currsize == 0


def test_character_route_examples():
    assert kostka_characters(A1, Weight([2]), Weight([0]), 1, 8) == q
    assert kostka_characters(A1, Weight([1]), Weight([1]), 1, 6) == one
    assert kostka_characters(A1, Weight([0]), Weight([0]), 2, 4) == one
    need = default_cutoff(A1, Weight([6]), Weight([0]), 1)
    with pytest.raises(ValueError) as err:
        kostka_characters(A1, Weight([6]), Weight([0]), 1, need - 1)
    assert str(need) in str(err.value)


def test_character_route_refuses_a_truncating_cutoff():
    # N=3 reaches mu=(2,2) but cuts q^2 + q^4 down to q^2
    assert kostka_characters(A2, Weight([2, 2]), Weight([0, 0]), 2) == QPolynomial({2: 1, 4: 1})
    with pytest.raises(ValueError, match="truncates") as err:
        kostka_characters(A2, Weight([2, 2]), Weight([0, 0]), 2, 3)
    assert "4" in str(err.value)
    with pytest.raises(ValueError, match="not dominant"):
        kostka_characters(A1, Weight([-2]), Weight([0]), 1)


def test_unrestricted_character_route():
    assert kostka_characters_unrestricted(A1, Weight([2]), Weight([0])) == q
    assert kostka_characters_unrestricted(A2, Weight([1, 1]), Weight([1, 1])) == one
    assert kostka_characters_unrestricted(A2, Weight([1, 0]), Weight([0, 1])).is_zero()
    # agreement with the path route on a small grid
    for mu in (Weight([2, 0]), Weight([1, 1]), Weight([2, 1])):
        for lam in level_restricted_dominant(A2, 3):
            if not A2.in_root_lattice(mu - lam):
                continue
            assert kostka_characters_unrestricted(A2, mu, lam) == kostka_paths(2, mu, lam)


def test_cross_route_equality_sample():
    cases = [
        (A1, Weight([4]), 2),
        (A1, Weight([5]), 1),
        (A2, Weight([1, 1]), 1),
        (A2, Weight([2, 1]), 2),
    ]
    for rs, mu, k in cases:
        for lam in level_restricted_dominant(rs, k):
            if not rs.in_root_lattice(mu - lam):
                continue
            x = kostka_paths_restricted(rs.rank, mu, lam, k)
            a = kostka_alt_sum(rs, mu, lam, k)
            p = kostka_characters(rs, mu, lam, k, 12)
            assert x == a == p, (mu.coeffs, lam.coeffs, k, x, a, p)
            assert x.has_nonneg_coeffs()


def test_classical_charge_polynomials_exploratory():
    # empirical convention check (not an acceptance gate): reading mu as its
    # column-height content and lam as a partition shape reproduces classical
    # charge polynomials from the standard tables
    cases = [
        (2, Weight([3, 0]), Weight([1, 1]), {1: 1, 2: 1}),          # K_{(2,1),(1^3)}
        (3, Weight([4, 0, 0]), Weight([0, 2, 0]), {2: 1, 4: 1}),    # K_{(2,2),(1^4)}
        (3, Weight([4, 0, 0]), Weight([2, 1, 0]), {1: 1, 2: 1, 3: 1}),
        (3, Weight([4, 0, 0]), Weight([1, 0, 1]), {3: 1, 4: 1, 5: 1}),
        (3, Weight([0, 2, 0]), Weight([1, 0, 1]), {1: 1}),          # K_{(2,1,1),(2,2)}
        (3, Weight([0, 2, 0]), Weight([0, 0, 0]), {2: 1}),          # K_{(1^4),(2,2)}
    ]
    for n, mu, lam, expected in cases:
        assert kostka_paths(n, mu, lam) == QPolynomial(expected)


def test_cross_route_equality_beyond_acceptance_grid():
    # wider sample than the acceptance grid (mu to 8w1, degrees to q^16)
    for m in (7, 8):
        mu = Weight([m])
        for k in (1, 3):
            for l in range(m % 2, min(m, k) + 1, 2):
                lam = Weight([l])
                x = kostka_paths_restricted(1, mu, lam, k)
                assert x == kostka_alt_sum(A1, mu, lam, k)
                assert x == kostka_characters(A1, mu, lam, k, 16)


def test_level_one_multiplicities_a1():
    ex = level_one_multiplicities(A1, Weight([0]), 6)
    assert ex.multiplicities == {
        Weight([0]): one,
        Weight([2]): q,
        Weight([4]): QPolynomial.monomial(4),
    }
    ex = level_one_multiplicities(A1, Weight([1]), 6)
    assert ex.multiplicities == {
        Weight([1]): one,
        Weight([3]): QPolynomial.monomial(2),
        Weight([5]): QPolynomial.monomial(6),
    }
    with pytest.raises(ValueError):
        level_one_multiplicities(A1, Weight([2]), 6)


def test_level_one_exponent_formula():
    for rs, w1 in ((A2, Weight([1, 0])), (A2, Weight([0, 0]))):
        ex = level_one_multiplicities(rs, w1, 8)
        base = rs.inner(w1, w1)
        for lam, poly in ex.multiplicities.items():
            expo = (rs.inner(lam, lam) - base) / 2
            assert poly == QPolynomial.monomial(int(expo))
            assert rs.in_root_lattice(lam - w1)


def test_route_dispatcher():
    res = kostka_by_route(A1, Weight([2]), Weight([0]), 1, "altsum")
    assert res.value == q and res.route == "altsum" and res.k == 1
    res = kostka_by_route(A1, Weight([2]), Weight([0]), None, "paths")
    assert res.value == q and res.k is None
    res = kostka_by_route(A1, Weight([2]), Weight([0]), None, "chars")
    assert res.value == q
    with pytest.raises(ValueError):
        kostka_by_route(A1, Weight([2]), Weight([0]), None, "altsum")
    with pytest.raises(ValueError):
        kostka_by_route(A1, Weight([2]), Weight([0]), 1, "nonsense")
    d4 = build_root_system("D", 4)
    with pytest.raises(ValueError):
        kostka_by_route(d4, Weight([0, 1, 0, 0]), Weight([0, 0, 0, 0]), 1, "paths")
    # the character route is type-generic
    res = kostka_by_route(d4, Weight([0, 1, 0, 0]), Weight([0, 0, 0, 0]), 1, "chars", N=4)
    assert res.value == q


def test_chars_default_cutoff_returns_the_whole_polynomial():
    # the old default cutoff (required_cutoff + 12) stopped this one at q^17
    mu, lam = Weight([10]), Weight([0])
    chars = kostka_by_route(A1, mu, lam, 4, "chars").value
    assert chars == kostka_by_route(A1, mu, lam, 4, "paths").value
    assert chars.max_exponent() == 25


def test_chars_answer_is_the_whole_expansion_coefficient_at_any_cutoff_passed():
    # the type-A cross-route grid: the up-set peel at default_cutoff against
    # the whole expansion at the N the caller passed
    from weylcurrents.verify import _cross_route_points

    points = [
        (rs, mu, lam, k)
        for rs, mu, k, lams in _cross_route_points(("A1", "A2"), 6, 3)
        for lam in lams
    ]
    assert len(points) == 54
    for rs, mu, lam, k in points:
        whole = default_cutoff(rs, mu, lam, k)
        assert whole <= 12
        for N in (whole, whole + 5, 12):
            got = kostka_characters(rs, mu, lam, k, N)
            assert got == integrable_weyl_expansion(rs, lam, k, N).coeff(mu), (mu, lam, k, N)


def test_a_large_cutoff_does_not_widen_the_chars_work():
    from weylcurrents import kostka

    kostka.clear_caches()
    mu, lam, k = Weight([3, 3]), Weight([0, 0]), 2
    whole = default_cutoff(A2, mu, lam, k)
    assert kostka_characters(A2, mu, lam, k, 40) == kostka_characters(A2, mu, lam, k)
    info = _integrable_layers.cache_info()
    assert info.currsize == 1  # one ratio, computed at one cutoff ...
    _integrable_layers(A2, lam, k, whole)
    assert _integrable_layers.cache_info().hits == info.hits + 1  # ... the answer's own


def test_local_weyl_top_degree_is_the_top_of_the_table():
    boxes = [(("A", 1), 9), (("A", 2), 4), (("A", 3), 3), (("A", 4), 2)]
    sums = [(("D", 4), 2), (("D", 5), 2), (("E", 6), 2)]
    cases = [
        (build_root_system(*t), c) for t, side in boxes for c in product(range(side + 1), repeat=t[1])
    ]
    cases += [
        (build_root_system(*t), c)
        for t, most in sums
        for c in product(range(most + 1), repeat=t[1])
        if sum(c) <= most
    ]
    assert len(cases) == 244
    for rs, c in cases:
        table = _local_weyl_table(rs, c)
        assert _local_weyl_top(rs, Weight(c)) == max(p.max_exponent() for p in table.values()), (
            rs,
            c,
        )


def test_up_set_peel_matches_the_whole_expansion_on_d_and_e():
    D4, D5, E6 = (build_root_system(*t) for t in (("D", 4), ("D", 5), ("E", 6)))
    points = [(D4, mu, k) for mu in ((1, 0, 1, 1), (0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0)) for k in (1, 2)]
    points += [(D5, mu, 1) for mu in ((0, 1, 0, 0, 0), (1, 0, 0, 1, 1), (0, 0, 1, 0, 0))]
    points += [(E6, mu, 1) for mu in ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0))]
    checked = 0
    for rs, coeffs, k in points:
        mu = Weight(coeffs)
        for lam in level_restricted_dominant(rs, k):
            if not rs.dominance_leq(lam, mu):
                continue
            whole = default_cutoff(rs, mu, lam, k)
            got = kostka_characters(rs, mu, lam, k)
            assert got == integrable_weyl_expansion(rs, lam, k, whole).coeff(mu), (rs, mu, lam, k)
            checked += bool(got)
    assert checked >= len(points)


def test_fermionic_sum_desk_values():
    # A1: [W(n w1) : V((n - 2) w1)] = q [n-1]_q from the one family m_1 = 1
    assert kostka_fermionic(A1, Weight([2]), Weight([0])) == q
    assert kostka_fermionic(A1, Weight([4]), Weight([2])) == QPolynomial({1: 1, 2: 1, 3: 1})
    assert kostka_fermionic(A2, Weight([1, 1]), Weight([0, 0])) == QPolynomial({1: 1})
    assert kostka_fermionic(A2, Weight([1, 0]), Weight([0, 1])).is_zero()
    assert kostka_fermionic(A2, Weight([2, 2]), Weight([2, 2])) == one
    with pytest.raises(ValueError, match="dominant"):
        kostka_fermionic(A2, Weight([1, 1]), Weight([2, -1]))


def test_degree_cap_cuts_the_fermionic_sum_and_nothing_else(monkeypatch):
    # every entry a peel reads under a binding cap, in the D5 k=2 N=8 and the
    # E6 and E7 level-one N=10 expansions, equals the whole entry cut at the cap
    from weylcurrents import characters

    real = characters.kostka_fermionic
    capped = set()

    def spy(rs, mu, lam, *cap):
        if cap:
            capped.add((rs, mu, lam, *cap))
        return real(rs, mu, lam, *cap)

    monkeypatch.setattr(characters, "kostka_fermionic", spy)
    for (family, rank), k, N in ((("D", 5), 2, 8), (("E", 6), 1, 10), (("E", 7), 1, 10)):
        rs = build_root_system(family, rank)
        before = len(capped)
        clear_caches()
        integrable_weyl_expansion(rs, rs.zero(), k, N)
        assert len(capped) > before, (family, rank)
    cut = 0
    for rs, mu, lam, cap in capped:
        whole = real(rs, mu, lam)
        assert real(rs, mu, lam, cap) == whole.truncated(hi=cap), (rs, mu, lam, cap)
        cut += whole.max_exponent() > cap
    assert cut == len(capped)
    clear_caches()


def _entry_points(mu, lam, k):
    """(label, inputs read, call) for each public entry on A2 that takes a
    weight or a level, called with mu, lam and k where it reads them."""
    weights, level = {"mu", "lam"}, {"mu", "lam", "k"}
    out = [
        (f"kostka_by_route {r} k={kk}", reads, lambda r=r, kk=kk: kostka_by_route(A2, mu, lam, kk, r))
        for kk, reads in ((k, level), (None, weights))
        for r in ROUTES
        if kk is not None or r != "altsum"
    ]
    return out + [
        ("kostka_paths", level, lambda: kostka_paths(2, mu, lam, k)),
        ("kostka_paths k=None", weights, lambda: kostka_paths(2, mu, lam)),
        ("kostka_paths_restricted", level, lambda: kostka_paths_restricted(2, mu, lam, k)),
        ("kostka_alt_sum", level, lambda: kostka_alt_sum(A2, mu, lam, k)),
        ("kostka_characters", level, lambda: kostka_characters(A2, mu, lam, k)),
        ("kostka_characters_unrestricted", weights, lambda: kostka_characters_unrestricted(A2, mu, lam)),
        ("kostka_fermionic", weights, lambda: kostka_fermionic(A2, mu, lam)),
        ("char_irreducible", {"lam"}, lambda: char_irreducible(A2, lam)),
        ("char_local_weyl", {"lam"}, lambda: char_local_weyl(A2, lam)),
        ("char_parabolic_verma", {"lam"}, lambda: char_parabolic_verma(A2, lam, 2)),
        ("char_integrable", {"lam", "k"}, lambda: char_integrable(A2, lam, k, 2)),
        ("integrable_weyl_expansion", {"lam", "k"}, lambda: integrable_weyl_expansion(A2, lam, k, 2)),
        ("level_one_multiplicities", {"lam"}, lambda: level_one_multiplicities(A2, lam, 2)),
        ("cosets_up_to_shift", {"lam", "k"}, lambda: cosets_up_to_shift(A2, lam, k, 2)),
        ("dominant_dot_rep", {"k"}, lambda: dominant_dot_rep(A2, lam, k)),
        ("restricted_paths", {"mu"}, lambda: crystals.restricted_paths(2, mu)),
        ("restricted_paths k", {"mu", "k"}, lambda: crystals.restricted_paths(2, mu, k)),
    ]


# one bad input at a time, and the one message of its rule
INVALID_INPUTS = [
    ("mu", Weight([2]), "Weight(2,) has 1 coordinates; rank 2 needs 2"),
    ("lam", Weight([0]), "Weight(0,) has 1 coordinates; rank 2 needs 2"),
    ("lam", Weight([2, -1]), "Weight(2, -1) is not dominant"),
    ("k", 0, "level k must be >= 1, got 0"),
    ("k", 2.5, "level k must be an int, got 2.5"),
]


def test_level_and_cutoff_checked_at_the_boundary():
    with pytest.raises(ValueError, match="level"):
        kostka_by_route(A1, Weight([2]), Weight([0]), 0, "paths")
    with pytest.raises(ValueError, match="cutoff"):
        kostka_by_route(A1, Weight([2]), Weight([0]), 1, "chars", N=-1)
    with pytest.raises(ValueError, match="cutoff"):
        integrable_weyl_expansion(A1, Weight([0]), 1, -1)
    # a cutoff that is not an int, even above the one the answer needs
    with pytest.raises(ValueError, match=r"^cutoff N must be an int, got 12\.5$"):
        kostka_by_route(A1, Weight([2]), Weight([0]), 1, "chars", N=12.5)
    with pytest.raises(ValueError, match=r"^cutoff N must be an int, got 4\.0$"):
        integrable_weyl_expansion(A1, Weight([0]), 1, 4.0)
    with pytest.raises(ValueError, match="level"):
        integrable_weyl_expansion(A1, Weight([0]), 0, 4)
    with pytest.raises(ValueError, match="level k must be >= 1, got 0"):
        kostka_paths_restricted(1, Weight([2]), Weight([0]), 0)
    # P_+^k itself: level 0 is {0}, and any other level follows the rule
    assert level_restricted_dominant(A2, 0) == [Weight([0, 0])]
    with pytest.raises(ValueError, match=r"^level k must be an int, got 2\.5$"):
        level_restricted_dominant(A2, 2.5)
    with pytest.raises(ValueError, match=r"^level k must be >= 1, got -1$"):
        level_restricted_dominant(A2, -1)
    # the invalid-input grid: every entry refuses each bad input it reads, with
    # the same message on every route
    for name, bad, message in INVALID_INPUTS:
        inputs = {"mu": Weight([1, 1]), "lam": Weight([0, 0]), "k": 1, name: bad}
        entries = [(label, call) for label, reads, call in _entry_points(**inputs) if name in reads]
        assert len(entries) >= 9
        for label, call in entries:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
                pytest.fail(f"{label} accepted {name}={bad}")


def test_expansion_from_the_layers_matches_the_weight_round_trip():
    # the old path: the ratio spread over dominant weights, then expanded by
    # the triangular solve back to irreducibles and the same peel
    instances = [
        (rs, lam, k, N)
        for rs, k_max, N in ((A1, 3, 10), (A2, 2, 6))
        for k in range(1, k_max + 1)
        for lam in level_restricted_dominant(rs, k)
    ]
    A3, D4, E6 = (build_root_system(*t) for t in (("A", 3), ("D", 4), ("E", 6)))
    instances += [(A3, lam, 1, 5) for lam in level_restricted_dominant(A3, 1)]
    instances += [(D4, lam, 1, 5) for lam in level_restricted_dominant(D4, 1)]
    instances += [(E6, E6.zero(), 1, 4)]
    for rs, lam, k, N in instances:
        got = integrable_weyl_expansion(rs, lam, k, N)
        want = expand_in_global_weyl(rs, char_integrable_dominant(rs, lam, k, N), N)
        assert list(got.multiplicities.items()) == list(want.multiplicities.items())
        assert got.trusted_degree == want.trusted_degree == N


def test_clear_caches_empties_every_route_memo():
    from weylcurrents import characters, crystals, kostka

    # every functools memo defined in these modules, so that a memo added
    # later without being registered in a clear_caches() fails here
    memos = [
        value
        for mod in (characters, kostka, crystals)
        for value in vars(mod).values()
        if hasattr(value, "cache_info") and value.__module__ == mod.__name__
    ]
    assert {m.__name__ for m in memos} >= {
        "char_integrable_dominant",
        "_integrable_layers",
        "_denominator",
        "_tensor",
        "_freudenthal_dominant",
        "integrable_weyl_expansion",
        "kostka_fermionic",
        "_placed_forms",
        "_dominant_below",
        "_q_binomial",
        "_column_tables",
        "_shift",
        "_build_R",
        "_build_H",
    }
    kostka.clear_caches()  # what other tests left must not fill a memo for this one
    for route in ("paths", "chars"):
        kostka_by_route(A1, Weight([2]), Weight([0]), 1, route)
    kostka_by_route(A2, Weight([1, 1]), Weight([0, 0]), 1, "paths")  # R on unequal heights
    kostka_by_route(A1, Weight([2]), Weight([0]), None, "chars")  # a q-binomial of M
    characters.char_integrable_dominant(A1, Weight([0]), 1, 2)  # a view the routes skip
    kostka.integrable_weyl_expansion(A1, Weight([0]), 1, 2)  # decompose's whole expansion
    characters.kostka_fermionic(A1, Weight([4]), Weight([0]), 1)  # a capped M: the node forms
    assert crystals._GRAPH_CACHE
    assert all(m.cache_info().currsize for m in memos)
    kostka.clear_caches()
    assert [m.__name__ for m in memos if m.cache_info().currsize] == []
    assert not crystals._GRAPH_CACHE
    assert kostka_by_route(A1, Weight([2]), Weight([0]), 1, "chars").value == q


def test_level_one_e6_vacuum_is_monomials_on_the_full_support():
    """E6, class 0, N = 4: the multiplicity of V(lam) is q^((lam,lam)/2) on
    every dominant lam of the root lattice with (lam,lam)/2 <= 4, and there is
    nothing else. The form comes from an E6 Cartan matrix inverted here."""
    N = 4
    edges = ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4))  # Bourbaki: node 2 hangs off node 4
    cartan = [[2 * (i == j) for j in range(6)] for i in range(6)]
    for a, b in edges:
        cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
    rows = [
        [Fraction(x) for x in r] + [Fraction(i == j) for j in range(6)]
        for i, r in enumerate(cartan)
    ]
    for c in range(6):
        p = next(r for r in range(c, 6) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(6):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    inv = [r[6:] for r in rows]
    # the inverse is positive, so (lam, lam) >= lam_i^2 inv[i][i] on dominant lam
    top = math.isqrt(int(2 * N / min(inv[i][i] for i in range(6))))
    expected = {}
    for lam in product(range(top + 1), repeat=6):
        root_coords = [sum(x * y for x, y in zip(row, lam)) for row in inv]
        if any(c.denominator != 1 for c in root_coords):
            continue
        expo = sum(x * y for x, y in zip(lam, root_coords)) / 2
        if expo <= N:
            expected[lam] = QPolynomial.monomial(int(expo))
    assert len(expected) > 3
    E6 = build_root_system("E", 6)
    got = level_one_multiplicities(E6, E6.zero(), N)
    assert {w.coeffs: p for w, p in got.multiplicities.items()} == expected
    assert got.trusted_degree == N
