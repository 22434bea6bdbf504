"""Acceptance suite: every criterion below is exact (integer/rational
arithmetic throughout, no tolerances). Each test prints one PASS line on
success; pytest -v gives the per-criterion verdicts.

Run:  pytest tests/test_acceptance.py -v
"""

import time

import pytest

from weylcurrents.affine import level_one_weights, level_restricted_dominant
from weylcurrents.characters import char_integrable
from weylcurrents.kostka import (
    integrable_weyl_expansion,
    kostka_alt_sum,
    kostka_characters,
    kostka_paths,
    kostka_paths_restricted,
)
from weylcurrents.qseries import QPolynomial
from weylcurrents.rootsystem import Weight, build_root_system
from weylcurrents.verify import (
    bfs_lengths,
    cross_route_grid,
    demazure_limit_character,
    frenkel_kac_character,
    run_suite,
    suite_demazure_vs_crystal,
    suite_energy_axioms,
    vertex_identity_sides,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _support_lams(rs, mu, k):
    return [
        lam
        for lam in level_restricted_dominant(rs, k)
        if rs.in_root_lattice(mu - lam)
    ]


def test_criterion_1_cross_route_equality():
    """A1 (mu <= 6w1, k in 1..3) and A2 (m1+m2 <= 3, k in 1..2), N = 12:
    paths, alternating sum and character expansion agree exactly."""
    started = time.monotonic()
    grid = list(cross_route_grid(max_mu=6))
    grid += [(A1, Weight([0]), k) for k in (1, 2, 3)]
    grid += [(A2, Weight([0, 0]), k) for k in (1, 2)]
    checked = 0
    for rs, mu, k in grid:
        for lam in _support_lams(rs, mu, k):
            x = kostka_paths_restricted(rs.rank, mu, lam, k)
            a = kostka_alt_sum(rs, mu, lam, k)
            p = kostka_characters(rs, mu, lam, k, 12)
            assert x == a == p, (rs, mu.coeffs, lam.coeffs, k, x, a, p)
            top = x.max_exponent()
            assert top is None or top <= 12
            checked += 1
    elapsed = time.monotonic() - started
    _report(
        "criterion 1 (cross-route equality)",
        checked > 0 and elapsed < 300,
        f"{checked} triples in {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_2_desk_values():
    ok = (
        kostka_paths_restricted(1, Weight([2]), Weight([0]), 1) == QPolynomial.monomial(1)
        and kostka_paths(1, Weight([2]), Weight([0])) == QPolynomial.monomial(1)
        and kostka_paths(1, Weight([2]), Weight([2])) == QPolynomial.one()
        and all(
            kostka_characters(A1, Weight([0]), Weight([0]), k, 4) == QPolynomial.one()
            for k in (1, 2, 3)
        )
    )
    _report("criterion 2 (desk values)", ok)


def test_criterion_3_level_one_decomposition():
    """A1/A2/A3 over all level-one classes and D4 at the vacuum, N = 10: every
    multiplicity is the single monomial q^{((lam,lam)-(w,w))/2}, the support is
    complete within the window, the remainder vanishes."""
    started = time.monotonic()
    results = run_suite("level-one", N=10)
    bad = [r for r in results if not r.ok]
    elapsed = time.monotonic() - started
    _report(
        "criterion 3 (level-one decomposition)",
        not bad and elapsed < 600,
        f"{len(results)} classes in {elapsed:.1f}s (< 10 min)" if not bad else str(bad[0]),
    )


def test_criterion_4_frenkel_kac_oracle():
    checked = 0
    for t in ("A1", "A2", "A3"):
        rs = build_root_system(t[0], int(t[1]))
        for w in level_one_weights(rs):
            assert char_integrable(rs, w, 1, 10) == frenkel_kac_character(rs, w, 10)
            checked += 1
    _report("criterion 4 (lattice character oracle)", checked == 9, f"{checked} characters")


def test_criterion_5_energy_axioms():
    results = list(suite_energy_axioms(max_mu=6))
    bad = [r for r in results if not r.ok]
    _report(
        "criterion 5 (degree-function axioms)",
        not bad,
        f"{len(results)} checks" if not bad else str(bad[0]),
    )


def test_criterion_6_demazure_vs_crystal():
    results = list(suite_demazure_vs_crystal(max_mu=4))
    bad = [r for r in results if not r.ok]
    _report(
        "criterion 6 (divided-difference vs crystal local Weyl characters)",
        not bad,
        f"{len(results)} checks" if not bad else str(bad[0]),
    )


def test_criterion_7_demazure_limit():
    ok = True
    for lam in (Weight([0]), Weight([1])):
        target = char_integrable(A1, lam, 1, 6)
        ok = ok and demazure_limit_character(A1, lam, 1, 6) == target
    _report("criterion 7 (iterated divided differences stabilize)", ok)


def test_criterion_8_vertex_identity():
    checked = 0
    for rs, mu, k in cross_route_grid(max_mu=6):
        lhs, rhs = vertex_identity_sides(rs, mu, k)
        assert lhs == rhs, (rs, mu.coeffs, k)
        checked += 1
    _report(
        "criterion 8 (tensor-decomposition character identity)",
        checked >= 30,
        f"{checked} pairs (exact symbolic comparison implies every truncation, incl. N=8)",
    )


def test_criterion_9_structural_oracles():
    from weylcurrents.affine import length

    # (a) closed length formula vs Cayley-graph BFS, l <= 6
    for rs in (A1, A2):
        for g, d in bfs_lengths(rs, 6).items():
            assert length(rs, g) == d
    # (b) Yang-Baxter, exhaustive for n <= 2, heights <= 2 (within rank)
    yb = [r for r in suite_energy_axioms() if "Yang-Baxter" in r.name]
    assert yb and all(r.ok for r in yb)
    # (c) dimension multiplicativity is asserted inside criterion 6's suite
    dims = [r for r in suite_demazure_vs_crystal() if not r.ok]
    assert not dims
    # (d) positivity of every extracted graded multiplicity on the grids
    for rs, lam, k, N in [
        (rs, lam, k, 12)
        for rs, _, k in cross_route_grid(max_mu=6)
        for lam in level_restricted_dominant(rs, k)
    ] + [(rs, w, 1, 10) for rs in (A1, A2) for w in level_one_weights(rs)]:
        ex = integrable_weyl_expansion(rs, lam, k, N)
        for mu, poly in ex.multiplicities.items():
            assert poly.has_nonneg_coeffs(), (rs, lam.coeffs, k, mu.coeffs, poly)
    _report("criterion 9 (structural oracles)", True)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
