"""The verification suites themselves: positive runs plus negative controls
showing each oracle genuinely discriminates."""

import inspect

import pytest

from weylcurrents.affine import level_one_weights
from weylcurrents.characters import char_integrable
from weylcurrents.errors import VerificationFailure
from weylcurrents.qseries import QPolynomial
from weylcurrents.rootsystem import Weight, build_root_system, parse_type
from weylcurrents.verify import (
    CheckResult,
    bfs_lengths,
    brute_force_induced_factor,
    demazure_limit_character,
    frenkel_kac_character,
    SUITES,
    run_suite,
    vertex_identity_sides,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


def test_run_suite_dispatch():
    assert run_suite("length-oracle", types=("A1",))
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_signature_declares_every_option_it_reads(name):
    kinds = {p.kind for p in inspect.signature(SUITES[name]).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds


def test_run_suite_all_rejects_an_option_no_suite_reads():
    with pytest.raises(ValueError, match="reads no option seed"):
        run_suite("all", types=("A1",), seed=1)


def test_all_suite_aggregates():
    results = run_suite("all", types=("A1",), max_mu=2, max_k=1, radius=4)
    suites = {r.suite for r in results}
    assert {"length-oracle", "cross-route", "energy-axioms"} <= suites
    assert all(r.ok for r in results)


def test_run_suite_keeps_the_checks_before_a_fault_and_goes_on(monkeypatch):
    def faulty(types=None):
        yield CheckResult("energy-axioms", "first", True)
        raise VerificationFailure("forced fault")

    monkeypatch.setitem(SUITES, "energy-axioms", faulty)
    results = run_suite("all", types=("A1",), max_mu=2, max_k=1, radius=4)
    assert results[:2] == [
        CheckResult("energy-axioms", "first", True),
        CheckResult("energy-axioms", "stopped", False, "forced fault"),
    ]
    assert results[2].suite == "cross-route"
    assert all(r.ok for r in results[2:])


def test_cross_route_compares_altsum_with_chars_on_d4_and_e6(monkeypatch):
    import weylcurrents.verify as verify

    results = run_suite("cross-route", types=("D4", "E6"))
    assert [r.name.split()[0] for r in results] == ["D4"] * 28 + ["E6"] * 12
    assert all(r.ok for r in results)
    assert len(run_suite("cross-route", types=("D4",), max_k=1)) == 14

    real = verify.kostka_alt_sum

    def shifted(rs, mu, lam, k):  # one degree off, where paths is not there to catch it
        return real(rs, mu, lam, k).shifted(1)

    monkeypatch.setattr(verify, "kostka_alt_sum", shifted)
    results = run_suite("cross-route", types=("E6",))
    assert results and not any(r.ok for r in results)


def test_suites_are_generators():
    assert all(inspect.isgeneratorfunction(fn) for fn in SUITES.values())


def test_frenkel_kac_discriminates_classes():
    # the lattice oracle must distinguish the two level-one A1 modules
    vac = frenkel_kac_character(A1, Weight([0]), 6)
    spin = frenkel_kac_character(A1, Weight([1]), 6)
    assert vac != spin
    assert char_integrable(A1, Weight([1]), 1, 6) == spin
    assert char_integrable(A1, Weight([1]), 1, 6) != vac


def test_bfs_is_a_real_metric():
    dist = bfs_lengths(A2, 5)
    lengths = sorted(set(dist.values()))
    assert lengths == [0, 1, 2, 3, 4, 5]
    # ball sizes strictly grow in an infinite group
    counts = [sum(1 for d in dist.values() if d == t) for t in lengths]
    assert all(c > 0 for c in counts)


def test_brute_force_factor_small_values():
    ch = brute_force_induced_factor(A1, 2)
    # degree-1 layer is one copy of the adjoint
    assert ch.coeff(Weight([2])).coeff(1) == 1
    assert ch.coeff(Weight([0])).coeff(1) == 1
    # degree-2 weight-0 monomials: e1 f1, h1^2, h2
    assert ch.coeff(Weight([0])).coeff(2) == 3


def test_vertex_identity_detects_wrong_degree():
    lhs, rhs = vertex_identity_sides(A1, Weight([2]), 1)
    assert lhs == rhs
    # shifting a degree on one side must break the match
    broken = {w: p.shifted(1) for w, p in rhs.items()}
    assert lhs != broken


def test_vertex_identity_wall_terms_cancel():
    # mu = 2w1 at k = 1 has its top path on the alpha_0 wall; the identity
    # still balances because the wall term contributes zero
    lhs, rhs = vertex_identity_sides(A1, Weight([2]), 1)
    assert set(rhs) == {Weight([0])}
    assert rhs[Weight([0])] == QPolynomial.monomial(-1)


def test_demazure_limit_margin_stability():
    lam = Weight([1])
    a = demazure_limit_character(A1, lam, 1, 5)
    b = demazure_limit_character(A1, lam, 1, 5, margin=40)
    assert a == b


def test_demazure_limit_rank_two():
    for lam in (Weight([0, 0]), Weight([1, 0]), Weight([0, 1])):
        limit = demazure_limit_character(A2, lam, 1, 4)
        assert limit == char_integrable(A2, lam, 1, 4)


def test_demazure_limit_fails_fast_on_starved_margin():
    # a window too shallow for the negative-branch climb must refuse to
    # stabilize rather than silently converge to a truncation artifact
    with pytest.raises(VerificationFailure):
        demazure_limit_character(A1, Weight([0]), 1, 6, margin=0)
    assert demazure_limit_character(A1, Weight([0]), 1, 6, margin=8) == char_integrable(
        A1, Weight([0]), 1, 6
    )


def test_level_one_suite_covers_e6():
    # the support oracle walks the dominant box, so E6 finishes at N = 4
    results = run_suite("level-one", types=("E6",), N=4)
    assert [r.name.split(" (")[0] for r in results] == [
        "E6 class=(0, 0, 0, 0, 0, 0)",
        "E6 class=(0, 0, 0, 0, 0, 1)",
        "E6 class=(1, 0, 0, 0, 0, 0)",
    ]
    assert all(r.ok for r in results), [r for r in results if not r.ok]


@pytest.mark.parametrize("type_, N", [("D4", 3), ("D5", 2)])
def test_level_one_suite_covers_every_d_class(type_, N):
    # every level-one class of the named type, not only the D4 vacuum
    results = run_suite("level-one", types=(type_,), N=N)
    classes = [f"{type_} class={w.coeffs}" for w in level_one_weights(parse_type(type_))]
    assert len(classes) == 4
    assert [r.name.split(" (")[0] for r in results] == classes
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_fermionic_suite_passes_and_covers_d_and_e():
    results = run_suite("fermionic")
    assert results and all(r.ok for r in results)
    assert {r.name.split()[0] for r in results} == {"A2", "A3", "A4", "D4", "D5", "E6"}


def test_fermionic_suite_detects_a_wrong_entry_and_a_missing_row(monkeypatch):
    import weylcurrents.verify as verify

    real = verify.kostka_fermionic

    def shifted(rs, mu, lam):  # one degree off where lam = 0
        value = real(rs, mu, lam)
        return value.shifted(1) if lam.is_zero() else value

    monkeypatch.setattr(verify, "kostka_fermionic", shifted)
    (line,) = run_suite("fermionic", types=("D4",))
    assert not line.ok and line.detail == "mu=(0, 0, 0, 2) lam=(0, 0, 0, 0)"

    def dropped(rs, mu, lam):  # a zero where the table has a row
        return QPolynomial.zero() if lam.is_zero() else real(rs, mu, lam)

    monkeypatch.setattr(verify, "kostka_fermionic", dropped)
    (line,) = run_suite("fermionic", types=("E6",))
    assert not line.ok and "lam=(0, 0, 0, 0, 0, 0)" in line.detail
