from weylcurrents.qseries import QPolynomial, geometric_series


def test_arithmetic_and_normalization():
    p = QPolynomial({0: 1, 2: 3})
    q = QPolynomial({2: -3, 1: 5})
    s = p + q
    assert s == QPolynomial({0: 1, 1: 5})
    assert s.coeff(2) == 0
    assert (p - p).is_zero()
    assert not (p - p)


def test_multiplication_exact():
    p = QPolynomial({0: 1, 1: -1})
    assert p * p == QPolynomial({0: 1, 1: -2, 2: 1})
    assert 3 * p == QPolynomial({0: 3, 1: -3})
    assert p * QPolynomial.zero() == QPolynomial.zero()


def test_int_times_polynomial_runs_the_class_mul(monkeypatch):
    # a __mul__ rebound on the class (as a layer trace does) also sees
    # int * QPolynomial
    calls = []
    mul = QPolynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(QPolynomial, "__mul__", counted)
    p = QPolynomial({0: 1, 1: -1})
    assert -2 * p == QPolynomial({0: -2, 1: 2}) and calls == [-2]


def test_laurent_support():
    p = QPolynomial({-2: 1, 3: 4})
    assert p.min_exponent() == -2 and p.max_exponent() == 3
    assert p.conjugate() == QPolynomial({2: 1, -3: 4})
    assert p.shifted(2) == QPolynomial({0: 1, 5: 4})
    assert p.truncated(hi=0) == QPolynomial({-2: 1})
    assert p.truncated(lo=0) == QPolynomial({3: 4})


def test_evaluate_and_positivity():
    p = QPolynomial({0: 1, 1: 2, 4: 1})
    assert p.evaluate(1) == 4
    assert p.has_nonneg_coeffs()
    assert not (p - QPolynomial({1: 5})).has_nonneg_coeffs()


def test_geometric_series():
    assert geometric_series(1, 4) == QPolynomial({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
    assert geometric_series(3, 7) == QPolynomial({0: 1, 3: 1, 6: 1})
    # (1 - q^2) * 1/(1 - q^2) = 1 up to the cutoff
    prod = (QPolynomial({0: 1, 2: -1}) * geometric_series(2, 8)).truncated(hi=8)
    assert prod == QPolynomial.one()


def test_json_roundtrip():
    p = QPolynomial({0: 1, 7: -2})
    assert QPolynomial.from_json(p.to_json()) == p
    assert p.to_json() == {"0": 1, "7": -2}
