"""Sparse Laurent polynomials in the grading variable q, with exact integer coefficients."""

from __future__ import annotations


class QPolynomial:
    """Laurent polynomial in q over Z, stored as {exponent: coefficient} without zeros.

    Values are immutable by convention: all arithmetic returns fresh objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {int(e): int(c) for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "QPolynomial":
        return cls({exponent: coeff})

    def items(self):
        return self._c.items()

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def min_exponent(self):
        return min(self._c) if self._c else None

    def max_exponent(self):
        return max(self._c) if self._c else None

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        c = dict(self._c)
        for e, v in other._c.items():
            n = c.get(e, 0) + v
            if n:
                c[e] = n
            elif e in c:
                del c[e]
        out = QPolynomial.__new__(QPolynomial)
        out._c = c
        return out

    def __neg__(self) -> "QPolynomial":
        out = QPolynomial.__new__(QPolynomial)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = QPolynomial.__new__(QPolynomial)
            out._c = {e: v * other for e, v in self._c.items()} if other else {}
            return out
        c: dict = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                n = c.get(e, 0) + v1 * v2
                if n:
                    c[e] = n
                elif e in c:
                    del c[e]
        out = QPolynomial.__new__(QPolynomial)
        out._c = c
        return out

    def __rmul__(self, other):
        # through `*`, so that `int * QPolynomial` runs whatever `__mul__` the class holds
        return self * other

    def shifted(self, n: int) -> "QPolynomial":
        """Multiply by q^n."""
        out = QPolynomial.__new__(QPolynomial)
        out._c = {e + n: v for e, v in self._c.items()}
        return out

    def conjugate(self) -> "QPolynomial":
        """Substitute q -> q^{-1}."""
        out = QPolynomial.__new__(QPolynomial)
        out._c = {-e: v for e, v in self._c.items()}
        return out

    def truncated(self, hi=None, lo=None) -> "QPolynomial":
        """Drop exponents above hi and below lo (either bound may be None)."""
        out = QPolynomial.__new__(QPolynomial)
        out._c = {
            e: v
            for e, v in self._c.items()
            if (hi is None or e <= hi) and (lo is None or e >= lo)
        }
        return out

    def evaluate(self, x: int = 1) -> int:
        """Specialize q to an integer (exponents must be nonnegative unless |x| == 1)."""
        if x in (1, -1):
            return sum(v * (x ** (e % 2)) for e, v in self._c.items())
        if any(e < 0 for e in self._c):
            raise ValueError("cannot specialize negative exponents away from |q| = 1")
        return sum(v * x**e for e, v in self._c.items())

    def has_nonneg_coeffs(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*q" if v != 1 else "q")
            else:
                parts.append(f"{v}*q^{e}" if v != 1 else f"q^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        """{str(exponent): coefficient} with deterministic key order."""
        return {str(e): self._c[e] for e in sorted(self._c)}

    @classmethod
    def from_json(cls, d: dict) -> "QPolynomial":
        return cls({int(e): int(c) for e, c in d.items()})


def geometric_series(exponent: int, hi: int) -> QPolynomial:
    """1/(1 - q^exponent) truncated at q^hi (exponent >= 1)."""
    if exponent < 1:
        raise ValueError("geometric_series needs a positive exponent")
    return QPolynomial({j: 1 for j in range(0, hi + 1, exponent)})

