from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy as sp
from sympy import QQ, ZZ, Rational

from novikov.catalog import ot_algebra
from novikov.chevalley import twisted_ce_cohomology
from novikov.exact import coefficient, coefficient_field, substitution

r, s = sp.symbols("r s")
K = coefficient_field(("r", "s"))
Q = coefficient_field(())  # Q has no sympy field: its elements are Fractions


def test_no_parameters_is_qq():
    assert Q is None
    # Q(r, s) as quotients of integer polynomials: the same field as
    # QQ.frac_field, whose elements convert back unchanged
    assert coefficient_field(("r", "s")) == ZZ.frac_field(r, s)
    expr = (r / 2 - 3 * s ** 2) / (5 * r + Rational(1, 7))
    x = coefficient(K, expr)
    assert x.numer.ring.domain == ZZ
    QF = QQ.frac_field(r, s)
    assert QF.convert(x) == QF.convert(expr)
    assert coefficient(K, QF.convert(expr)) == x
    assert coefficient(K, x) is x


def test_numbers():
    for x in (2, Fraction(1, 2), sp.Rational(3, 4), sp.Integer(-5)):
        q = coefficient(Q, x)
        assert type(q) is Fraction and q == Fraction(sp.Rational(x).p, sp.Rational(x).q)
    assert coefficient(Q, 2) * coefficient(Q, Fraction(1, 2)) == 1


def test_parameters_cancel():
    x = coefficient(K, r)
    # (r^2 - 1)/(r - 1) is kept in lowest terms: r + 1
    assert (x * x - 1) / (x - 1) == x + 1
    assert coefficient(K, (r ** 2 - 1) / (r - 1)) == coefficient(K, r + 1)
    assert K.to_sympy((x * x - 1) / (x - 1)) == r + 1


def test_zero_division_guard():
    with pytest.raises(ZeroDivisionError):
        coefficient(K, r) / coefficient(K, 0)


def test_mixed_arithmetic():
    x = coefficient(K, r)
    assert (2 * x) - (x + x) == 0
    assert (x - 1) + (1 - x) == 0
    assert x * Fraction(1, 2) * 2 - x == 0
    assert Fraction(1, 3) - x + x - Fraction(1, 3) == 0


def test_equality():
    x = coefficient(K, r)
    assert x * x / x == x
    assert coefficient(Q, 3) == 3
    assert coefficient(K, 3) == 3
    assert coefficient(Q, sp.Rational(1, 3)) == Fraction(1, 3)


def test_coercion_fails_outside_the_field():
    for bad in (sp.sqrt(2), sp.pi, sp.zoo, sp.Symbol("t"), r):
        with pytest.raises(ValueError):
            coefficient(Q, bad)
    for bad in (sp.sqrt(2), sp.pi, sp.zoo, sp.Symbol("t"), r / (r - r)):
        with pytest.raises(ValueError):
            coefficient(K, bad)
    # an element of Q(r, s) is not one of Q(r)
    with pytest.raises(ValueError):
        coefficient(coefficient_field(("r",)), coefficient(K, s))


def test_partial_instantiate():
    model = ot_algebra(1)
    half = model.instantiate({"alpha1": Fraction(2, 3)})
    assert half.params == ("r1",)
    assert half.field == coefficient_field(("r1",))
    assert twisted_ce_cohomology(half) == [0, 0, 0, 0, 0]
    point = half.instantiate({"r1": 1})
    assert point.params == () and point.field is None
    assert all(type(c) is Fraction for c in point.theta)
    assert twisted_ce_cohomology(point) == [0, 0, 1, 1, 0]
    both = model.instantiate({"alpha1": Fraction(2, 3), "r1": Fraction(1)})
    assert both.brackets == point.brackets and both.theta == point.theta


def test_to_float():
    # the cone reads coefficients as floats; models without parameters hold Fractions
    assert float(coefficient(Q, sp.Rational(1, 4))) == 0.25
    model = ot_algebra(1).instantiate({"alpha1": Fraction(2, 3), "r1": Fraction(1, 4)})
    assert [float(c) for c in model.theta] == [0.25, 0.0, 0.0, 0.0]


class _Ground(int):
    """A ground coefficient of another integer type, such as gmpy2's mpz,
    which sympy's ZZ uses when gmpy2 is installed: the product of an mpz and
    a Fraction is an mpq, so substitution must not compute with it."""

    def _refuse(self, *_):
        raise AssertionError("arithmetic on a ground coefficient")

    __mul__ = __rmul__ = __add__ = __radd__ = __truediv__ = __rtruediv__ = _refuse


def test_substitution_gives_fractions_whatever_the_ground_type():
    # (3a + 1)/2 at a = 2/3, and at b = 2/3 where a stays
    c = SimpleNamespace(numer={(1, 0): _Ground(3), (0, 0): _Ground(1)},
                        denom={(0, 0): _Ground(2)})
    value = substitution(("a", "b"), {"a": Fraction(2, 3), "b": 5})(c)
    assert value == Fraction(3, 2) and type(value) is Fraction
    a = coefficient_field(("a",)).gens[0]
    assert substitution(("a", "b"), {"b": Fraction(2, 3)})(c) == (3 * a + 1) / 2
