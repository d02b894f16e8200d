import random
from fractions import Fraction

import numpy as np
import pytest
from sympy.polys.polyerrors import NotInvertible

from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    NumberField,
    isolate_real_roots,
    rank,
)
from novikov.exact.polynomials import is_irreducible


def field_sqrt2():
    gen = AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), Fraction(1), Fraction(2))
    return NumberField(gen)


def field_rho():
    gen = AlgebraicReal.from_poly(IntPoly((-1, -1, 0, 1)), Fraction(1), Fraction(2))
    return NumberField(gen)


def test_basic_arithmetic():
    nf = field_sqrt2()
    x = nf.gen()
    two = nf.scalar(2)
    assert x * x == two
    assert x + (-x) == nf.zero()
    assert x and not x - x  # false exactly at zero
    assert nf.one() * x == x
    assert (x + nf.one()) * (x - nf.one()) == x * x - nf.one()


def test_reduce():
    nf = field_rho()
    x = nf.gen()
    assert x * x * x == x + nf.one()


def test_inverse():
    nf = field_rho()
    x = nf.gen()
    for elem in (x, x * x, x + nf.one(), x * x - nf.scalar(3) * x + nf.one()):
        assert elem * (nf.one() / elem) == nf.one()
    with pytest.raises(NotInvertible):
        nf.one() / nf.zero()


def random_fields(rng, count):
    """Q(lambda) for real roots of random irreducible integer polynomials of
    degree 2..5."""
    fields = []
    while len(fields) < count:
        deg = rng.randint(2, 5)
        p = IntPoly([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 3)])
        if is_irreducible(p):
            roots = isolate_real_roots(p)
            if roots:
                fields.append(NumberField(rng.choice(roots)[0]))
    return fields


def test_inverse_on_random_fields():
    rng = random.Random(5)
    for nf in random_fields(rng, 24):
        x = nf.gen()
        for _ in range(10):
            elem = nf.zero()
            for _ in range(nf.degree):  # Horner: a residue of degree < deg
                elem = elem * x + nf.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            if not elem:
                continue
            assert elem * (nf.one() / elem) == nf.one()


def test_division():
    nf = field_sqrt2()
    x = nf.gen()
    assert x / x == nf.one()
    half_x = x / nf.scalar(2)
    assert half_x + half_x == x


def test_degree_one_field():
    nf = NumberField(AlgebraicReal.from_rational(Fraction(3, 2)))
    g = nf.gen()
    assert g == nf.scalar(Fraction(3, 2))
    assert g * (nf.one() / g) == nf.one()


def test_nf_rank_known():
    nf = field_rho()
    x = nf.gen()
    one, zero = nf.one(), nf.zero()
    ident = Matrix(3, 3, [one if i == j else zero for i in range(3) for j in range(3)])
    assert rank(ident) == 3
    # row 2 = x * row 1: rank 1
    m = Matrix(2, 2, [one, x, x, x * x])
    assert rank(m) == 1
    assert rank(Matrix(2, 2, [zero] * 4)) == 0


def test_nf_rank_against_float_svd():
    """Exact rank vs numpy's float rank on 100 random matrices over Q(sqrt2).

    Entries are small integer combinations a + b*sqrt2; with entries this tame
    a 1e-9 singular-value cutoff is a faithful oracle.
    """
    nf = field_sqrt2()
    x = nf.gen()
    rng = random.Random(99)
    s2 = 2 ** 0.5
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        elems, floats = [], []
        for _ in range(rows * cols):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            elems.append(nf.scalar(a) + nf.scalar(b) * x)
            floats.append(a + b * s2)
        exact = rank(Matrix(rows, cols, elems))
        approx = np.linalg.matrix_rank(
            np.array(floats).reshape(rows, cols), tol=1e-9)
        assert exact == approx
