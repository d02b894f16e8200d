import math
import random
from fractions import Fraction

import pytest

from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    alg_cmp,
    alg_eq,
    alg_reciprocal,
    isolate_real_roots,
)


def sqrt2():
    return AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), Fraction(1), Fraction(2))


def neg_sqrt2():
    return AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), Fraction(-2), Fraction(-1))


def test_from_rational():
    half = AlgebraicReal.from_rational(Fraction(1, 2))
    assert half.is_rational()
    assert half.as_rational() == Fraction(1, 2)
    assert half.to_float() == 0.5


def test_from_poly_validates_interval():
    p = IntPoly((-2, 0, 1))
    with pytest.raises(ValueError):
        AlgebraicReal.from_poly(p, Fraction(2), Fraction(3))  # no root there
    with pytest.raises(ValueError):
        AlgebraicReal.from_poly(p, Fraction(-2), Fraction(2))  # two roots


def test_from_poly_requires_irreducible():
    with pytest.raises(ValueError):
        AlgebraicReal.from_poly(IntPoly((-1, 0, 1)), Fraction(0), Fraction(2))


def test_to_float_accuracy():
    assert abs(sqrt2().to_float() - math.sqrt(2)) < 1e-12


def test_to_float_is_computed_once_and_not_compared(monkeypatch):
    x, calls = sqrt2(), []
    refined = AlgebraicReal.refined
    monkeypatch.setattr(AlgebraicReal, "refined",
                        lambda self, width: calls.append(width) or refined(self, width))
    assert x.to_float() == x.to_float() and len(calls) == 1
    fresh = AlgebraicReal(x.minpoly, x.interval)
    assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)


def test_to_float_saturates_beyond_float_range():
    big = 10 ** 400
    assert AlgebraicReal.from_rational(big).to_float() == math.inf
    assert AlgebraicReal.from_rational(-big).to_float() == -math.inf
    assert AlgebraicReal.from_rational(Fraction(1, big)).to_float() == 0.0
    root = AlgebraicReal.from_poly(IntPoly((-2 * big * big, 0, 1)), big, 2 * big)
    assert root.to_float() == math.inf
    neg_root = AlgebraicReal.from_poly(IntPoly((-2 * big * big, 0, 1)), -2 * big, -big)
    assert neg_root.to_float() == -math.inf


def test_refined_keeps_root():
    a = sqrt2().refined(Fraction(1, 1024))
    lo, hi = a.interval
    assert hi - lo <= Fraction(1, 1024)
    assert lo < Fraction(math.sqrt(2)).limit_denominator(10**6) < hi


def fraction_refined(x, width):
    """The bisection with Fraction evaluations of the minimal polynomial that
    `refined` replaced, kept as its oracle."""
    if x.is_rational():
        q, w = x.as_rational(), Fraction(width) / 4
        return (q - w, q + w)
    lo, hi = x.interval
    p = x.minpoly
    slo = 1 if p(lo) > 0 else -1
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if (1 if p(mid) > 0 else -1) == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def random_numbers():
    """sqrt(2), -7/3 and the real roots of random integer polynomials."""
    rng = random.Random(11)
    numbers = [sqrt2(), AlgebraicReal.from_rational(Fraction(-7, 3))]
    while len(numbers) < 60:
        deg = rng.randint(2, 9)
        p = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((1, 2, -3))])
        if p.constant() != 0:
            numbers += [r for r, _ in isolate_real_roots(p)]
    return numbers


def test_refined_matches_fraction_bisection():
    widths = (Fraction(1, 2**60), Fraction(1, 3), Fraction(5, 7 * 2**20), 0.001)
    for x in random_numbers():
        for width in widths:
            assert x.refined(width).interval == fraction_refined(x, width)
        lo, hi = fraction_refined(x, Fraction(1, 2**60))
        want = x.as_rational() if x.is_rational() else (lo + hi) / 2
        assert x.to_float() == float(want)


def test_sign_and_reciprocal_match_floats():
    for x in random_numbers():
        value = x.to_float()
        assert x.sign() == (value > 0) - (value < 0)
        r = alg_reciprocal(x)
        assert math.isclose(r.to_float(), 1 / value, rel_tol=1e-12)
        assert alg_eq(alg_reciprocal(r), x)


def test_sign_and_reciprocal_on_intervals_around_zero():
    """One Sturm count decides the sign of an interval that straddles 0, and
    the root bound cuts it away from 0 before it is inverted."""
    p = IntPoly((-2, 0, 1))
    for lo, hi, sign in ((-1, 2, 1), (-2, 1, -1), (0, 2, 1), (-2, 0, -1)):
        x = AlgebraicReal.from_poly(p, lo, hi)
        assert x.sign() == sign
        r = alg_reciprocal(x)
        assert all((end > 0) == (sign > 0) for end in r.interval)
        assert abs(r.to_float() - sign / math.sqrt(2)) < 1e-12
        assert alg_eq(alg_reciprocal(r), x)


def test_sign():
    assert sqrt2().sign() == 1
    assert neg_sqrt2().sign() == -1
    assert AlgebraicReal.from_rational(0).sign() == 0


def test_eq_and_cmp():
    a = sqrt2()
    b = AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), Fraction(1, 2), Fraction(3, 2))
    assert alg_eq(a, b)
    assert a == b
    neg = neg_sqrt2()
    assert alg_cmp(neg, a) < 0
    assert alg_cmp(a, a) == 0
    assert neg < a
    one = AlgebraicReal.from_rational(1)
    assert alg_cmp(one, a) < 0


def test_reciprocal():
    a = sqrt2()
    r = alg_reciprocal(a)
    assert abs(r.to_float() - 1 / math.sqrt(2)) < 1e-12
    assert alg_eq(alg_reciprocal(r), a)
    half = alg_reciprocal(AlgebraicReal.from_rational(2))
    assert half.as_rational() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        alg_reciprocal(AlgebraicReal.from_rational(0))


def test_neg_of_rational():
    neg = AlgebraicReal.from_rational(Fraction(-3, 4))
    assert neg.as_rational() == Fraction(-3, 4) and neg.sign() == -1
    assert alg_cmp(neg, AlgebraicReal.from_rational(Fraction(3, 4))) < 0
    assert alg_cmp(neg_sqrt2(), neg) < 0


def test_isolate_known():
    p = IntPoly((-2, 0, 1))
    roots = isolate_real_roots(p)
    assert len(roots) == 2
    vals = sorted(r.to_float() for r, _ in roots)
    assert abs(vals[0] + math.sqrt(2)) < 1e-9
    assert abs(vals[1] - math.sqrt(2)) < 1e-9
    assert all(m == 1 for _, m in roots)


def test_isolate_multiplicity():
    p = IntPoly((-3, 7, -5, 1))  # (x-1)^2 (x-3)
    roots = isolate_real_roots(p)
    by_val = {round(r.to_float()): m for r, m in roots}
    assert by_val == {1: 2, 3: 1}


def test_isolate_is_sorted():
    rng = random.Random(7)
    close = IntPoly((4002, 0, -4001, 0, 1000))  # (x^2 - 2)(1000 x^2 - 2001)
    polys = [close]
    for _ in range(25):
        deg = rng.randint(1, 5)
        polys.append(IntPoly([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]))
    for p in polys:
        roots = isolate_real_roots(p)
        vals = [r.to_float() for r, _ in roots]
        assert vals == sorted(vals)
        for (a, _), (b, _) in zip(roots, roots[1:]):
            assert alg_cmp(a, b) < 0
    # sqrt(2) < sqrt(2.001) with overlapping isolating intervals: only
    # alg_cmp orders the roots of the two factors
    (a, _), (b, _) = isolate_real_roots(close)[2:]
    assert a.minpoly == IntPoly((-2, 0, 1)) and b.minpoly == IntPoly((-2001, 0, 1000))
    assert b.interval[0] < a.interval[1]


def test_cubic_root_of_smallest_pisot_polynomial():
    p = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1, one real root ~1.3247
    roots = isolate_real_roots(p)
    assert len(roots) == 1
    rho = roots[0][0]
    assert abs(rho.to_float() - 1.324717957244746) < 1e-12
    assert AlgebraicReal.from_rational(1) < rho
