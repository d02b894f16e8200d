"""Oracles for the grid search of ``AlgebraicReal.refined`` (``refine_root``),
the bounded ``alg_cmp`` and the sympy-free factorisation of degree 2 and 3: the
retired bisection ``refined``, the retired refine-until-apart ``alg_cmp`` loop
and sympy's ``dup_factor_list``."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

import novikov.exact.polynomials as polynomials
from novikov.exact import AlgebraicReal, IntPoly, alg_cmp, alg_eq, isolate_real_roots
from novikov.exact.polynomials import factor_squarefree_irreducible, sign_at
from novikov.mapping_torus import torus_monodromy, twisted_betti

WIDTHS = (Fraction(1, 3), Fraction(1, 16), Fraction(1, 2**60), Fraction(1, 2**200))


def bisection_refined(x, width):
    """The retired ``refined``, kept as the oracle: bisection in integers, p
    evaluated at each midpoint through ``sign_at``."""
    width = Fraction(width)
    if x.is_rational():
        q, w = x.as_rational(), width / 4
        return (q - w, q + w)
    lo, hi = x.interval
    p = x.minpoly
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    slo = sign_at(p, a, den)
    while (b - a) * width.denominator >= width.numerator * den:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        if sign_at(p, mid, den) == slo:
            a = mid
        else:
            b = mid
    return (Fraction(a, den), Fraction(b, den))


def loop_cmp(a, b):
    """The retired ``alg_cmp``, kept as the oracle: equality first, then both
    intervals halved by bisection until they are apart."""
    if alg_eq(a, b):
        return 0
    x, y = a.interval, b.interval
    while True:
        if x[1] <= y[0]:
            return -1
        if y[1] <= x[0]:
            return 1
        w = min(x[1] - x[0], y[1] - y[0]) / 2
        x = bisection_refined(AlgebraicReal(a.minpoly, x), w)
        y = bisection_refined(AlgebraicReal(b.minpoly, y), w)


COEFFS = st.integers(-10 ** 12, 10 ** 12)
POLYS = st.integers(2, 8).flatmap(
    lambda d: st.tuples(st.lists(COEFFS, min_size=d, max_size=d),
                        COEFFS.filter(bool))).map(lambda t: IntPoly(t[0] + [t[1]]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(POLYS, POLYS)
@example(IntPoly((-1, -1, 0, 1)), IntPoly((-2, 0, 1)))
@example(IntPoly((4002, 0, -4001, 0, 1000)), IntPoly((-1, -1, 0, 0, 1)))
def test_refined_and_cmp_match_bisection_and_the_loop(p, q):
    """Polynomials of degree 2 to 8 with coefficients up to 10^12: the same
    cells as bisection at every width, and the same order as the loop, on the
    real roots of p and q together, whose intervals may overlap."""
    roots = [r for f in (p, q) for r, _ in isolate_real_roots(f)]
    for r in roots:
        for width in WIDTHS:
            assert r.refined(width).interval == bisection_refined(r, width)
        if not r.is_rational():
            lo, hi = bisection_refined(r, Fraction(1, 2**60))
            assert r.to_float() == float((lo + hi) / 2)
    for a in roots:
        for b in roots:
            assert alg_cmp(a, b) == loop_cmp(a, b)


def counting_evaluations(monkeypatch):
    """A list that grows by one with each exact evaluation of a polynomial
    (a sign or a Newton step) made while refining."""
    calls = []
    for name in ("sign_at", "_value_and_slope"):
        function = getattr(polynomials, name)
        monkeypatch.setattr(polynomials, name,
                            lambda *args, _f=function: calls.append(args) or _f(*args))
    return calls


def test_refined_on_the_unguarded_newton_case_and_past_the_float_range(monkeypatch):
    """Newton from the midpoint of (-2, 2) diverges on x^3 - x - 1.  Past the
    float range there is no estimate: exact Newton steps from the middle of
    the interval find the root near 10^400 in place of the 1,330 halvings to
    a width of 1/3, and elsewhere take at most three evaluations more than
    bisection's halvings."""
    big = 10 ** 400
    numbers = [AlgebraicReal.from_poly(IntPoly((-1, -1, 0, 1)), -2, 2),
               AlgebraicReal.from_poly(IntPoly((-2 * big * big, 0, 1)), big, 2 * big),
               AlgebraicReal.from_poly(IntPoly((-2, 0, big)), Fraction(1, big), 1)]
    calls = counting_evaluations(monkeypatch)
    for x in numbers:
        for width in WIDTHS:
            calls.clear()
            got = x.refined(width).interval
            assert got == bisection_refined(x, width)
            halvings = math.floor((x.interval[1] - x.interval[0]) / width).bit_length()
            assert len(calls) <= (20 if x is numbers[1] else halvings + 3)


def test_refining_to_the_print_width_takes_few_evaluations(monkeypatch):
    roots = [r for r, _ in isolate_real_roots(IntPoly((-1, -1, 0, 0, 1)))]  # x^4 - x - 1
    assert len(roots) == 2
    calls = counting_evaluations(monkeypatch)
    for r in roots:
        calls.clear()
        r.refined(Fraction(1, 2**60))
        assert len(calls) <= 4


def overlapping(p, lo, hi, width):
    """The two roots of p in (lo, hi), more than 2 width apart, with isolating
    intervals that overlap on a root-free stretch between them."""
    seq = polynomials.sturm_sequence(p)
    left, right = (AlgebraicReal(p, i, seq) for i in polynomials.isolating_intervals(p, seq)
                   if lo < i[0] and i[1] < hi)
    if right < left:
        left, right = right, left
    gap = (left.refined(width).interval[1], right.refined(width).interval[0])
    return (AlgebraicReal.from_poly(p, left.interval[0], gap[1]),
            AlgebraicReal.from_poly(p, gap[0], right.interval[1]))


def test_cmp_separates_close_roots_by_the_separation_bound():
    # Mignotte: x^8 - 2 (10^4 x - 1)^2 has two roots 10^-4 +- 7 * 10^-21,
    # closer than the 2^-60 of the fine intervals
    mignotte = IntPoly((-2, 4 * 10 ** 4, -2 * 10 ** 8, 0, 0, 0, 0, 0, 1))
    a, b = overlapping(mignotte, Fraction(0), Fraction(1, 1000), Fraction(1, 10 ** 22))
    assert a.interval[1] > b.interval[0]
    assert a.fine_interval[1] > b.fine_interval[0]
    assert (alg_cmp(a, b), alg_cmp(b, a)) == (-1, 1) == (loop_cmp(a, b), loop_cmp(b, a))
    # sqrt(2) against a rational less than 10^-20 below it
    root2 = AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), 1, 2)
    q = AlgebraicReal.from_rational(Fraction(math.isqrt(2 * 10 ** 40), 10 ** 20))
    assert q.fine_interval[1] > root2.fine_interval[0]
    assert (alg_cmp(q, root2), alg_cmp(root2, q)) == (-1, 1) == (loop_cmp(q, root2),
                                                                  loop_cmp(root2, q))


def test_cmp_raises_instead_of_looping_when_refinement_fails(monkeypatch):
    monkeypatch.setattr(AlgebraicReal, "refined", lambda self, width: self)
    root2 = AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), 1, 2)
    with pytest.raises(ArithmeticError):
        alg_cmp(root2, AlgebraicReal.from_rational(Fraction(3, 2)))


def test_fine_interval_and_reciprocal_minpoly_are_computed_once(monkeypatch):
    model = torus_monodromy([[2, 1, 0], [1, 1, 1], [0, 1, 1]])
    lam = AlgebraicReal.from_poly(IntPoly((-1, -1, 0, 1)), 1, 2)  # 1.3247...
    q = AlgebraicReal.from_rational(Fraction(4, 3))
    calls = []
    refined, reversed_ = AlgebraicReal.refined, IntPoly.reversed
    monkeypatch.setattr(AlgebraicReal, "refined",
                        lambda self, width: calls.append("refined") or refined(self, width))
    monkeypatch.setattr(IntPoly, "reversed", lambda self: calls.append("reversed") or reversed_(self))
    for _ in range(3):
        assert alg_cmp(lam, q) == -1  # the intervals overlap, the fine ones do not
        assert lam.to_float() == 1.324717957244746
        twisted_betti(model, lam)  # kappa in every degree
    assert sorted(calls) == ["refined", "refined", "reversed"]


def sympy_factors(p):
    _, factors = dup_factor_list([ZZ(c) for c in reversed(p.coeffs)], ZZ)
    return sorted((IntPoly([int(c) for c in reversed(f)]).primitive().coeffs, int(m))
                  for f, m in factors)


BIG = st.integers(-10 ** 12, 10 ** 12)
# (degree, power) of each factor, of total degree 2 or 3
SHAPES = [[(2, 1)], [(3, 1)], [(1, 2)], [(1, 3)], [(1, 1), (1, 1)], [(1, 1), (2, 1)],
          [(1, 2), (1, 1)], [(1, 1), (1, 1), (1, 1)]]


@st.composite
def low_degree_products(draw):
    """Products of integer factors of degree <= 3 with coefficients up to
    10^12, squares and cubes of linear factors among them, times a scale."""
    p = IntPoly([draw(st.sampled_from((1, -1, 2, -6)))])
    for degree, power in draw(st.sampled_from(SHAPES)):
        f = IntPoly(draw(st.lists(BIG, min_size=degree, max_size=degree))
                    + [draw(BIG.filter(bool))])
        for _ in range(power):
            p = p * f
    return p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(low_degree_products())
@example(IntPoly((-10 ** 10 - 1, 10 ** 10)) * IntPoly((-10 ** 10 - 1, 10 ** 10))
         * IntPoly((-10 ** 10 - 1, 10 ** 10)))
@example(IntPoly((7, 10 ** 11)) * IntPoly((7, -10 ** 11)))
@example(IntPoly((0, 0, 1)) * IntPoly((3, -10 ** 9)))
@example(IntPoly((-1, -1, 0, 1)))
@example(IntPoly((0, -2, 0, 1)))
def test_degree_two_and_three_factor_as_sympy_does(p):
    got = sorted((f.coeffs, m) for f, m in factor_squarefree_irreducible(p))
    assert got == sympy_factors(p)
