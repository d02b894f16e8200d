"""Oracles for the integer fast paths on the fiber query path: the retired
full-Newton ``exterior_char_polys``, the factor-list definition of
``is_irreducible``, the Fraction round trip of ``char_poly`` and
``as_rational`` for the sign of a rational ``AlgebraicReal``."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    alg_eq,
    alg_neg,
    char_poly,
    count_roots,
    exterior_char_polys,
    exterior_powers,
    mirror,
)
from novikov.exact.matrices import _integer_rows, _mat_mul
from novikov.exact.polynomials import (
    _newton,
    factor_squarefree_irreducible,
    is_irreducible,
    sturm_sequence,
)
from test_algebraic import random_numbers


def full_newton_exterior_char_polys(chi):
    """The retired builder, kept as the oracle: Newton's identities for every
    k, with the power sums up to max k C(n, k)."""
    n, c = chi.degree, chi.coeffs[::-1]
    p = [n]
    for m in range(1, max(k * math.comb(n, k) for k in range(n + 1)) + 1):
        p.append((-m * c[m] if m <= n else 0)
                 - sum(c[i] * p[m - i] for i in range(1, min(m, n + 1))))
    return [IntPoly(_newton([(-1) ** k * _newton(p[j::j][:k])[k]
                             for j in range(1, math.comb(n, k) + 1)])[::-1])
            for k in range(n + 1)]


def fraction_char_poly(m):
    """The retired tail of ``char_poly``, kept as the oracle: the
    Faddeev-LeVerrier integers of D*M through Fractions c_k / D^k."""
    n = m.rows
    d, a = _integer_rows(m)
    int_coeffs, mk = [1], [[int(r == c) for c in range(n)] for r in range(n)]
    for k in range(1, n + 1):
        mk = _mat_mul(a, mk)
        ck = -sum(mk[i][i] for i in range(n)) // k
        int_coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    coeffs = [Fraction(c, d ** k) for k, c in enumerate(int_coeffs)]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return IntPoly([int(c * lcm) for c in reversed(coeffs)])


@st.composite
def int_matrices(draw):
    """An int matrix of dim 1..8 whose det is 0 ("singular"), +-1
    ("unimodular": elementary operations, a row maybe negated), +-2^j
    ("scaled": the same with rows doubled) or anything ("free")."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("singular", "unimodular", "scaled", "free")))
    if kind == "free":
        return kind, draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                   min_size=n, max_size=n))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from((1, -1, 2))), max_size=3 * n)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [2 * a if kind == "scaled" else -a for a in rows[i]]
    if kind == "singular":
        rows[-1] = [0] * n if n == 1 else [a - b for a, b in zip(rows[0], rows[1])]
    return kind, rows


EIGHT = [[int(j == i + 1) for j in range(8)] for i in range(7)] + [[1, 1, 0, 0, 0, 0, 0, 0]]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example(("unimodular", EIGHT))                            # x^8 - x - 1, det -1
@example(("unimodular", [r[:] for r in EIGHT[:-1]] + [[-1, 1, 0, 0, 0, 0, 0, 0]]))  # det 1
@example(("free", [r[:] for r in EIGHT[:-1]] + [[3, 1, 0, 0, 0, 0, 0, 0]]))         # det -3
@example(("singular", [r[:] for r in EIGHT[:-1]] + [[0, 1, 0, 0, 0, 0, 0, 0]]))     # det 0
@given(int_matrices())
def test_exterior_char_polys_match_the_full_newton_oracle(case):
    kind, rows = case
    m = Matrix.from_rows(rows)
    chi = char_poly(m)
    det = (-1) ** m.rows * chi.constant()
    assert {"singular": det == 0, "unimodular": abs(det) == 1,
            "scaled": det != 0, "free": True}[kind]
    got = exterior_char_polys(chi)
    assert got == full_newton_exterior_char_polys(chi)
    if m.rows <= 5:
        assert got == [char_poly(e) for e in exterior_powers(m, m.rows)]
    if det:
        n = m.rows
        assert all(got[n - k] == mirror(got[k], det) for k in range(n + 1))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(int_matrices())
def test_char_poly_of_an_int_matrix_matches_the_fraction_path(case):
    m = Matrix.from_rows(case[1])
    got = char_poly(m)
    assert got == fraction_char_poly(m)
    assert all(type(c) is int for c in got.coeffs)
    over_q = Matrix(m.rows, m.cols, [Fraction(x, 1 + i % 6) for i, x in enumerate(m.entries)])
    assert char_poly(over_q) == fraction_char_poly(over_q)


def factor_list_irreducible(p):
    """The retired definition, kept as the oracle: one factor, once, of p's degree."""
    factors = factor_squarefree_irreducible(p)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == p.degree


FACTORS = st.lists(st.integers(-4, 4), min_size=2, max_size=5).map(IntPoly).filter(
    lambda f: f.degree >= 1)
# x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Q and reducible modulo every prime
NAMED = [IntPoly((1, 0, 0, 0, 1)), IntPoly((1, 0, -10, 0, 1)),
         IntPoly((2, 0, 0, 0, 2)), IntPoly((-1, 0, 10, 0, -1)), IntPoly((-1, -1, 0, 1)),
         IntPoly((-1, -1, 0, 1)) * IntPoly((-1, -1, 0, 1)), IntPoly((0, 0, 0, 1)),
         IntPoly((0, 1, 0, 1)), IntPoly((-2, 0, 1)) * IntPoly((-3, 0, 1)),
         IntPoly((-1, -1, 0, 0, 0, 0, 0, 1)), IntPoly((-1, -1, 0, 0, 0, 0, 0, 0, 1))]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(FACTORS, min_size=1, max_size=3), st.sampled_from((1, -1, 2, -6)),
       st.booleans())
def test_is_irreducible_matches_the_factor_list_definition(factors, scale, square):
    """Products, squares, non-primitive polynomials and a negative leading
    coefficient, of degree 1..8."""
    p = IntPoly([scale])
    for f in factors + factors[:1] * square:
        p = p * f
    if p.degree > 8:
        return
    want = factor_list_irreducible(p)
    assert is_irreducible(p) == want
    assert is_irreducible(p, sturm_sequence(p)) == want


def test_is_irreducible_on_named_polynomials():
    want = [True, True, True, True, True, False, False, False, False, True, True]
    assert [is_irreducible(p) for p in NAMED] == want
    assert [factor_list_irreducible(p) for p in NAMED] == want


def test_from_poly_keeps_the_chain_it_built():
    p = IntPoly((-1, -1, 0, 1))
    x = AlgebraicReal.from_poly(p, 1, 2)
    assert x._sturm == sturm_sequence(p)
    for bad, lo, hi, message in ((IntPoly((6, 0, -5, 0, 1)), 1, 2, "not irreducible"),
                                 (IntPoly((-2, 0, 1)), -2, 2, "exactly one root")):
        with pytest.raises(ValueError, match=message):
            AlgebraicReal.from_poly(bad, lo, hi)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30), st.booleans())
def test_sign_of_a_rational_matches_as_rational(a, b, flip):
    """The minimal polynomial b x + a may have either sign of leading
    coefficient."""
    x = AlgebraicReal(IntPoly((-a, -b) if flip else (a, b)), (-1, 1))
    q = x.as_rational()
    assert x.sign() == (q > 0) - (q < 0)


def test_alg_neg_negates():
    for x in random_numbers()[:30]:
        y = alg_neg(x)
        assert y.to_float() == -x.to_float()
        assert alg_eq(alg_neg(y), x) and y.minpoly.leading() > 0
        lo, hi = y.interval
        assert count_roots(y.minpoly, lo, hi) == 1
