"""Randomized parity oracle for ranks over Q(params).

Almost-abelian algebras R x_A R^m, with A affine in one or two parameters and
theta = r e^0, are built twice: symbolically over Q(params) and at rational
points.  A minor of d_theta that vanishes at three independent random points
vanishes identically with overwhelming probability (Schwartz-Zippel), so each
generic rank equals the largest Fraction rank at three seeded points and is
at least the rank at every point, a degenerate one included.
"""

import random
from fractions import Fraction

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.chevalley import LieAlgebraModel, d_theta_matrix, validate
from novikov.exact import rank


@st.composite
def almost_abelian(draw):
    """(m, [A0, A1, ...]): A = A0 + p1 A1 (+ p2 A2) on R^m, m in {3, 4}."""
    m = draw(st.sampled_from((3, 4)))
    count = draw(st.sampled_from((1, 2))) + 1
    entry = st.integers(-2, 2)
    return m, [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(count)]


def build(m, mats, values, r, params=()):
    """[e0, e_(i+1)] = sum_j A[j][i] e_(j+1) with A = A0 + sum values[t] mats[t+1];
    R^m is an abelian ideal, so Jacobi holds and theta = r e^0 is closed."""
    def a(j, i):
        return mats[0][j][i] + sum(v * mat[j][i] for v, mat in zip(values, mats[1:]))
    brackets = {(0, i + 1): {j + 1: a(j, i) for j in range(m)} for i in range(m)}
    return LieAlgebraModel(dim=m + 1, params=params, brackets=brackets,
                           theta=(r,) + (0,) * m)


def random_point(rng, count):
    def q():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
    return [q() for _ in range(count)], q()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(almost_abelian())
def test_generic_rank_is_the_largest_rank_at_random_points(data):
    m, mats = data
    names = [f"p{t + 1}" for t in range(len(mats) - 1)]
    generic = build(m, mats, sp.symbols(names), sp.Symbol("r"), tuple(names) + ("r",))
    assert validate(generic).ok
    rng = random.Random(7)
    points = [build(m, mats, *random_point(rng, len(names))) for _ in range(3)]
    degenerate = build(m, mats, [0] * len(names), 0)
    for k in range(m + 1):
        want = rank(d_theta_matrix(generic, k))
        at_points = [rank(d_theta_matrix(p, k)) for p in points]
        assert want == max(at_points), (k, at_points)
        assert want >= rank(d_theta_matrix(degenerate, k)), k
