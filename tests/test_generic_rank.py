"""Randomized parity oracle for ranks over Q(params), and parity of
``twisted_ce_cohomology`` with full elimination over Q(params).

Almost-abelian algebras R x_A R^m, with A affine in one or two parameters and
theta = r e^0, are built twice: symbolically over Q(params) and at rational
points.  A minor of d_theta that vanishes at three independent random points
vanishes identically with overwhelming probability (Schwartz-Zippel), so each
generic rank equals the largest Fraction rank at three seeded points and is
at least the rank at every point, a degenerate one included.

``twisted_ce_cohomology`` pins ranks at one seeded point and eliminates over
Q(params) only the rest; the oracle eliminates every d_theta matrix over
Q(params).
"""

import random
from fractions import Fraction
from math import comb

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.fields import FracElement

from novikov import chevalley
from novikov.catalog import (
    abelian_algebra,
    ot_algebra,
    s0_algebra,
    splus_algebra,
    splus_coframe_model,
)
from novikov.chevalley import (
    LieAlgebraModel,
    LieModelError,
    d_theta_matrix,
    twisted_ce_cohomology,
    validate,
)
from novikov.exact import rank


P, R = sp.symbols("p r")


def cohomology_from_ranks(ranks):
    """dim H^k from the ranks of d_theta on k-forms, k = 0..n-1."""
    n = len(ranks)
    ranks = list(ranks) + [0]  # ranks[-1] and ranks[n] are the zero maps
    return [comb(n, k) - ranks[k] - ranks[k - 1] for k in range(n + 1)]


def symbolic_cohomology(model):
    """The oracle: every d_theta matrix eliminated over Q(params)."""
    return cohomology_from_ranks([rank(d_theta_matrix(model, k))
                                  for k in range(model.dim)])


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
    wants = []
    for k in range(m + 1):
        want = rank(d_theta_matrix(generic, k))
        at_points = [rank(d_theta_matrix(p, k)) for p in points]
        assert want == max(at_points), (k, at_points)
        assert want >= rank(d_theta_matrix(degenerate, k)), k
        wants.append(want)
    assert twisted_ce_cohomology(generic) == cohomology_from_ranks(wants)


def symbolic_degrees(monkeypatch, model):
    """twisted_ce_cohomology(model), and the degrees k whose d_theta matrix it
    builds, and so eliminates, over Q(params)."""
    degrees = []

    def counted(m, k):
        if m.params:
            degrees.append(k)
        return d_theta_matrix(m, k)

    monkeypatch.setattr(chevalley, "d_theta_matrix", counted)
    return twisted_ce_cohomology(model), degrees


@pytest.mark.parametrize("model", [
    s0_algebra(), splus_algebra(), splus_coframe_model(), ot_algebra(1),
    ot_algebra(2), ot_algebra(3), abelian_algebra(4)], ids=lambda m: m.name)
def test_catalog_cohomology_matches_full_elimination(model):
    assert twisted_ce_cohomology(model) == symbolic_cohomology(model)


def test_ot2_runs_no_rank_over_the_parameters(monkeypatch):
    def rational_only(m):
        assert not any(isinstance(e, FracElement) for e in m.entries)
        return rank(m)

    monkeypatch.setattr(chevalley, "rank", rational_only)
    assert symbolic_degrees(monkeypatch, ot_algebra(2)) == ([0] * 7, [])


@pytest.mark.parametrize("model, degrees", [
    # point ranks (1, 3, 2, 1): h^2 = h^3 = 1 at the point leaves k = 2 open;
    # k = 1 is pinned by C(4, 1) - r_0 alone, k = 3 by C(4, 4) - r_4 alone
    (s0_algebra(), [2]),
    # point ranks (1, 2, 2, 1): h^1, h^2, h^3 != 0 leave k = 1 and k = 2 open
    (splus_algebra(), [1, 2]),
    # A = diag(p, 1, 2), theta = 0: point ranks (0, 3, 3, 1), Betti numbers
    # (1, 1, 0, 0, 0); h^0 = h^1 = 1 leaves k = 0 open, and k = 1 is pinned by
    # C(4, 2) - r_2 alone
    (build(3, [[[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]],
           [P], 0, ("p",)), [0]),
], ids=["s0-algebra", "splus-algebra", "diag-p-1-2"])
def test_only_unpinned_ranks_are_eliminated_over_the_parameters(
        monkeypatch, model, degrees):
    dims, got = symbolic_degrees(monkeypatch, model)
    assert dims == symbolic_cohomology(model) and got == degrees


def shear_model(entry, theta_coefficient):
    """R x_A R^3 with A = diag(entry, 1, -1 - entry) and theta =
    theta_coefficient e^0, both in the parameters p and r: A is traceless and
    R^3 an abelian ideal, so the model is valid for every entry."""
    a = [entry, 1, -1 - entry]
    brackets = {(0, i + 1): {i + 1: a[i]} for i in range(3)}
    model = LieAlgebraModel(dim=4, params=("p", "r"), brackets=brackets,
                            theta=(theta_coefficient, 0, 0, 0))
    assert validate(model).ok
    return model


def test_a_vanishing_denominator_draws_the_next_point(monkeypatch):
    first = next(chevalley._seeded_points(2))
    model = shear_model(1 / (P - first[0]), R)
    with pytest.raises(LieModelError, match="denominator"):
        model.instantiate(dict(zip(model.params, first)))
    # the next point pins every rank, so nothing is eliminated symbolically
    assert symbolic_degrees(monkeypatch, model) == (symbolic_cohomology(model), [])


def test_every_draw_failing_falls_back_to_full_elimination(monkeypatch):
    poles = sp.Mul(*(P - q for q, _ in chevalley._seeded_points(2)))
    model = shear_model(1 / poles, R)
    dims, degrees = symbolic_degrees(monkeypatch, model)
    assert dims == symbolic_cohomology(model)
    assert degrees == list(range(model.dim))


def test_a_degenerate_first_point_pins_nothing_it_cannot(monkeypatch):
    # theta vanishes at the first point, so there the ranks are those of the
    # untwisted differential, some of them below the generic ranks
    first = next(chevalley._seeded_points(2))
    model = shear_model(P, R - first[1])
    at = model.instantiate(dict(zip(model.params, first)))
    assert not any(at.theta)
    dims, degrees = symbolic_degrees(monkeypatch, model)
    assert dims == symbolic_cohomology(model) == [0] * 5
    assert degrees
