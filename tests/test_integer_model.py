"""Parity of a Lie model's scaled structure (``LieAlgebraModel.scaled``: the
brackets and theta over one common denominator, J over its own, as sparse
integer lists) with Fraction oracles, on rational models whose brackets,
theta and J have different, non-unit denominators."""

from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov import chevalley
from novikov.catalog import abelian_algebra, ot_algebra, s0_algebra
from novikov.chevalley import (
    LieAlgebraModel,
    _scaled_delta_matrix,
    d_theta_matrix,
    delta_theta,
    isotropic_basis,
    obstruction_search,
    scaled_d_theta_matrix,
    twisted_ce_cohomology,
    validate,
    wedge_basis,
)
from novikov.exact import Matrix, exterior_powers, nullspace, rank
from novikov.lck_cone import _integer_sym_matrices, kernel_basis
from test_chevalley import (
    apply_j_by_fractions,
    assert_isotropic_basis_matches_sympy,
    bracket_by_fractions,
    jacobi_by_triples,
    matrix_of,
    three_stage_search,
    wedge_oracle_d_theta_matrix,
)
from test_lck_cone import float_sym_oracle, h3_plus_r

BRACKET = st.sampled_from((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(2), -1))
THETA = st.sampled_from((0, 0, 0, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 9), 1))
SHEAR = st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 1))


@st.composite
def scaled_models(draw):
    """R^n, n in {4, 6}: random sparse brackets (mostly failing Jacobi) or an
    almost-abelian R x_A R^(n-1), a drawn theta, and the standard J
    conjugated by up to three rational shears, sometimes with one entry moved
    so that J^2 != -I."""
    n = draw(st.sampled_from((4, 6)))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              unique=True, min_size=1, max_size=n))
        brackets = {pair: {k: draw(BRACKET) for k in draw(st.sets(st.integers(0, n - 1),
                                                                    min_size=1, max_size=2))}
                    for pair in pairs}
    else:
        brackets = {(0, i): {j: draw(BRACKET) for j in range(1, n) if draw(st.booleans())}
                    for i in range(1, n)}
    j = [list(row) for row in abelian_algebra(n).J]
    index = st.integers(0, n - 1)
    for a, b, t in draw(st.lists(st.tuples(index, index, SHEAR), max_size=3)):
        if a != b:  # (I + t E_ab) J (I - t E_ab)
            j = [[x + t * j[b][k] if i == a else x for k, x in enumerate(row)]
                 for i, row in enumerate(j)]
            j = [[x - t * row[a] if k == b else x for k, x in enumerate(row)] for row in j]
    if draw(st.booleans()):
        j[draw(index)][draw(index)] += Fraction(1, 5)
    theta = tuple(draw(THETA) for _ in range(n))
    return LieAlgebraModel(dim=n, brackets=brackets, theta=theta, J=tuple(map(tuple, j)))


def fraction_vectors(n):
    entry = st.sampled_from((0, 0, 1, -2, Fraction(1, 2), Fraction(-5, 3)))
    return st.lists(entry, min_size=n, max_size=n)


def test_the_structure_is_over_the_least_denominators():
    model = LieAlgebraModel(dim=4, brackets={(0, 1): {2: Fraction(1, 6)}, (0, 2): {3: 2}},
                            theta=(Fraction(3, 4), 0, 0, 0),
                            J=((0, Fraction(-1, 3), 0, 0), (3, 0, 0, 0),
                               (0, 0, 0, -1), (0, 0, 1, 0)))
    sc = model.scaled
    assert (sc.den, sc.j_den) == (12, 3)
    # (bitmask of {j, l}, bits below j, bits below l, c) and (bit of l, bits below l, c)
    assert sc.d_cov == [[], [], [(0b11, 0, 0b1, -2)], [(0b101, 0, 0b11, -24)]]
    assert sc.theta == ((0b1, 0, 9),)
    assert sc.j_rows == (((1, -1),), ((0, 9),), ((3, -3),), ((2, 3),))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_d_theta_matrix_matches_the_wedge_oracle(model):
    for k in range(model.dim + 1):
        got = d_theta_matrix(model, k)
        assert got == wedge_oracle_d_theta_matrix(model, k), k
        # divided by den on the nonzero entries only: ints where den = 1
        kind = int if model.scaled.den == 1 else Fraction
        assert all(type(x) is kind for x in got.entries if x)


def scaled_oracle(model, matrix):
    """den times a matrix of Fractions."""
    return Matrix(matrix.rows, matrix.cols, [model.scaled.den * x for x in matrix.entries])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_den_d_theta_has_the_ranks_and_kernels_of_d_theta(model):
    flipped = replace(model, theta=tuple(-t for t in model.theta))
    for k in range(model.dim + 1):
        scaled, true = scaled_d_theta_matrix(model, k), d_theta_matrix(model, k)
        assert all(type(x) is int for x in scaled.entries)
        assert scaled == scaled_oracle(model, wedge_oracle_d_theta_matrix(model, k))
        assert rank(scaled) == rank(true)
        assert nullspace(scaled) == nullspace(true)
        # sigma = -1 is d_(-theta), the operator delta_theta is built from
        assert scaled_d_theta_matrix(model, k, -1) == scaled_oracle(
            model, wedge_oracle_d_theta_matrix(flipped, k))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_delta_theta_matrix_matches_the_hodge_star_oracle_on_drawn_models(model):
    model = replace(model, coframe_metric=True)
    for k in range(model.dim + 1):
        assert _scaled_delta_matrix(model, k) == scaled_oracle(
            model, matrix_of(model, k, delta_theta)), k


@pytest.mark.parametrize("model", [
    abelian_algebra(6),
    ot_algebra(2).instantiate({"alpha1": Fraction(1, 3), "alpha2": Fraction(-5, 7),
                               "r1": Fraction(2, 3), "r2": -1})], ids=["abelian6", "ot2-point"])
def test_the_ranks_divide_no_entry_by_den(monkeypatch, model):
    want = twisted_ce_cohomology(model)

    def refused(c, den):
        raise AssertionError("the ranks built a Fraction")

    monkeypatch.setattr(chevalley, "_unscale", refused)
    assert twisted_ce_cohomology(model) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_validate_matches_the_fraction_oracles(model):
    n, report = model.dim, validate(model)
    found = {kind: [where for k, where in report.violations if k == kind]
             for kind in ("jacobi", "theta_not_closed", "J_squared")}
    assert found["jacobi"] == jacobi_by_triples(model)
    # d theta = 0 iff theta vanishes on every bracket
    closed = not any(sum(model.theta[k] * c for k, c in comps.items())
                     for comps in model.brackets.values())
    assert bool(found["theta_not_closed"]) == (not closed) == (not model.theta_is_closed())
    j = Matrix.from_rows(model.J)
    square = j.matmul(j)
    assert found["J_squared"] == [(r + 1, c + 1) for r in range(n) for c in range(n)
                                  if square[r, c] + int(r == c)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scaled_models().flatmap(lambda m: st.tuples(
    st.just(m), fraction_vectors(m.dim), fraction_vectors(m.dim))))
def test_apply_j_and_bracket_vec_match_the_fraction_oracles(data):
    model, u, v = data
    assert model.apply_J(u) == apply_j_by_fractions(model, u)
    assert model.bracket_vec(u, v) == bracket_by_fractions(model, u, v)


def obstruction_by_fractions(model):
    """The candidates of ``obstruction_search`` in its order, tested with the
    Fraction oracles of J and the bracket."""
    basis = isotropic_basis(model)
    two_term = ([a * x + b * y for x, y in zip(u, w)] for u, w in combinations(basis, 2)
                for a in range(1, 5) for b in range(-4, 5) if b and gcd(a, b) == 1)
    return next((tuple(x) for x in chain(basis, two_term)
                 if not any(bracket_by_fractions(model, x, apply_j_by_fractions(model, x)))),
                None)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_obstruction_search_matches_the_fraction_search(model):
    assert_isotropic_basis_matches_sympy(model)
    x = obstruction_search(model)
    assert x == obstruction_by_fractions(model)
    # the retired search's basis vectors and two-term combinations: up to
    # scale, those in ker theta cap ker(theta o J) are among the candidates
    if three_stage_search(model, samples=0) is not None:
        assert x is not None


def sym_by_fractions(model, form):
    """Sym(W J) = (W J + (W J)^T) / 2 of a 2-form, in Fractions from model.J."""
    n = model.dim
    w = [[Fraction(0)] * n for _ in range(n)]
    for (i, k), c in zip(wedge_basis(n, 2), form.coeffs):
        w[i][k], w[k][i] = c, -c
    wj = [[sum(w[u][s] * model.J[s][t] for s in range(n)) for t in range(n)]
          for u in range(n)]
    return [[(wj[u][t] + wj[t][u]) / 2 for t in range(n)] for u in range(n)]


def j_invariant_by_fractions(model, basis):
    """The J-invariant combinations of the basis, by Lambda^2 of J in Fractions."""
    b = Matrix.from_rows(list(zip(*(form.coeffs for form in basis))))
    image = exterior_powers(Matrix.from_rows(model.J), 2)[2].transpose().matmul(b)
    combo = nullspace(Matrix(b.rows, b.cols, [x - y for x, y in zip(image.entries, b.entries)]))
    return [tuple(b.matmul(Matrix(b.cols, 1, vec)).entries) for vec in combo]


def j_invariant_in_two_stages(model, basis):
    """The restriction the cone ran before its basis became one nullspace: the
    combinations of the kernel basis in the kernel of (Lambda^2(J)^T - I) B,
    B the basis forms as columns, taken in ints (times j_den^2 and the lcm of
    B's denominators), and each form B vec formed in ints."""
    if not basis:
        return []
    n, sc = model.dim, model.scaled
    b = Matrix.from_rows(list(zip(*(form.coeffs for form in basis))))
    scale = lcm(*(c.denominator for c in b.entries))
    b_int = Matrix(b.rows, b.cols, [c.numerator * (scale // c.denominator) for c in b.entries])
    j_int = Matrix(n, n, [dict(row).get(t, 0) for row in sc.j_rows for t in range(n)])
    image = exterior_powers(j_int, 2)[2].transpose().matmul(b_int)
    combo = nullspace(Matrix(b.rows, b.cols, [x - sc.j_den ** 2 * y
                                              for x, y in zip(image.entries, b_int.entries)]))

    def form(vec):
        den = lcm(*(c.denominator for c in vec))
        col = b_int.matmul(Matrix(b.cols, 1, [c.numerator * (den // c.denominator) for c in vec]))
        return tuple(Fraction(x, scale * den) for x in col.entries)
    return [form(vec) for vec in combo]


# abelian4 with J0 conjugated by I + E_13 / 2: Lambda^2(J) is not symmetric, so
# its fixed forms differ from those of its transpose, and j_den = 2
SHEARED_J = ((0, -1, 0, Fraction(-1, 2)), (1, 0, Fraction(-1, 2), 0), (0, 0, 0, -1), (0, 0, 1, 0))


@example(LieAlgebraModel(dim=4, J=SHEARED_J))
@example(h3_plus_r((0, 0, 0, 1)))
@example(h3_plus_r((0, 0, 0, -1)))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scaled_models())
def test_cone_matrices_match_the_fraction_and_float_oracles(model):
    # the lck basis, one nullspace, is the J-invariant basis of the Fraction
    # oracle and of the two-stage restriction, vector for vector
    taming, lck = kernel_basis(model, "taming"), kernel_basis(model, "lck")
    coeffs = [f.coeffs for f in lck]
    assert coeffs == (j_invariant_by_fractions(model, taming) if taming else [])
    assert coeffs == j_invariant_in_two_stages(model, taming)
    assert all(type(c) is Fraction for f in coeffs for c in f)
    for basis in (taming, lck):
        mats, den = _integer_sym_matrices(model, basis)
        exact = [sym_by_fractions(model, form) for form in basis]
        assert den == lcm(*(x.denominator for m in exact for row in m for x in row))
        assert mats == [[[int(x * den) for x in row] for row in m] for m in exact]
        floats = np.array(mats, dtype=float).reshape(len(basis), model.dim, model.dim) / den
        assert np.abs(floats - float_sym_oracle(model, basis)).max(initial=0) <= 1e-12


H3_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def test_a_theta_override_rebuilds_the_structure():
    # h3 + R: [e1, e2] = e3; e^4 is closed, and d e^3 = -e^12 is not zero
    model = LieAlgebraModel(dim=4, brackets={(0, 1): {2: 1}}, theta=(0, 0, 0, 1), J=H3_J)
    other = replace(model, theta=(0, 0, Fraction(1, 2), 0))
    assert model.theta_is_closed() and not other.theta_is_closed()
    assert (model.scaled.den, other.scaled.den) == (1, 2)
    assert other.scaled.theta == ((0b100, 0b11, 1),)
    for k in range(5):
        assert d_theta_matrix(other, k) == wedge_oracle_d_theta_matrix(other, k)
    assert d_theta_matrix(other, 1) != d_theta_matrix(model, 1)


def test_instantiate_rebuilds_the_structure():
    symbolic = s0_algebra()
    assert symbolic.scaled.den == 1 and symbolic.scaled.j_den == 1
    at = symbolic.instantiate({"r": Fraction(1, 3), "s": Fraction(2, 5)})
    coeffs = list(chain(at.theta, *(comps.values() for comps in at.brackets.values())))
    assert at.scaled.den == lcm(*(c.denominator for c in coeffs)) > 1
    assert all(type(c) is int for *_, c in chain(at.scaled.theta, *at.scaled.d_cov))
    for k in range(at.dim + 1):
        assert d_theta_matrix(at, k) == wedge_oracle_d_theta_matrix(at, k)
