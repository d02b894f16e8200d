"""Parity of the one-pass d_theta kernel (``chevalley._d_scaled``) with the
retired per-column builder and the wedge oracle, over Q and over Q(params),
and of the integer point structure of ``_generic_ranks``
(``chevalley._scaled_at``) with ``LieAlgebraModel.instantiate``."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.catalog import ot_algebra, s0_algebra, splus_algebra
from novikov.chevalley import (
    LieAlgebraModel,
    LieModelError,
    _mask_rows,
    _scaled_at,
    _seeded_points,
    scaled_d_theta_matrix,
    twisted_ce_cohomology,
    validate,
)
from novikov.exact import Matrix, coefficient, coefficient_field, rank
from test_chevalley import jacobi_by_triples, wedge_oracle_d_theta_matrix
from test_generic_rank import P, R, build, shear_model, symbolic_cohomology
from test_integer_model import scaled_models


def per_column_d_scaled(sc, k, terms, sigma):
    """The retired kernel, kept as the oracle: den * (d - sigma theta ^) of
    one form sum c e^s over the (bitmask of s, ..., c) of terms, as {row:
    coefficient}, with the Leibniz rests rebuilt for every form."""
    rows, acc, n = _mask_rows(len(sc.d_cov), k + 1), {}, len(sc.d_cov)
    theta = [(bit, 0, below, -sigma * c) for bit, below, c in sc.theta] if sigma else []
    for s, *_, cs in terms:
        if not cs:
            continue
        leibniz = [(s ^ 1 << i, t, sc.d_cov[i])
                   for t, i in enumerate(i for i in range(n) if s >> i & 1)]
        for rest, t, heads in leibniz + [(s, 0, theta)]:
            for pair, below_j, below_l, c in heads:
                if not rest & pair:
                    odd = t + (rest & below_j).bit_count() + (rest & below_l).bit_count() & 1
                    r, term = rows[rest | pair], -c * cs if odd else c * cs
                    acc[r] = acc[r] + term if r in acc else term
    return acc


def per_column_scaled_d_theta_matrix(model, k, sigma=1):
    """The retired builder, kept as the oracle: one kernel call per column."""
    n, sc, width = model.dim, model.scaled, len(_mask_rows(model.dim, k))
    entries = [0] * (len(_mask_rows(n, k + 1)) * width)
    for s, col in _mask_rows(n, k).items():
        for r, c in per_column_d_scaled(sc, k, ((s, 1),), sigma).items():
            entries[r * width + col] = c
    return Matrix(len(entries) // width, width, entries)


FACTORS = (lambda a: 1, lambda a: a, lambda a: 1 / (a - 1), lambda a: a ** 2 - 3)


@st.composite
def parametric_models(draw):
    """A drawn ``scaled_models`` model moved to Q(a): each bracket and theta
    coefficient times a drawn 1, a, 1/(a - 1) or a^2 - 3."""
    model = draw(scaled_models())
    field = coefficient_field(("a",))
    factor = st.sampled_from([f(field.gens[0]) for f in FACTORS])

    def lift(c):
        return coefficient(field, c) * draw(factor) if c else c
    return replace(model, params=("a",), theta=tuple(map(lift, model.theta)),
                   brackets={ij: {k: lift(c) for k, c in comps.items()}
                             for ij, comps in model.brackets.items()})


def assert_matches_both_oracles(model):
    for sigma in (0, 1, -1):
        twisted = replace(model, theta=tuple(sigma * t for t in model.theta))
        for k in range(model.dim + 1):
            got = scaled_d_theta_matrix(model, k, sigma)
            assert got == per_column_scaled_d_theta_matrix(model, k, sigma), (sigma, k)
            wedge = wedge_oracle_d_theta_matrix(twisted, k)
            assert got == Matrix(wedge.rows, wedge.cols,
                                 [model.scaled.den * x for x in wedge.entries]), (sigma, k)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.one_of(scaled_models(), parametric_models()))
def test_one_pass_matrix_matches_the_per_column_builder_and_the_wedge_oracle(model):
    assert_matches_both_oracles(model)


@pytest.mark.parametrize("model", [s0_algebra(), splus_algebra(), ot_algebra(2)],
                         ids=lambda m: m.name)
def test_one_pass_matrix_matches_the_oracles_on_catalog_families(model):
    assert_matches_both_oracles(model)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(parametric_models())
def test_validate_reports_the_jacobi_triples_over_q_params(model):
    found = [where for kind, where in validate(model).violations if kind == "jacobi"]
    assert found == jacobi_by_triples(model)


def assert_point_structure_matches_instantiate(model):
    """At every seeded point, ``_scaled_at`` is None exactly where
    ``instantiate`` meets a pole of the brackets or theta; elsewhere its den *
    d_theta matrices are those of the instantiated model, ranks included."""
    for point in _seeded_points(len(model.params)):
        at = _scaled_at(model, point)
        try:
            inst = model.instantiate(dict(zip(model.params, point)))
        except LieModelError:
            assert at is None
            continue
        assert at is not None and at.den == inst.scaled.den
        for k in range(model.dim + 1):
            got, want = scaled_d_theta_matrix(at, k), scaled_d_theta_matrix(inst, k)
            assert all(type(x) is int for x in got.entries)
            assert got == want and rank(got) == rank(want), k


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(parametric_models())
def test_point_structure_matches_instantiate_on_drawn_models(model):
    assert_point_structure_matches_instantiate(model)


# a pole at the first seeded point, so the second is drawn
POLE_AT_THE_FIRST_POINT = replace(shear_model(1 / (P - next(_seeded_points(2))[0]), R),
                                  name="pole-at-the-first-point")


@pytest.mark.parametrize("model", [
    s0_algebra(), splus_algebra(), ot_algebra(1), ot_algebra(2), POLE_AT_THE_FIRST_POINT],
    ids=lambda m: m.name)
def test_point_structure_matches_instantiate_on_families(model):
    assert_point_structure_matches_instantiate(model)


TWO_PARAMETER_ALMOST_ABELIAN = replace(build(
    3, [[[1, 0, 0], [0, -1, 1], [0, 0, 2]], [[0, 1, 0], [0, 0, 0], [1, 0, 0]]],
    [P], R, ("p", "r")), name="almost-abelian-p-r")


@pytest.mark.parametrize("model", [
    ot_algebra(2), s0_algebra(), splus_algebra(), TWO_PARAMETER_ALMOST_ABELIAN,
    POLE_AT_THE_FIRST_POINT], ids=lambda m: m.name)
def test_the_generic_ranks_build_no_second_model(monkeypatch, model):
    want = symbolic_cohomology(model)

    def refused(self, mapping):
        raise AssertionError("a second model was built at the point")

    monkeypatch.setattr(LieAlgebraModel, "instantiate", refused)
    assert twisted_ce_cohomology(model) == want
