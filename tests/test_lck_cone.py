import json
from fractions import Fraction

import numpy as np
import pytest

from novikov.catalog import abelian_algebra, s0_algebra, splus_algebra
from novikov.chevalley import InvariantForm, LieModelError, d_theta_apply
from novikov.lck_cone import (
    TamingCertificate,
    certificate_form,
    form_to_matrix,
    kernel_basis,
    positivity_check,
    taming_feasibility,
)


def s0_at(r, s=Fraction(1, 3)):
    return s0_algebra().instantiate({"r": Fraction(r), "s": Fraction(s)})


def test_kernel_basis_is_exactly_closed():
    model = s0_at(Fraction(1, 2))
    basis = kernel_basis(model)
    assert len(basis) == 4
    for form in basis:
        assert d_theta_apply(model, form).is_zero()


def test_kernel_contains_tricerri_form():
    model = s0_at(Fraction(1, 2))
    omega = model.named_forms["omega"]
    assert d_theta_apply(model, omega).is_zero()
    # omega lies in the span of the computed kernel basis: check the span's
    # rank does not grow
    from novikov.exact import Matrix, rank
    basis = kernel_basis(model)
    rows = [list(b.coeffs) for b in basis]
    r0 = rank(Matrix(len(rows), 6, [x for r in rows for x in r]))
    rows.append(list(omega.coeffs))
    r1 = rank(Matrix(len(rows), 6, [x for r in rows for x in r]))
    assert r0 == r1 == 4


def test_kernel_requires_instantiation():
    with pytest.raises(LieModelError):
        kernel_basis(s0_algebra())


def test_form_to_matrix_antisymmetric():
    form = InvariantForm.from_dict(4, 2, {(0, 1): 2, (2, 3): -1})
    w = form_to_matrix(form)
    assert np.allclose(w, -w.T)
    assert w[0, 1] == 2 and w[2, 3] == -1


def test_positivity_check_standard_form():
    model = abelian_algebra(4)
    omega = InvariantForm.from_dict(4, 2, {(0, 1): 1, (2, 3): 1})
    jmat = [[float(c) for c in row] for row in model.J]
    # with the standard J the compatible form is +omega; its mirror is not
    assert positivity_check(omega, jmat) > 0
    assert positivity_check(-omega, jmat) < 0


def test_taming_feasible_s0():
    model = s0_at(Fraction(1, 2))
    cert = taming_feasibility(model, kind="taming")
    assert cert.feasible
    assert cert.lambda_min > 0.05


def test_lck_feasible_s0():
    model = s0_at(Fraction(1, 2))
    cert = taming_feasibility(model, kind="lck")
    assert cert.feasible
    assert abs(cert.lambda_min - 2 ** -0.5) < 1e-6


def test_lck_certificate_is_J_invariant_and_closed():
    model = s0_at(Fraction(1, 2))
    cert = taming_feasibility(model, kind="lck")
    form = certificate_form(model, cert)
    assert d_theta_apply(model, form).is_zero()
    # omega(J., J.) = omega exactly
    n = model.dim
    from novikov.chevalley import wedge_basis
    pairs = wedge_basis(n, 2)
    idx = {p: i for i, p in enumerate(pairs)}

    def entry(u, v):
        if u == v:
            return 0
        return form.coeffs[idx[(u, v)]] if u < v else -form.coeffs[idx[(v, u)]]

    for (u, v) in pairs:
        acc = 0
        for (i, j) in pairs:
            c = entry(i, j)
            acc = acc + (model.J[i][u] * model.J[j][v]
                         - model.J[i][v] * model.J[j][u]) * c
        assert acc - entry(u, v) == 0


def test_flipped_theta_infeasible():
    model = s0_at(Fraction(1, 2))
    theta = tuple(-c for c in model.theta)
    cert = taming_feasibility(model, kind="taming", theta=theta,
                              restarts=16, max_iters=800)
    assert not cert.feasible
    assert cert.lambda_min <= 1e-6


def test_abelian_taming_feasible():
    model = abelian_algebra(4)
    cert = taming_feasibility(model, kind="taming")
    assert cert.feasible


def test_degenerate_kernel_infeasible():
    # abelian4 with theta = e1-dual: the kernel is e1 ^ Lambda^1, every member
    # is a degenerate 2-form, so no taming form exists
    from dataclasses import replace
    model = replace(abelian_algebra(4),
                    theta=(1, 0, 0, 0))
    cert = taming_feasibility(model, kind="taming", restarts=8, max_iters=500)
    assert not cert.feasible


def test_empty_kernel_reports_infeasible():
    # a one-generator algebra has no invariant 2-forms at all
    from novikov.chevalley import LieAlgebraModel
    cert = taming_feasibility(LieAlgebraModel(dim=1), kind="taming")
    assert not cert.feasible
    assert cert.reason == "kernel is zero"


def test_requires_J():
    from novikov.catalog import splus_coframe_model
    with pytest.raises(LieModelError):
        taming_feasibility(splus_coframe_model(), kind="taming")


def test_kind_validated():
    with pytest.raises(ValueError):
        taming_feasibility(abelian_algebra(4), kind="compatible")


def test_seed_determinism():
    model = s0_at(Fraction(1, 2))
    a = taming_feasibility(model, kind="taming", seed=5, restarts=4, max_iters=300)
    b = taming_feasibility(model, kind="taming", seed=5, restarts=4, max_iters=300)
    assert a.coefficients == b.coefficients
    assert a.lambda_min == b.lambda_min


def test_certificate_json():
    cert = TamingCertificate([0.5, -0.5], 0.1, "taming", True)
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "taming"
    assert doc["verdict"] == "feasible"
    bad = TamingCertificate([1.0], -0.2, "lck", False, reason="x")
    doc2 = json.loads(bad.to_json())
    assert "evidence" in doc2["verdict"]


def test_splus_algebra_rational_a_cone():
    model = splus_algebra(Fraction(0))
    basis = kernel_basis(model)
    for form in basis:
        assert d_theta_apply(model, form).is_zero()
