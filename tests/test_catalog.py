from fractions import Fraction

import pytest

from novikov.catalog import (
    DEFAULT_S0_MATRIX,
    DEFAULT_SMINUS_MATRIX,
    DEFAULT_SPM_MATRIX,
    S0Datum,
    SpmDatum,
    abelian_algebra,
    default_s0,
    default_sminus,
    default_splus,
    make_hopf,
    make_kato,
    make_s0,
    make_sminus,
    make_splus,
    ot_algebra,
    s0_algebra,
    splus_algebra,
    splus_coframe_model,
)
from novikov.chevalley import d_theta_apply, validate
from novikov.exact import AlgebraicReal, alg_reciprocal
from novikov.mapping_torus import ModelError, exceptional_lambdas, twisted_betti


def test_s0_datum_shape():
    with pytest.raises(ModelError):
        S0Datum(((1, 0), (0, 1)))
    S0Datum(DEFAULT_S0_MATRIX)


def test_make_s0_default():
    model, alpha = default_s0()
    assert model.dim_fiber == 3
    assert AlgebraicReal.from_rational(1) < alpha
    assert abs(alpha.to_float() - 1.324717957244746) < 1e-12
    assert any(alpha == x for x in exceptional_lambdas(model))


def test_make_s0_rejects_identity():
    with pytest.raises(ModelError):
        make_s0(S0Datum(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_make_s0_rejects_wrong_determinant():
    # det = -1
    with pytest.raises(ModelError):
        make_s0(S0Datum(((0, 0, 1), (0, 1, 0), (1, 0, 0))))


def test_make_s0_rejects_all_real_spectrum():
    # symmetric, det 1, three real eigenvalues
    with pytest.raises(ModelError):
        make_s0(S0Datum(((2, 1, 0), (1, 1, 0), (0, 0, 1))))


def test_spm_datum_validation():
    with pytest.raises(ModelError):
        SpmDatum(DEFAULT_S0_MATRIX)
    with pytest.raises(ModelError):
        SpmDatum(((1, 0),))
    assert SpmDatum([[2, 1], [1, 1]]).N == DEFAULT_SPM_MATRIX


def test_make_splus_default():
    model, alpha = default_splus()
    assert abs(alpha.to_float() - 2.618033988749895) < 1e-12
    assert model.actions[1].rows == 2 and model.actions[0].rows == 1


def test_make_splus_rejects_det_minus_one():
    with pytest.raises(ModelError):
        make_splus(SpmDatum(DEFAULT_SMINUS_MATRIX))


def test_make_sminus_default():
    model, alpha = default_sminus()
    assert abs(alpha.to_float() - 1.618033988749895) < 1e-12
    # degree-2 spectrum holds 1/alpha and -alpha
    inv = alg_reciprocal(alpha)
    assert twisted_betti(model, inv).betti == (0, 1, 1, 0, 0)


def test_make_sminus_rejects_det_one():
    with pytest.raises(ModelError):
        make_sminus(SpmDatum(DEFAULT_SPM_MATRIX))


def test_hopf_and_kato():
    hopf = make_hopf()
    assert hopf.actions[1].rows == 0
    transform = make_kato(4)
    lam = AlgebraicReal.from_rational(2)
    assert transform(twisted_betti(hopf, lam)).betti == (0, 0, 4, 0, 0)
    with pytest.raises(ModelError):
        make_kato(0)


def test_s0_algebra_valid_and_tricerri_closed():
    model = s0_algebra()
    assert validate(model).ok
    omega = model.named_forms["omega"]
    assert d_theta_apply(model, omega).is_zero()


def test_splus_algebra_valid_symbolic_and_rational():
    assert validate(splus_algebra()).ok
    assert validate(splus_algebra(Fraction(2, 3))).ok
    assert splus_algebra(Fraction(1)).params == ()


def test_splus_coframe_decomposition():
    model = splus_coframe_model()
    from novikov.chevalley import InvariantForm
    omega = model.named_forms["omega"]
    h = model.named_forms["h"]
    f4 = InvariantForm.covector(4, 3)
    assert d_theta_apply(model, -f4) + h == omega


def test_ot_algebra():
    m1 = ot_algebra(1)
    assert m1.dim == 4 and set(m1.params) == {"alpha1", "r1"}
    m2 = ot_algebra(2, alpha_list=[Fraction(1, 2), Fraction(3)])
    assert m2.dim == 6 and set(m2.params) == {"r1", "r2"}
    with pytest.raises(ModelError):
        ot_algebra(0)
    with pytest.raises(ModelError):
        ot_algebra(2, alpha_list=[Fraction(1)])


def test_abelian_algebra():
    m = abelian_algebra(4)
    assert m.J is not None
    assert validate(m).ok
    m3 = abelian_algebra(3)
    assert m3.J is None
