from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    s0_alpha,
    splus_algebra,
    splus_coframe_model,
)
from novikov.chevalley import d_theta_apply, validate
from novikov.exact import AlgebraicReal, Matrix, alg_reciprocal, char_poly, isolate_real_roots
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


def oracle_s0_alpha(rows):
    """alpha of S0, or the ModelError message, through isolate_real_roots:
    sympy's factorisation, then Sturm isolation of each factor."""
    cp = char_poly(Matrix.from_rows(rows))
    if -cp.constant() != 1:
        return f"S0 matrix must have determinant 1, got {-cp.constant()}"
    real_roots = isolate_real_roots(cp)
    if sum(m for _, m in real_roots) != 1:
        return "S0 matrix needs exactly one real eigenvalue and a complex-conjugate pair"
    alpha, mult = real_roots[0]
    if mult != 1 or not AlgebraicReal.from_rational(1) < alpha:
        return "the real eigenvalue must be simple and exceed 1"
    return alpha


def oracle_spm_alpha(rows, det):
    """alpha of S+ (det 1) or S- (det -1), or the ModelError message, as
    ``oracle_s0_alpha`` finds it."""
    label, other = ("S+", "1/alpha") if det == 1 else ("S-", "-1/alpha")
    cp = char_poly(Matrix.from_rows(rows))
    if cp.constant() != det:
        return f"{label} matrix must have determinant {det}, got {cp.constant()}"
    roots = isolate_real_roots(cp)
    if sum(m for _, m in roots) != 2 or any(m != 1 for _, m in roots):
        return "matrix needs two distinct real eigenvalues"
    big = [r for r, _ in roots if AlgebraicReal.from_rational(1) < r]
    if len(big) != 1:
        return f"{label} matrix needs eigenvalues alpha > 1 and {other}"
    return big[0]


def _alpha_or_message(make):
    try:
        alpha = make()
    except ModelError as exc:
        return str(exc)
    return alpha.minpoly, alpha.interval


def _conjugated(rows, k, i, j):
    """E rows E^-1 for the elementary E = 1 + k e_ij (i != j): det and
    characteristic polynomial stay, the companion shape goes."""
    n = len(rows)
    e = [[int(a == b) + (k if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
    e_inv = [[int(a == b) - (k if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
    return Matrix.from_rows(e).matmul(Matrix.from_rows(rows)).matmul(
        Matrix.from_rows(e_inv)).to_rows()


def _matrices(n, companions):
    entries = st.integers(-3, 3)
    arbitrary = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    conjugated = st.builds(lambda rows, k, ij: _conjugated(rows, k, *ij),
                           companions, st.integers(-2, 2), pairs)
    return st.one_of(arbitrary, companions, conjugated)


# companions of x^3 - a x^2 - b x - c and x^2 - t x + d, with c and d = +-1
S0_MATRICES = _matrices(3, st.builds(
    lambda a, b, c: [[0, 0, c], [1, 0, b], [0, 1, a]],
    st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, 1, 1, -1))))
SPM_MATRICES = _matrices(2, st.builds(
    lambda t, d: [[0, -d], [1, t]], st.integers(-6, 6), st.sampled_from((1, -1))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(S0_MATRICES)
def test_s0_alpha_matches_the_factorisation_oracle(rows):
    want = oracle_s0_alpha(rows)
    if isinstance(want, AlgebraicReal):
        want = want.minpoly, want.interval
    assert _alpha_or_message(lambda: s0_alpha(S0Datum(rows))) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SPM_MATRICES)
def test_spm_alpha_matches_the_factorisation_oracle(rows):
    for make, det in ((make_splus, 1), (make_sminus, -1)):
        want = oracle_spm_alpha(rows, det)
        if isinstance(want, AlgebraicReal):
            want = want.minpoly, want.interval
        assert _alpha_or_message(lambda: make(SpmDatum(rows))[1]) == want


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
