import json
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov import lck_cone
from novikov.catalog import (
    abelian_algebra,
    default_s0,
    ot_algebra,
    s0_algebra,
    splus_algebra,
)
from novikov.chevalley import (
    LieAlgebraModel,
    LieModelError,
    d_theta_apply,
    wedge_basis,
)
from novikov.exact import Matrix
from novikov.exact.matrices import _echelon
from novikov.lck_cone import (
    FEASIBILITY_TOL,
    MAX_CANDIDATES,
    MAX_ITERS,
    TamingCertificate,
    _as_floats,
    _ascent,
    _candidates,
    _combination_is_positive_definite,
    _integer_sym_matrices,
    _quadratic_form,
    _rank_one_candidates,
    _rank_one_certificate,
    certificate_form,
    kernel_basis,
    taming_feasibility,
)


def s0_at(r, s=Fraction(1, 3)):
    return s0_algebra().instantiate({"r": Fraction(r), "s": Fraction(s)})


def rational(c):
    return sp.Rational(c.numerator, c.denominator)


def assert_exactly_certified(model, cert):
    """A feasible verdict with an exact certificate: the form it names is
    d_theta-closed, J-invariant for 'lck', and Sym(omega(., J.)) is positive
    definite by sympy, from the form's antisymmetric matrix W and J; none of
    it reads the module's integer matrices or its Sylvester check."""
    assert cert.verdict == "feasible" and cert.certificate is not None
    assert cert.coefficients == [float(c) for c in cert.certificate]
    form = certificate_form(model, cert)
    assert d_theta_apply(model, form).is_zero()
    n = model.dim
    w = sp.zeros(n, n)
    for (i, k), c in zip(wedge_basis(n, 2), form.coeffs):
        w[i, k], w[k, i] = rational(c), -rational(c)
    jm = sp.Matrix(n, n, lambda u, t: rational(Fraction(model.J[u][t])))
    if cert.kind == "lck":
        assert jm.T * w * jm == w  # omega(J., J.) = omega
    wj = w * jm
    assert ((wj + wj.T) / 2).is_positive_definite


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


def test_s0_verdicts_carry_exact_certificates():
    model = s0_at(Fraction(1, 2))
    for kind, x in (("taming", ["1", "0", "0", "1"]), ("lck", ["1", "1"])):
        cert = taming_feasibility(model, kind=kind)
        assert json.loads(cert.to_json())["certificate"] == x
        assert "positive definite over Q" in cert.reason
        assert_exactly_certified(model, cert)


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
    cert = taming_feasibility(model, kind="taming", theta=theta)
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
    cert = taming_feasibility(model, kind="taming")
    assert not cert.feasible


def test_empty_kernel_reports_infeasible(monkeypatch):
    # a one-generator algebra has no invariant 2-forms at all, and no J
    with pytest.raises(LieModelError):
        taming_feasibility(LieAlgebraModel(dim=1), kind="taming")
    # with J, an empty span holds no positive form, and v = e_1 proves it
    monkeypatch.setattr(lck_cone, "kernel_basis", lambda model, kind: [])
    for kind in ("taming", "lck"):
        cert = taming_feasibility(abelian_algebra(4), kind=kind)
        assert cert.verdict == "infeasible (certified)"
        assert cert.certificate == [1, 0, 0, 0]


def test_no_matrices_give_the_first_basis_vector():
    assert _rank_one_certificate(abelian_algebra(4), []) == [1, 0, 0, 0]


def test_a_lee_form_that_is_not_closed_is_refused():
    # on S+ d e^1 = e^2 ^ e^3, so theta = e^1 gives d_theta^2 != 0: no kernel
    # of d_theta is a twisted cohomology, and neither kind has a verdict
    model = splus_algebra(Fraction(2, 3))
    for kind in ("taming", "lck"):
        with pytest.raises(LieModelError, match="not closed"):
            taming_feasibility(model, kind=kind, theta=(1, 0, 0, 0))


def test_requires_J():
    from novikov.catalog import splus_coframe_model
    for kind in ("taming", "lck"):
        with pytest.raises(LieModelError):
            taming_feasibility(splus_coframe_model(), kind=kind)
    with pytest.raises(LieModelError, match="complex structure J"):
        kernel_basis(splus_coframe_model(), "lck")  # not a shape error


def test_kind_validated():
    with pytest.raises(ValueError):
        taming_feasibility(abelian_algebra(4), kind="compatible")


def test_seed_determinism():
    # the ascent has no seed: two calls agree, on abelian6's taming query
    # (feasible by the ascent) and on h3 + R at theta = e^4 (evidence)
    for model in (abelian_algebra(6), h3_plus_r((0, 0, 0, 1))):
        a = taming_feasibility(model, kind="taming")
        b = taming_feasibility(model, kind="taming")
        assert a.coefficients == b.coefficients
        assert a.lambda_min == b.lambda_min


def test_certificate_json():
    cert = TamingCertificate([0.5, -0.5], 0.1, "taming", True)
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "taming"
    assert doc["verdict"] == "feasible"
    assert doc["certificate"] is None
    bad = TamingCertificate([1.0], -0.2, "lck", False, reason="x")
    doc2 = json.loads(bad.to_json())
    assert "evidence" in doc2["verdict"]
    assert doc2["certificate"] is None
    proved = TamingCertificate([], 0.0, "taming", False, reason="x",
                               certificate=[Fraction(0), Fraction(1, 2)])
    doc3 = json.loads(proved.to_json())
    assert proved.verdict == doc3["verdict"] == "infeasible (certified)"
    assert doc3["certificate"] == ["0", "1/2"]


def test_splus_algebra_rational_a_cone():
    model = splus_algebra(Fraction(0))
    basis = kernel_basis(model)
    for form in basis:
        assert d_theta_apply(model, form).is_zero()


# -- exact certificate and the ascent ----------------------------------------

def s0_at_inverse_alpha():
    """The S0 algebra at the distinguished alpha, with the Lee form negated."""
    _, alpha = default_s0()
    r = Fraction(math.log(alpha.to_float()) / 2).limit_denominator(10 ** 9)
    model = s0_algebra().instantiate({"r": r, "s": Fraction(1)})
    return model, tuple(-c for c in model.theta)


def float_matrices(model, basis):
    """The matrices the ascent runs on: the cone's integer matrices in floats."""
    return _as_floats(*_integer_sym_matrices(model, basis))


def omega_v_jv(model, form, v):
    """omega(v, Jv) over Q through the form's antisymmetric matrix and the
    dense product with model.J: an oracle independent of the certificate
    search and of the model's scaled structure."""
    n = model.dim
    w = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in zip(wedge_basis(n, 2), form.coeffs):
        w[i][j], w[j][i] = c, -c
    jv = [sum(model.J[u][t] * v[t] for t in range(n)) for u in range(n)]
    return sum(v[u] * w[u][t] * jv[t] for u in range(n) for t in range(n))


def test_certificate_is_exact_on_s0_at_inverse_alpha():
    model, theta = s0_at_inverse_alpha()
    for kind in ("taming", "lck"):
        cert = taming_feasibility(model, kind=kind, theta=theta)
        assert cert.verdict == "infeasible (certified)"
        assert cert.coefficients == [] and cert.lambda_min == 0.0
        v = cert.certificate
        assert any(v)
        flipped = replace(model, theta=theta)
        for form in kernel_basis(flipped, kind):
            assert d_theta_apply(flipped, form).is_zero()
            assert omega_v_jv(model, form, v) == 0
        with pytest.raises(ValueError, match="exact certificate"):
            certificate_form(flipped, cert)  # names no form


def test_ascent_survives_a_step_onto_the_origin():
    # the J-invariant kernel is spanned by one form whose Sym(omega(., J.))
    # has eigenvalues [0, 0, 1, 1]; the ascent starts at x = 0, where
    # lambda_min / |x| is undefined
    model, theta = s0_at_inverse_alpha()
    flipped = replace(model, theta=theta)
    basis = kernel_basis(flipped, "lck")
    assert len(basis) == 1
    cert = _ascent(float_matrices(flipped, basis), "lck")
    assert cert.verdict == "infeasible (evidence, not proof)"
    assert len(cert.coefficients) == 1
    assert abs(cert.lambda_min) <= 1e-6


STANDARD_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def h3_plus_r(theta):
    """The Kodaira algebra h3 + R: [e1, e2] = e3, J e1 = e2, J e3 = e4; a
    theta = a e^1 + b e^2 + c e^4 is closed."""
    return LieAlgebraModel(dim=4, brackets={(0, 1): {2: 1}},
                           theta=tuple(map(Fraction, theta)), J=STANDARD_J)


def restarted_ascent(mats, kind, tol=FEASIBILITY_TOL, restarts=64, max_iters=5000, seed=0):
    """The search the one ascent replaced: projected subgradient ascent over
    the unit sphere from `restarts` seeded random starts, each of up to
    `max_iters` steps."""
    rng = np.random.default_rng(seed)

    def lam_min(x):
        vals, vecs = np.linalg.eigh(np.tensordot(x, mats, axes=1))
        return vals[0], vecs[:, 0]

    best_x, best_val = None, -np.inf
    for _ in range(restarts):
        x = rng.standard_normal(len(mats))
        x /= np.linalg.norm(x)
        run_best, stale = -np.inf, 0
        for it in range(1, max_iters + 1):
            val, v = lam_min(x)
            if val > best_val:
                best_val, best_x = val, x.copy()
            if val > run_best + 1e-12:
                run_best, stale = val, 0
            else:
                stale += 1
                if stale > 200:
                    break
            grad = np.array([v @ m @ v for m in mats])
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            step = x + (1.0 / it) * grad / gn
            norm = np.linalg.norm(step)
            if norm < 1e-14:
                break
            x = step / norm
        val, _ = lam_min(x)
        if val > best_val:
            best_val, best_x = val, x
        if best_val > 10 * tol:
            break
    feasible = best_val > tol
    reason = "" if feasible else "best lambda_min <= tolerance over all restarts"
    return TamingCertificate(list(best_x), float(best_val), kind, feasible, reason)


def assert_the_oracle_agrees(model, kind):
    """The same verdict, certified or not, as with the restarted ascent."""
    cert = taming_feasibility(model, kind=kind)
    with mock.patch.object(lck_cone, "_ascent", restarted_ascent):
        oracle = taming_feasibility(model, kind=kind)
    assert cert.verdict == oracle.verdict
    assert (cert.certificate is None) == (oracle.certificate is None)


KINDS = st.sampled_from(("taming", "lck"))
HALVES = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


@example((0, 0, 1), "taming")  # evidence; lambda_min moved there
@example((1, 3, -1), "taming")  # feasible by the ascent point
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(st.tuples(HALVES, HALVES, HALVES), KINDS)
def test_the_one_ascent_agrees_with_the_restarted_oracle_on_h3_plus_r(abc, kind):
    a, b, c = abc
    assert_the_oracle_agrees(h3_plus_r((a, b, 0, c)), kind)


@example((0,) * 6, "lck")  # feasible past the candidates
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.integers(-2, 2)] * 6), KINDS)
def test_the_one_ascent_agrees_with_the_restarted_oracle_on_abelian6(theta, kind):
    assert_the_oracle_agrees(replace(abelian_algebra(6), theta=tuple(map(Fraction, theta))), kind)


def test_the_ascent_is_one_bounded_run(monkeypatch):
    # an evidence verdict, where the restarted search ran all its restarts
    model = h3_plus_r((-1, 0, 0, 1))
    mats, den = _integer_sym_matrices(model, kernel_basis(model, "taming"))
    assert _rank_one_certificate(model, mats) is None
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    cert = _ascent(_as_floats(mats, den), "taming")
    assert cert.verdict == "infeasible (evidence, not proof)"
    assert 0 < len(calls) <= MAX_ITERS


def matmul(x, y):
    return [[sum(x[i][t] * y[t][k] for t in range(len(y))) for k in range(len(y[0]))]
            for i in range(len(x))]


def shear(a, b, t):
    """I + t E_ab on R^4."""
    return [[int(i == k) + (t if (i, k) == (a, b) else 0) for k in range(4)]
            for i in range(4)]


@st.composite
def almost_abelian_with_j(draw):
    """R x_A R^3 with integer A, theta = r e^0 (closed, since R^3 is an
    abelian ideal) and J the standard J0 conjugated by up to three shears, so
    that certificates are not always found on the standard basis."""
    entry = st.integers(-2, 2)
    a = [[draw(entry) for _ in range(3)] for _ in range(3)]
    r = draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 7))))
    j = [list(row) for row in STANDARD_J]
    index = st.integers(0, 3)
    for x, y, t in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=3)):
        if x != y:
            j = matmul(matmul(shear(x, y, t), j), shear(x, y, -t))
    brackets = {(0, i + 1): {k + 1: a[k][i] for k in range(3)} for i in range(3)}
    model = LieAlgebraModel(dim=4, brackets=brackets, theta=(r, 0, 0, 0),
                            J=tuple(map(tuple, j)))
    return model, draw(st.sampled_from(("taming", "lck")))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(almost_abelian_with_j())
def test_rank_one_certificate_agrees_with_the_ascent(data):
    model, kind = data
    basis = kernel_basis(model, kind)
    if not basis:
        return
    mats, den = _integer_sym_matrices(model, basis)
    search = _ascent(_as_floats(mats, den), kind)
    cert = taming_feasibility(model, kind=kind)
    v = _rank_one_certificate(model, mats)
    if v is None:
        assert cert.feasible == search.feasible
        if cert.feasible:
            assert_exactly_certified(model, cert)
        else:
            assert cert.to_json() == search.to_json()
        return
    assert cert.certificate == v and any(v)
    for form in basis:
        assert d_theta_apply(model, form).is_zero()
        assert omega_v_jv(model, form, v) == 0
    assert not search.feasible


@st.composite
def catalog_point(draw):
    """A catalog algebra with J at a drawn rational point, its Lee form
    kept, negated or (abelian4) drawn."""
    value = st.sampled_from((Fraction(-3, 2), Fraction(-1, 2), Fraction(0),
                             Fraction(1, 3), Fraction(2), Fraction(5, 7)))
    family = draw(st.sampled_from(("s0", "ot1", "splus", "abelian4")))
    if family == "s0":
        model = s0_algebra().instantiate({"r": draw(value), "s": draw(value)})
    elif family == "ot1":
        model = ot_algebra(1).instantiate({"alpha1": draw(value), "r1": draw(value)})
    elif family == "splus":
        model = splus_algebra(draw(value))
    else:
        model = replace(abelian_algebra(4),
                        theta=tuple(draw(value) for _ in range(4)))
    sign = draw(st.sampled_from((1, -1)))
    model = replace(model, theta=tuple(sign * c for c in model.theta))
    return model, draw(st.sampled_from(("taming", "lck")))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(catalog_point())
def test_exact_search_agrees_with_the_ascent_on_catalog_models(data):
    model, kind = data
    cert = taming_feasibility(model, kind=kind)
    basis = kernel_basis(model, kind)
    if not basis:
        assert not cert.feasible
        return
    search = _ascent(float_matrices(model, basis), kind)
    assert cert.feasible == search.feasible
    if cert.feasible:
        assert_exactly_certified(model, cert)


# ([1, 1, 0, 0], 0, 2) gives [[0, 1], [1, 0]]: elimination with a row swap
# meets positive pivots there, so the check must refuse the swap
@example(([1, 1, 0, 0], 0, 2))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
    st.integers(0, 4), st.just(n))))
def test_sylvester_check_matches_sympy(data):
    entries, shift, n = data
    # A^T A + shift I is often positive definite, sometimes only semidefinite
    a = sp.Matrix(n, n, entries)
    m = a.T * a + shift * sp.eye(n) - sp.eye(n)
    mats = [[[int(m[u, t]) for t in range(n)] for u in range(n)]]
    for x in ([1], [-1], [Fraction(2, 3)]):
        want = (x[0] * m).is_positive_definite
        assert _combination_is_positive_definite(mats, x) == want


@pytest.mark.parametrize("m", [[[0, 1], [1, 0]], [[1, 2, 0], [2, 4, 1], [0, 1, 5]]])
def test_a_zero_leading_minor_hidden_by_a_row_swap_is_refused(m):
    # elimination with a row swap meets only positive pivots on both, and
    # neither is positive definite: a leading principal minor is 0
    rows, pivots = _echelon(Matrix.from_rows(m))
    assert pivots == list(range(len(m)))
    assert all(rows[k][k] > 0 for k in pivots)
    assert not sp.Matrix(m).is_positive_definite
    assert not _combination_is_positive_definite([m], [1])


def test_candidates_by_support_then_lexicographically():
    assert list(_candidates(2)) == [[1, 0], [-1, 0], [0, 1], [0, -1],
                                    [1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert len(list(_candidates(4))) == 80  # every nonzero {-1, 0, 1}^4
    assert len(list(_candidates(15))) == MAX_CANDIDATES


def test_ascent_point_is_rationalised_when_no_candidate_passes():
    # a positive form on abelian6's 15-dimensional taming kernel needs three
    # basis forms, past the MAX_CANDIDATES of support at most two
    model = abelian_algebra(6)
    cert = taming_feasibility(model, kind="taming")
    assert "ascent point rationalised" in cert.reason
    assert_exactly_certified(model, cert)


def test_uncertified_feasible_verdict_says_so(monkeypatch):
    monkeypatch.setattr(lck_cone, "_combination_is_positive_definite",
                        lambda mats, x: False)
    model = s0_at(Fraction(1, 2))
    cert = taming_feasibility(model, kind="lck")
    assert cert.verdict == "feasible" and cert.certificate is None
    assert "evidence, not proof" in cert.reason
    assert json.loads(cert.to_json())["certificate"] is None
    with pytest.raises(ValueError, match="exact certificate"):
        certificate_form(model, cert)


def test_certified_infeasible_verdicts_build_no_float_j(monkeypatch):
    def refuse(mats, den):
        raise AssertionError("floats built for a certified infeasible verdict")

    monkeypatch.setattr(lck_cone, "_as_floats", refuse)
    model, theta = s0_at_inverse_alpha()
    for kind in ("taming", "lck"):
        cert = taming_feasibility(model, kind=kind, theta=theta)
        assert cert.verdict == "infeasible (certified)"


@pytest.mark.parametrize("theta", [(1, 2, 3, 4), (1, 0, 0, 0), (3, -1, 2, 5)])
def test_isotropic_vectors_of_theta_certify_abelian4(monkeypatch, theta):
    # every kernel form is theta ^ alpha, which vanishes on (v, Jv) for v in
    # ker theta cap ker(theta o J); no basis vector lies there for (1, 2, 3, 4)
    def refuse(*args, **kwargs):
        raise AssertionError("the ascent ran on a certifiable query")

    monkeypatch.setattr(lck_cone, "_ascent", refuse)
    model = abelian_algebra(4)
    theta = tuple(map(Fraction, theta))
    for kind in ("taming", "lck"):
        cert = taming_feasibility(model, kind=kind, theta=theta)
        assert cert.verdict == "infeasible (certified)"
        v = cert.certificate
        assert any(v)
        flipped = replace(model, theta=theta)
        for form in kernel_basis(flipped, kind):
            assert omega_v_jv(model, form, v) == 0


def float_sym_oracle(model, basis):
    """Sym(W J) of every basis form from the form's float coefficients: the
    numpy builder the cone used before its integer matrices."""
    n = model.dim
    jmat = np.array([[float(c) for c in row] for row in model.J])
    mats = []
    for form in basis:
        w = np.zeros((n, n))
        for (i, k), c in zip(wedge_basis(n, 2), form.coeffs):
            w[i, k], w[k, i] = float(c), -float(c)
        wj = w @ jmat
        mats.append((wj + wj.T) / 2)
    return np.array(mats).reshape(len(basis), n, n)


def assert_matrices_match_the_oracles(model, kind):
    basis = kernel_basis(model, kind)
    mats, den = _integer_sym_matrices(model, basis)
    floats = _as_floats(mats, den)
    assert floats.shape == (len(basis), model.dim, model.dim)
    assert np.abs(floats - float_sym_oracle(model, basis)).max(initial=0) <= 1e-12
    # v^T S_i v = den * omega_i(v, Jv) exactly, on every candidate, not only
    # on the one returned
    for v in _rank_one_candidates(model):
        for form, m in zip(basis, mats):
            assert _quadratic_form(m, v) == den * omega_v_jv(model, form, v)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(almost_abelian_with_j())
def test_cone_matrices_match_the_float_builder_on_almost_abelian_models(data):
    assert_matrices_match_the_oracles(*data)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(catalog_point())
def test_cone_matrices_match_the_float_builder_on_catalog_models(data):
    assert_matrices_match_the_oracles(*data)
