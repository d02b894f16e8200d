"""Acceptance gate: thirteen criteria, one per test, each reporting a single
pass line.  Criteria 1-11 and 13 are exact.  Both verdicts of criterion 12
are certified exactly, the infeasible one by a rank-one v and the feasible
one by a rational form with Sym(omega(., J.)) positive definite; only its
lambda_min bounds are floating point."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import sympy as sp

from novikov.catalog import (
    abelian_algebra,
    default_s0,
    default_sminus,
    default_splus,
    make_hopf,
    make_kato,
    make_splus,
    ot_algebra,
    s0_algebra,
    splus_algebra,
    splus_coframe_model,
    SpmDatum,
)
from novikov.chevalley import (
    InvariantForm,
    d_theta_apply,
    delta_theta,
    laplacian_theta,
    obstruction_search,
    twisted_ce_cohomology,
    wedge,
    wedge_basis,
)
from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    alg_reciprocal,
    char_poly,
    exterior_powers,
    isolate_real_roots,
    rank,
    NumberField,
    sturm_sequence,
    count_roots,
)
from novikov.lck_cone import certificate_form, taming_feasibility
from novikov.mapping_torus import euler_char, twisted_betti
from test_matrices import cyclic_square


def rational(q):
    return AlgebraicReal.from_rational(Fraction(q))


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS  {text}")


def test_criterion_01_s0_golden_profiles():
    model, alpha = default_s0()
    assert twisted_betti(model, alpha).betti == (0, 0, 1, 1, 0)
    assert twisted_betti(model, alg_reciprocal(alpha)).betti == (0, 1, 1, 0, 0)
    rng = random.Random(101)
    hit = 0
    while hit < 5:
        q = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if q == 1:
            continue
        hit += 1
        assert twisted_betti(model, rational(q)).betti == (0, 0, 0, 0, 0)
    report(1, "S0 profiles (0,0,1,1,0) at alpha, (0,1,1,0,0) at 1/alpha, "
              "zero at 5 generic rational lambda")


def test_criterion_02_splus_golden_profile():
    for rows in (((2, 1), (1, 1)), ((3, 1), (2, 1))):
        model, alpha = make_splus(SpmDatum(rows))
        assert twisted_betti(model, alpha).betti == (0, 1, 2, 1, 0)
    report(2, "S+ profile (0,1,2,1,0) at alpha for two distinct N")


def test_criterion_03_sminus_profile_and_duality():
    model, alpha = default_sminus()
    p = twisted_betti(model, alpha).betti
    assert p == (0, 0, 1, 1, 0)
    q = twisted_betti(model, alg_reciprocal(alpha)).betti
    assert q == tuple(reversed(p))
    report(3, "S- profile (0,0,1,1,0) at alpha, reversed at 1/alpha")


def test_criterion_04_hopf_kato():
    hopf = make_hopf()
    for lam in (rational(2), rational(Fraction(1, 3)), rational(7)):
        assert twisted_betti(hopf, lam).betti == (0, 0, 0, 0, 0)
    base = twisted_betti(hopf, rational(2))
    for n in (1, 5, 7):
        assert make_kato(n)(base).betti == (0, 0, n, 0, 0)
    report(4, "Hopf zero profile off lambda = 1; Kato b2 = n for n in {1,5,7}")


def test_criterion_05_poincare_duality():
    rng = random.Random(55)
    models = [default_s0()[0], default_splus()[0], default_sminus()[0], make_hopf()]
    lams = []
    while len(lams) < 17:
        q = Fraction(rng.randint(1, 25), rng.randint(1, 25))
        lams.append(rational(q))
    # include genuinely irrational algebraic parameters as well
    for coeffs, lo, hi in (((-2, 0, 1), 1, 2), ((-1, -1, 1), 1, 2),
                           ((-1, -3, 1), 3, 4)):
        lams.append(AlgebraicReal.from_poly(IntPoly(coeffs), Fraction(lo), Fraction(hi)))
    assert len(lams) == 20
    for model in models:
        for lam in lams:
            p = twisted_betti(model, lam).betti
            q = twisted_betti(model, alg_reciprocal(lam)).betti
            assert tuple(reversed(p)) == q
    report(5, "Poincare duality profile(lambda) = reversed profile(1/lambda), "
              "4 models x 20 lambda")


def test_criterion_06_euler_invariance():
    from novikov.mapping_torus import exceptional_lambdas
    models = [default_s0()[0], default_splus()[0], default_sminus()[0], make_hopf()]
    probe = [rational(1), rational(3), rational(Fraction(2, 7))]
    for model in models:
        for lam in probe + list(exceptional_lambdas(model)):
            assert euler_char(twisted_betti(model, lam)) == 0
    base = twisted_betti(make_hopf(), rational(2))
    for n in (1, 5, 7):
        assert euler_char(make_kato(n)(base)) == n
    report(6, "Euler characteristic 0 for all mapping tori, n for kato(n)")


def test_criterion_07_de_rham_recovery():
    model, _ = default_s0()
    assert twisted_betti(model, rational(1)).betti == (1, 1, 0, 1, 1)
    from novikov.mapping_torus import torus_monodromy
    for n in (2, 3, 4):
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        betti = twisted_betti(torus_monodromy(ident), rational(1)).betti
        assert betti == tuple(comb(n + 1, k) for k in range(n + 2))
    report(7, "de Rham profiles at lambda = 1: S0 (1,1,0,1,1), torus binomials")


def test_criterion_08_complete_solvability_bridge():
    assert twisted_ce_cohomology(splus_algebra()) == [0, 1, 2, 1, 0]
    report(8, "invariant model of S+ reproduces (0,1,2,1,0)")


def test_criterion_09_harmonicity_suite():
    model = splus_coframe_model()
    zeta = model.named_forms["zeta"]
    tau = model.named_forms["tau"]
    h = model.named_forms["h"]
    omega = model.named_forms["omega"]
    assert d_theta_apply(model, zeta).is_zero()
    assert delta_theta(model, zeta).is_zero()
    assert laplacian_theta(model, h).is_zero()
    assert laplacian_theta(model, tau).is_zero()
    theta_omega = wedge(model.theta_form(), omega)
    assert laplacian_theta(model, theta_omega).is_zero()
    f4 = InvariantForm.covector(4, 3)
    assert d_theta_apply(model, -f4) + h == omega
    report(9, "S+ coframe harmonicity: d_th z = delta_th z = 0, "
              "Delta_th h = Delta_th tau = Delta_th (th^omega) = 0, "
              "omega = d_th(-f4) + h")


def test_criterion_10_tricerri_closedness():
    s0 = s0_algebra()
    assert d_theta_apply(s0, s0.named_forms["omega"]).is_zero()
    cof = splus_coframe_model()
    assert d_theta_apply(cof, cof.named_forms["omega"]).is_zero()
    report(10, "d_theta omega = 0 symbolically on the S0 and S+ coframe models")


def test_criterion_11_obstruction_certificates():
    for model in (s0_algebra(), splus_algebra(), ot_algebra(1), ot_algebra(2)):
        cert = obstruction_search(model)
        assert cert is not None, model.name
        v = [c for c in cert]
        jv = model.apply_J(v)
        assert model.covector_apply(model.theta, v) == 0
        assert model.covector_apply(model.theta, jv) == 0
        assert all(c == 0 for c in model.bracket_vec(v, jv))
    report(11, "obstruction certificates verified on S0, S+/S-, OT(1), OT(2)")


def test_criterion_12_cone_feasibility():
    import math
    _, alpha = default_s0()
    r = Fraction(math.log(alpha.to_float()) / 2).limit_denominator(10 ** 9)
    model = s0_algebra().instantiate({"r": r, "s": Fraction(1)})
    feas = taming_feasibility(model, kind="lck")
    assert feas.feasible
    assert feas.lambda_min > 0.05
    # the certificate names a closed J-invariant form whose Sym(omega(., J.))
    # sympy finds positive definite over Q
    assert feas.certificate is not None
    form = certificate_form(model, feas)
    assert d_theta_apply(model, form).is_zero()
    def q(c):
        return sp.Rational(c.numerator, c.denominator)

    w = sp.zeros(4, 4)
    for (i, k), c in zip(wedge_basis(4, 2), form.coeffs):
        w[i, k], w[k, i] = q(c), -q(c)
    jm = sp.Matrix(4, 4, lambda u, t: q(model.J[u][t]))
    assert jm.T * w * jm == w
    assert ((w * jm + (w * jm).T) / 2).is_positive_definite
    flipped = tuple(-c for c in model.theta)
    infeas = taming_feasibility(model, kind="taming", theta=flipped)
    assert not infeas.feasible
    assert infeas.lambda_min <= 1e-6
    assert infeas.verdict == "infeasible (certified)"
    report(12, "S0 cone: LCK-feasible at lambda = alpha (lambda_min > 0.05, "
               "certified by an exact positive definite form); taming at "
               "1/alpha infeasible (certified by a rank-one v)")


def test_criterion_13_exact_algebra_properties():
    rng = random.Random(13)

    # exterior functoriality
    for _ in range(8):
        n = rng.randint(2, 4)
        a = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                              for _ in range(n)])
        b = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                              for _ in range(n)])
        triples = zip(exterior_powers(a.matmul(b), n), exterior_powers(a, n),
                      exterior_powers(b, n))
        for lhs, ea, eb in triples:
            assert lhs == ea.matmul(eb)

    # Lambda^2 cofactor identity on 3x3, in the cyclic basis
    # (e2^e3, e3^e1, e1^e2) = (lex 2, -lex 1, lex 0)
    done = 0
    while done < 8:
        a = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                              for _ in range(3)])
        det = -char_poly(a)(0)
        if det == 0:
            continue
        done += 1
        prod = cyclic_square(a).matmul(a.transpose())
        for i in range(3):
            for j in range(3):
                assert prod[i, j] == (det if i == j else 0)

    # Sturm counts vs float-root oracle, 100 random polynomials of degree <= 6
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 8)]
        p = IntPoly(tuple(coeffs))
        roots = np.roots(list(reversed(coeffs)))
        real = [z.real for z in roots if abs(z.imag) < 1e-9]
        if any(abs(abs(z) - 30) < 1e-6 for z in real):
            continue
        want = len({round(z, 7) for z in real if -30 < z <= 30})
        got = count_roots(p, Fraction(-30), Fraction(30), sturm_sequence(p))
        assert got == want, coeffs

    # exact rank vs float rank at 1e-9 on 100 random matrices over Q(sqrt2)
    nf = NumberField(AlgebraicReal.from_poly(IntPoly((-2, 0, 1)),
                                             Fraction(1), Fraction(2)))
    x = nf.gen()
    s2 = 2 ** 0.5
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        elems, floats = [], []
        for _ in range(rows * cols):
            a_i, b_i = rng.randint(-3, 3), rng.randint(-3, 3)
            elems.append(nf.scalar(a_i) + nf.scalar(b_i) * x)
            floats.append(a_i + b_i * s2)
        assert rank(Matrix(rows, cols, elems)) == np.linalg.matrix_rank(
            np.array(floats).reshape(rows, cols), tol=1e-9)

    report(13, "exterior functoriality, cofactor identity, Sturm vs float "
               "oracle (100 polys), exact rank vs float rank (100 matrices)")
