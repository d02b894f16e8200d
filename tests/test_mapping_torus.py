import json
import random
from fractions import Fraction
from functools import cmp_to_key
from math import comb

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    NumberField,
    alg_cmp,
    alg_eq,
    alg_reciprocal,
    char_poly,
    exterior_powers,
    isolate_real_roots,
    rank,
)
from novikov.mapping_torus import (
    BettiProfile,
    FiberModel,
    ModelError,
    blow_up,
    euler_char,
    exceptional_lambdas,
    kappa,
    torus_monodromy,
    twisted_betti,
)
from novikov.catalog import (
    DEFAULT_S0_MATRIX,
    SpmDatum,
    default_s0,
    default_sminus,
    default_splus,
    make_hopf,
    make_sminus,
    make_splus,
)
from novikov.modelfile import load_model_dict
from test_matrices import leibniz_exterior_power


def rational(q):
    return AlgebraicReal.from_rational(Fraction(q))


def poly_spec(x):
    """A model-file eigenvalue spec for the algebraic number x."""
    if x.is_rational():
        return f"rational:{x.as_rational()}"
    lo, hi = x.interval
    return f"poly:{','.join(map(str, x.minpoly.coeffs))}@({lo},{hi})"


# -- model validation --------------------------------------------------------

def test_monodromy_must_be_unimodular():
    with pytest.raises(ModelError):
        torus_monodromy(((2, 0), (0, 1)))
    torus_monodromy(((1, 1), (1, 0)))  # det -1 is fine
    with pytest.raises(ModelError):
        torus_monodromy(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ModelError):
        torus_monodromy(())


def test_explicit_actions_checks_ends():
    ident = Matrix.from_rows([[Fraction(1)]])
    bad = Matrix.from_rows([[Fraction(2)]])
    with pytest.raises(ModelError):
        FiberModel((bad, ident))
    with pytest.raises(ModelError):
        FiberModel((ident, bad))
    assert FiberModel((ident, ident)).dim_fiber == 1


def test_fiber_dim_cap():
    with pytest.raises(ModelError):
        torus_monodromy(tuple(tuple(int(i == j) for j in range(9)) for i in range(9)))
    with pytest.raises(ModelError):
        FiberModel((Matrix.from_rows([[1]]),) * 10)


def test_betti_profile_rejects_negative():
    with pytest.raises(ModelError):
        BettiProfile(rational(1), (0, -1))


# -- golden profiles ---------------------------------------------------------

def test_s0_profiles():
    model, alpha = default_s0()
    assert twisted_betti(model, alpha).betti == (0, 0, 1, 1, 0)
    assert twisted_betti(model, alg_reciprocal(alpha)).betti == (0, 1, 1, 0, 0)
    assert twisted_betti(model, rational(1)).betti == (1, 1, 0, 1, 1)


def test_s0_generic_lambda_vanishes():
    model, _ = default_s0()
    rng = random.Random(2)
    for _ in range(5):
        q = Fraction(rng.randint(2, 30), rng.randint(2, 30))
        if q == 1:
            continue
        assert twisted_betti(model, rational(q)).betti == (0, 0, 0, 0, 0)


def test_splus_profile():
    model, alpha = default_splus()
    assert twisted_betti(model, alpha).betti == (0, 1, 2, 1, 0)
    assert twisted_betti(model, alg_reciprocal(alpha)).betti == (0, 1, 2, 1, 0)


def test_sminus_profile_and_duality():
    model, alpha = default_sminus()
    assert twisted_betti(model, alpha).betti == (0, 0, 1, 1, 0)
    assert twisted_betti(model, alg_reciprocal(alpha)).betti == (0, 1, 1, 0, 0)


def test_hopf_vanishes_off_one():
    model = make_hopf()
    for q in (2, 3, Fraction(1, 2)):
        assert twisted_betti(model, rational(q)).betti == (0, 0, 0, 0, 0)
    assert twisted_betti(model, rational(1)).betti == (1, 1, 0, 1, 1)


def test_torus_identity_gives_binomials():
    for n in (2, 3):
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        model = torus_monodromy(ident)
        betti = twisted_betti(model, rational(1)).betti
        assert betti == tuple(comb(n + 1, k) for k in range(n + 2))
        assert twisted_betti(model, rational(2)).betti == (0,) * (n + 2)


def test_positive_lambda_required():
    model, _ = default_s0()
    with pytest.raises(ModelError):
        twisted_betti(model, rational(-1))
    with pytest.raises(ModelError):
        twisted_betti(model, rational(0))


# -- kappa and mode consistency ----------------------------------------------

def test_kappa_matches_eigen_reciprocal():
    model, alpha = default_s0()
    # kappa_1 at lambda = 1/alpha counts the eigenvalue alpha of Phi_1
    assert kappa(model, alg_reciprocal(alpha), 1) == 1
    assert kappa(model, alpha, 1) == 0
    assert kappa(model, rational(1), 0) == 1


def test_mode_consistency_monodromy_vs_descriptor():
    """A T^2 bundle with all-real spectrum: the torus monodromy and its
    spectrum loaded from a descriptor file must produce identical profiles."""
    rows = ((2, 1), (1, 1))
    mono_model = torus_monodromy(rows)
    cp = char_poly(Matrix.from_rows([[Fraction(x) for x in r] for r in rows]))
    roots = [r for r, _ in isolate_real_roots(cp)]
    one = rational(1)
    desc_model = load_model_dict({
        "type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
        "spectra": [["rational:1"], [poly_spec(r) for r in roots], ["rational:1"]]})
    lams = [one, roots[0], roots[1], rational(Fraction(5, 7))]
    lams += [alg_reciprocal(r) for r in roots]
    for lam in lams:
        assert twisted_betti(mono_model, lam).betti == \
            twisted_betti(desc_model, lam).betti


# -- exceptional set, duality, euler ----------------------------------------

def test_exceptional_lambdas_s0():
    model, alpha = default_s0()
    exc = exceptional_lambdas(model)
    assert len(exc) == 3
    assert exc[0] == alg_reciprocal(alpha)
    assert exc[1] == rational(1)
    assert exc[2] == alpha
    vals = [x.to_float() for x in exc]
    assert vals == sorted(vals)


def test_exceptional_lambdas_hopf():
    exc = exceptional_lambdas(make_hopf())
    assert len(exc) == 1 and exc[0] == rational(1)


def test_exceptional_lambdas_splus():
    model, alpha = default_splus()
    exc = exceptional_lambdas(model)
    assert len(exc) == 3
    assert exc[0] == alg_reciprocal(alpha) and exc[2] == alpha


def test_exceptional_lambdas_with_a_singular_middle_action():
    """Zero, nilpotent, invertible and negative blocks in H^1: the reversed
    char_poly drops the eigenvalue 0, and the result is the reciprocals of the
    positive eigenvalues, by sympy's eigenvalues."""
    h1 = [[0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0],
          [0, 0, 0, 2, 1, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, -3]]
    doc = {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 6, 1],
           "actions": [[[1]], h1, [[-1]]]}
    model = load_model_dict(doc)
    x = sp.Symbol("x")
    want = {1 / ev for action in doc["actions"] for ev in sp.Matrix(action).eigenvals()
            if ev.is_positive}
    want = sorted(want, key=float)
    exc = exceptional_lambdas(model)
    assert len(exc) == len(want) == 3
    for lam, w in zip(exc, want):
        coeffs = sp.Poly(sp.minimal_polynomial(w, x), x).all_coeffs()
        assert lam.minpoly == IntPoly([int(c) for c in reversed(coeffs)]).primitive()
        assert abs(lam.to_float() - float(w)) < 1e-12


def test_poincare_duality_random():
    rng = random.Random(17)
    models = [default_s0()[0], default_splus()[0], default_sminus()[0], make_hopf()]
    lams = []
    for _ in range(14):
        lams.append(rational(Fraction(rng.randint(1, 20), rng.randint(1, 20))))
    for model in models:
        for r, _ in isolate_real_roots(char_poly(Matrix.from_rows(
                [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]))):
            if r.sign() > 0:
                lams.append(r)
        for lam in lams:
            p = twisted_betti(model, lam).betti
            q = twisted_betti(model, alg_reciprocal(lam)).betti
            assert tuple(reversed(p)) == q, (model.name, lam.to_float())


def test_euler_invariance():
    models = [default_s0()[0], default_splus()[0], default_sminus()[0], make_hopf()]
    for model in models:
        for lam in [rational(1), rational(2), rational(Fraction(1, 3))] + \
                list(exceptional_lambdas(model)):
            assert euler_char(twisted_betti(model, lam)) == 0


# -- blow-up -----------------------------------------------------------------

def test_blow_up():
    p = twisted_betti(make_hopf(), rational(2))
    assert blow_up(p, 5).betti == (0, 0, 5, 0, 0)
    assert euler_char(blow_up(p, 5)) == 5
    with pytest.raises(ModelError):
        blow_up(p, -1)
    short = BettiProfile(rational(1), (1, 1))
    with pytest.raises(ModelError):
        blow_up(short, 1)


# -- serialization -----------------------------------------------------------

def test_profile_json_roundtrip():
    model, alpha = default_s0()
    p = twisted_betti(model, alpha)
    doc = json.loads(p.to_json())
    assert doc["betti"] == [0, 0, 1, 1, 0]
    assert doc["lambda"]["minpoly"] == [-1, -1, 0, 1]
    lo = Fraction(doc["lambda"]["interval"][0])
    hi = Fraction(doc["lambda"]["interval"][1])
    assert lo < Fraction(doc["lambda"]["approx"]).limit_denominator(10**9) < hi


# -- kappa over Q against the Q(lambda) oracle --------------------------------

HYPERBOLIC = ((2, 1), (1, 1))
CUBIC = ((0, 0, 1), (1, 0, 1), (0, 1, 0))  # companion of x^3 - x - 1
CUBIC_INVERSE = ((-1, 1, 0), (0, 0, 1), (1, 0, 0))
_X = sp.Symbol("x")


def nf_kappa(phi, lam):
    """Oracle: dim ker(lam * Phi - I) by elimination over Q(lam)."""
    nf = NumberField(lam)
    gen = nf.gen()
    size = phi.rows
    entries = [gen * phi[i, j] - (nf.one() if i == j else nf.zero())
               for i in range(size) for j in range(size)]
    return size - rank(Matrix(size, size, entries))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return rows


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def elementary_product(rng, n, steps):
    """A random element of SL_n(Z): a product of elementary matrices."""
    rows = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def unimodular_conjugate(rows, rng, steps):
    """E M E^-1 for `steps` random elementary E = I + c e_i e_j^T."""
    m = [list(r) for r in rows]
    for _ in range(steps):
        i, j = rng.sample(range(len(m)), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def parity_monodromies():
    """Catalog and seeded SL_n(Z) monodromies of dims 3-6, plus ones built
    to give kappa >= 2: the identity, repeated hyperbolic blocks, a unipotent
    Jordan block, a hyperbolic Jordan block (geometric < algebraic
    multiplicity at an irrational eigenvalue) and a cubic block with its
    inverse (squarefree chi_1, so semisimple, and an irrational eigenvalue
    twice in Lambda^3)."""
    rng = random.Random(29)
    monos = {"s0:default": [list(r) for r in DEFAULT_S0_MATRIX],
             "identity 4": identity(4),
             "hyperbolic x2": block_diag(HYPERBOLIC, HYPERBOLIC),
             "hyperbolic x3": unimodular_conjugate(
                 block_diag(HYPERBOLIC, HYPERBOLIC, HYPERBOLIC), rng, 4),
             "unipotent jordan": [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)],
             "hyperbolic jordan": ((2, 1, 1, 0), (1, 1, 0, 1), (0, 0, 2, 1), (0, 0, 1, 1)),
             "seeded dim 5": unimodular_conjugate(block_diag(HYPERBOLIC, CUBIC), rng, 4),
             "seeded dim 6": unimodular_conjugate(block_diag(CUBIC, CUBIC), rng, 4),
             "cubic and inverse": unimodular_conjugate(block_diag(CUBIC, CUBIC_INVERSE), rng, 4)}
    for i, n in enumerate((3, 3, 4, 4)):
        monos[f"random dim {n} #{i}"] = elementary_product(rng, n, 12)
    return monos


def explicit_twin(rows, phis):
    """The same actions conjugated by diag(1, 2, ...), as a FiberModel:
    kernel dimensions agree, and the entries get denominators."""
    acts = []
    for phi in phis:
        n = phi.rows
        acts.append(Matrix(n, n, [phi[i, j] * Fraction(i + 1, j + 1)
                                  for i in range(n) for j in range(n)]))
    return FiberModel(tuple(acts))


def test_kappa_matches_number_field_oracle():
    # cases covered: rational lam, and at irrational lam the minimal polynomial
    # of 1/lam dividing chi_k at most once, repeatedly, repeatedly with
    # geometric < algebraic multiplicity, and repeatedly in a model that keeps
    # no matrices (kappa read off chi_k)
    cases = {"rational": 0, "simple": 0, "repeated": 0, "defective": 0,
             "repeated, no matrices": 0}
    for name, rows in parity_monodromies().items():
        n = len(rows)
        model = torus_monodromy(rows)
        over_q = Matrix.from_rows([[Fraction(x) for x in r] for r in rows])
        phis = exterior_powers(over_q, n)
        twin = explicit_twin(rows, phis)
        charpolys = [sp.Matrix(phi.to_rows()).charpoly(_X).as_expr() for phi in phis]
        # the exceptional set: reciprocals of the distinct positive real eigenvalues
        eigen = {r for cp in charpolys for r in sp.Poly(cp, _X).real_roots() if r > 0}
        exc = exceptional_lambdas(model)
        assert len(exc) == len(eigen), name
        assert [float(x) for x in sorted(1 / r for r in eigen)] == \
            pytest.approx([x.to_float() for x in exc], rel=1e-12), name
        assert all(a == b for a, b in zip(exceptional_lambdas(twin), exc)), name
        lams = list(exc)
        for lam in exc:
            inv = alg_reciprocal(lam)
            if not any(inv == x for x in lams):
                lams.append(inv)
        lams += [rational(q) for q in (1, 2, Fraction(1, 3), Fraction(7, 5))]
        for lam in lams:
            want = [nf_kappa(phi, lam) for phi in phis]
            for k in range(n + 1):
                assert kappa(model, lam, k) == want[k], (name, lam, k)
                assert kappa(twin, lam, k) == want[k], (name, lam, k)
                if lam.is_rational():
                    cases["rational"] += 1
                    continue
                # minimal polynomial of 1/lam: Poly reads the list highest first
                mu = sp.Poly(list(lam.minpoly.coeffs), _X).monic()
                factors = {sp.Poly(f, _X).monic(): m
                           for f, m in sp.factor_list(charpolys[k], _X)[1]}
                mult = factors.get(mu, 0)
                cases["simple" if mult <= 1 else "repeated"] += 1
                cases["defective"] += 1 < mult and want[k] < mult
                cases["repeated, no matrices"] += 1 < mult and model.actions is None
            want_betti = [want[0]] + [want[k] + want[k - 1] for k in range(1, n + 1)] + [want[n]]
            assert twisted_betti(model, lam).betti == tuple(want_betti), (name, lam)
    assert all(cases.values()), cases


def test_kappa_refuses_a_nonpositive_lambda():
    model = torus_monodromy(identity(3))
    for q in (0, -1):
        with pytest.raises(ModelError, match="Lee parameter must be positive"):
            kappa(model, rational(q), 1)


def count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_phi_is_computed_once_per_model(monkeypatch):
    import novikov.mapping_torus as mt

    calls = count_calls(monkeypatch, mt, ("exterior_powers", "char_poly", "rank"))
    # chi_1 squarefree: no exterior power and no rank, one char_poly for chi_1
    rows = unimodular_conjugate(block_diag(HYPERBOLIC, CUBIC), random.Random(31), 4)
    model = torus_monodromy(rows)
    assert model.actions is None
    for lam in [rational(2), rational(1)] + exceptional_lambdas(model):
        twisted_betti(model, lam)
    exceptional_lambdas(model)
    assert calls == {"exterior_powers": 0, "char_poly": 1, "rank": 0}
    # chi_1 not squarefree: the exterior powers are built once, and a rank is
    # taken exactly where 1/lam's minimal polynomial divides chi_k twice
    calls.update(dict.fromkeys(calls, 0))
    model = torus_monodromy(parity_monodromies()["hyperbolic jordan"])
    assert calls == {"exterior_powers": 1, "char_poly": 1, "rank": 0}
    repeated = 0
    for lam in [rational(2), rational(1)] + exceptional_lambdas(model):
        twisted_betti(model, lam)
        mu = sp.Poly(list(lam.minpoly.coeffs), _X).monic()
        for phi in model.actions:
            factors = dict((sp.Poly(f, _X).monic(), m) for f, m in
                           sp.factor_list(sp.Matrix(phi.to_rows()).charpoly(_X).as_expr(), _X)[1])
            repeated += factors.get(mu, 0) >= 2
    exceptional_lambdas(model)
    assert repeated and calls == {"exterior_powers": 1, "char_poly": 1, "rank": repeated}


def test_torus_monodromy_is_its_exterior_powers(monkeypatch):
    import novikov.mapping_torus as mt

    monodromies = parity_monodromies()
    calls = count_calls(monkeypatch, mt, ("exterior_powers",))
    for name, rows in monodromies.items():
        n = len(rows)
        model = torus_monodromy(rows)
        wants = [leibniz_exterior_power(Matrix.from_rows(rows), k) for k in range(n + 1)]
        assert model.dim_fiber == n and len(model.charpolys) == n + 1, name
        assert list(model.charpolys) == [char_poly(w) for w in wants], name
        # the actions are kept, from one call, exactly when chi_1 is not squarefree
        semisimple = sp.Poly(sp.Matrix(rows).charpoly(_X).as_expr(), _X).is_sqf
        assert calls.pop("exterior_powers", 0) == (not semisimple), name
        calls["exterior_powers"] = 0
        if semisimple:
            assert model.actions is None, name
            continue
        for k, (phi, want) in enumerate(zip(model.actions, wants)):
            assert (phi.rows, phi.cols, phi.entries) == \
                (want.rows, want.cols, want.entries), (name, k)
            assert all(type(x) is int for x in phi.entries), (name, k)
    with pytest.raises(ModelError, match=r"^monodromy must be invertible over Z, det = -6$"):
        torus_monodromy(((1, 2, 0), (2, -2, 0), (0, 0, 1)))
    # the fiber cap is checked before any polynomial or exterior power is built
    def refuse(*args, **kwargs):
        raise AssertionError("built for an oversized fiber")

    for name in ("exterior_powers", "char_poly", "exterior_char_polys"):
        monkeypatch.setattr(mt, name, refuse)
    with pytest.raises(ModelError, match="capped at 8"):
        torus_monodromy(identity(9))


# -- the eigenvalue-descriptor oracle -----------------------------------------
# A fiber given by per-degree eigenvalue lists (real eigenvalue, multiplicity):
# kappa_k(lam) is the multiplicity of 1/lam in degree k, and the exceptional
# set is the reciprocals of the positive listed eigenvalues.  Every fiber model
# is now its rational actions; these must agree with the lists.

def descriptor_kappa(spectra, lam, k):
    target = alg_reciprocal(lam)
    return sum(mult for ev, mult in spectra[k] if alg_eq(ev, target))


def descriptor_exceptional(spectra):
    found = []
    for spec in spectra:
        for ev, _ in spec:
            if ev.sign() > 0 and not any(alg_eq(alg_reciprocal(ev), x) for x in found):
                found.append(alg_reciprocal(ev))
    return sorted(found, key=cmp_to_key(alg_cmp))


def assert_matches_descriptor(model, spectra, name):
    exc = exceptional_lambdas(model)
    want = descriptor_exceptional(spectra)
    assert len(exc) == len(want), name
    assert all(alg_eq(a, b) for a, b in zip(exc, want)), name
    lams = [x for lam in exc for x in (lam, alg_reciprocal(lam))]
    lams += [rational(q) for q in (1, 2, Fraction(1, 3))]
    for lam in lams:
        for k in range(model.dim_fiber + 1):
            assert kappa(model, lam, k) == descriptor_kappa(spectra, lam, k), (name, lam, k)


def alg_from_sympy(x):
    """x, a real algebraic sympy number, from its minimal polynomial and a
    rational interval of width 2^-19 around its float value."""
    mp = sp.Poly(sp.minimal_polynomial(x, _X), _X)
    mid = Fraction(float(x))
    return AlgebraicReal.from_poly(IntPoly([int(c) for c in reversed(mp.all_coeffs())]),
                                   mid - Fraction(1, 2 ** 20), mid + Fraction(1, 2 ** 20))


def test_catalog_matches_descriptor_oracle():
    """S+ and S- were the descriptors ((1), (1/a, a), (1/a, a), (1)) and
    ((1), (-1/a, a), (1/a, -a), (1)), a the eigenvalue of N above 1; Hopf was
    ((1), (), (), (1))."""
    one = [(rational(1), 1)]
    cases = [("splus", make_splus, rows) for rows in (None, ((3, 1), (2, 1)))]
    cases += [("sminus", make_sminus, rows) for rows in (None, ((2, 1), (1, 0)))]
    for name, maker, rows in cases:
        model, alpha = (default_splus() if name == "splus" else default_sminus()) \
            if rows is None else maker(SpmDatum(rows))
        n_rows = model.actions[1].to_rows()
        a = max(r for r in sp.Matrix(n_rows).eigenvals() if r.is_real)
        assert alg_eq(alpha, alg_from_sympy(a)), name
        sign = 1 if name == "splus" else -1
        h1 = [(alg_from_sympy(sign / a), 1), (alg_from_sympy(a), 1)]
        h2 = [(alg_from_sympy(1 / a), 1), (alg_from_sympy(sign * a), 1)]
        assert_matches_descriptor(model, (one, h1, h2, one), (name, rows))
    assert_matches_descriptor(make_hopf(), (one, [], [], one), "hopf")


# irreducible polynomials, lowest coefficient first, with real roots of both
# signs, repeated degrees and complex pairs (x^3 - x - 1 and x^4 - x - 1)
SPECTRUM_POLYS = [(-2, 1), (-1, 2), (1, 1), (-3, 2), (5, 3), (1, -3, 1), (-1, -1, 1),
                  (-2, 0, 1), (-1, -1, 0, 1), (-1, -3, 0, 1), (-1, -1, 0, 0, 1)]


def spectrum_doc(plan):
    """A fiber_descriptor file and its eigenvalue lists from a plan: per middle
    degree a list of (polynomial index, multiplicity, written as [spec, m]?)
    and a number of extra conjugate pairs, then the sign on the top degree."""
    degrees, top = plan
    one = [(rational(1), 1)]
    texts, spectra, h_dims = [["rational:1"]], [one], [1]
    for entries, extra in degrees:
        text, spec, pairs, size = [], [], extra, 2 * extra
        for index, mult, as_list in entries:
            coeffs = SPECTRUM_POLYS[index]
            p = sp.Poly(list(reversed(coeffs)), _X)
            roots = [rational(Fraction(-coeffs[0], coeffs[1]))] if p.degree() == 1 else \
                [AlgebraicReal.from_poly(IntPoly(coeffs), lo, hi) for (lo, hi), _ in p.intervals()]
            for r in roots:
                spec.append((r, mult))
                text += [[poly_spec(r), mult]] if as_list else [poly_spec(r)] * mult
            pairs += mult * (p.degree() - len(roots)) // 2
            size += mult * p.degree()
        if pairs:
            text.append(f"conjugate_pair:{pairs}")
        texts.append(text)
        spectra.append(spec)
        h_dims.append(size)
    texts.append([f"rational:{top}"])
    spectra.append([(rational(top), 1)])
    h_dims.append(1)
    doc = {"type": "fiber_descriptor", "dim": len(h_dims) - 1, "h_dims": h_dims,
           "spectra": texts}
    return doc, spectra


SPECTRUM_PLANS = st.tuples(
    st.lists(st.tuples(
        st.lists(st.tuples(st.integers(0, len(SPECTRUM_POLYS) - 1), st.integers(1, 2),
                           st.booleans()), max_size=3),
        st.integers(0, 2)), min_size=1, max_size=3),
    st.sampled_from((1, -1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(([([(9, 2, True), (9, 1, False), (6, 1, True)], 1), ([(5, 2, False)], 0)], -1))
@example(([([(10, 1, True), (1, 2, False), (1, 1, True)], 0)], 1))
@given(SPECTRUM_PLANS)
def test_galois_closed_spectra_match_descriptor_oracle(plan):
    doc, spectra = spectrum_doc(plan)
    model = load_model_dict(doc)
    assert model.actions is None
    assert [chi.degree for chi in model.charpolys] == doc["h_dims"]
    assert_matches_descriptor(model, spectra, doc)
