import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.catalog import (
    abelian_algebra,
    ot_algebra,
    s0_algebra,
    splus_algebra,
    splus_coframe_model,
)
from novikov.chevalley import (
    InvariantForm,
    LieAlgebraModel,
    LieModelError,
    d_apply,
    d_theta_apply,
    d_theta_matrix,
    delta_theta,
    harmonic_dims,
    hodge_star,
    laplacian_theta,
    merge_sign,
    obstruction_search,
    twisted_ce_cohomology,
    validate,
    wedge,
    wedge_basis,
)
from novikov.exact import Matrix, coefficient_field


def catalog_algebras():
    return [s0_algebra(), splus_algebra(), splus_coframe_model(), ot_algebra(1),
            ot_algebra(2), abelian_algebra(4)]


def rand_form(rng, dim, degree):
    return InvariantForm(dim, degree,
                         tuple(rng.randint(-3, 3) for _ in range(comb(dim, degree))))


# -- exterior algebra --------------------------------------------------------

def test_merge_sign():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((0, 1), (0,))[0] == 0
    assert merge_sign((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))


def test_wedge_graded_commutativity():
    rng = random.Random(4)
    for _ in range(10):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rand_form(rng, 4, p), rand_form(rng, 4, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a).scale(Fraction((-1) ** (p * q)))
        assert lhs == rhs


def test_wedge_associativity():
    rng = random.Random(6)
    for _ in range(10):
        a = rand_form(rng, 4, 1)
        b = rand_form(rng, 4, 1)
        c = rand_form(rng, 4, 2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_form_coefficient_count_enforced():
    with pytest.raises(LieModelError):
        InvariantForm(4, 2, (1,) * 5)


def test_zero_form_outside_degree_range_has_no_coefficients():
    for degree in (-1, 5):
        zero = InvariantForm.zero(4, degree)
        assert zero.degree == degree and zero.coeffs == () and zero.is_zero()


def test_wedge_degree_is_the_sum_of_degrees():
    rng = random.Random(19)
    for p in range(5):
        for q in range(5):
            a, b = rand_form(rng, 4, p), rand_form(rng, 4, q)
            w = wedge(a, b)
            assert w.degree == p + q, (p, q)
            if p + q > 4:
                assert w == InvariantForm.zero(4, p + q)


def test_covector_and_from_dict():
    e1 = InvariantForm.covector(4, 0)
    e2 = InvariantForm.covector(4, 1)
    w = wedge(e1, e2)
    assert w == InvariantForm.from_dict(4, 2, {(0, 1): 1})
    assert wedge(e2, e1) == -w


# -- differential properties -------------------------------------------------

def test_d_squared_zero_on_random_forms():
    rng = random.Random(12)
    for model in catalog_algebras():
        for deg in (0, 1, 2):
            form = rand_form(rng, model.dim, deg)
            assert d_apply(model, d_apply(model, form)).is_zero(), model.name


def test_leibniz_rule():
    rng = random.Random(13)
    for model in catalog_algebras():
        for _ in range(8):
            p = rng.randint(1, 2)
            a, b = rand_form(rng, model.dim, p), rand_form(rng, model.dim, 1)
            lhs = d_apply(model, wedge(a, b))
            rhs = wedge(d_apply(model, a), b) + \
                wedge(a, d_apply(model, b)).scale(Fraction((-1) ** p))
            assert lhs == rhs, model.name


def wedge_oracle_d_theta_matrix(model, k):
    """d_theta from degree k to k+1 assembled column by column with wedge:
    d_theta e^s = sum_t (-1)^t d e^{s_t} ^ e^{s minus s_t} - theta ^ e^s, where
    d e^i = - sum_{j<k} c^i_{jk} e^j ^ e^k is read off the brackets."""
    n = model.dim
    d_cov = [InvariantForm.from_dict(n, 2, {pair: -comps[i]
                                            for pair, comps in model.brackets.items()
                                            if i in comps})
             for i in range(n)]
    rows = comb(n, k + 1) if k < n else 0
    cols = []
    for s in wedge_basis(n, k):
        col = -wedge(model.theta_form(), InvariantForm.from_dict(n, k, {s: 1}))
        for t, i in enumerate(s):
            rest = InvariantForm.from_dict(n, k - 1, {s[:t] + s[t + 1:]: 1})
            term = wedge(d_cov[i], rest)
            col = col + (-term if t % 2 else term)
        cols.append(col.coeffs)
    return Matrix(rows, len(cols), [col[r] for r in range(rows) for col in cols])


def test_d_theta_matrix_matches_wedge_oracle():
    rng = random.Random(17)
    for model in catalog_algebras():
        n = model.dim
        for k in range(n + 1):
            oracle = wedge_oracle_d_theta_matrix(model, k)
            assert d_theta_matrix(model, k) == oracle, (model.name, k)
            if k < n:
                form = rand_form(rng, n, k)
                image = d_theta_apply(model, form)
                for r in range(oracle.rows):
                    acc = 0
                    for c, x in enumerate(form.coeffs):
                        acc = acc + oracle[r, c] * x
                    assert image.coeffs[r] - acc == 0, (model.name, k)


def test_d_theta_squared_zero():
    # theta closed implies d_theta^2 = 0
    rng = random.Random(14)
    model = s0_algebra()
    for deg in (0, 1, 2):
        form = rand_form(rng, 4, deg)
        assert d_theta_apply(model, d_theta_apply(model, form)).is_zero()


def test_hodge_star_involution():
    rng = random.Random(15)
    model = abelian_algebra(4)
    for k in range(5):
        form = rand_form(rng, 4, k)
        ss = hodge_star(model, hodge_star(model, form))
        assert ss == form.scale(Fraction((-1) ** (k * (4 - k))))


def test_hodge_star_requires_coframe():
    with pytest.raises(LieModelError):
        hodge_star(s0_algebra(), InvariantForm.covector(4, 0))


def test_delta_adjointness():
    """<d_theta a, b> = <a, delta_theta b> in the coframe inner product."""
    def inner(a, b):
        acc = 0
        for x, y in zip(a.coeffs, b.coeffs):
            acc = acc + x * y
        return acc

    rng = random.Random(16)
    model = splus_coframe_model()
    for k in range(4):
        for _ in range(4):
            a = rand_form(rng, 4, k)
            b = rand_form(rng, 4, k + 1)
            lhs = inner(d_theta_apply(model, a), b)
            rhs = inner(a, delta_theta(model, b))
            assert lhs - rhs == 0, k


# -- validation --------------------------------------------------------------

def test_validate_catalog_models():
    for model in (s0_algebra(), splus_algebra(), splus_coframe_model(),
                  ot_algebra(1), ot_algebra(2), abelian_algebra(4)):
        assert validate(model).ok


def test_validate_reports_jacobi():
    bad = LieAlgebraModel(
        dim=3,
        brackets={(0, 1): {2: 1}, (0, 2): {1: 1},
                  (1, 2): {1: 1}})
    report = validate(bad)
    assert not report.ok
    assert ("jacobi", (1, 2, 3)) in report.violations


def jacobi_by_triples(model):
    """The retired check, kept as the oracle: the 1-based triples of basis
    vectors whose Jacobiator, computed with bracket_vec, is nonzero, in
    lexicographic order."""
    n, br = model.dim, model.bracket_vec
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    return [(i + 1, j + 1, k + 1) for i, j, k in combinations(range(n), 3)
            if any(a + b + c for a, b, c in zip(br(br(e[i], e[j]), e[k]),
                                                 br(br(e[j], e[k]), e[i]),
                                                 br(br(e[k], e[i]), e[j])))]


A = sp.Symbol("a")


@st.composite
def bracket_sets(draw):
    """(dim, params, brackets) on dims 3-6: random sparse brackets, mostly
    violating Jacobi, or an almost-abelian R x_A R^(dim-1), which satisfies
    it; coefficients are integers or, over Q(a), rational functions of a."""
    n = draw(st.integers(3, 6))
    params = ("a",) if draw(st.booleans()) else ()
    coeff = st.sampled_from([-2, -1, 1, 2] + ([A, 1 / (A - 1), A ** 2 - 3] if params else []))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              unique=True, min_size=2, max_size=2 * n))
        brackets = {pair: {k: draw(coeff) for k in draw(st.sets(st.integers(0, n - 1),
                                                                  min_size=1, max_size=3))}
                    for pair in pairs}
    else:
        brackets = {(0, i): {j: draw(coeff) for j in range(1, n) if draw(st.booleans())}
                    for i in range(1, n)}
    return n, params, brackets


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bracket_sets())
def test_validate_finds_the_jacobi_failures_the_triple_oracle_finds(data):
    n, params, brackets = data
    model = LieAlgebraModel(dim=n, params=params, brackets=brackets)
    got = [where for kind, where in validate(model).violations if kind == "jacobi"]
    assert got == jacobi_by_triples(model)


def test_validate_reports_nonclosed_theta():
    m = LieAlgebraModel(
        dim=3,
        brackets={(1, 2): {0: 1}},
        theta=(1, 0, 0))
    report = validate(m)
    assert ("theta_not_closed", None) in report.violations


def test_coefficients_must_lie_in_the_model_field():
    a = sp.Symbol("a")
    for kwargs in ({"brackets": {(0, 1): {1: a}}}, {"theta": (a, 0)},
                   {"J": ((0, -a), (1, 0))}):
        with pytest.raises(LieModelError):
            LieAlgebraModel(dim=2, **kwargs)  # a is not declared
    with pytest.raises(LieModelError):
        LieAlgebraModel(dim=2, params=("a",), theta=(sp.sqrt(2), 0))
    model = LieAlgebraModel(dim=2, params=("a",), brackets={(0, 1): {1: a}})
    assert model.field == coefficient_field(("a",))
    assert twisted_ce_cohomology(model) == [1, 1, 0]
    # an element of Q(a) does not belong to a model without parameters
    with pytest.raises(LieModelError):
        LieAlgebraModel(dim=2, brackets=model.brackets)


def test_instantiate_rejects_names_that_are_not_parameters():
    with pytest.raises(LieModelError, match="alpha"):
        ot_algebra(1).instantiate({"alpha": 2})
    with pytest.raises(LieModelError, match="'t'"):
        s0_algebra().instantiate({"r": Fraction(1, 2), sp.Symbol("t"): 1})
    assert s0_algebra().instantiate({sp.Symbol("r"): 1}).params == ("s",)


def instantiate_by_sympy(model, values):
    """The retired substitution, kept as the oracle: every coefficient goes
    through a sympy expression, is substituted there, and is converted back
    into the field of the remaining parameters by the new model."""
    K = model.field
    smap = {sp.Symbol(k): sp.Rational(v.numerator, v.denominator) for k, v in values.items()}
    sub = lambda c: K.to_sympy(c).subs(smap)
    subs_all = lambda cs: tuple(sub(c) for c in cs)
    return replace(
        model,
        params=tuple(p for p in model.params if p not in values),
        brackets={ij: {k: sub(c) for k, c in comps.items()}
                  for ij, comps in model.brackets.items()},
        theta=subs_all(model.theta),
        J=None if model.J is None else tuple(subs_all(r) for r in model.J),
        named_forms={k: InvariantForm(f.dim, f.degree, subs_all(f.coeffs))
                     for k, f in model.named_forms.items()})


def model_coefficients(model):
    """Every coefficient of the model with its type, which names its field."""
    cs = [c for ij in sorted(model.brackets) for _, c in sorted(model.brackets[ij].items())]
    cs += list(model.theta) + [c for row in model.J or () for c in row]
    cs += [c for name in sorted(model.named_forms) for c in model.named_forms[name].coeffs]
    return [(type(c), c) for c in cs]


def assert_instantiates_like_sympy(model, values):
    try:
        want = instantiate_by_sympy(model, values)
    except LieModelError:  # a pole: the oracle's expression is not in the field
        with pytest.raises(LieModelError, match="denominator"):
            model.instantiate(values)
        return
    got = model.instantiate(values)
    assert got.params == want.params and got.field == want.field
    assert model_coefficients(got) == model_coefficients(want)
    assert got == want


def random_values(rng, params):
    """Rational values for a nonempty random subset of params."""
    chosen = rng.sample(params, rng.randint(1, len(params)))
    return {p: Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for p in chosen}


@pytest.mark.parametrize("model", [ot_algebra(1), ot_algebra(2), s0_algebra(),
                                   splus_algebra()], ids=lambda m: m.name)
def test_instantiate_matches_the_sympy_round_trip(model):
    rng = random.Random(11)
    assert_instantiates_like_sympy(model, dict(zip(model.params, (1, 2, 3, 4))))
    for _ in range(8):
        assert_instantiates_like_sympy(model, random_values(rng, model.params))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.lists(st.integers(-2, 2), min_size=48, max_size=48),
       st.integers(0, 2 ** 32))
def test_instantiate_matches_the_sympy_round_trip_on_almost_abelian_models(m, ints, seed):
    """R x_A R^m with A = A0 + p^2 A1 + A2 / (q^2 - 1) and
    theta = (r^3 - p r) e^0; R^m is an abelian ideal, so the model is valid
    for every A."""
    p, q, r = sp.symbols("p q r")
    mats = [[ints[t * 16 + 4 * j + i] for i in range(m)] for t in range(3) for j in range(m)]
    entry = lambda j, i: (mats[j][i] + p ** 2 * mats[m + j][i]
                          + mats[2 * m + j][i] / (q ** 2 - 1))
    model = LieAlgebraModel(
        dim=m + 1, params=("p", "q", "r"),
        brackets={(0, i + 1): {j + 1: entry(j, i) for j in range(m)} for i in range(m)},
        theta=(r ** 3 - p * r,) + (0,) * m)
    assert validate(model).ok
    rng = random.Random(seed)
    for _ in range(3):
        assert_instantiates_like_sympy(model, random_values(rng, model.params))
    assert_instantiates_like_sympy(model, {"q": -1})


def test_instantiate_raises_at_a_pole_and_on_values_that_are_not_rational():
    p, q = sp.symbols("p q")
    model = LieAlgebraModel(dim=2, params=("p", "q"), brackets={(0, 1): {1: q / (p - 1)}},
                            J=((0, -1), (1 / (q + 2), 0)))
    # a denominator that vanishes at the point, or as a polynomial in the
    # parameters left; the second pole is in J alone
    for values in ({"p": 1, "q": 3}, {"p": Fraction(1)}, {"p": 3, "q": -2}, {"q": -2}):
        with pytest.raises(LieModelError, match="denominator"):
            model.instantiate(values)
    for bad in (0.5, sp.sqrt(2), "1/2", sp.Symbol("q")):
        with pytest.raises(LieModelError, match="must be rational numbers"):
            model.instantiate({"p": bad})
    assert model.instantiate({"p": sp.Rational(1, 2), "q": 1}).brackets == {(0, 1): {1: -2}}


def test_validate_reports_bad_J():
    m = LieAlgebraModel(
        dim=2,
        J=((1, 0), (0, 1)))
    report = validate(m)
    assert any(v[0] == "J_squared" for v in report.violations)


# -- cohomology --------------------------------------------------------------

def test_abelian_cohomology_is_binomial():
    assert twisted_ce_cohomology(abelian_algebra(4)) == [1, 4, 6, 4, 1]
    assert twisted_ce_cohomology(abelian_algebra(3)) == [1, 3, 3, 1]


def test_splus_algebra_cohomology():
    assert twisted_ce_cohomology(splus_algebra()) == [0, 1, 2, 1, 0]
    assert twisted_ce_cohomology(splus_coframe_model()) == [0, 1, 2, 1, 0]


def test_d_theta_matrix_composition_vanishes():
    model = splus_coframe_model()
    for k in range(3):
        m1 = d_theta_matrix(model, k)
        m2 = d_theta_matrix(model, k + 1)
        comp = m2.matmul(m1)
        assert all(x == 0 for x in comp.entries)


def test_harmonic_dims_match_cohomology():
    model = splus_coframe_model()
    assert harmonic_dims(model) == [0, 1, 2, 1, 0]
    assert harmonic_dims(abelian_algebra(4)) == [1, 4, 6, 4, 1]


def test_harmonic_dims_requires_instantiation():
    with pytest.raises(LieModelError):
        harmonic_dims(s0_algebra())


def test_laplacian_kills_named_harmonics():
    model = splus_coframe_model()
    for name in ("h", "tau"):
        assert laplacian_theta(model, model.named_forms[name]).is_zero()


# -- obstruction search ------------------------------------------------------

def test_obstruction_on_catalog_models():
    for model, expect_index in ((s0_algebra(), 2), (splus_algebra(), 0),
                                (ot_algebra(1), 2)):
        cert = obstruction_search(model)
        assert cert is not None
        vec = list(cert)
        assert vec[expect_index] != 0


def test_obstruction_certificate_equations():
    model = s0_algebra()
    cert = obstruction_search(model)
    v = [c for c in cert]
    jv = model.apply_J(v)
    assert model.covector_apply(model.theta, v) == 0
    assert model.covector_apply(model.theta, jv) == 0
    assert all(c == 0 for c in model.bracket_vec(v, jv))


def test_obstruction_requires_J():
    with pytest.raises(LieModelError):
        obstruction_search(splus_coframe_model())


def test_obstruction_none_when_absent():
    # abelian R^2 with J and theta = e1-dual: theta(X) = 0 and theta(JX) = 0
    # force X = 0, so no certificate exists
    m = LieAlgebraModel(
        dim=2,
        theta=(1, 0),
        J=((0, -1), (1, 0)))
    assert obstruction_search(m, samples=50) is None
