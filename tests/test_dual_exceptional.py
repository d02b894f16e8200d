"""The exceptional set through Poincare duality: a chi_k with k > n/2 that is
the mirror of chi_(n-k) is neither factored nor isolated, and the set must
be that of the retired builder, which isolates every distinct chi_k."""

import random
from fractions import Fraction
from functools import cmp_to_key

from novikov.catalog import default_s0, default_sminus, default_splus
from novikov.exact import alg_cmp, alg_eq, count_roots, isolate_real_roots
from novikov.exact.polynomials import sign_at
from novikov.mapping_torus import (
    exceptional_lambdas,
    lambda_to_jsonable,
    torus_monodromy,
    twisted_betti,
)
from novikov.modelfile import load_model_dict
from test_mapping_torus import (
    HYPERBOLIC,
    block_diag,
    elementary_product,
    unimodular_conjugate,
)


def isolate_every_chi_exceptional_lambdas(model):
    """The retired builder, kept as the oracle: the positive real roots of
    every distinct reversed chi_k, each isolated."""
    found = []
    for chi in dict.fromkeys(model.charpolys):
        for lam, _ in isolate_real_roots(chi.reversed()):
            if lam.sign() > 0 and not any(alg_eq(lam, x) for x in found):
                found.append(lam)
    found.sort(key=cmp_to_key(alg_cmp))
    return found


def companion(coeffs):
    """The companion matrix of the monic x^n + c_(n-1) x^(n-1) + ... + c_0,
    coeffs = (c_0, ..., c_(n-1))."""
    n = len(coeffs)
    return [[int(j == i + 1) for j in range(n)] for i in range(n - 1)] + [[-c for c in coeffs]]


def unimodular_tori():
    """Tori of dims 2..6 with det +-1: companions of x^n - x -+ 1 scrambled by
    unimodular conjugation, random elementary products with a row maybe
    negated, and repeated hyperbolic blocks (chi_1 not squarefree)."""
    rng = random.Random(28)
    tori = {}
    for n in range(2, 7):
        for c0 in (-1, 1):
            rows = unimodular_conjugate(companion((c0, -1) + (0,) * (n - 2)), rng, 3)
            tori[f"x^{n} - x + {c0}"] = rows
        rows = elementary_product(rng, n, 2 * n)
        rows[0] = [-a for a in rows[0]]
        tori[f"elementary dim {n}, det -1"] = rows
    tori["hyperbolic x2"] = block_diag(HYPERBOLIC, HYPERBOLIC)
    return tori


def assert_same_set(model, name):
    got, want = exceptional_lambdas(model), isolate_every_chi_exceptional_lambdas(model)
    assert len(got) == len(want), name
    for a, b in zip(got, want):
        assert a.minpoly == b.minpoly and alg_eq(a, b), (name, a, b)
        assert twisted_betti(model, a).betti == twisted_betti(model, b).betti, (name, a)
        lo, hi = (Fraction(x) for x in lambda_to_jsonable(a)["interval"])
        if a.is_rational():
            assert lo < a.as_rational() < hi, (name, a)
        else:
            assert count_roots(a.minpoly, lo, hi) == 1, (name, a)
            assert all(sign_at(a.minpoly, x.numerator, x.denominator) for x in (lo, hi))
    return got, any(a.interval != b.interval for a, b in zip(got, want))


def test_dual_exceptional_set_matches_the_isolate_every_chi_oracle():
    dual_dets = set()  # the d under which a lambda came from a mirrored chi_k
    for name, rows in unimodular_tori().items():
        model = torus_monodromy(rows)
        if assert_same_set(model, name)[1]:
            dual_dets.add(-model.charpolys[-1].constant())
    assert dual_dets == {1, -1}
    for name, (model, _) in (("s0:default", default_s0()), ("splus:default", default_splus()),
                             ("sminus:default", default_sminus())):
        assert_same_set(model, name)


def test_only_chi_0_to_chi_3_are_factored_on_a_dimension_6_torus(monkeypatch):
    import novikov.exact.algebraic as algebraic

    factored = []
    original = algebraic.factor_squarefree_irreducible

    def recording(p):
        factored.append(p)
        return original(p)

    monkeypatch.setattr(algebraic, "factor_squarefree_irreducible", recording)
    for c0 in (-1, 1):  # det -1 and det 1
        model = torus_monodromy(companion((c0, -1, 0, 0, 0, 0)))
        factored.clear()
        exceptional_lambdas(model)
        assert factored == [model.charpolys[k].reversed() for k in range(4)], c0


def spectra_model(middle):
    """A dim-3 fiber model file: H^1 and H^2 with one rational eigenvalue each."""
    return load_model_dict({
        "type": "fiber_descriptor", "dim": 3, "h_dims": [1, 1, 1, 1],
        "spectra": [["rational:1"], [f"rational:{middle[0]}"], [f"rational:{middle[1]}"],
                    ["rational:1"]]})


def test_spectra_that_are_not_self_dual_keep_the_full_path(monkeypatch):
    import novikov.mapping_torus as mt

    calls = []
    original = mt.isolate_real_roots

    def recording(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(mt, "isolate_real_roots", recording)
    for middle, dual, want in ((("1/2", "3"), False, (Fraction(1, 3), 1, 2)),
                               (("1/2", "2"), True, (Fraction(1, 2), 1, 2))):
        model = spectra_model(middle)
        calls.clear()
        got = assert_same_set(model, middle)[0]
        assert [lam.as_rational() for lam in got] == list(want)
        assert (model.charpolys[2].reversed() in calls) == (not dual), middle
