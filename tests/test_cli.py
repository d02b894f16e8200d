import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import novikov
from novikov import catalog, chevalley, cli, modelfile
from novikov.cli import _instantiated_s0, build_parser, main, resolve_model
from novikov.catalog import default_s0, ot_algebra
from novikov.chevalley import wedge_basis
from novikov.lck_cone import kernel_basis
from novikov.exact import AlgebraicReal, IntPoly, alg_eq, alg_power, alg_reciprocal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def last_json(stdout):
    # strict: NaN and Infinity are not JSON (RFC 8259)
    return json.loads(stdout.strip().splitlines()[-1], parse_constant=_no_constant)


# -- cohomology --------------------------------------------------------------

def test_cohomology_s0_at_alpha(capsys):
    code, out, _ = run(capsys, "cohomology", "s0:default", "--at-alpha")
    assert code == 0
    assert "b = [0, 0, 1, 1, 0]" in out
    assert last_json(out)["betti"] == [0, 0, 1, 1, 0]


def test_cohomology_hopf_rational(capsys):
    code, out, _ = run(capsys, "cohomology", "hopf", "--lambda", "rational:2")
    assert code == 0
    assert last_json(out)["betti"] == [0, 0, 0, 0, 0]


def test_cohomology_de_rham(capsys):
    code, out, _ = run(capsys, "cohomology", "s0:default", "--lambda", "rational:1")
    assert code == 0
    assert "b = [1, 1, 0, 1, 1]" in out


def test_cohomology_lambda_log(capsys):
    code, out, _ = run(capsys, "cohomology", "s0:default", "--lambda-log", "0")
    assert code == 0
    assert last_json(out)["betti"] == [1, 1, 0, 1, 1]
    code, out, _ = run(capsys, "cohomology", "s0:default",
                       "--lambda-log", "1*log(alpha)")
    assert code == 0
    assert last_json(out)["betti"] == [0, 0, 1, 1, 0]
    code, out, _ = run(capsys, "cohomology", "s0:default",
                       "--lambda-log=-log(alpha)")
    assert code == 0
    assert last_json(out)["betti"] == [0, 1, 1, 0, 0]


def test_cohomology_lambda_log_rejects_transcendental(capsys):
    code, _, err = run(capsys, "cohomology", "s0:default", "--lambda-log", "0.5")
    assert code == 2
    assert "log(alpha)" in err


@pytest.mark.parametrize("multiple", ["101", "-101", "3000", "99999999", "1" * 5000])
def test_cohomology_lambda_log_bounds_the_multiple(capsys, multiple):
    code, _, err = run(capsys, "cohomology", "s0:default",
                       f"--lambda-log={multiple}*log(alpha)")
    assert code == 2
    assert "|k| <= 100" in err


def test_cohomology_lambda_log_accepts_the_bound(capsys):
    code, out, _ = run(capsys, "cohomology", "s0:default",
                       "--lambda-log=-100*log(alpha)")
    assert code == 0
    assert last_json(out)["betti"] == [0, 0, 0, 0, 0]


def test_cohomology_requires_one_selector(capsys):
    code, _, err = run(capsys, "cohomology", "s0:default")
    assert code == 2
    code, _, err = run(capsys, "cohomology", "s0:default", "--at-alpha",
                       "--lambda", "rational:2")
    assert code == 2


def test_cohomology_algebra_model(capsys):
    code, out, _ = run(capsys, "cohomology", "splus-algebra")
    assert code == 0
    assert last_json(out)["betti"] == [0, 1, 2, 1, 0]
    code, _, err = run(capsys, "cohomology", "splus-algebra", "--at-alpha")
    assert code == 2


def lie_doc(model):
    """A lie_algebra model file for a model without parameters."""
    return {"type": "lie_algebra", "dim": model.dim,
            "brackets": [{"i": i + 1, "j": j + 1,
                          "coeffs": {str(k + 1): str(c) for k, c in comps.items()}}
                         for (i, j), comps in model.brackets.items()],
            "theta": [str(c) for c in model.theta]}


def test_cohomology_labels_a_generic_answer(capsys, tmp_path):
    code, out, _ = run(capsys, "cohomology", "ot:1")
    assert code == 0
    assert "generic in alpha1, r1" in out
    doc = last_json(out)
    assert doc["betti"] == [0, 0, 0, 0, 0]
    assert list(doc) == ["model", "betti", "generic_in"]
    assert doc["generic_in"] == ["alpha1", "r1"]
    # at alpha1 = 2/3, r1 = 1 the cohomology jumps and nothing is generic
    point = ot_algebra(1).instantiate({"alpha1": Fraction(2, 3), "r1": 1})
    path = tmp_path / "ot1-point.json"
    path.write_text(json.dumps(lie_doc(point)))
    code, out, _ = run(capsys, "cohomology", str(path))
    assert code == 0
    assert "generic" not in out.splitlines()[1]
    doc = last_json(out)
    assert doc["betti"] == [0, 0, 1, 1, 0]
    assert doc["generic_in"] == []


def test_cohomology_kato(capsys):
    code, out, _ = run(capsys, "cohomology", "kato:7", "--lambda", "rational:3")
    assert code == 0
    assert last_json(out)["betti"] == [0, 0, 7, 0, 0]


def test_cohomology_lambda_beyond_float_range(capsys):
    # exact answer; the printed approximation saturates instead of raising
    code, out, _ = run(capsys, "cohomology", "hopf", "--lambda", "rational:1" + "0" * 400)
    assert code == 0
    assert "lambda  inf" in out
    doc = last_json(out)
    assert doc["betti"] == [0, 0, 0, 0, 0]
    assert doc["lambda"]["approx"] is None


def test_scan_and_verify_json_beyond_float_range(capsys, tmp_path):
    # a hyperbolic descriptor with eigenvalues 10^-400 and 10^400 on H^1
    tiny = "rational:1/1" + "0" * 400
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
                                "spectra": [["rational:1"], [tiny, "rational:1" + "0" * 400],
                                            ["rational:1"]]}))
    code, out, _ = run(capsys, "scan", str(path))
    assert code == 0
    approx = [row["lambda"]["approx"] for row in last_json(out)]
    assert approx == [0.0, 1.0, None]
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    pairs = last_json(out)["models"][0]["checks"][0]["pairs"]
    assert [pair["lambda"] for pair in pairs][:3] == [0.0, 1.0, None]


def test_bad_lambda_spec(capsys):
    code, _, err = run(capsys, "cohomology", "hopf", "--lambda", "sqrt:2")
    assert code == 2


@pytest.mark.parametrize("spec", ["rational:0", "rational:-1", "poly:-2,0,1@(-2,-1)"])
def test_a_nonpositive_lambda_is_a_usage_error(capsys, spec):
    # the model is valid, so this is not exit 3
    code, out, err = run(capsys, "cohomology", "s0:default", "--lambda", spec)
    assert (code, out) == (2, "")
    assert err == f"error: {spec!r} does not denote a single positive real value\n"


def test_custom_matrix_model(capsys):
    code, out, _ = run(capsys, "cohomology", "s0:0,0,1;1,0,1;0,1,0", "--at-alpha")
    assert code == 0
    assert last_json(out)["betti"] == [0, 0, 1, 1, 0]


def test_invalid_matrix_model(capsys):
    # identity has no real eigenvalue > 1
    code, _, err = run(capsys, "cohomology", "s0:1,0,0;0,1,0;0,0,1", "--at-alpha")
    assert code == 3


# -- scan --------------------------------------------------------------------

def test_scan_s0(capsys):
    code, out, _ = run(capsys, "scan", "s0:default")
    assert code == 0
    rows = last_json(out)
    assert len(rows) == 3
    assert [r["betti"] for r in rows] == \
        [[0, 1, 1, 0, 0], [1, 1, 0, 1, 1], [0, 0, 1, 1, 0]]


def test_scan_hopf(capsys):
    code, out, _ = run(capsys, "scan", "hopf")
    assert code == 0
    rows = last_json(out)
    assert len(rows) == 1 and rows[0]["lambda"]["approx"] == 1.0


def test_scan_spm_prints_the_exceptional_set(capsys):
    """Each printed lambda is its minimal polynomial and an isolating interval;
    for S+ and S- they must denote 1/alpha, 1 and alpha."""
    approx = {"splus": [0.38196601125010515, 1.0, 2.618033988749895],
              "sminus": [0.6180339887498949, 1.0, 1.618033988749895]}
    minpolys = {"splus": [[1, -3, 1], [-1, 1], [1, -3, 1]],
                "sminus": [[-1, 1, 1], [-1, 1], [-1, -1, 1]]}
    betti = {"splus": [[0, 1, 2, 1, 0], [1, 1, 0, 1, 1], [0, 1, 2, 1, 0]],
             "sminus": [[0, 1, 1, 0, 0], [1, 1, 0, 1, 1], [0, 0, 1, 1, 0]]}
    for name in ("splus", "sminus"):
        code, out, _ = run(capsys, "scan", f"{name}:default")
        assert code == 0
        rows = last_json(out)
        assert [r["lambda"]["approx"] for r in rows] == approx[name]
        assert [r["lambda"]["minpoly"] for r in rows] == minpolys[name]
        assert [r["betti"] for r in rows] == betti[name]
        alpha = resolve_model(f"{name}:default").alpha
        want = [alg_reciprocal(alpha), AlgebraicReal.from_rational(1), alpha]
        for row, lam in zip(rows, want):
            lo, hi = (Fraction(x) for x in row["lambda"]["interval"])
            assert alg_eq(AlgebraicReal.from_poly(IntPoly(row["lambda"]["minpoly"]), lo, hi),
                          lam), (name, row)


def test_scan_rejects_algebras(capsys):
    code, _, _ = run(capsys, "scan", "splus-algebra")
    assert code == 2


# -- verify ------------------------------------------------------------------

def test_verify_single_model(capsys):
    code, out, _ = run(capsys, "verify", "s0:default")
    assert code == 0
    doc = last_json(out)
    assert doc["ok"] is True
    names = [c["name"] for c in doc["models"][0]["checks"]]
    assert "poincare_duality" in names and "euler_constant" in names


def test_verify_all_catalog(capsys):
    code, out, _ = run(capsys, "verify", "--all-catalog")
    assert code == 0
    doc = last_json(out)
    assert doc["ok"] is True
    assert len(doc["models"]) >= 10


CATALOG_ALGEBRAS = (["s0-algebra", "splus-algebra", "splus-coframe"]
                    + [f"ot:{s}" for s in range(1, 6)]
                    + [f"abelian{n}" for n in range(1, 13)])


def count_validate(monkeypatch):
    """The names of the models validated from now on, under every binding of
    chevalley.validate."""
    calls = []
    original = chevalley.validate

    def counted(model):
        calls.append(model.name)
        return original(model)

    for module in (chevalley, cli, modelfile):
        monkeypatch.setattr(module, "validate", counted)
    return calls


def test_catalog_algebras_are_built_without_validation(monkeypatch):
    calls = count_validate(monkeypatch)
    assert not hasattr(catalog, "validate")
    for name in CATALOG_ALGEBRAS:
        resolve_model(name)
    assert calls == []


def test_verify_validates_each_algebra_once(monkeypatch, capsys):
    calls = count_validate(monkeypatch)
    code, out, _ = run(capsys, "verify", "--all-catalog")
    assert code == 0
    algebras = [m for m in last_json(out)["models"]
                if m["checks"][0]["name"] == "structure_valid"]
    assert len(algebras) == 6
    assert len(calls) == len(set(calls)) == len(algebras)


def test_verify_validates_a_model_file_once(monkeypatch, capsys, tmp_path):
    # the loader's validation is the one verify reports
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({
        "type": "lie_algebra", "dim": 4, "name": "h3+R", "theta": ["0", "0", "0", "1"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}))
    calls = count_validate(monkeypatch)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and calls == ["h3+R"]
    (report,) = last_json(out)["models"]
    assert report["checks"][0] == {"name": "structure_valid", "ok": True, "violations": []}


ALGEBRA_DOC = {"type": "lie_algebra", "dim": 2,
               "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]}
FIBER_DOC = {"type": "fiber_descriptor", "dim": 3, "h_dims": [1, 2, 2, 1],
             "spectra": [["rational:1"], ["rational:1", "rational:1"],
                         ["rational:1", "rational:1"], ["rational:1"]]}


def test_verify_corrupted_model_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "torus_monodromy",
                                "matrix": [[1, 0], [0, 1]], "junk": 1}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "schema" in err.lower() or "unknown keys" in err
    # values of the wrong JSON type are schema errors under every command
    bracket = ALGEBRA_DOC["brackets"][0]
    wrong_types = [
        dict(FIBER_DOC, h_dims=5),
        dict(ALGEBRA_DOC, brackets=5),
        dict(ALGEBRA_DOC, brackets=[dict(bracket, i="1")]),
        dict(ALGEBRA_DOC, brackets=[dict(bracket, i=1.5)]),
        dict(ALGEBRA_DOC, brackets=[dict(bracket, coeffs={"x": "1"})]),
        dict(ALGEBRA_DOC, brackets=[dict(bracket, coeffs=[1])]),
        dict(ALGEBRA_DOC, named_forms={"w": {"degree": 2, "coeffs": {"a,b": "1"}}}),
        dict(ALGEBRA_DOC, params=5),
        dict(ALGEBRA_DOC, theta=5),
        # theta and J have the model's dimension
        dict(ALGEBRA_DOC, theta=["1"]),
        dict(ALGEBRA_DOC, J=[["0", "-1"], ["1"]]),
        dict(ALGEBRA_DOC, J=[["0", "-1"]]),
        dict(ALGEBRA_DOC, dim=True, brackets=[]),
        dict(ALGEBRA_DOC, coframe="no"),
        # a string where an array belongs would be read one character at a time
        dict(ALGEBRA_DOC, params="ab"),
        {"type": "lie_algebra", "dim": 4, "brackets": [], "theta": "1234"},
        dict(ALGEBRA_DOC, J=[["0", "-1"], "10"]),
        dict(ALGEBRA_DOC, named_forms={"w": {"degree": True, "coeffs": {"1": "1"}}}),
        {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
         "actions": [[[1]], ["21", [1, 1]], [[1]]]},
        {"type": "torus_monodromy", "matrix": [[2.9, 1], [1, 1]]},
        {"type": "torus_monodromy", "matrix": [[2, 1], [1, True]]},
        {"type": "torus_monodromy", "matrix": [[2, 1], [1, "1"]]},
        dict(FIBER_DOC, dim=True, h_dims=[1, 1], spectra=[["rational:1"], ["rational:1"]]),
        dict(FIBER_DOC, h_dims=[1, 2, 2, 1.0]),
        # multiplicities are positive JSON integers, even where they sum right
        dict(FIBER_DOC, dim=2, h_dims=[1, 1, 1], spectra=[
            ["rational:1"], [["rational:2", 2], ["rational:3", -1]], ["rational:1"]]),
        dict(FIBER_DOC, dim=2, h_dims=[1, 1, 1], spectra=[
            ["rational:1"], [["rational:2", 1.7]], ["rational:1"]]),
        dict(FIBER_DOC, dim=2, h_dims=[1, 1, 1], spectra=[
            ["rational:1"], [["rational:2", True]], ["rational:1"]]),
        # one h_dim and one spectrum per degree
        {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2],
         "actions": [[[1]], [[2, 1], [1, 1]], [[1]]]},
        {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1, 7, 9],
         "actions": [[[1]], [[2, 1], [1, 1]], [[1]]]},
        # a spectrum is that of a rational action: closed under Galois
        # conjugation (phi without -1/phi), with enough conjugate pairs for
        # the complex roots of x^3 - x - 1, [1] on H^0 and [1] or [-1] on top
        dict(FIBER_DOC, dim=2, h_dims=[1, 1, 1], spectra=[
            ["rational:1"], ["poly:-1,-1,1@(1,2)"], ["rational:1"]]),
        dict(FIBER_DOC, dim=2, h_dims=[1, 1, 1], spectra=[
            ["rational:1"], ["poly:-1,-1,0,1@(1,2)"], ["rational:1"]]),
        dict(FIBER_DOC, dim=1, h_dims=[1, 1], spectra=[["rational:3"], ["rational:1"]]),
        dict(FIBER_DOC, dim=1, h_dims=[1, 1], spectra=[["rational:1"], ["rational:5"]]),
        dict(FIBER_DOC, dim=1, h_dims=[1, 1], spectra=[["rational:1"]] * 3),
        dict(FIBER_DOC, dim=-1, h_dims=[], spectra=[]),  # no H^0
        # each H^k becomes a dense matrix, so its dimension is capped
        dict(FIBER_DOC, dim=2, h_dims=[1, 66, 1], spectra=[
            ["rational:1"], ["conjugate_pair:33"], ["rational:1"]]),
    ]
    for doc in wrong_types:
        path.write_text(json.dumps(doc))
        for command in ("cohomology", "verify", "scan"):
            code, _, err = run(capsys, command, str(path))
            assert code == 2 and "schema error:" in err, (doc, command, err)
            assert "Traceback" not in err
            for key in ("theta", "J"):
                if isinstance(doc.get(key), list):
                    assert key in err, (doc, command, err)
    # a lie_algebra that fails validation is still a model error
    path.write_text(json.dumps(dict(ALGEBRA_DOC, dim=3, brackets=[
        {"i": 1, "j": 2, "coeffs": {"3": "1"}}, {"i": 1, "j": 3, "coeffs": {"2": "1"}},
        {"i": 2, "j": 3, "coeffs": {"2": "1"}}])))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "('jacobi', (1, 2, 3))" in err


def test_zero_dimensional_lie_models_are_refused(capsys, tmp_path):
    for argv in (("verify", "abelian0"), ("cone", "abelian0"), ("cohomology", "abelian0")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err == "model error: dim must be a positive integer\n", argv
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"type": "lie_algebra", "dim": 0, "brackets": []}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and err == "schema error: lie_algebra: dim must be a positive integer\n"


def test_model_sizes_beyond_the_int_digit_limit_exit_2(capsys):
    digits = "9" * 5000  # Python refuses int() of more than 4,300 digits
    for spec, what in ((f"abelian{digits}", "abelian needs an integer dimension"),
                       (f"ot:{digits}", "ot needs an integer s")):
        code, out, err = run(capsys, "cohomology", spec)
        assert code == 2 and out == "", what
        assert err.startswith(f"error: {what}, got '999"), what


def test_lie_model_dimension_is_capped(capsys, tmp_path, monkeypatch):
    import novikov.chevalley as chevalley
    import novikov.modelfile as mf

    def refuse(*args, **kwargs):
        raise AssertionError("model built before its dimension was checked")

    # the cap comes before the model, its forms and its J are built
    monkeypatch.setattr(chevalley.LieAlgebraModel, "__post_init__", refuse)
    monkeypatch.setattr(mf.InvariantForm, "from_dict", refuse)
    for spec in ("abelian13", "ot:6"):  # ot:<s> has dimension 2s + 2
        code, out, err = run(capsys, "cohomology", spec)
        assert code == 3 and out == "", spec
        assert err == "model error: Lie algebra dimension capped at 12\n", spec
    path = tmp_path / "dim13.json"
    path.write_text(json.dumps({"type": "lie_algebra", "dim": 13, "brackets": [],
                                "named_forms": {"w": {"degree": 6, "coeffs": {}}}}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err == "schema error: lie_algebra: Lie algebra dimension capped at 12\n"
    monkeypatch.undo()
    with pytest.raises(chevalley.LieModelError, match="capped at 12"):
        chevalley.LieAlgebraModel(dim=13)
    assert chevalley.LieAlgebraModel(dim=chevalley.MAX_LIE_DIM).dim == 12


def coefficient_doc(text):
    return {"type": "lie_algebra", "dim": 2, "params": ["a"],
            "brackets": [{"i": 1, "j": 2, "coeffs": {"2": text}}]}


def test_a_coefficient_runs_no_code(capsys, tmp_path):
    sentinel = tmp_path / "sentinel"
    path = tmp_path / "evil.json"
    text = f"a + __import__('pathlib').Path({str(sentinel)!r}).touch() or 0"
    path.write_text(json.dumps(coefficient_doc(text)))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2 and out == "" and err.startswith("schema error:")
    assert not sentinel.exists()


@pytest.mark.parametrize("text", [
    "a**(10**10)", "a.b", "f(a)", "sqrt(2)", "pi", "a/(a-a)",
    "-" * 100000 + "a", "+".join(["a"] * 200000)])
def test_coefficients_outside_the_grammar_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(coefficient_doc(text)))
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("schema error: bracket coefficient:") and "Traceback" not in err
    assert len(err) < 300  # a long coefficient is not echoed


def test_verify_needs_target(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


# -- cone --------------------------------------------------------------------

def test_cone_s0_at_alpha_lck(capsys):
    code, out, _ = run(capsys, "cone", "s0-algebra", "--at-alpha", "--kind", "lck")
    assert code == 0
    doc = last_json(out)
    assert doc["verdict"] == "feasible"
    assert doc["lambda_min"] > 0.05


@pytest.mark.parametrize("argv", [
    ("cone", "s0-algebra", "--at-alpha", "--kind", "lck"),
    ("cone", "abelian4", "--theta", "zero"),
])
def test_certified_feasible_cone_calls_eigh_at_most_once(capsys, monkeypatch, argv):
    """An exact certificate settles these; one eigh gives lambda_min at it."""
    import numpy as np

    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, out, _ = run(capsys, *argv)
    doc = last_json(out)
    assert code == 0 and doc["verdict"] == "feasible"
    assert doc["certificate"] is not None
    assert len(doc["certificate"]) == len(doc["coefficients"])
    assert "lambda_min  0.707107" in out
    assert len(calls) <= 1


def test_s0_alpha_for_the_cone_builds_no_fiber_model(monkeypatch):
    """--at-alpha needs alpha alone: no exterior power of the S0 monodromy,
    nor its characteristic polynomial."""
    import novikov.mapping_torus as mt

    def refuse(*args, **kwargs):
        raise AssertionError("exterior power built to read alpha")

    for name in ("exterior_powers", "exterior_char_polys"):
        monkeypatch.setattr(mt, name, refuse)
    for invert in (False, True):
        model, theta = _instantiated_s0(invert)
        assert model.params == () and (theta is None) == (not invert)


def assert_exact_s0_certificate(doc, kind):
    """The certificate v has omega(v, Jv) = 0 over Q for every form of the
    kernel (J-invariant for lck) at lambda = 1/alpha, by the forms'
    antisymmetric matrices and the model's J."""
    model, theta = _instantiated_s0(invert=True)
    basis = kernel_basis(replace(model, theta=theta), kind)
    n = model.dim
    v = [Fraction(c) for c in doc["certificate"]]
    jv = model.apply_J(v)
    assert basis and any(v)
    for form in basis:
        w = [[Fraction(0)] * n for _ in range(n)]
        for (i, k), c in zip(wedge_basis(n, 2), form.coeffs):
            w[i][k], w[k][i] = c, -c
        assert sum(v[u] * w[u][t] * jv[t] for u in range(n) for t in range(n)) == 0


def test_cone_s0_inverse_alpha_infeasible(capsys):
    code, out, _ = run(capsys, "cone", "s0-algebra", "--at-inverse-alpha",
                       "--kind", "taming")
    assert code == 0
    doc = last_json(out)
    assert doc["verdict"] == "infeasible (certified)"
    assert "lambda_min  <= 0 (certified)" in out
    assert doc["lambda_min"] == 0.0 and doc["coefficients"] == []
    assert_exact_s0_certificate(doc, "taming")


def test_cone_lck_on_one_dimensional_kernel(capsys):
    # the J-invariant kernel is one form; test_lck_cone.py runs the ascent
    # on it, which the certificate makes unnecessary here
    code, out, _ = run(capsys, "cone", "s0-algebra", "--at-inverse-alpha",
                       "--kind", "lck")
    assert code == 0
    doc = last_json(out)
    assert doc["verdict"] == "infeasible (certified)"
    assert doc["coefficients"] == []
    assert doc["lambda_min"] == 0.0
    assert_exact_s0_certificate(doc, "lck")


@pytest.mark.parametrize("flag", ["--tol", "--restarts", "--max-iters", "--seed"])
def test_cone_has_no_search_knobs(capsys, flag):
    # the ascent is one deterministic run with fixed constants
    with pytest.raises(SystemExit) as exit_info:
        main(["cone", "abelian4", flag, "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["cone", "--help"])
    assert flag not in capsys.readouterr().out


# a 995-digit mantissa with e1000, at MAX_EXPR_LEN and at the exponent cap,
# and its reciprocal's size
AT_THE_CAPS = "9" * 995 + "e1000"
ONE_OVER = "1/" + "9" * 998


@pytest.mark.parametrize("argv", [
    ("cone", "abelian4", "--theta", "1e3000,2,3,4", "--kind", "lck"),
    ("cone", "abelian4", "--theta", "1" + "0" * 1000 + ",2,3,4"),
    ("cohomology", "hopf", "--lambda", "rational:1e20000"),
    ("cohomology", "hopf", "--lambda", "rational:1e10000000"),
    ("cohomology", "hopf", "--lambda", "poly:-2,0,1@(1,1e3000)"),
])
def test_oversized_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("cone", "abelian4", "--theta", f"{AT_THE_CAPS},2,3,4", "--kind", "taming"),
    ("cone", "abelian4", "--theta", f"{AT_THE_CAPS},2,3,4", "--kind", "lck"),
    ("cone", "abelian4", "--theta", f"{ONE_OVER},2,3,4"),
    ("cohomology", "hopf", "--lambda", f"rational:{AT_THE_CAPS}"),
    ("cohomology", "hopf", "--lambda", f"rational:{ONE_OVER}"),
])
def test_numbers_at_the_caps_answer_or_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2)
    if code == 0:
        last_json(out)
    else:
        assert err.startswith("error: ")


def test_a_cone_past_the_float_range_exits_2(capsys, tmp_path):
    # on h3 + R this theta makes S_i entries that no float holds
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({
        "type": "lie_algebra", "dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}))
    for kind in ("taming", "lck"):
        code, out, err = run(capsys, "cone", str(path), f"--theta={AT_THE_CAPS},1,0,1",
                             "--kind", kind)
        assert (code, out) == (2, "")
        assert "exceed floats" in err


def test_a_json_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text('{"type": "torus_monodromy", "matrix": [[%s, 1], [1, 1]]}' % ("1" * 5000))
    code, out, err = run(capsys, "scan", str(path))
    assert (code, out) == (2, "")
    assert "is not valid JSON" in err


def test_a_certificate_past_the_digit_limit_exits_2(capsys):
    # the rank-one certificate v combines two entries at the caps, and its
    # entries have more digits than Python converts to a string
    theta = f"{'9' * 995}e1000,-1/{'9' * 997},{'7' * 995}e1000,0"
    code, out, err = run(capsys, "cone", "abelian4", "--theta", theta)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "too long to print" in err


def test_a_minimal_polynomial_past_the_digit_limit_exits_2(capsys, tmp_path):
    # chi_1 = (a - x)(b - x)(c - x) + 1 multiplies three entries at the caps
    # in its constant term, and so does an exceptional lambda's minimal polynomial
    a, b, c = (f"{d * 995}e1000" for d in "973")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "type": "fiber_descriptor", "dim": 2, "h_dims": [1, 3, 1],
        "actions": [[["1"]], [[a, "1", "0"], ["0", b, "1"], ["1", "0", c]], [["1"]]]}))
    code, out, err = run(capsys, "scan", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "too long to print" in err


@pytest.mark.parametrize("text", ["-3/4", "1.5", "2e3", "+3", "3.", "1_000"])
def test_theta_entries_read_as_fraction_reads_them(text):
    assert cli._parse_theta(f"{text},0,0,0", catalog.abelian_algebra(4)) == (
        Fraction(text), 0, 0, 0)


def test_importing_the_cli_loads_no_numpy():
    # numpy is loaded only where the cone needs floats
    code = "import sys, novikov.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(novikov.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


# splus-algebra at a = -2/3, a model file without parameters
SPLUS_DOC = {
    "type": "lie_algebra", "dim": 4,
    "brackets": [{"i": 2, "j": 3, "coeffs": {"1": "-1"}},
                 {"i": 2, "j": 4, "coeffs": {"2": "-1"}},
                 {"i": 3, "j": 4, "coeffs": {"3": "1"}}],
    "theta": ["0", "0", "0", "1"],
    "J": [["0", "-1", "0", "-2/3"], ["1", "0", "-2/3", "0"],
          ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}


def _loads_sympy(*statements):
    """Whether sympy is in sys.modules after a fresh interpreter imports
    novikov.cli and runs the statements, their output sent to stderr."""
    code = "\n".join(["import contextlib, sys", "from novikov import cli",
                      "with contextlib.redirect_stdout(sys.stderr):",
                      *(f"    {s}" for s in statements or ["pass"]),
                      "print('sympy' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(novikov.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_sympy_is_loaded_only_where_a_command_needs_it(tmp_path):
    # Q(params) and factorisation from degree 4 on are sympy's; resolving a
    # fiber, factoring degree 2 and 3, a model without parameters and every
    # exit-2 path are not
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"type": "torus_monodromy",
                                 "matrix": [[2, 1, 0], [1, 1, 1], [0, 1, 1]]}))
    algebra = tmp_path / "splus.json"
    algebra.write_text(json.dumps(SPLUS_DOC))
    specs = ["s0:default", "splus:default", "sminus:default", "hopf", "kato:3", str(torus)]
    assert not _loads_sympy()
    assert not _loads_sympy(*(f"cli.resolve_model({s!r})" for s in specs))
    assert not _loads_sympy("with contextlib.suppress(SystemExit): cli.main(['--help'])")
    missing = str(tmp_path / "missing.json")
    assert not _loads_sympy(f"assert cli.main(['cohomology', {missing!r}]) == 2")
    assert not _loads_sympy("assert cli.main(['cohomology', 'abelian4']) == 0")
    assert not _loads_sympy(f"assert cli.main(['cone', {str(algebra)!r}]) == 0")
    assert not _loads_sympy("assert cli.main(['scan', 's0:default']) == 0")
    assert not _loads_sympy("assert cli.main(['verify', 'splus:default']) == 0")
    cubic = "poly:-1,-1,0,1@(1,2)"  # x^3 - x - 1
    assert not _loads_sympy(f"assert cli.main(['cohomology', {str(torus)!r}, "
                            f"'--lambda', {cubic!r}]) == 0")
    assert _loads_sympy("assert cli.main(['cohomology', 'ot:1']) == 0")


def test_verify_leaves_duality_out_where_the_top_degree_acts_by_minus_one(capsys, tmp_path):
    # det -1 on T^3: H^3 acts by -1, and duality would pair lambda with -1/lambda
    reports = {}
    for det, matrix in ((-1, [[0, 0, -1], [1, 0, 1], [0, 1, 0]]),
                        (1, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])):
        path = tmp_path / f"det{det}.json"
        path.write_text(json.dumps({"type": "torus_monodromy", "matrix": matrix}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        reports[det] = {c["name"]: c["ok"] for c in last_json(out)["models"][0]["checks"]}
    assert reports[-1] == {"euler_constant": True}
    assert reports[1] == {"poincare_duality": True, "euler_constant": True}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cone_abelian_zero_theta(capsys):
    code, out, _ = run(capsys, "cone", "abelian4", "--theta", "zero",
                       "--kind", "taming")
    assert code == 0
    assert last_json(out)["verdict"] == "feasible"


def test_cone_rejects_parametric_model(capsys):
    code, _, err = run(capsys, "cone", "splus-algebra")
    assert code == 2
    assert "parameters" in err


def test_cone_rejects_fiber_model(capsys):
    code, _, _ = run(capsys, "cone", "hopf")
    assert code == 2


def test_cone_theta_length_checked(capsys):
    code, _, _ = run(capsys, "cone", "abelian4", "--theta", "1,0")
    assert code == 2


def test_cone_refuses_a_lee_form_that_is_not_closed(capsys, tmp_path):
    path = tmp_path / "splus.json"
    path.write_text(json.dumps(SPLUS_DOC))
    assert run(capsys, "cone", str(path))[0] == 0
    for kind in ("taming", "lck"):
        code, out, err = run(capsys, "cone", str(path), "--theta", "1,0,0,0",
                             "--kind", kind)
        assert (code, out) == (3, "")
        assert "theta is not closed" in err


def test_cone_certificate_roundtrip(capsys):
    code, out, _ = run(capsys, "cone", "abelian4", "--theta", "zero")
    doc = last_json(out)
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"coefficients", "lambda_min", "kind", "verdict", "reason",
                        "certificate"}


# -- model resolution and helpers --------------------------------------------

def test_unknown_model_is_treated_as_path(capsys):
    code, _, err = run(capsys, "cohomology", "no-such-model", "--lambda",
                       "rational:2")
    assert code == 2


def test_alg_power():
    _, alpha = default_s0()
    sq = alg_power(alpha, 2)
    assert abs(sq.to_float() - alpha.to_float() ** 2) < 1e-9
    assert alg_eq(alg_power(alpha, -1), alg_reciprocal(alpha))
    assert alg_power(alpha, 0).as_rational() == 1
    cube = alg_power(alpha, 3)
    # rho^3 = rho + 1 for the companion root of x^3 - x - 1
    assert abs(cube.to_float() - (alpha.to_float() + 1)) < 1e-9
