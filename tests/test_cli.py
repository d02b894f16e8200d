import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import novikov
from novikov.cli import _instantiated_s0, build_parser, main
from novikov.catalog import default_s0, ot_algebra
from novikov.chevalley import wedge_basis
from novikov.lck_cone import _j_invariant_subbasis, kernel_basis
from novikov.exact import alg_eq, alg_power, alg_reciprocal


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
        dict(ALGEBRA_DOC, dim=True, brackets=[]),
        dict(ALGEBRA_DOC, coframe="no"),
    ]
    for doc in wrong_types:
        path.write_text(json.dumps(doc))
        for command in ("cohomology", "verify", "scan"):
            code, _, err = run(capsys, command, str(path))
            assert code == 2 and "schema error:" in err, (doc, command, err)
            assert "Traceback" not in err
    # a lie_algebra that fails validation is still a model error
    path.write_text(json.dumps(dict(ALGEBRA_DOC, dim=3, brackets=[
        {"i": 1, "j": 2, "coeffs": {"3": "1"}}, {"i": 1, "j": 3, "coeffs": {"2": "1"}},
        {"i": 2, "j": 3, "coeffs": {"2": "1"}}])))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "('jacobi', (1, 2, 3))" in err


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


def assert_exact_s0_certificate(doc, kind):
    """The certificate v has omega(v, Jv) = 0 over Q for every form of the
    kernel (J-invariant for lck) at lambda = 1/alpha, by the forms'
    antisymmetric matrices and the model's J."""
    model, theta = _instantiated_s0(invert=True)
    basis = kernel_basis(model, theta)
    if kind == "lck":
        basis = _j_invariant_subbasis(model, basis)
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
                       "--kind", "taming", "--restarts", "16",
                       "--max-iters", "800")
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


@pytest.mark.parametrize("flag", ["--restarts", "--max-iters"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cone_rejects_search_sizes_below_one(capsys, flag, value):
    code, _, err = run(capsys, "cone", "abelian4", flag, value)
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
def test_cone_rejects_tolerance_outside_zero_to_inf(capsys, value):
    # a negative tolerance called lambda_min = -9.65e-11 feasible, and nan or
    # inf called lambda_min = 0.707 infeasible
    code, out, err = run(capsys, "cone", "abelian4", "--theta", "1,2,3,4",
                         f"--tol={value}")
    assert code == 2
    assert "--tol" in err and out == ""


def test_cone_accepts_zero_tolerance(capsys):
    code, out, _ = run(capsys, "cone", "abelian4", "--theta", "zero", "--tol", "0")
    assert code == 0
    assert last_json(out)["verdict"] == "feasible"


def test_cone_seed_defaults_to_zero_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("NOVIKOV_SEED", "5")
    assert build_parser().parse_args(["cone", "abelian4"]).seed == 0


def test_importing_the_cli_loads_no_numpy():
    # numpy is loaded only where the cone needs floats
    code = "import sys, novikov.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(novikov.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


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
