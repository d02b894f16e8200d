import json
from fractions import Fraction

import pytest
import sympy as sp

from novikov.catalog import default_s0, default_splus
from novikov.chevalley import twisted_ce_cohomology
from novikov.exact import AlgebraicReal
from novikov.mapping_torus import FiberModel, twisted_betti
from novikov.modelfile import (
    _PAIR,
    SchemaError,
    _parse_expr,
    load_model,
    load_model_dict,
    parse_eigenvalue_spec,
)


S0_DOC = {"type": "torus_monodromy", "name": "s0file",
          "matrix": [[0, 0, 1], [1, 0, 1], [0, 1, 0]]}

SPLUS_DOC = {"type": "fiber_descriptor", "name": "splusfile",
             "dim": 3, "h_dims": [1, 2, 2, 1],
             "spectra": [
                 ["rational:1"],
                 ["poly:1,-3,1@(0,1)", "poly:1,-3,1@(2,3)"],
                 ["poly:1,-3,1@(0,1)", "poly:1,-3,1@(2,3)"],
                 ["rational:1"]]}

SPLUS_ALGEBRA_DOC = {
    "type": "lie_algebra", "name": "splusfile-algebra", "dim": 4,
    "brackets": [
        {"i": 2, "j": 3, "coeffs": {"1": "-1"}},
        {"i": 2, "j": 4, "coeffs": {"2": "-1"}},
        {"i": 3, "j": 4, "coeffs": {"3": "1"}}],
    "theta": ["0", "0", "0", "1"]}


def test_parse_eigenvalue_specs():
    ev, mult = parse_eigenvalue_spec("rational:3/2")
    assert isinstance(ev, AlgebraicReal) and mult == 1
    assert ev.as_rational() == 1.5
    ev, mult = parse_eigenvalue_spec("conjugate_pair:2")
    assert ev is _PAIR and mult == 2
    ev, mult = parse_eigenvalue_spec("poly:-2,0,1@(1,2)")
    assert abs(ev.to_float() - 2 ** 0.5) < 1e-9


def test_parse_eigenvalue_spec_errors():
    for bad in ("nope:1", "rational:x", "conjugate_pair:0", "poly:1,1",
                "poly:-2,0,1@(2,3)", 5):
        with pytest.raises(SchemaError):
            parse_eigenvalue_spec(bad)


def test_torus_monodromy_roundtrip():
    model = load_model_dict(S0_DOC)
    assert isinstance(model, FiberModel)
    _, alpha = default_s0()
    assert twisted_betti(model, alpha).betti == (0, 0, 1, 1, 0)


def test_fiber_descriptor_matches_catalog():
    model = load_model_dict(SPLUS_DOC)
    _, alpha = default_splus()
    assert twisted_betti(model, alpha).betti == (0, 1, 2, 1, 0)


def test_fiber_descriptor_with_actions():
    doc = {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
           "actions": [[[1]], [[2, 1], [1, 1]], [[1]]]}
    model = load_model_dict(doc)
    assert model.actions[1].rows == 2


def test_fiber_descriptor_spec_with_multiplicity():
    doc = {"type": "fiber_descriptor", "dim": 3, "h_dims": [1, 2, 2, 1],
           "spectra": [[["rational:1", 1]], [["rational:2", 2]],
                       ["conjugate_pair:1"], ["rational:1"]]}
    model = load_model_dict(doc)
    assert model.actions[1].rows == 2


def test_lie_algebra_roundtrip():
    model = load_model_dict(SPLUS_ALGEBRA_DOC)
    assert twisted_ce_cohomology(model) == [0, 1, 2, 1, 0]


def test_lie_algebra_with_params_and_named_forms():
    doc = dict(SPLUS_ALGEBRA_DOC)
    doc["params"] = ["a"]
    doc["named_forms"] = {"omega": {"degree": 2,
                                    "coeffs": {"1,2": "2*a", "3,4": "1/2"}}}
    model = load_model_dict(doc)
    omega = model.named_forms["omega"]
    assert omega.degree == 2
    assert not omega.is_zero()


def test_unknown_type_rejected():
    with pytest.raises(SchemaError):
        load_model_dict({"type": "mystery"})
    with pytest.raises(SchemaError):
        load_model_dict([1, 2, 3])


def test_unknown_keys_rejected():
    doc = dict(S0_DOC)
    doc["spurious"] = True
    with pytest.raises(SchemaError):
        load_model_dict(doc)


def test_undeclared_parameter_rejected():
    doc = dict(SPLUS_ALGEBRA_DOC)
    doc["theta"] = ["b", "0", "0", "0"]
    with pytest.raises(SchemaError):
        load_model_dict(doc)
    for params in (["b", "b"], [1]):
        doc["params"] = params
        with pytest.raises(SchemaError):
            load_model_dict(doc)


def test_coefficient_outside_the_field_rejected(tmp_path, capsys):
    # 1/0 and a/(a-a) are not rational functions; sqrt(2), pi and a list are not in Q(a)
    from novikov.cli import main
    for text in ("1/0", "a/(a-a)", "sqrt(2)", "pi", [1, 2]):
        doc = {"type": "lie_algebra", "dim": 2, "params": ["a"],
               "brackets": [{"i": 1, "j": 2, "coeffs": {"2": text}}]}
        with pytest.raises(SchemaError, match="not a rational function"):
            load_model_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["cohomology", str(path)]) == 2, text
        assert "schema error" in capsys.readouterr().err


def sympy_parse(text, params):
    """_parse_expr's answer through sympy alone, which a sympy expression
    always takes: the coefficient, or SchemaError."""
    try:
        return _parse_expr(sp.sympify(text, rational=True), params, "coefficient")
    except (sp.SympifyError, SyntaxError, TypeError, SchemaError):
        return SchemaError


@pytest.mark.parametrize("params", [(), ("a",)])
@pytest.mark.parametrize("text", [
    "0", "-3/2", " 7 ", "1e3", "1_0", "1/0", "+5", ".5", "2.50", "1 / 2", "3/-4",
    "nan", "inf", "\u0663", "2*a", 0.1, 3, -2.5])
def test_coefficients_parse_as_sympy_parses_them(text, params):
    want = sympy_parse(text, params)
    if want is SchemaError:
        with pytest.raises(SchemaError):
            _parse_expr(text, params, "coefficient")
    else:
        got = _parse_expr(text, params, "coefficient")
        assert got == want and type(got) is type(want)


def test_json_numbers_are_read_as_written():
    assert _parse_expr(0.1, (), "coefficient") == Fraction(1, 10)
    assert _parse_expr(3, (), "coefficient") == 3


def test_bad_bracket_indices_rejected():
    doc = dict(SPLUS_ALGEBRA_DOC)
    doc["brackets"] = [{"i": 3, "j": 2, "coeffs": {"1": "1"}}]
    with pytest.raises(SchemaError):
        load_model_dict(doc)
    doc["brackets"] = [{"i": 1, "j": 5, "coeffs": {"1": "1"}}]
    with pytest.raises(SchemaError):
        load_model_dict(doc)


def test_spectra_and_actions_mutually_exclusive():
    doc = dict(SPLUS_DOC)
    doc["actions"] = [[[1]]]
    with pytest.raises(SchemaError):
        load_model_dict(doc)
    doc2 = {"type": "fiber_descriptor", "dim": 3, "h_dims": [1, 2, 2, 1]}
    with pytest.raises(SchemaError):
        load_model_dict(doc2)


def test_eigen_descriptor_multiplicity_sum():
    doc = {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
           "spectra": [["rational:1"], ["rational:1"], ["rational:1"]]}
    with pytest.raises(SchemaError, match="degree 1: multiplicities sum to 1, declared 2"):
        load_model_dict(doc)
    # a conjugate pair counts twice
    load_model_dict(dict(doc, spectra=[["rational:1"], ["conjugate_pair:1"], ["rational:1"]]))


def test_spectra_must_be_those_of_rational_actions():
    def load(h1, spec):
        load_model_dict({"type": "fiber_descriptor", "dim": 2, "h_dims": [1, h1, 1],
                         "spectra": [["rational:1"], spec, ["rational:1"]]})

    phi, psi = "poly:-1,-1,1@(1,2)", "poly:-1,-1,1@(-1,0)"  # roots of x^2 - x - 1
    with pytest.raises(SchemaError, match="real roots of .* must all be listed"):
        load(1, [phi])
    with pytest.raises(SchemaError, match="real roots of .* must all be listed"):
        load(3, [[phi, 2], psi])
    with pytest.raises(SchemaError, match="too few conjugate pairs"):
        load(1, ["poly:-1,-1,0,1@(1,2)"])
    load(2, [phi, psi])
    load(6, [[phi, 2], [psi, 2], "conjugate_pair:1"])
    load(3, ["poly:-1,-1,0,1@(1,2)", "conjugate_pair:1"])


def test_spectrum_sizes_are_checked_before_any_block_is_built(monkeypatch):
    import novikov.modelfile as mf

    def refuse(p):
        raise AssertionError("block built before the multiplicities were summed")

    monkeypatch.setattr(mf, "companion", refuse)
    for spec in ([["rational:2", 10 ** 12]], ["conjugate_pair:1000000000000"]):
        doc = {"type": "fiber_descriptor", "dim": 1, "h_dims": [1, 1],
               "spectra": [spec, ["rational:1"]]}
        with pytest.raises(SchemaError, match="multiplicities sum to"):
            load_model_dict(doc)


def test_multiplicity_sum_checked():
    doc = dict(SPLUS_DOC)
    doc["spectra"] = [["rational:1"], ["rational:1"], [], ["rational:1"]]
    with pytest.raises(SchemaError):
        load_model_dict(doc)


def test_load_model_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SPLUS_ALGEBRA_DOC))
    model = load_model(str(path))
    assert model.name == "splusfile-algebra"


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_model(str(path))
    with pytest.raises(SchemaError):
        load_model(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("doc", [S0_DOC, SPLUS_DOC, SPLUS_ALGEBRA_DOC],
                         ids=["torus_monodromy", "fiber_descriptor", "lie_algebra"])
@pytest.mark.parametrize("name", [5, None, ["s0"], {"n": 1}, True])
def test_model_name_must_be_a_string(doc, name, tmp_path, capsys):
    from novikov.cli import main
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(doc, name=name)))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"schema error: {doc['type']}: name must be a string")
