import ast
import json
import pathlib
import re
import sys
import tempfile
from fractions import Fraction

import pytest
import sympy as sp
import sympy.parsing.sympy_parser
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.polyerrors import CoercionFailed

from novikov import catalog, modelfile
from novikov.catalog import (
    abelian_algebra,
    default_s0,
    default_splus,
    ot_algebra,
    s0_algebra,
    splus_algebra,
    splus_coframe_model,
)
from novikov.chevalley import twisted_ce_cohomology, validate
from novikov.exact import AlgebraicReal, IntPoly, coefficient, coefficient_field
from novikov.mapping_torus import FiberModel, ModelError, twisted_betti
from novikov.modelfile import (
    _PAIR,
    MAX_EXPONENT,
    MAX_EXPR_LEN,
    MAX_TERMS,
    SchemaError,
    _parse_expr,
    load_model,
    load_model_dict,
    parse_eigenvalue_spec,
)

TESTS = pathlib.Path(__file__).parent


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


# Fraction() reads each of these; the bounded reader reads them the same way
FRACTION_LITERALS = ["-3/4", "1.5", "2e3", "+3", "3.", "1_000"]


@pytest.mark.parametrize("text", FRACTION_LITERALS)
def test_rational_specs_and_intervals_read_as_fraction_reads_them(text):
    ev, _ = parse_eigenvalue_spec(f"rational:{text}")
    assert ev.as_rational() == Fraction(text)
    lo, hi = (text, "2") if Fraction(text) < 1 else ("1", text)  # around sqrt(2)
    ev, _ = parse_eigenvalue_spec(f"poly:-2,0,1@({lo}, {hi})")
    assert ev.interval == (Fraction(lo), Fraction(hi))


@pytest.mark.parametrize("spec", ["rational:1e20000", "rational:1e10000000",
                                  "poly:-2,0,1@(1,1e3000)", "rational:1" + "0" * 1000],
                         ids=["exponent", "long exponent", "interval end", "length"])
def test_oversized_eigenvalue_specs_are_schema_errors(spec):
    # the model-file grammar's caps: an exponent or a length past MAX_EXPR_LEN
    with pytest.raises(SchemaError):
        parse_eigenvalue_spec(spec)


def test_action_entries_are_read_by_the_bounded_reader():
    doc = {"type": "fiber_descriptor", "dim": 2, "h_dims": [1, 2, 1],
           "actions": [[[1]], [["2", 1.0], [1, "1/1"]], [["1_0e-1"]]]}
    assert load_model_dict(doc).actions[1] == load_model_dict(
        dict(doc, actions=[[[1]], [[2, 1], [1, 1]], [[1]]])).actions[1]
    for entry in ("1e3000", "2" * 1001, "x", True):
        with pytest.raises(SchemaError):
            load_model_dict(dict(doc, actions=[[[1]], [[entry, 1], [1, 1]], [[1]]]))


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
    assert model.actions is None
    assert model.charpolys[1:3] == (IntPoly((4, -4, 1)), IntPoly((1, 0, 1)))


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


def test_a_document_parses_each_distinct_coefficient_once(monkeypatch):
    parsed = []
    parse = modelfile._parse_expr
    monkeypatch.setattr(modelfile, "_parse_expr",
                        lambda text, *rest: parsed.append(text) or parse(text, *rest))
    doc = dict(SPLUS_ALGEBRA_DOC, J=[["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                     ["0", "0", "0", "-1"], ["0", "0", "1", "0"]])
    model = load_model_dict(doc)
    assert sorted(parsed) == ["-1", "0", "1"]
    assert model.J[0][1] == -1 and model.theta == (0, 0, 0, 1)
    # a bad string is refused wherever it first stands
    doc["J"] = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                ["0", "0", "0", "-1"], ["0", "0", "1", "x"]]
    with pytest.raises(SchemaError, match="J entry.*'x'"):
        load_model_dict(doc)


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
    """The oracle of the grammar: what sympify reads from text, converted into
    Q(params) by sympy, or SchemaError where that fails.  Where text divides
    by an expression that is 0, sympy may still answer (1/(1/0) is 0, and
    (1/0)**0 is 1), and it drops a name that cancels (0*c is 0); the grammar
    refuses both, and so does the oracle, which reads them off sympy's
    unevaluated expression."""
    field = coefficient_field(params)
    try:
        tree = sp.sympify(text, rational=True, evaluate=False)
        if {str(x) for x in getattr(tree, "free_symbols", ())} - set(params):
            return SchemaError
        if any(p.exp.is_negative and sp.cancel(p.base.doit()) == 0
               for p in getattr(tree, "atoms", lambda _: ())(sp.Pow)):
            return SchemaError
        expr = sp.sympify(text, rational=True)
        if params:
            return field.convert(expr)
        q = QQ.convert(expr)
        return Fraction(int(q.numerator), int(q.denominator))
    except (sp.SympifyError, SyntaxError, TypeError, AttributeError, CoercionFailed):
        return SchemaError


def assert_parses_as_sympy_parses(text, params):
    want = sympy_parse(text, params)
    if want is SchemaError:
        with pytest.raises(SchemaError):
            _parse_expr(text, params, "coefficient")
    else:
        got = _parse_expr(text, params, "coefficient")
        assert got == want and type(got) is type(want), (text, got, want)


@pytest.mark.parametrize("params", [(), ("a",)])
@pytest.mark.parametrize("text", [
    "0", "-3/2", " 7 ", "1e3", "1_0", "1/0", "+5", ".5", "2.50", "1 / 2", "3/-4",
    "nan", "inf", "\u0663", "2*a", 0.1, 3, -2.5, "0**0", "(a*0)**0", "(1/0)**0",
    "1/(1/0)", "a^2 - 1/2", "2^3", "-a^-2", "2**-2", "-2^-3", "(1/2)**-2", "6/4/3",
    "(2-2)**-1"])
def test_coefficients_parse_as_sympy_parses_them(text, params):
    assert_parses_as_sympy_parses(text, params)


def grammar_strings():
    """Strings of the coefficient grammar in the parameters a and b: literals,
    names, unary signs, + - * / with and without parentheses, and powers to
    signed integer literals written with ** or ^."""
    atoms = st.sampled_from(["a", "b", "0", "1", "2", "7", "1/2", ".5", "2.50", "1e2",
                             "3/4", "10"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", "-", "*", " / "]), inner)
            .map("".join),
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner)
            .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
            st.tuples(inner, st.sampled_from(["**", "^"]), st.integers(-3, 3))
            .map(lambda t: f"({t[0]}){t[1]}{t[2]}"),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grammar_strings())
def test_grammar_strings_parse_as_sympy_parses_them(text):
    assert_parses_as_sympy_parses(text, ("a", "b"))


def refused_by_the_schema(doc):
    try:
        load_model_dict(doc)
    except SchemaError:
        return True
    except ModelError:  # bad on purpose, but shaped as the schema asks
        pass
    return False


@pytest.fixture(scope="module")
def lie_docs():
    """Every lie_algebra document written as a dict literal in tests/, less
    those the schema refuses (such as a string for theta), and every one
    perfbench's generator writes for the Lie workloads at seeds 1 and 7."""
    docs = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                try:
                    doc = ast.literal_eval(node)
                except ValueError:  # names and calls in it
                    continue
                if doc.get("type") == "lie_algebra" and not refused_by_the_schema(doc):
                    docs.append(doc)
    perfbench = str(TESTS.parent / "perfbench")
    sys.path.insert(0, perfbench)  # gen imports its sibling oracles
    try:
        import gen

        with tempfile.TemporaryDirectory() as workdir:
            for name in ("lie_generic", "lie_rational"):
                for seed in (1, 7):
                    workload = gen.build(name, seed, workdir)
                    for path in sorted(pathlib.Path(workdir).glob("*.json")):
                        docs.append(json.loads(path.read_text()))
                    # and the documents its oracles read, such as ot(2)'s
                    docs += [q.check[key] for q in workload.queries
                             for key in ("doc", "generic") if key in q.check]
    finally:
        sys.path.remove(perfbench)
    return docs


def test_model_file_expressions_parse_as_sympy_parses_them(lie_docs):
    seen = set()
    for doc in lie_docs:
        params = tuple(doc.get("params", ()))
        texts = [c for b in doc["brackets"] for c in b["coeffs"].values()]
        texts += doc.get("theta", []) + [c for row in doc.get("J", []) for c in row]
        texts += [c for f in doc.get("named_forms", {}).values()
                  for c in f["coeffs"].values()]
        for text in texts:
            if (text, params) not in seen:
                seen.add((text, params))
                assert_parses_as_sympy_parses(text, params)
    # the generator's almost-abelian entries, its ot(1) and its rational points
    assert any("+(" in text for text, _ in seen)
    assert ("-alpha1", ("alpha1", "r1")) in seen
    assert any("/" in text and not params for text, params in seen)


def test_the_grammar_runs_no_code(tmp_path):
    sentinel = tmp_path / "sentinel"
    text = f"a + __import__('pathlib').Path({str(sentinel)!r}).touch() or 0"
    with pytest.raises(SchemaError, match="not a rational function"):
        _parse_expr(text, ("a",), "coefficient")
    assert not sentinel.exists()


@pytest.mark.parametrize("text", [
    "a**(10**10)", "a**65", "a^-65", "(a**8)**9", "a**2.0", "a**b", "a**--1",
    "a.b", "f(a)", "sqrt(2)", "pi", "a/(a-a)", "(a-a)**-1", "3!", "1j", "True",
    "[a][0]", "a if a else 1", "lambda: a", "'a'", "1e1001", "*".join(["(a+1)**64"] * 65),
    "-" * 10 ** 5 + "a", "+".join(["a"] * 200000), "-" * 999 + "a",
    "(" * 300 + "a" + ")" * 300])
def test_the_grammar_refuses(text):
    with pytest.raises(SchemaError):
        _parse_expr(text, ("a",), "coefficient")


def test_the_grammar_caps():
    assert _parse_expr("a**64", ("a",), "c") == coefficient_field(("a",)).gens[0] ** 64
    assert _parse_expr("(a^8)^-8", ("a",), "c") == 1 / coefficient_field(("a",)).gens[0] ** 64
    assert _parse_expr("1e1000", (), "c") == 10 ** 1000
    assert _parse_expr("(a+b+1)**64", ("a", "b"), "c")  # 2,145 terms
    for text in ("a" + "+a" * ((MAX_EXPR_LEN - 1) // 2), "9" * MAX_EXPR_LEN):
        assert _parse_expr(text, ("a",), "c")
        with pytest.raises(SchemaError, match=f"the cap is {MAX_EXPR_LEN}"):
            _parse_expr(text + "+1", ("a",), "c")
    for text in ("(a+b+1)**65", "(a+b+c+1)**64"):
        with pytest.raises(SchemaError, match=f"more than {MAX_EXPONENT}|{MAX_TERMS} terms"):
            _parse_expr(text, ("a", "b", "c"), "c")


def test_models_load_without_sympify(monkeypatch, lie_docs):
    """Loading every model file of the tests and of the generator, and building
    every catalog model, parses nothing with sympy; catalog and modelfile
    import no sympy at module level."""

    def refuse(*args, **kwargs):
        raise AssertionError("sympy parsed a coefficient")

    monkeypatch.setattr(sp, "sympify", refuse)
    monkeypatch.setattr(sp.parsing.sympy_parser, "parse_expr", refuse)
    for doc in lie_docs:
        try:
            load_model_dict(doc)
        except (SchemaError, ModelError):  # documents that are bad on purpose
            pass
    for build in (s0_algebra, splus_algebra, splus_coframe_model, abelian_algebra,
                  lambda: splus_algebra(Fraction(1, 2)), lambda: ot_algebra(1),
                  lambda: ot_algebra(2), lambda: ot_algebra(2, [1, Fraction(2, 3)])):
        assert validate(build())
    for module in (catalog, modelfile):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        imported = {alias.name for node in tree.body if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not {m for m in imported if m.split(".")[0] == "sympy"}, module.__name__
        assert "sp" not in vars(module) and "sympy" not in vars(module)


def test_json_numbers_are_read_as_written():
    assert _parse_expr(0.1, (), "coefficient") == Fraction(1, 10)
    assert _parse_expr(3, (), "coefficient") == 3


INTEGER_STRINGS = {
    "007": "leading zeros in decimal integer literals are not permitted",
    "+5": 5, " 5": 5, "5 ": 5, "-0": 0, "-12": -12, "1_000": 1000,
    "\u0663": "invalid character '\u0663' (U+0663)",  # int() reads it as 3
    "9" * 1000: 10 ** 1000 - 1, "9" * 1001: "the cap is 1000",
}


@pytest.mark.parametrize("params", [(), ("a",)])
@pytest.mark.parametrize("text", INTEGER_STRINGS, ids=lambda t: repr(t)[:12])
def test_integer_strings_read_as_the_grammar_reads_them(monkeypatch, text, params):
    """Strings the integer fast path reads give the grammar's value; those it
    leaves give the grammar's value or SchemaError, message for message, with
    the fast path switched off as the oracle."""
    def read():
        try:
            return _parse_expr(text, params, "coefficient")
        except SchemaError as exc:
            return str(exc)

    got, want = read(), INTEGER_STRINGS[text]
    if isinstance(want, str):
        assert want in got
    else:
        assert got == want and (type(got) is Fraction) == (not params)
    monkeypatch.setattr(modelfile, "_LITERAL", re.compile("(?!)"))  # matches nothing
    assert read() == got


RATIONAL_STRINGS = {
    "1/2": Fraction(1, 2), "-1/2": Fraction(-1, 2), "-0/5": 0, "0/7": 0,
    "1/0": "(division by zero)", "3/-4": Fraction(-3, 4),
    "007/2": "leading zeros in decimal integer literals are not permitted",
    "1/007": "leading zeros in decimal integer literals are not permitted",
    "+1/2": Fraction(1, 2), " 1/2": Fraction(1, 2), "1 / 2": Fraction(1, 2),
    "1/2 ": Fraction(1, 2), "1/2/3": Fraction(1, 6),
    "\u0663/2": "invalid character '\u0663' (U+0663)",  # int() reads it as 3
    "9" * 999 + "/7": "an expression of 1001 characters; the cap is 1000",
    "9" * 997 + "/7": Fraction(10 ** 997 - 1, 7),
    "-" + "9" * 996 + "/7": Fraction(1 - 10 ** 996, 7),
}


@pytest.mark.parametrize("params", [(), ("a",)])
@pytest.mark.parametrize("text", RATIONAL_STRINGS, ids=lambda t: repr(t)[:12])
def test_rational_strings_read_as_the_grammar_reads_them(monkeypatch, text, params):
    """The same for the rational fast path, a quotient of integer literals."""
    def read():
        try:
            return _parse_expr(text, params, "coefficient")
        except SchemaError as exc:
            return str(exc)

    got, want = read(), RATIONAL_STRINGS[text]
    if isinstance(want, str):
        assert want in got
    else:
        assert got == coefficient(coefficient_field(params), Fraction(want))
        assert (type(got) is Fraction) == (not params)
    monkeypatch.setattr(modelfile, "_LITERAL", re.compile("(?!)"))  # matches nothing
    assert read() == got


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
    # a spectrum is a list of specs, not one spec read a character at a time
    with pytest.raises(SchemaError, match="degree 0: a spectrum must be a JSON array"):
        load_model_dict(dict(doc, spectra=["rational:1", ["conjugate_pair:1"], ["rational:1"]]))


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

    def refuse(*args, **kwargs):
        raise AssertionError("factor multiplied before the multiplicities were summed")

    monkeypatch.setattr(mf, "prod", refuse)
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
