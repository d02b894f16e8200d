"""JSON model files.

Three document types, selected by the top-level "type" key:

* ``torus_monodromy``: ``{"type": ..., "matrix": [[int]]}``.
* ``fiber_descriptor``: declared ``dim`` and ``h_dims`` plus either explicit
  rational ``actions`` matrices or per-degree ``spectra`` of eigenvalue specs
  ``"rational:<p>/<q>"``, ``"poly:<c0,c1,...>@(<lo>,<hi>)"`` and
  ``"conjugate_pair:<mult>"`` (the first two optionally ``[spec, mult]``);
  ``dim``, ``h_dims`` and multiplicities are JSON integers, and an action is
  a JSON array of row arrays.  Spectra load as characteristic polynomials,
  with no matrix: p^m for the minimal polynomial p of real eigenvalues
  listed with multiplicity m, which also takes p's complex roots from the
  declared conjugate pairs, and x^2 + 1 for each pair left over.
  So a spectrum must be closed under Galois conjugation: every real root of
  p listed, all with one multiplicity.  Either way H^0 must act as [1] and
  H^dim as [1] or [-1], and no H^k may exceed ``MAX_H_DIM``.
* ``lie_algebra``: ``dim``, optional ``params``, a bracket list
  ``{"i": .., "j": .., "coeffs": {"k": expr}}`` with 1-based generator
  indices, plus ``theta``, ``J``, ``coframe`` and ``named_forms``;
  ``params``, ``theta``, ``J`` and its rows are JSON arrays, and a named
  form's ``degree`` is a JSON integer.

Unknown keys are rejected.  A Lie-model coefficient is a JSON number, read
as written (0.1 is 1/10), or a string of this grammar, evaluated straight
into Q(params) and never run as Python:

* integer and decimal literals (``3``, ``-3/2``, ``1e3``, ``.5``, ``2.50``),
  read exactly;
* the declared parameter names;
* unary ``+`` and ``-``, and binary ``+``, ``-``, ``*`` and ``/``, with
  parentheses;
* ``x**n`` or ``x^n``, where n is an integer literal with at most one sign.

Everything else (calls, attributes, other names, a division by an expression
that is 0) is a SchemaError, and so is a string of more than
``MAX_EXPR_LEN`` characters, an exponent, or a product of the exponents of
nested powers, above ``MAX_EXPONENT`` in absolute value, a decimal exponent
above ``MAX_EXPR_LEN``, and an intermediate numerator or denominator that
could have more than ``MAX_TERMS`` terms.
"""

from __future__ import annotations

import ast
import json
import operator
import re
from fractions import Fraction
from math import comb, prod

from .chevalley import InvariantForm, LieAlgebraModel, check_lie_dim, validate
from .exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    alg_eq,
    coefficient,
    coefficient_field,
    isolate_real_roots,
)
from .mapping_torus import FiberModel, ModelError, torus_monodromy


class SchemaError(ValueError):
    """The document does not match the model-file schema."""


_PAIR = object()  # what parse_eigenvalue_spec returns for a conjugate pair

# An explicit action is a dense matrix, and char_poly's cost grows as the
# fourth power of its size: `scan` on an 80-dimensional H^1 takes about 1.6 s
# on a shared 2-core VM.  A spectrum costs no matrix; the cap holds for both.
MAX_H_DIM = 64


def parse_eigenvalue_spec(text: str):
    """One eigenvalue spec; returns an AlgebraicReal, or _PAIR for
    conjugate pairs, with its multiplicity."""
    if not isinstance(text, str):
        raise SchemaError(f"eigenvalue spec must be a string, got {text!r}")
    head, _, rest = text.partition(":")
    if head == "rational":
        return AlgebraicReal.from_rational(_parse_expr(rest, (), "a rational spec")), 1
    if head == "conjugate_pair":
        try:
            mult = int(rest)
        except ValueError as exc:
            raise SchemaError(f"bad conjugate_pair spec {text!r}") from exc
        if mult < 1:
            raise SchemaError("conjugate_pair multiplicity must be positive")
        return _PAIR, mult
    if head == "poly":
        coeff_part, _, interval_part = rest.partition("@")
        try:
            coeffs = [int(c) for c in coeff_part.split(",")]
            lo_s, hi_s = interval_part.strip().lstrip("(").rstrip(")").split(",")
            lo, hi = (_parse_expr(x, (), "an interval end") for x in (lo_s, hi_s))
        except ValueError as exc:
            raise SchemaError(f"bad poly spec {text!r}: {exc}") from exc
        try:
            return AlgebraicReal.from_poly(IntPoly(tuple(coeffs)), lo, hi), 1
        except ValueError as exc:
            raise SchemaError(f"bad poly spec {text!r}: {exc}") from exc
    raise SchemaError(
        f"unknown eigenvalue spec {text!r}; expected rational:, poly: or conjugate_pair:")


def _require_keys(doc, required, optional, what):
    keys = set(doc)
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"{what}: missing keys {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{what}: unknown keys {sorted(unknown)}")


def _array(value, what):
    """value, a JSON array: a string would be read one character at a time."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


# Caps of the coefficient grammar; see the module docstring.
MAX_EXPR_LEN = 1000
MAX_EXPONENT = 64
MAX_TERMS = 4096

# each operator, with a bound on the terms of its result's numerator and
# denominator from the terms of its operands' numerators and denominators.
# Their product also bounds the work: a bound on the result alone,
# C(degree + #params, #params), would admit two chains of (a+1)**64 factors
# under MAX_EXPR_LEN characters multiplied as 2001 x 2001 terms (14-17 s).
_BINARY = {
    ast.Add: (operator.add, lambda xn, xd, yn, yd: max(xn * yd + yn * xd, xd * yd)),
    ast.Sub: (operator.sub, lambda xn, xd, yn, yd: max(xn * yd + yn * xd, xd * yd)),
    ast.Mult: (operator.mul, lambda xn, xd, yn, yd: max(xn * yn, xd * yd)),
    ast.Div: (operator.truediv, lambda xn, xd, yn, yd: max(xn * yd, xd * yn)),
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
# an integer or a/b needs no parse; ASCII digits, as int reads others the grammar refuses
_LITERAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def _decimal(text):
    """A decimal literal, read exactly.  Its exponent is capped, so that 1eN
    is no longer than an integer literal that fits in MAX_EXPR_LEN."""
    if abs(int(text.lower().partition("e")[2] or 0)) > MAX_EXPR_LEN:
        raise ValueError(f"the exponent of {text} exceeds {MAX_EXPR_LEN}")
    return Fraction(text)


def _terms(x):
    return (1, 1) if type(x) is Fraction else (len(x.numer), len(x.denom))


def _exponent(node):
    """The value of an integer literal with at most one sign."""
    sign = 1
    if type(node) is ast.UnaryOp and type(node.op) in _UNARY:
        sign = -1 if type(node.op) is ast.USub else 1
        node = node.operand
    if type(node) is not ast.Constant or type(node.value) is not int:
        raise ValueError("an exponent must be an integer literal")
    return sign * node.value


def _evaluate(node, src, params, field, room):
    """The value of a node of the grammar, a Fraction or an element of field;
    room is what the exponents of the powers around the node leave to its
    own."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) is ast.Pow:
        e = _exponent(node.right)
        if abs(e) > room:
            raise ValueError(f"exponents multiply to more than {MAX_EXPONENT}")
        x = _evaluate(node.left, src, params, field, room // max(abs(e), 1))
        if e == 0:  # sympy's zero polynomial refuses the power 0
            return Fraction(1)
        if max(comb(t + abs(e) - 1, abs(e)) for t in _terms(x)) > MAX_TERMS:
            raise ValueError(f"a power has more than {MAX_TERMS} terms")
        return x ** e if e > 0 else 1 / x ** -e
    if kind is ast.BinOp and type(node.op) in _BINARY:
        op, bound = _BINARY[type(node.op)]
        x = _evaluate(node.left, src, params, field, room)
        y = _evaluate(node.right, src, params, field, room)
        if type(x) is not type(y):  # a Fraction and a field element
            x, y = coefficient(field, x), coefficient(field, y)
        if bound(*_terms(x), *_terms(y)) > MAX_TERMS:
            raise ValueError(f"an intermediate result has more than {MAX_TERMS} terms")
        return op(x, y)
    if kind is ast.UnaryOp and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, src, params, field, room))
    if kind is ast.Name:
        # ast normalises identifiers (NFKC); a parameter is matched as written
        name = node.id if src.isascii() else ast.get_source_segment(src, node)
        if name not in params:
            raise ValueError(f"{name!r} is not a declared parameter")
        return field.gens[params.index(name)]
    if kind is ast.Constant and type(node.value) is int:
        return Fraction(node.value)
    if kind is ast.Constant and type(node.value) is float:
        return _decimal(ast.get_source_segment(src, node))
    raise ValueError(f"{ast.get_source_segment(src, node)!r} is not in the grammar")


def _read(text, params, field):
    """text, a string of the grammar or a JSON number, as a Fraction or an
    element of field."""
    if type(text) is int:
        return Fraction(text)
    if isinstance(text, str) and _LITERAL.fullmatch(text):
        return Fraction(*map(int, text.split("/")))
    if type(text) is float:  # as written: Fraction(0.1) is not 1/10
        return _decimal(repr(text))
    if not isinstance(text, str):
        raise ValueError("not a string or a number")
    src = text.replace("^", "**").strip()
    return _evaluate(ast.parse(src, mode="eval").body, src, params, field, MAX_EXPONENT)


def _parse_expr(text, params, what):
    """A model-file coefficient, a string of the grammar or a JSON number, as
    an element of Q(params): a Fraction without parameters."""
    if isinstance(text, str) and len(text) > MAX_EXPR_LEN:
        raise SchemaError(f"{what}: an expression of {len(text)} characters; "
                          f"the cap is {MAX_EXPR_LEN}")
    field = coefficient_field(params)
    try:
        return coefficient(field, _read(text, params, field))
    except (ValueError, SyntaxError, ZeroDivisionError, MemoryError,
            RecursionError) as exc:
        reason = ("division by zero" if isinstance(exc, ZeroDivisionError)
                  else f"cannot parse it: {exc.msg}" if isinstance(exc, SyntaxError)
                  else str(exc) or "nested too deeply")
        field_name = "a rational function of the declared parameters" if params else "rational"
        raise SchemaError(f"{what}: {text!r} is not {field_name} ({reason})") from exc


def _coefficient_reader(params):
    """_parse_expr for the coefficients of one document, which reads each
    distinct string once: a document repeats a few constants (J is mostly 0
    and 1)."""
    seen = {}

    def read(text, what):
        if type(text) is not str:
            return _parse_expr(text, params, what)
        if text not in seen:
            seen[text] = _parse_expr(text, params, what)
        return seen[text]
    return read


def _load_torus_monodromy(doc):
    _require_keys(doc, ["type", "matrix"], ["name"], "torus_monodromy")
    try:
        rows = [_array(r, "a matrix row") for r in _array(doc["matrix"], "matrix")]
        return torus_monodromy(rows, doc.get("name", ""))
    except (ModelError, ValueError, TypeError) as exc:
        raise SchemaError(f"torus_monodromy: {exc}") from exc


def _spectrum_charpoly(k, spec_list, size):
    """The characteristic polynomial of a semisimple rational action of the
    declared size with the given spectrum."""
    groups = {}  # minimal polynomial -> [(eigenvalue, multiplicity)]
    pairs = 0
    for item in _array(spec_list, f"degree {k}: a spectrum"):
        text, mult = item if isinstance(item, list) else (item, None)
        ev, own = parse_eigenvalue_spec(text)
        if ev is _PAIR:
            if mult is not None:
                raise SchemaError("conjugate_pair carries its own multiplicity")
            pairs += own
            continue
        mult = own if mult is None else mult
        if type(mult) is not int or mult < 1:
            raise SchemaError(f"degree {k}: multiplicity {mult!r} is not a "
                              "positive integer")
        groups.setdefault(ev.minpoly.coeffs, []).append((ev, mult))
    # before any factor is multiplied, so that no multiplicity sizes an allocation
    total = 2 * pairs + sum(m for listed in groups.values() for _, m in listed)
    if total != size:
        raise SchemaError(f"degree {k}: multiplicities sum to {total}, declared {size}")
    chi = IntPoly([1])
    for listed in groups.values():
        p = listed[0][0].minpoly
        roots = [r for r, _ in isolate_real_roots(p)]
        # an unlisted root counts 0, so one multiplicity means all are listed
        mults = {sum(m for ev, m in listed if alg_eq(ev, r)) for r in roots}
        if len(mults) != 1:
            raise SchemaError(f"degree {k}: the real roots of {list(p.coeffs)} must "
                              "all be listed, with one multiplicity")
        (mult,) = mults
        pairs -= mult * (p.degree - len(roots)) // 2
        chi = prod([p] * mult, start=chi)
    if pairs < 0:
        raise SchemaError(f"degree {k}: too few conjugate pairs for the complex "
                          "roots of the listed minimal polynomials")
    return prod([IntPoly((1, 0, 1))] * pairs, start=chi)


def _load_fiber_descriptor(doc):
    _require_keys(doc, ["type", "dim", "h_dims"], ["name", "spectra", "actions"],
                  "fiber_descriptor")
    if ("spectra" in doc) == ("actions" in doc):
        raise SchemaError("fiber_descriptor: give exactly one of spectra/actions")
    dim = doc["dim"]
    h_dims = tuple(doc["h_dims"])
    if type(dim) is not int or any(type(h) is not int for h in h_dims):
        raise SchemaError("fiber_descriptor: dim and h_dims must be integers")
    if len(h_dims) != dim + 1:
        raise SchemaError(f"fiber_descriptor: h_dims needs {dim + 1} entries for "
                          f"dim {dim}, got {len(h_dims)}")
    if any(h > MAX_H_DIM for h in h_dims):
        raise SchemaError(f"fiber_descriptor: H^k dimension capped at {MAX_H_DIM}")
    try:
        per_degree = doc["actions"] if "actions" in doc else doc["spectra"]
        if len(per_degree) != dim + 1:
            raise SchemaError(f"need {dim + 1} degrees for dim {dim}, got {len(per_degree)}")
        if "spectra" in doc:
            return FiberModel(None, doc.get("name", ""), tuple(
                _spectrum_charpoly(k, spec_list, h)
                for k, (spec_list, h) in enumerate(zip(per_degree, h_dims))))
        parse = _coefficient_reader(())
        acts = tuple(
            Matrix.from_rows([[parse(x, "an action entry") for x in _array(row, "an action row")]
                              for row in _array(mat, "an action")])
            for mat in per_degree)
        for k, (m, h) in enumerate(zip(acts, h_dims)):
            if m.rows != h:
                raise SchemaError(f"degree {k} has dimension {m.rows}, declared {h}")
        return FiberModel(acts, doc.get("name", ""))
    except (ModelError, ValueError, TypeError) as exc:
        raise SchemaError(f"fiber_descriptor: {exc}") from exc


def _load_lie_algebra(doc):
    _require_keys(doc, ["type", "dim", "brackets"],
                  ["name", "params", "theta", "J", "coframe", "named_forms"],
                  "lie_algebra")
    dim = doc["dim"]
    if type(dim) is not int:
        raise SchemaError("lie_algebra: dim must be an integer")
    check_lie_dim(dim)
    params = tuple(_array(doc.get("params", []), "lie_algebra: params"))
    if not all(isinstance(p, str) for p in params) or len(set(params)) != len(params):
        raise SchemaError("lie_algebra: params must be distinct names")
    parse = _coefficient_reader(params)
    brackets = {}
    for item in doc["brackets"]:
        _require_keys(item, ["i", "j", "coeffs"], [], "bracket entry")
        i, j = item["i"], item["j"]  # file indices are 1-based
        if type(i) is not int or type(j) is not int or not 1 <= i < j <= dim:
            raise SchemaError(f"bracket entry: bad index pair ({i!r}, {j!r})")
        comps = {}
        for k, expr in item["coeffs"].items():
            ki = int(k) - 1
            if not 0 <= ki < dim:
                raise SchemaError(f"bracket entry: bad component index {k}")
            comps[ki] = parse(expr, "bracket coefficient")
        brackets[(i - 1, j - 1)] = comps
    # LieAlgebraModel checks the shapes of theta and J
    theta = None
    if "theta" in doc:
        theta = tuple(parse(c, "theta") for c in _array(doc["theta"], "lie_algebra: theta"))
    jmat = None
    if "J" in doc:
        jmat = tuple(tuple(parse(c, "J entry") for c in _array(r, "lie_algebra: a row of J"))
                     for r in _array(doc["J"], "lie_algebra: J"))
    named = {}
    for name, spec in doc.get("named_forms", {}).items():
        _require_keys(spec, ["degree", "coeffs"], [], f"named form {name!r}")
        if type(spec["degree"]) is not int:
            raise SchemaError(f"named form {name!r}: degree must be an integer")
        entries = {}
        for subset, expr in spec["coeffs"].items():
            idx = tuple(int(x) - 1 for x in str(subset).split(","))
            if len(set(idx)) != len(idx) or any(not 0 <= x < dim for x in idx) \
                    or list(idx) != sorted(idx) or len(idx) != spec["degree"]:
                raise SchemaError(f"named form {name!r}: bad index set {subset!r}")
            entries[idx] = parse(expr, f"named form {name!r}")
        named[name] = InvariantForm.from_dict(dim, spec["degree"], entries)
    if type(doc.get("coframe", False)) is not bool:
        raise SchemaError("lie_algebra: coframe must be true or false")
    model = LieAlgebraModel(
        dim=dim, params=params, brackets=brackets, theta=theta, J=jmat,
        coframe_metric=doc.get("coframe", False),
        named_forms=named, name=doc.get("name", ""))
    report = validate(model)
    if not report:
        raise ModelError(f"lie_algebra model failed validation: {report.violations}")
    return model


_LOADERS = {
    "torus_monodromy": _load_torus_monodromy,
    "fiber_descriptor": _load_fiber_descriptor,
    "lie_algebra": _load_lie_algebra,
}


def load_model_dict(doc):
    if not isinstance(doc, dict):
        raise SchemaError("model file must hold a JSON object")
    kind = doc.get("type")
    if kind not in _LOADERS:
        raise SchemaError(
            f"unknown model type {kind!r}; expected one of {sorted(_LOADERS)}")
    if not isinstance(doc.get("name", ""), str):
        raise SchemaError(f"{kind}: name must be a string, got {doc['name']!r}")
    try:
        return _LOADERS[kind](doc)
    except (SchemaError, ModelError):  # ModelError: a model that fails validation
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        # a value of the wrong JSON type, or a LieModelError from the model
        raise SchemaError(f"{kind}: {exc}") from exc


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise SchemaError(f"model file {path} is not valid JSON: {exc}") from exc
    return load_model_dict(doc)
