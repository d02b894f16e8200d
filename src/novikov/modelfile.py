"""JSON model files.

Three document types, selected by the top-level "type" key:

* ``torus_monodromy``: ``{"type": ..., "matrix": [[int]]}``.
* ``fiber_descriptor``: declared ``dim`` and ``h_dims`` plus either explicit
  rational ``actions`` matrices or per-degree ``spectra`` of eigenvalue specs
  ``"rational:<p>/<q>"``, ``"poly:<c0,c1,...>@(<lo>,<hi>)"`` and
  ``"conjugate_pair:<mult>"`` (the first two optionally ``[spec, mult]``);
  ``dim``, ``h_dims`` and multiplicities are JSON integers.
* ``lie_algebra``: ``dim``, optional ``params``, a bracket list
  ``{"i": .., "j": .., "coeffs": {"k": expr}}`` with 1-based generator
  indices, plus ``theta``, ``J``, ``coframe`` and ``named_forms``.

Unknown keys are rejected.  Expressions must be rational functions of the
declared parameters.
"""

from __future__ import annotations

import json
from fractions import Fraction

import sympy as sp
from sympy.polys.polyerrors import CoercionFailed

from .chevalley import InvariantForm, LieAlgebraModel, validate
from .exact import AlgebraicReal, IntPoly, Matrix, coefficient, coefficient_field
from .mapping_torus import (
    ConjugatePair,
    EigenDescriptor,
    ExplicitActions,
    FiberModel,
    ModelError,
    torus_monodromy,
)


class SchemaError(ValueError):
    """The document does not match the model-file schema."""


def parse_eigenvalue_spec(text: str):
    """One eigenvalue spec; returns AlgebraicReal or ConjugatePair with its
    multiplicity."""
    if not isinstance(text, str):
        raise SchemaError(f"eigenvalue spec must be a string, got {text!r}")
    head, _, rest = text.partition(":")
    if head == "rational":
        try:
            return AlgebraicReal.from_rational(Fraction(rest)), 1
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational spec {text!r}: {exc}") from exc
    if head == "conjugate_pair":
        try:
            mult = int(rest)
        except ValueError as exc:
            raise SchemaError(f"bad conjugate_pair spec {text!r}") from exc
        if mult < 1:
            raise SchemaError("conjugate_pair multiplicity must be positive")
        return ConjugatePair(), mult
    if head == "poly":
        coeff_part, _, interval_part = rest.partition("@")
        try:
            coeffs = [int(c) for c in coeff_part.split(",")]
            lo_s, hi_s = interval_part.strip().lstrip("(").rstrip(")").split(",")
            lo, hi = Fraction(lo_s), Fraction(hi_s)
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


def _parse_expr(text, params, what):
    # most coefficients are plain rationals, which Fraction reads as sympy
    # would; not JSON numbers (Fraction(0.1) is not 1/10) nor non-ASCII digits
    # (Fraction reads them, sympy refuses them)
    if isinstance(text, str) and text.isascii():
        try:
            return coefficient(coefficient_field(params), Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass
    try:
        expr = sp.sympify(text, rational=True)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise SchemaError(f"{what}: cannot parse expression {text!r}") from exc
    free = {str(s) for s in getattr(expr, "free_symbols", ())}
    extra = free - set(params)
    if extra:
        raise SchemaError(f"{what}: undeclared parameters {sorted(extra)} in {text!r}")
    try:
        return coefficient(coefficient_field(params), expr)
    except CoercionFailed as exc:
        raise SchemaError(f"{what}: {text!r} is not a rational function of the "
                          f"declared parameters") from exc


def _load_torus_monodromy(doc):
    _require_keys(doc, ["type", "matrix"], ["name"], "torus_monodromy")
    rows = doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError("torus_monodromy: matrix must be a list of rows")
    try:
        mode = torus_monodromy(rows)
        return FiberModel(mode.dim, mode, name=doc.get("name", ""))
    except (ModelError, ValueError, TypeError) as exc:
        raise SchemaError(f"torus_monodromy: {exc}") from exc


def _load_fiber_descriptor(doc):
    _require_keys(doc, ["type", "dim", "h_dims"], ["name", "spectra", "actions"],
                  "fiber_descriptor")
    if ("spectra" in doc) == ("actions" in doc):
        raise SchemaError("fiber_descriptor: give exactly one of spectra/actions")
    dim = doc["dim"]
    h_dims = tuple(doc["h_dims"])
    if type(dim) is not int or any(type(h) is not int for h in h_dims):
        raise SchemaError("fiber_descriptor: dim and h_dims must be integers")
    try:
        if "actions" in doc:
            acts = tuple(
                Matrix.from_rows([[Fraction(str(x)) for x in row] for row in mat])
                for mat in doc["actions"])
            for k, (m, h) in enumerate(zip(acts, h_dims)):
                if m.rows != h:
                    raise SchemaError(
                        f"fiber_descriptor: degree {k} action is {m.rows}x{m.cols}, "
                        f"declared dim {h}")
            mode = ExplicitActions(dim, acts)
        else:
            spectra = []
            for spec_list in doc["spectra"]:
                entries = []
                for item in spec_list:
                    if isinstance(item, list):
                        text, mult = item
                        ev, _ = parse_eigenvalue_spec(text)
                        if isinstance(ev, ConjugatePair):
                            raise SchemaError(
                                "conjugate_pair carries its own multiplicity")
                        entries.append((ev, mult))
                    else:
                        entries.append(parse_eigenvalue_spec(item))
                spectra.append(tuple(entries))
            mode = EigenDescriptor(dim, h_dims, tuple(spectra))
        return FiberModel(dim, mode, name=doc.get("name", ""))
    except (ModelError, ValueError, TypeError) as exc:
        raise SchemaError(f"fiber_descriptor: {exc}") from exc


def _load_lie_algebra(doc):
    _require_keys(doc, ["type", "dim", "brackets"],
                  ["name", "params", "theta", "J", "coframe", "named_forms"],
                  "lie_algebra")
    dim = doc["dim"]
    if type(dim) is not int:
        raise SchemaError("lie_algebra: dim must be an integer")
    params = tuple(doc.get("params", ()))
    if not all(isinstance(p, str) for p in params) or len(set(params)) != len(params):
        raise SchemaError("lie_algebra: params must be distinct names")
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
            comps[ki] = _parse_expr(expr, params, "bracket coefficient")
        brackets[(i - 1, j - 1)] = comps
    theta = None
    if "theta" in doc:
        if len(doc["theta"]) != dim:
            raise SchemaError("lie_algebra: theta needs one entry per covector")
        theta = tuple(_parse_expr(c, params, "theta") for c in doc["theta"])
    jmat = None
    if "J" in doc:
        rows = doc["J"]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise SchemaError("lie_algebra: J must be a dim x dim matrix")
        jmat = tuple(tuple(_parse_expr(c, params, "J entry") for c in r) for r in rows)
    named = {}
    for name, spec in doc.get("named_forms", {}).items():
        _require_keys(spec, ["degree", "coeffs"], [], f"named form {name!r}")
        entries = {}
        for subset, expr in spec["coeffs"].items():
            idx = tuple(int(x) - 1 for x in str(subset).split(","))
            if len(set(idx)) != len(idx) or any(not 0 <= x < dim for x in idx) \
                    or list(idx) != sorted(idx) or len(idx) != spec["degree"]:
                raise SchemaError(f"named form {name!r}: bad index set {subset!r}")
            entries[idx] = _parse_expr(expr, params, f"named form {name!r}")
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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file {path} is not valid JSON: {exc}") from exc
    return load_model_dict(doc)
