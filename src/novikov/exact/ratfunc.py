"""The coefficient field Q(params) of a model with named parameters.

Over Q(params) coefficients are sympy's sparse rational functions
(``FracElement``), kept in lowest terms, so zero-testing is decidable and
elimination never divides by a zero polynomial.  A model without parameters
keeps ``Fraction`` coefficients, which mix with the Fractions that callers
pass in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import sympy as sp
from sympy import QQ


@lru_cache(maxsize=None)
def coefficient_field(params=()):
    """Q(params) for a tuple of parameter names, or QQ when it is empty."""
    if not params:
        return QQ
    return QQ.frac_field(*(sp.Symbol(str(p)) for p in params))


def coefficient(field, x):
    """x (an int, Fraction, sympy expression or field element) as an element
    of field: a Fraction over QQ, a FracElement over Q(params).  Raises
    sympy's CoercionFailed when x is not in the field."""
    if field is not QQ:
        return field.convert(x)
    if isinstance(x, (int, Fraction)):
        return x if type(x) is Fraction else Fraction(x)
    q = QQ.convert(x)
    return Fraction(int(q.numerator), int(q.denominator))


def substitution(params, values):
    """The map from Q(params) to Q(the params not in values) that sets each
    parameter named in ``values`` to its value, an int or a Fraction (another
    value raises TypeError).  Numerator and denominator are evaluated one
    monomial at a time; the image is a Fraction when no parameter is left,
    and the map raises ZeroDivisionError where a denominator vanishes."""
    if not values:
        return lambda c: c
    if not all(isinstance(v, Rational) for v in values.values()):
        raise TypeError(f"values must be rational numbers, got {values}")
    fixed = [(i, QQ(*Fraction(values[p]).as_integer_ratio()))
             for i, p in enumerate(params) if p in values]
    keep = [i for i, p in enumerate(params) if p not in values]
    field = coefficient_field(tuple(params[i] for i in keep))

    def image(poly):  # a polynomial in the kept parameters, or a rational
        out = {}
        for monom, c in poly.items():
            for i, v in fixed:
                c = c * v ** monom[i] if monom[i] else c
            key = tuple(monom[i] for i in keep)
            out[key] = out[key] + c if key in out else c
        return field.field.ring.from_dict(out) if keep else out.get((), 0)

    def value(c):
        numer, denom = image(c.numer), image(c.denom)
        if not denom:
            raise ZeroDivisionError("a denominator vanishes")
        if keep:
            return field.field.new(numer, denom)
        return Fraction(int(numer.numerator * denom.denominator),
                        int(numer.denominator * denom.numerator))

    # most coefficients of J are 0, and the zero of each field is fixed
    zero = field.field.zero if keep else Fraction(0)
    return lambda c: value(c) if c else zero
