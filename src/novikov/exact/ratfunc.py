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
    if field != QQ:
        return field.convert(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    q = QQ.convert(x)
    return Fraction(int(q.numerator), int(q.denominator))
