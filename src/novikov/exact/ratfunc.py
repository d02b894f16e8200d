"""The coefficient field Q(params) of a model with named parameters.

Over Q(params) coefficients are elements (``FracElement``) of sympy's
``ZZ.frac_field(params)``: quotients of integer polynomials kept in lowest
terms, so zero-testing is decidable and elimination never divides by a zero
polynomial.  This is the field Q(params) itself, since every rational
coefficient clears to an integer one, and its gcds run over Z, several times
cheaper than those of ``QQ.frac_field``.  A model without parameters keeps
``Fraction`` coefficients, which mix with the Fractions that callers pass in;
its field is ``None``, so such a model never imports sympy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import lcm
from numbers import Rational


@lru_cache(maxsize=None)
def coefficient_field(params=()):
    """Q(params), as ZZ.frac_field, for a tuple of parameter names, or None
    for Q (Fractions) when it is empty."""
    if not params:
        return None
    import sympy as sp

    return sp.ZZ.frac_field(*(sp.Symbol(str(p)) for p in params))


def coefficient(field, x):
    """x (an int, Fraction, sympy expression or field element) as an element
    of field: a Fraction over Q (field None), a FracElement over Q(params).
    Raises ValueError when x is not in the field."""
    if isinstance(x, (int, Fraction)):
        if field is None:
            return x if type(x) is Fraction else Fraction(x)
        ring = field.field.ring  # numerator and denominator in lowest terms
        den = ring.one if x.denominator == 1 else ring.ground_new(x.denominator)
        return field.field.raw_new(ring.ground_new(x.numerator), den)
    if field is not None and getattr(x, "field", None) is field.field:
        return x  # an element of field already, as substitution's images are
    from sympy import QQ
    from sympy.polys.polyerrors import CoercionFailed

    try:
        if field is not None:
            return field.convert(x)
        q = QQ.convert(x)
    except CoercionFailed as exc:
        raise ValueError(f"{x} is not in the coefficient field") from exc
    return Fraction(int(q.numerator), int(q.denominator))


def rational_conditions(cov):
    """Rows whose common kernel over Q is the rational v with sum_i cov_i v_i = 0:
    cov itself over Q; over Q(params), one int row per monomial of the numerators
    over one common denominator, so the kernel holds at every parameter value."""
    if all(isinstance(c, Rational) for c in cov):
        return [list(cov)]
    terms = [(i, c) for i, c in enumerate(cov) if c]  # a zero may be the int 0
    den = reduce(lambda a, b: a if b == 1 else b if a == 1 else a.lcm(b),
                 (c.denom for _, c in terms), 1)
    rows = {}
    for i, c in terms:
        for monom, a in (c.numer * (den if c.denom == 1 else den.exquo(c.denom))).items():
            rows.setdefault(monom, [0] * len(cov))[i] = int(a)
    return list(rows.values())


def substitution(params, values):
    """The map from Q(params) to Q(the params not in values) that sets each
    parameter named in ``values`` to its value, an int or a Fraction (another
    value raises TypeError).  Numerator and denominator are evaluated one
    monomial at a time and scaled by one common denominator back into integer
    polynomials; the image is a Fraction when no parameter is left, and the
    map raises ZeroDivisionError where a denominator vanishes."""
    if not values:
        return lambda c: c
    if not all(isinstance(v, Rational) for v in values.values()):
        raise TypeError(f"values must be rational numbers, got {values}")
    fixed = [(i, Fraction(values[p])) for i, p in enumerate(params) if p in values]
    keep = [i for i, p in enumerate(params) if p not in values]
    field = coefficient_field(tuple(params[i] for i in keep))

    def image(poly):  # {kept monomial: Fraction or int}
        out = {}
        for monom, c in poly.items():
            c = int(c)  # a ground coefficient may be gmpy2's mpz
            for i, v in fixed:
                c = c * v ** monom[i] if monom[i] else c
            key = tuple(monom[i] for i in keep)
            out[key] = out[key] + c if key in out else c
        return out

    def value(c):
        numer, denom = image(c.numer), image(c.denom)
        if not keep:
            n, d = numer.get((), 0), denom.get((), 0)
            if not d:
                raise ZeroDivisionError("a denominator vanishes")
            return Fraction(n.numerator * d.denominator, n.denominator * d.numerator)
        scale = lcm(*(q.denominator for q in chain(numer.values(), denom.values())))
        ring = field.field.ring
        n, d = (ring.from_dict({m: q.numerator * (scale // q.denominator)
                                for m, q in p.items() if q})
                for p in (numer, denom))
        if not d:
            raise ZeroDivisionError("a denominator vanishes")
        return field.field.new(n, d)

    # most coefficients of J are 0, and the zero of each field is fixed
    zero = field.field.zero if keep else Fraction(0)
    return lambda c: value(c) if c else zero
