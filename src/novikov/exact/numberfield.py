"""Arithmetic in Q(lambda) for a fixed real algebraic generator.

Elements are residues modulo the generator's minimal polynomial, stored as
Fraction vectors of length deg(minpoly).  Only one ambient generator is ever
in play; mixed fields are unsupported by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.polyclasses import DMP

from .algebraic import AlgebraicReal


class NumberField:
    def __init__(self, generator: AlgebraicReal):
        self.generator = generator
        self.degree = generator.minpoly.degree
        # monic minpoly over Q for reduction
        lead = Fraction(generator.minpoly.leading())
        self._monic = [Fraction(c) / lead for c in generator.minpoly.coeffs]
        self._minpoly = _dense(generator.minpoly.coeffs)

    def zero(self):
        return NFElem(self, (Fraction(0),) * self.degree)

    def one(self):
        return self.scalar(1)

    def scalar(self, q):
        rep = [Fraction(0)] * self.degree
        rep[0] = Fraction(q)
        return NFElem(self, tuple(rep))

    def gen(self):
        if self.degree == 1:
            return self.scalar(self.generator.as_rational())
        rep = [Fraction(0)] * self.degree
        rep[1] = Fraction(1)
        return NFElem(self, tuple(rep))

    def reduce(self, coeffs):
        """Reduce a Fraction coefficient list modulo the monic minpoly."""
        coeffs = list(coeffs)
        n = self.degree
        for i in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(n):
                    coeffs[i - n + j] -= c * self._monic[j]
            coeffs.pop()
        coeffs += [Fraction(0)] * (n - len(coeffs))
        return NFElem(self, tuple(coeffs))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.generator.minpoly == other.generator.minpoly

    def __hash__(self):
        return hash(self.generator.minpoly)


@dataclass(frozen=True)
class NFElem:
    field: NumberField
    rep: tuple

    def is_zero(self):
        return all(c == 0 for c in self.rep)

    def __bool__(self):  # false exactly at zero, like the other scalar types
        return not self.is_zero()

    def __add__(self, other):
        return NFElem(self.field, tuple(a + b for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other):
        return NFElem(self.field, tuple(a - b for a, b in zip(self.rep, other.rep)))

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.rep))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElem(self.field, tuple(Fraction(other) * a for a in self.rep))
        out = [Fraction(0)] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.rep):
            if a:
                for j, b in enumerate(other.rep):
                    out[i + j] += a * b
        return self.field.reduce(out)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse modulo the minimal polynomial, by sympy's dense
        polynomials over QQ."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.field.degree == 1:
            return NFElem(self.field, (1 / self.rep[0],))
        inv = _dense(self.rep).invert(self.field._minpoly)
        return self.field.reduce([Fraction(c.numerator, c.denominator)
                                  for c in reversed(inv.to_list())])

    def __truediv__(self, other):
        return self * other.inverse()

    def to_float(self):
        g = self.field.generator.to_float()
        acc = 0.0
        for c in reversed(self.rep):
            acc = acc * g + float(c)
        return acc

    def __repr__(self):
        return f"NFElem{list(self.rep)}"


def _dense(coeffs):
    """A rational coefficient list, lowest degree first, as sympy's dense
    univariate polynomial over QQ."""
    return DMP.from_list([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], 0, QQ)
