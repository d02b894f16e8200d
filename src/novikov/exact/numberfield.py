"""Q(lambda) for a fixed real algebraic generator, as sympy's dense algebraic
number polynomials: residues modulo the generator's minimal polynomial over
QQ.  The elements are sympy ``ANP``s, with +, -, *, / and truthiness of their
own; division by zero raises sympy's ``NotInvertible``.  Only one ambient
generator is ever in play; mixed fields are unsupported by design.
"""

from __future__ import annotations

from sympy import QQ
from sympy.polys.polyclasses import ANP

from .algebraic import AlgebraicReal


class NumberField:
    def __init__(self, generator: AlgebraicReal):
        self.generator = generator
        self.degree = generator.minpoly.degree
        self._mod = [QQ(c) for c in reversed(generator.minpoly.coeffs)]

    def scalar(self, q):
        return ANP(QQ(q), self._mod, QQ)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def gen(self):
        if self.degree == 1:
            return self.scalar(self.generator.as_rational())
        return ANP([QQ(1), QQ(0)], self._mod, QQ)
