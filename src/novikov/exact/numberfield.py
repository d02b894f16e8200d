"""Q(lambda) for a fixed real algebraic generator, as sympy's dense algebraic
number polynomials: residues modulo the generator's minimal polynomial over
QQ.  The elements are sympy ``ANP``s, with +, -, *, / and truthiness of their
own; division by zero raises sympy's ``NotInvertible``.  Only one ambient
generator is ever in play; mixed fields are unsupported by design.
"""

from __future__ import annotations

from .algebraic import AlgebraicReal


class NumberField:
    def __init__(self, generator: AlgebraicReal):
        from sympy import QQ
        from sympy.polys.polyclasses import ANP

        self.generator = generator
        self.degree = generator.minpoly.degree
        self._mod = [QQ(c) for c in reversed(generator.minpoly.coeffs)]
        self._qq, self._anp = QQ, ANP

    def scalar(self, q):
        return self._anp(self._qq(q), self._mod, self._qq)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def gen(self):
        if self.degree == 1:
            return self.scalar(self.generator.as_rational())
        qq = self._qq
        return self._anp([qq(1), qq(0)], self._mod, qq)
