"""Real algebraic numbers as (irreducible minimal polynomial, isolating interval).

Every decision (equality, sign, ordering) is made exactly by Sturm counts, root
bounds and sign tests on the dyadic grid of an isolating interval; floating point
appears only in ``to_float``, a convenience approximation, and in the estimate from
which ``refined`` starts its grid search, never as a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .polynomials import (
    IntPoly,
    count_roots,
    factor_squarefree_irreducible,
    is_irreducible,
    isolating_intervals,
    refine_root,
    root_bound,
    sign_at,
    sturm_sequence,
)


@dataclass(frozen=True)
class AlgebraicReal:
    minpoly: IntPoly
    interval: tuple  # open (lo, hi), Fractions
    _sturm: list = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.interval
        object.__setattr__(self, "interval", (Fraction(lo), Fraction(hi)))

    @staticmethod
    def from_rational(q) -> "AlgebraicReal":
        q = Fraction(q)
        p = IntPoly([-q.numerator, q.denominator]).primitive()
        return AlgebraicReal(p, (q - 1, q + 1))

    @staticmethod
    def from_poly(p: IntPoly, lo, hi) -> "AlgebraicReal":
        """Validated constructor: p must be irreducible and (lo, hi) isolate
        exactly one of its real roots; one Sturm chain of p decides both and is kept."""
        p = p.primitive()
        seq = sturm_sequence(p)
        if not is_irreducible(p, seq):
            raise ValueError(f"{p!r} is not irreducible over Q")
        lo, hi = Fraction(lo), Fraction(hi)
        if not all(sign_at(p, x.numerator, x.denominator) for x in (lo, hi)):
            raise ValueError("interval endpoints must not be roots")
        if count_roots(p, lo, hi, seq) != 1:
            raise ValueError("interval does not isolate exactly one root")
        return AlgebraicReal(p, (lo, hi), seq)

    def sturm(self):
        if self._sturm is None:
            object.__setattr__(self, "_sturm", sturm_sequence(self.minpoly))
        return self._sturm

    @property
    def degree(self):
        return self.minpoly.degree

    def is_rational(self):
        return self.degree == 1

    def as_rational(self) -> Fraction:
        a, b = self.minpoly.coeffs  # b*x + a
        return Fraction(-a, b)

    # -- interval refinement ----------------------------------------------

    def refined(self, width) -> "AlgebraicReal":
        """Return self with isolating interval narrower than `width`, the cell
        that halving the interval until it is that narrow reaches (``refine_root``)."""
        width = Fraction(width)
        if self.is_rational():
            q = self.as_rational()
            w = width / 4
            return AlgebraicReal(self.minpoly, (q - w, q + w), self._sturm)
        return AlgebraicReal(self.minpoly, refine_root(self.minpoly, *self.interval, width),
                             self._sturm)

    @cached_property
    def fine_interval(self):
        """The isolating interval refined below 2^-60, computed once."""
        return self.refined(Fraction(1, 2**60)).interval

    @cached_property
    def reciprocal_minpoly(self) -> IntPoly:
        """The minimal polynomial of 1/self, for self != 0, computed once."""
        return self.minpoly.reversed().primitive()

    def sign(self):
        if self.is_rational():
            a, b = self.minpoly.coeffs  # the root of b*x + a
            return (a < 0) - (a > 0) if b > 0 else (a > 0) - (a < 0)
        lo, hi = self.interval
        if lo < 0 < hi:
            # 0 is not a root of an irreducible minpoly of degree >= 2
            return -1 if count_roots(self.minpoly, lo, Fraction(0), self.sturm()) else 1
        return 1 if lo >= 0 else -1

    def to_float(self) -> float:
        """An approximation for display, from the kept fine interval; +-inf past
        the float range."""
        q = self.as_rational() if self.is_rational() else sum(self.fine_interval) / 2
        try:
            return float(q)
        except OverflowError:
            return math.inf if q > 0 else -math.inf

    # -- arithmetic-free exact predicates ----------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        return alg_eq(self, other)

    def __hash__(self):
        return hash(self.minpoly)

    def __lt__(self, other):
        return alg_cmp(self, other) < 0

    def __le__(self, other):
        return alg_cmp(self, other) <= 0

    def __repr__(self):
        if self.is_rational():
            return f"AlgebraicReal({self.as_rational()})"
        return f"AlgebraicReal({list(self.minpoly.coeffs)} in {self.interval})"


def isolate_real_roots(p: IntPoly):
    """All real roots of p as (AlgebraicReal, multiplicity), sorted by value;
    roots of different factors may have overlapping intervals."""
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    roots = [(r, mult) for factor, mult in factor_squarefree_irreducible(p)
             for r in _isolate_irreducible(factor)]
    roots.sort(key=cmp_to_key(lambda a, b: alg_cmp(a[0], b[0])))
    return roots


def _isolate_irreducible(p: IntPoly):
    if p.degree == 1:
        return [AlgebraicReal.from_rational(Fraction(-p.coeffs[0], p.coeffs[1]))]
    seq = sturm_sequence(p)
    # p has no rational roots, so neither end of an interval is one
    return [AlgebraicReal(p, interval, seq) for interval in isolating_intervals(p, seq)]


def alg_eq(a: AlgebraicReal, b: AlgebraicReal) -> bool:
    """Exact equality: same minimal polynomial and a common root in the
    intersection of the isolating intervals."""
    if a.minpoly != b.minpoly:
        return False
    if a.is_rational():
        return True  # degree-1 minpoly pins the value
    lo = max(a.interval[0], b.interval[0])
    hi = min(a.interval[1], b.interval[1])
    if lo >= hi:
        return False
    # each interval isolates one root; a root inside the overlap is both
    return count_roots(a.minpoly, lo, hi, a.sturm()) >= 1


def _apart(x, y):
    """-1 or 1 if the interval x lies left or right of the interval y, else 0."""
    return -1 if x[1] <= y[0] else int(y[1] <= x[0])


def alg_cmp(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """-1, 0 or 1 as a < b, a = b or a > b: by the isolating intervals, then by
    the kept fine intervals, then ``alg_eq``.  Two different numbers are then
    roots of one squarefree p of degree n >= 2 (a's minimal polynomial, or the
    product of both), at least Mahler's sqrt(3 |disc p|) n^-(n+2)/2 M(p)^-(n-1)
    apart ("An inequality for the discriminant of a polynomial", 1964), where
    |disc p| >= 1 and the Mahler measure M(p) is at most p's Euclidean norm, so
    intervals narrower than half that bound are apart."""
    order = _apart(a.interval, b.interval) or _apart(a.fine_interval, b.fine_interval)
    if order or alg_eq(a, b):
        return order
    p = a.minpoly if a.minpoly == b.minpoly else a.minpoly * b.minpoly
    n, norm = p.degree, math.isqrt(sum(c * c for c in p.coeffs)) + 1
    w = Fraction(1, 2 * n ** ((n + 3) // 2) * norm ** (n - 1))
    order = _apart(a.refined(w).interval, b.refined(w).interval)
    if not order:
        raise ArithmeticError("intervals below the root separation still overlap")
    return order


def alg_reciprocal(lam: AlgebraicReal) -> AlgebraicReal:
    """1/lam: reversed minimal polynomial, reciprocal isolating interval.  The
    roots of the reversed p lie in (-B, B) for B its root bound, so |lam| > 1/B:
    the interval is cut there on lam's side of 0 before it is inverted."""
    if lam.is_rational():
        q = lam.as_rational()
        if q == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return AlgebraicReal.from_rational(1 / q)
    p = lam.reciprocal_minpoly
    cut = 1 / root_bound(p)
    lo, hi = lam.interval
    if lam.sign() > 0:
        lo = max(lo, cut)
    else:
        hi = min(hi, -cut)
    return AlgebraicReal(p, (1 / hi, 1 / lo))


def alg_neg(lam: AlgebraicReal) -> AlgebraicReal:
    """-lam: the minimal polynomial at -x, the interval negated."""
    p = IntPoly([-c if i % 2 else c for i, c in enumerate(lam.minpoly.coeffs)]).primitive()
    return AlgebraicReal(p, (-lam.interval[1], -lam.interval[0]))


def alg_power(alpha: AlgebraicReal, k: int) -> AlgebraicReal:
    """alpha^k as an exact algebraic number."""
    from .matrices import char_poly, companion  # matrices imports this module

    if k == 0:
        return AlgebraicReal.from_rational(1)
    if k < 0:
        return alg_reciprocal(alg_power(alpha, -k))
    if k == 1:
        return alpha
    # alpha^k is an eigenvalue of C^k for the companion matrix C of the
    # minimal polynomial; isolate it against an interval power of alpha.
    mat = companion(alpha.minpoly)
    power = mat
    for _ in range(k - 1):
        power = power.matmul(mat)
    candidates = [r for r, _ in isolate_real_roots(char_poly(power))]
    width = Fraction(1, 16)
    while True:
        lo, hi = alpha.refined(width).interval
        if lo <= 0:
            lo = Fraction(0)
        plo, phi = lo ** k, hi ** k
        live = []
        for cand in candidates:
            cand = cand.refined(width)
            clo, chi = cand.interval
            if chi > plo and clo < phi:
                live.append(cand)
        if len(live) == 1:
            return live[0]
        if not live:
            raise ArithmeticError("no root of the power's polynomial matches alpha^k")
        candidates, width = live, width / 4
