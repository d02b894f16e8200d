"""Integer and rational polynomial arithmetic, Sturm sequences, root counting.

Polynomials are stored densely, lowest degree first.  ``IntPoly`` keeps
arbitrary-precision integer coefficients; Sturm chains are primitive integer
pseudo-remainder sequences, and every sign decision is an evaluation in
integers (``sign_at``, or a Newton step's ``_value_and_slope``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in _strip(coeffs)))

    @property
    def degree(self):
        # degree of the zero polynomial is reported as -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, x):
        acc = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        return math.gcd(*[abs(c) for c in self.coeffs]) if self.coeffs else 0

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading() < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def reversed(self):
        """Coefficient reversal x^n p(1/x); constant term must be nonzero."""
        return IntPoly(list(reversed(self.coeffs)))

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def factor_squarefree_irreducible(p: IntPoly):
    """Factor into irreducible primitive integer factors with multiplicities:
    a constant has none and a linear p is its own; what is left of degree 2 or
    3 once its rational roots are divided out has none, so it is irreducible;
    from degree 4 on, by sympy's factorisation over Z of the coefficient list."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree <= 1:
        return [(p.primitive(), 1)] if p.degree == 1 else []
    if p.degree <= 3:  # by its rational roots, each divided out with its multiplicity
        p, out = p.primitive(), []
        seq, lc = sturm_sequence(p), p.leading()
        if (g := seq[-1]).degree > 0:  # the root of gcd(p, p') leaves degree <= 1
            linear = [IntPoly([g.coeffs[-2], g.degree * g.coeffs[-1]])]
        else:  # m/lc for an integer m, one at most in a cell narrower than 1/lc
            linear = []
            for lo, hi in isolating_intervals(p, seq):
                if sign_at(p, hi.numerator, hi.denominator):
                    lo, hi = refine_root(p, lo, hi, Fraction(1, lc))
                if (m := math.floor(hi * lc)) > lo * lc and not sign_at(p, m, lc):
                    linear.append(IntPoly([-m, lc]))
        for f in map(IntPoly.primitive, linear):
            m, p = divide_out(f, p)
            out.append((f, m))
        return out + [(p.primitive(), 1)] * (p.degree > 0)
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list([ZZ(c) for c in reversed(p.coeffs)], ZZ)
    return [(IntPoly([int(c) for c in reversed(f)]).primitive(), int(m)) for f, m in factors]


def is_irreducible(p: IntPoly, seq=None):
    """Irreducibility over Q: a quadratic's discriminant is not a square; from
    degree 3 on, p is squarefree (its Sturm chain ``seq``) and one factor: a
    cubic has no rational root, a higher p one factor by Zassenhaus."""
    if p.degree <= 1:
        return p.degree == 1
    if p.degree == 2:
        c, b, a = p.coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if (seq or sturm_sequence(p))[-1].degree > 0:
        return False
    if p.degree == 3:
        return len(factor_squarefree_irreducible(p)) == 1
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_zassenhaus
    return len(dup_zz_zassenhaus([ZZ(c) for c in reversed(p.primitive().coeffs)], ZZ)) == 1


def divide_out(p: IntPoly, f: IntPoly):
    """(m, f / p^m) for the largest m with p^m | f, f nonzero and p primitive
    of degree >= 1, by exact division in integers: by Gauss's lemma any
    quotient by p is integral."""
    m, q, np_ = 0, list(f.coeffs), len(p.coeffs)
    while len(q) >= np_:
        r, quotient = q[:], []
        for i in range(len(r) - np_, -1, -1):
            c = r[i + np_ - 1] // p.leading()  # if inexact, r keeps a remainder
            for j, b in enumerate(p.coeffs):
                r[i + j] -= c * b
            quotient.append(c)
        if any(r):
            break
        m, q = m + 1, quotient[::-1]
    return m, IntPoly(q)


def multiplicity(p: IntPoly, f: IntPoly) -> int:
    """The largest m with p^m | f (``divide_out``)."""
    return divide_out(p, f)[0]


def _newton(sums):
    """[1, c_1, ..., c_N] of the monic x^N + c_1 x^(N-1) + ... whose roots
    have the power sums [p_1, ..., p_N], by Newton's identities."""
    c = [1]
    for m in range(1, len(sums) + 1):
        c.append(-sum(c[i] * sums[m - i - 1] for i in range(m)) // m)
    return c


def mirror(chi: IntPoly, d: int) -> IntPoly:
    """x^N chi(d/x) / chi(0), N = deg chi, by exact division: det(x - d A^-1)
    for chi = det(x - A), so chi_(n-k) for chi_k of a torus of det d."""
    c0, top = chi.constant(), chi.degree
    return IntPoly([c * d ** (top - j) // c0 for j, c in enumerate(reversed(chi.coeffs))])


def exterior_char_polys(chi: IntPoly):
    """det(x - Lambda^k M), k = 0..n, from chi = det(x - M), monic: the j-th
    power sum of Lambda^k M is e_k(mu_1^j, ..., mu_n^j), by ``_newton`` from M's
    p_j, p_2j, ..., p_kj (Macdonald, Symmetric Functions..., ch. I); for k <= n/2
    only if d = det M != 0, and then chi_(n-k) is ``mirror(chi_k, d)``."""
    n, c = chi.degree, chi.coeffs[::-1]
    d = (-1) ** n * chi.constant()
    half = n // 2 if d else n
    p = [n]  # p[m] is the m-th power sum of M's eigenvalues
    for m in range(1, max(k * math.comb(n, k) for k in range(half + 1)) + 1):
        p.append((-m * c[m] if m <= n else 0)
                 - sum(c[i] * p[m - i] for i in range(1, min(m, n + 1))))
    low = [IntPoly(_newton([(-1) ** k * _newton(p[j::j][:k])[k]
                            for j in range(1, math.comb(n, k) + 1)])[::-1])
           for k in range(half + 1)]
    return low + [mirror(low[n - k], d) for k in range(half + 1, n + 1)]


# -- Sturm sequences in integers ---------------------------------------------

def sign_at(p: IntPoly, n, d):
    """Sign of p(n/d) for d > 0, 0 at a root: that of sum_i c_i n^i d^(deg - i)."""
    acc, dpow = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _content_free(p: IntPoly):
    """p divided by its positive content; unlike ``primitive`` it keeps signs."""
    g = p.content()
    return IntPoly([c // g for c in p.coeffs]) if g > 1 else p


def _sturm_remainder(a: IntPoly, b: IntPoly):
    """-|lc(b)|^(deg a - deg b + 1) (a mod b), content-free: a positive multiple
    of the negated remainder over Q, by pseudo-division in integers."""
    lead, nb = b.leading(), len(b.coeffs)
    r = [c * abs(lead) ** (a.degree - b.degree + 1) for c in a.coeffs]
    for i in range(a.degree - b.degree, -1, -1):
        q = r[i + nb - 1] // lead  # exact: the scaling left a factor lc(b) in it
        if q:
            for j, c in enumerate(b.coeffs):
                r[i + j] -= q * c
    return _content_free(IntPoly([-c for c in r[:nb - 1]]))


def sturm_sequence(p: IntPoly):
    """Sturm chain of p as content-free IntPolys (Collins' primitive
    pseudo-remainder sequence), each a positive multiple of the Euclidean
    chain p, p', -rem(p, p'), ... over Q (p need not be squarefree; the chain
    is built from p and p', which suffices for squarefree input)."""
    seq = [_content_free(p), _content_free(p.derivative())]
    while not seq[-1].is_zero():
        seq.append(_sturm_remainder(seq[-2], seq[-1]))
    seq.pop()
    return seq


def sign_variations(seq, x):
    """Sign changes of the chain at the rational x, zeros skipped."""
    signs = [s for s in (sign_at(q, x.numerator, x.denominator) for q in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: IntPoly, lo: Fraction, hi: Fraction, seq=None):
    """Number of distinct real roots of squarefree p in the half-open (lo, hi]."""
    if seq is None:
        seq = sturm_sequence(p)
    return sign_variations(seq, lo) - sign_variations(seq, hi)


def isolating_intervals(p: IntPoly, seq):
    """Intervals (lo, hi], each holding one real root of the squarefree p (its
    Sturm chain seq): halves of (-B, B], B the root bound, bisected as long as
    they hold more; one Sturm count per bisection, on the left half."""
    bound = root_bound(p)
    out, stack = [], [(-bound, bound, count_roots(p, -bound, bound, seq))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            left = count_roots(p, lo, mid, seq)
            stack += [(lo, mid, left), (mid, hi, n - left)]
    return out


def refine_root(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple:
    """The cell narrower than `width` that holds p's one root in (lo, hi], p
    not 0 at hi, of the grid that halving (lo, hi) until it is that narrow
    makes.  Newton steps on the grid, from the ``_float_root`` estimate or the
    middle, are exact evaluations of p and p' whose signs narrow a bracket of
    grid points; a step that leaves the bracket or does not halve the one
    before bisects it instead.  Near the root a step lands on the cell, and
    its right neighbour confirms it."""
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    step = hi.numerator * (den // hi.denominator) - a
    # k halvings leave cells of width step / (den 2^k), the first below width
    k = (step * width.denominator // (width.numerator * den)).bit_length()
    a, den, cells = a << k, den << k, 1 << k
    end_sign, below, above = sign_at(p, a + cells * step, den), 0, cells
    j, moved = cells // 2, cells
    if (estimate := _float_root(p, a, a + cells * step, den, -end_sign, width)) is not None:
        n, d = estimate.as_integer_ratio()
        j = (n * den - a * d) // (step * d)
    while above - below > 1:
        j = min(max(j, below + 1), above - 1)
        value, slope = _value_and_slope(p, a + j * step, den)
        if value and (value > 0) != (end_sign > 0):
            below = j
        else:
            above = j
        new = j + -value // (step * slope) if slope else above + 1
        if not below <= new <= above or 2 * abs(new - j) > moved:
            new = (below + above) // 2
        moved, j = abs(new - j), new
    return Fraction(a + below * step, den), Fraction(a + (below + 1) * step, den)


def _float_root(p: IntPoly, a, b, den, left, width):
    """A float estimate of p's one root in (a/den, b/den), p of sign left
    left of it, to within width/4 or 48 bits, or None past the float range:
    Newton steps inside a bracket of the root that each step's sign narrows,
    bisected where a step leaves it."""
    try:
        coeffs, a, b = [float(c) for c in reversed(p.coeffs)], a / den, b / den
        tol = float(width) / 4
    except OverflowError:
        return None
    x = (a + b) / 2
    for _ in range(100):
        fx = dfx = 0.0
        for c in coeffs:
            dfx, fx = dfx * x + fx, fx * x + c
        a, b = (x, b) if (fx > 0) == (left > 0) else (a, x)
        step = x - fx / dfx if dfx else a
        if abs(step - x) <= max(tol, abs(x) * 2 ** -48):
            return step
        x = step if a < step < b else (a + b) / 2
    return x


def _value_and_slope(p: IntPoly, n, d):
    """d^deg p(n/d) and d^(deg-1) p'(n/d), for d > 0, in integers."""
    value = slope = 0
    dpow = 1
    for c in reversed(p.coeffs):
        slope, value, dpow = slope * n + value, value * n + c * dpow, dpow * d
    return value, slope


def root_bound(p: IntPoly):
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.leading())
    return Fraction(1) + max(Fraction(abs(c), lead) for c in p.coeffs)
