import random
from fractions import Fraction

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.exact import IntPoly, count_roots, multiplicity, sturm_sequence
from novikov.exact.polynomials import (
    factor_squarefree_irreducible,
    is_irreducible,
    root_bound,
    sign_variations,
)


def test_eval_horner():
    p = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    assert p(2) == 5
    assert p(Fraction(1, 2)) == Fraction(-11, 8)
    assert p(0) == -1


def test_degree_and_leading():
    p = IntPoly((3, 0, 2))
    assert p.degree == 2
    assert p.leading() == 2
    assert p.constant() == 3
    assert IntPoly((0,)).is_zero()


def test_derivative():
    p = IntPoly((5, -1, 0, 4))
    assert p.derivative().coeffs == (-1, 0, 12)


def test_content_primitive():
    p = IntPoly((-6, 0, 9))
    assert p.content() == 3
    assert p.primitive().coeffs == (-2, 0, 3)
    # primitive() normalizes the leading sign to positive
    assert IntPoly((2, -4)).primitive().coeffs == (-1, 2)


def test_reversed():
    p = IntPoly((-1, -1, 0, 1))
    assert p.reversed().coeffs == (1, 0, -1, -1)


def test_irreducibility():
    assert is_irreducible(IntPoly((-1, -1, 0, 1)))
    assert is_irreducible(IntPoly((-2, 0, 1)))
    assert not is_irreducible(IntPoly((-1, 0, 1)))  # (x-1)(x+1)


def test_factor_squarefree_irreducible():
    p = IntPoly((-2, 4, -1, -2, 1))  # (x - 1)^2 (x^2 - 2)
    factors = factor_squarefree_irreducible(p)
    coeff_sets = sorted(f.coeffs for f, _ in factors)
    assert coeff_sets == [(-2, 0, 1), (-1, 1)]
    mult = {f.coeffs: m for f, m in factors}
    assert mult[(-1, 1)] == 2
    assert mult[(-2, 0, 1)] == 1


SMALL_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(IntPoly)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SMALL_POLYS, SMALL_POLYS, st.integers(0, 3), SMALL_POLYS)
def test_multiplicity_matches_sympy_factor_list(a, b, e, p):
    """multiplicity(p, a^e b) is the least floor(m_f(q) / m_p(q)) over the
    irreducible factors q of p, with multiplicities m from factor_list."""
    f = b
    for _ in range(e):
        f = f * a
    p = p.primitive()
    if f.is_zero() or p.degree < 1:
        return
    x = sp.Symbol("x")

    def mults(g):
        return {sp.Poly(q, x).monic(): m
                for q, m in sp.Poly(g.coeffs[::-1], x).factor_list()[1]}

    in_f = mults(f)
    want = min(in_f.get(q, 0) // m for q, m in mults(p).items())
    assert multiplicity(p, f) == want
    assert multiplicity(p, p * p * f) == want + 2


def test_sturm_known_counts():
    p = IntPoly((-2, 0, 1))  # x^2 - 2
    seq = sturm_sequence(p)
    assert count_roots(p, Fraction(0), Fraction(2), seq) == 1
    assert count_roots(p, Fraction(-2), Fraction(0), seq) == 1
    assert count_roots(p, Fraction(-2), Fraction(2), seq) == 2
    assert count_roots(p, Fraction(2), Fraction(10), seq) == 0


def test_sturm_open_closed_convention():
    # count over (lo, hi]: a root exactly at hi is counted, at lo it is not
    p = IntPoly((-1, 1))  # x - 1
    assert count_roots(p, Fraction(0), Fraction(1)) == 1
    assert count_roots(p, Fraction(1), Fraction(2)) == 0


def test_sign_variations():
    p = IntPoly((-2, 0, 1))
    seq = sturm_sequence(p)
    assert sign_variations(seq, Fraction(-2)) - sign_variations(seq, Fraction(2)) == 2


def test_root_bound_contains_roots():
    p = IntPoly((-100, 0, 1))  # roots +-10
    b = root_bound(p)
    assert b >= 10


def test_sturm_against_float_oracle():
    """Sturm counts on random degree <= 6 polynomials match numpy's roots."""
    import numpy as np

    rng = random.Random(20240817)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 8)]
        p = IntPoly(tuple(coeffs))
        roots = np.roots(list(reversed(coeffs)))
        real = [r.real for r in roots if abs(r.imag) < 1e-9]
        lo, hi = Fraction(-20), Fraction(20)
        # floats within 1e-9 of the window edge would make the oracle ambiguous
        if any(abs(abs(r) - 20) < 1e-6 for r in real):
            continue
        # Sturm counts distinct roots; deduplicate the float roots to match
        want = len({round(r, 7) for r in real if -20 < r <= 20})
        got = count_roots(p, lo, hi, sturm_sequence(p))
        assert got == want, f"poly {coeffs}: sturm {got}, oracle {want}"


# -- parity with the Euclidean Sturm chain over Q ------------------------------

def fraction_sturm_chain(p):
    """The chain p, p', -rem(p, p'), ... by Euclid over Fractions."""
    seq = [[Fraction(c) for c in p.coeffs], [Fraction(c) for c in p.derivative().coeffs]]
    while seq[-1]:
        num, den = list(seq[-2]), seq[-1]
        for i in range(len(num) - len(den), -1, -1):
            q = num[i + len(den) - 1] / den[-1]
            for j, d in enumerate(den):
                num[i + j] -= q * d
        while num and num[-1] == 0:
            num.pop()
        seq.append([-c for c in num])
    seq.pop()
    return seq


def horner_variations(seq, x):
    values = []
    for coeffs in seq:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        values.append(acc)
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def random_polys(rng, count):
    """Dense, sparse (chains with degree gaps, where the pseudo-remainder's
    scaling power is odd) and repeated-factor polynomials of degree 1..20,
    with integer roots among the factors."""
    out = []
    while len(out) < count:
        kind = rng.choice(("dense", "sparse", "repeated"))
        if kind == "dense":
            deg = rng.randint(1, 20)
            p = IntPoly([rng.randint(-9, 9) for _ in range(deg)]
                        + [rng.choice((-1, 1)) * rng.randint(1, 9)])
        elif kind == "sparse":
            deg = rng.randint(2, 20)
            coeffs = [rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(deg)]
            p = IntPoly(coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])
        else:
            p = IntPoly([rng.choice((-1, 1))])
            for _ in range(rng.randint(1, 3)):
                f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                            + [rng.choice((-2, -1, 1, 2))])
                for _ in range(rng.randint(1, 3)):
                    p = p * f
        if 1 <= p.degree <= 20:
            out.append(p)
    return out


def test_integer_sturm_chain_is_a_positive_multiple_of_the_fraction_chain():
    rng = random.Random(1967)
    for p in random_polys(rng, 200):
        ints, fracs = sturm_sequence(p), fraction_sturm_chain(p)
        assert len(ints) == len(fracs), p
        for a, b in zip(ints, fracs):
            assert a.degree == len(b) - 1
            ratios = {Fraction(x) / y for x, y in zip(a.coeffs, b) if y}
            assert [bool(x) for x in a.coeffs] == [bool(y) for y in b]
            assert len(ratios) == 1 and ratios.pop() > 0, (p, a, b)
            assert a.content() == 1


def test_sign_variations_match_the_fraction_chain_at_rational_points():
    rng = random.Random(1968)
    for p in random_polys(rng, 80):
        ints, fracs = sturm_sequence(p), fraction_sturm_chain(p)
        points = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(8)]
        points += [Fraction(rng.randint(-4, 4)) for _ in range(4)]  # hits roots
        for x in points:
            assert sign_variations(ints, x) == horner_variations(fracs, x), (p, x)
