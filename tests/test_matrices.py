import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, lcm

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.exact import (
    AlgebraicReal,
    IntPoly,
    Matrix,
    NumberField,
    char_poly,
    coefficient,
    coefficient_field,
    exterior_char_polys,
    exterior_powers,
    nullspace,
    poly_at_matrix,
    rank,
)
from novikov.exact.matrices import _echelon


def rand_matrix(rng, n, lo=-4, hi=4):
    return Matrix.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def test_matmul_and_transpose():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a.matmul(b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]


def test_exterior_power_shapes():
    rng = random.Random(1)
    m = rand_matrix(rng, 4)
    for top in range(5):
        powers = exterior_powers(m, top)
        assert [(ek.rows, ek.cols) for ek in powers] == \
            [(comb(4, k), comb(4, k)) for k in range(top + 1)]
    assert exterior_powers(m, 0)[0].entries == [Fraction(1)]
    for top in (-1, 5):
        with pytest.raises(ValueError, match="out of range 0..4"):
            exterior_powers(m, top)
    with pytest.raises(ValueError, match="square"):
        exterior_powers(Matrix(1, 2, [1, 2]), 1)
    # Lambda^0 is [1], in the entries' own type over Z, Q, Q(lambda) and Q(params)
    nf = NumberField(AlgebraicReal.from_poly(IntPoly((-2, 0, 1)), Fraction(1), Fraction(2)))
    field = coefficient_field(("a",))
    a = coefficient(field, sp.Symbol("a"))
    for entry, one in ((3, 1), (Fraction(1, 2), Fraction(1)), (nf.gen(), nf.one()),
                       (a, coefficient(field, 1))):
        (got,) = exterior_powers(Matrix(1, 1, [entry]), 0)[0].entries
        assert type(got) is type(one) and got == one, entry
    assert [e.entries for e in exterior_powers(Matrix(0, 0, []), 0)] == [[1]]


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_exterior_power(m, k):
    """Oracle: every k-minor by the Leibniz sum over permutations."""
    subsets = list(combinations(range(m.rows), k))
    entries = []
    for rows in subsets:
        for cols in subsets:
            acc = 0
            for perm in permutations(range(k)):
                term = _perm_sign(perm)
                for i in range(k):
                    term = term * m[rows[i], cols[perm[i]]]
                acc = acc + term
            entries.append(acc)
    return Matrix(len(subsets), len(subsets), entries)


def test_exterior_power_matches_leibniz_oracle():
    rng = random.Random(23)
    for trial in range(40):
        n = 1 + trial % 6
        if trial % 2:
            m = Matrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
        else:
            m = Matrix(n, n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(n * n)])
        powers = exterior_powers(m, n)
        assert len(powers) == n + 1
        for k, got in enumerate(powers):
            want = leibniz_exterior_power(m, k)
            assert (got.rows, got.cols, got.entries) == \
                (want.rows, want.cols, want.entries), (n, k)
            assert {type(x) for x in got.entries} == {type(m.entries[0])}


def test_exterior_functoriality():
    """Lambda^k(AB) = Lambda^k(A) Lambda^k(B) on random integer matrices."""
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(2, 4)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        triples = zip(exterior_powers(a.matmul(b), n), exterior_powers(a, n),
                      exterior_powers(b, n))
        for k, (lhs, ea, eb) in enumerate(triples):
            assert lhs == ea.matmul(eb), (n, k)


def _companion_rows(low):
    """Companion rows of the monic polynomial with low coefficients `low`."""
    d = len(low)
    return [[int(r == c + 1) if c < d - 1 else -low[r] for c in range(d)] for r in range(d)]


HYPERBOLIC_JORDAN = [[2, 1, 1, 0], [1, 1, 0, 1], [0, 0, 2, 1], [0, 0, 1, 1]]
# diagonal blocks of determinant +-1: companions with constant term +-1,
# Jordan blocks at +-1 and a hyperbolic Jordan block; or any integer block
MONODROMY_BLOCKS = st.one_of(
    st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-3, 3), max_size=3))
    .map(lambda t: _companion_rows([t[0]] + t[1])),
    st.tuples(st.sampled_from((1, -1)), st.integers(2, 3))
    .map(lambda t: [[t[0] * (r == c) + (c == r + 1) for c in range(t[1])]
                    for r in range(t[1])]),
    st.just(HYPERBOLIC_JORDAN),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def integer_monodromies(draw):
    """A block-diagonal integer matrix of dim <= 6, a block maybe repeated,
    conjugated by elementary matrices I + c e_i e_j^T."""
    blocks = draw(st.lists(MONODROMY_BLOCKS, min_size=1, max_size=3))
    if draw(st.booleans()):
        blocks.append(blocks[0])
    rows, n = [], 0
    for b in blocks:
        if n + len(b) > 6:
            break
        rows = [r + [0] * len(b) for r in rows] + [[0] * n + r for r in b]
        n += len(b)
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from((1, -1))), max_size=6)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(integer_monodromies())
def test_exterior_char_polys_match_char_poly_of_each_exterior_power(rows):
    m = Matrix.from_rows(rows)
    assert exterior_char_polys(char_poly(m)) == \
        [char_poly(e) for e in exterior_powers(m, m.rows)]


def test_top_exterior_power_is_determinant():
    rng = random.Random(5)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        det = exterior_powers(m, 3)[3].entries[0]
        assert char_poly(m)(0) * (-1) ** 3 == det


def cyclic_square(a):
    """Lambda^2(A) of a 3x3 matrix in the cyclic basis (e2^e3, e3^e1, e1^e2),
    which is (lex 2, -lex 1, lex 0) in the lexicographic basis
    (e1^e2, e1^e3, e2^e3) of exterior_powers."""
    lex = exterior_powers(a, 2)[2]
    perm = [(2, 1), (1, -1), (0, 1)]
    return Matrix(3, 3, [si * sj * lex[i, j] for i, si in perm for j, sj in perm])


def test_exterior_square_cyclic_cofactor_identity():
    """In the cyclic basis, Lambda^2(A) of a 3x3 matrix is the transposed
    cofactor action: Lambda^2(A) = det(A) * (A^{-1})^T when A is invertible."""
    rng = random.Random(8)
    done = 0
    while done < 10:
        a = rand_matrix(rng, 3)
        det = -char_poly(a)(0)
        if det == 0:
            continue
        done += 1
        sq = cyclic_square(a)
        # check against the adjugate transpose: adj(A) A = det(A) I, so
        # det(A) (A^{-1})^T = adj(A)^T
        prod = sq.matmul(a.transpose())
        for i in range(3):
            for j in range(3):
                want = det if i == j else 0
                assert prod[i, j] == want


def test_char_poly_known():
    m = Matrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert char_poly(m).primitive().coeffs == (-1, -1, 0, 1)  # x^3 - x - 1
    ident = Matrix.from_rows([[1, 0], [0, 1]])
    assert char_poly(ident).primitive().coeffs == (1, -2, 1)  # (x-1)^2


def test_char_poly_matches_sympy_on_random_rational_matrices():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(n)]
                for _ in range(n)]
        want = [Fraction(int(c.p), int(c.q)) for c in sp.Matrix(rows).charpoly().all_coeffs()]
        got = char_poly(Matrix.from_rows(rows))
        assert [Fraction(c, got.leading()) for c in reversed(got.coeffs)] == want


def test_char_poly_clears_denominators():
    m = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    p = char_poly(m)
    assert all(isinstance(c, int) for c in p.coeffs)
    assert p(Fraction(1, 2)) == 0 and p(Fraction(1, 3)) == 0


def test_poly_at_matrix_is_a_scaled_horner_evaluation():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(n)]
                for _ in range(n)]
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)])
        d = lcm(*(x.denominator for r in rows for x in r))
        m = sp.Matrix(rows)
        want = d ** p.degree * sum((c * m ** j for j, c in enumerate(p.coeffs)), sp.zeros(n, n))
        got = poly_at_matrix(p, Matrix.from_rows(rows))
        assert all(type(x) is int for x in got.entries)
        assert got.to_rows() == want.tolist()


def test_rank_fraction():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    m = Matrix(3, 3, [Fraction(x) for x in m.entries])
    assert rank(m) == 2


def test_rank_of_int_entries_is_exact():
    # float division would round the determinant -1 away
    big = 10 ** 17
    m = Matrix.from_rows([[big + 1, big], [big, big - 1]])
    assert rank(m) == 2
    assert nullspace(m) == []
    assert len(nullspace(Matrix.from_rows([[big, big + 1], [2 * big, 2 * big + 2]]))) == 1


def test_rf_rank_with_parameters():
    r = coefficient(coefficient_field(("r",)), sp.Symbol("r"))
    zero, one = 0, 1
    # rows (1, r) and (r, r^2) are proportional over Q(r)
    m = Matrix(2, 2, [one, r, r, r * r])
    assert rank(m) == 1
    m2 = Matrix(2, 2, [one, r, zero, one])
    assert rank(m2) == 2


def test_nullspace_known():
    one, zero = 1, 0
    # x + y = 0 in Q^3: kernel is 2-dimensional
    m = Matrix(1, 3, [one, one, zero])
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] == 0


def test_nullspace_of_full_rank_is_empty():
    one, zero = 1, 0
    m = Matrix(2, 2, [one, zero, zero, one])
    assert nullspace(m) == []


def test_nullspace_membership_random():
    rng = random.Random(3)
    for _ in range(10):
        rows, cols = rng.randint(1, 3), rng.randint(2, 4)
        m = Matrix(rows, cols,
                   [rng.randint(-3, 3) for _ in range(rows * cols)])
        basis = nullspace(m)
        assert len(basis) == cols - rank(m)
        for vec in basis:
            for r in range(rows):
                acc = 0
                for c in range(cols):
                    acc = acc + m[r, c] * vec[c]
                assert acc == 0


# -- parity with the reduced-row-echelon nullspace ---------------------------

def rref_nullspace(m):
    """Kernel basis read off the reduced row echelon form: per free column f,
    the vector with 1 at f, 0 at the other free columns and -R[r][f] at the
    pivot column of row r."""
    rows = [[Fraction(x) if type(x) is int else x for x in r] for r in m.to_rows()]
    pivots = []
    for col in range(m.cols):
        rk = len(pivots)
        if rk == m.rows:
            break
        pivot = next((r for r in range(rk, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        piv = rows[rk][col]
        rows[rk] = [a / piv for a in rows[rk]]
        for r in range(m.rows):
            x = rows[r][col]
            if r != rk and x:
                rows[r] = [a - x * b for a, b in zip(rows[r], rows[rk])]
        pivots.append(col)
    x = rows[0][0] if m.rows and m.cols else Fraction(0)
    one = x - x + 1
    zero = one - one
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [zero] * m.cols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def rank_deficient(rng, rows, cols, draw):
    """A rows x cols matrix whose last rows are combinations of the first."""
    indep = rng.randint(1, rows)
    body = [[draw() for _ in range(cols)] for _ in range(indep)]
    for _ in range(rows - indep):
        coefs = [draw() for _ in range(indep)]
        row = [coefs[0] * x for x in body[0]]
        for c, other in zip(coefs[1:], body[1:]):
            row = [a + c * b for a, b in zip(row, other)]
        body.append(row)
    rng.shuffle(body)
    return Matrix.from_rows(body)


def assert_nullspace_parity(rng, count, max_rows, max_cols, draw, zero, kind):
    """nullspace and rank against the rref oracle on rank-deficient matrices,
    on each with zero rows put first, in between and last, and on the
    all-zero matrix of its shape: the zero rows change no pivot, and every
    nullspace entry is of type kind, the field's."""
    for _ in range(count):
        m = rank_deficient(rng, rng.randint(1, max_rows), rng.randint(1, max_cols), draw)
        rows, blank = m.to_rows(), [zero] * m.cols
        padded = Matrix.from_rows([blank] + rows[:m.rows // 2] + [blank]
                                  + rows[m.rows // 2:] + [blank])
        zeros = Matrix(m.rows, m.cols, [zero] * (m.rows * m.cols))
        for x in (m, padded, zeros):
            got = nullspace(x)
            assert got == rref_nullspace(x)
            assert len(got) == x.cols - rank(x)
            assert all(type(c) is kind for vec in got for c in vec)
        assert _echelon(padded)[1] == _echelon(m)[1]
        assert nullspace(padded) == nullspace(m)
        assert rank(zeros) == 0 and len(nullspace(zeros)) == m.cols


def test_nullspace_matches_rref_over_q():
    rng = random.Random(11)
    # sparse draws make zero pivots, row swaps and free columns between pivots
    assert_nullspace_parity(rng, 300, 6, 7, lambda: Fraction(
        rng.choice((0, 0, 0, rng.randint(-5, 5))), rng.randint(1, 4)), 0, Fraction)


def test_nullspace_matches_rref_over_a_number_field():
    gen = AlgebraicReal.from_poly(IntPoly((-1, -1, 0, 1)), Fraction(1), Fraction(2))
    nf = NumberField(gen)
    x = nf.gen()
    rng = random.Random(12)

    def draw():
        if rng.random() < 0.4:
            return nf.zero()
        return nf.scalar(rng.randint(-3, 3)) + nf.scalar(rng.randint(-3, 3)) * x + \
            nf.scalar(Fraction(rng.randint(-3, 3), 2)) * x * x

    assert_nullspace_parity(rng, 60, 4, 5, draw, nf.zero(), type(nf.zero()))


def test_nullspace_matches_rref_over_q_params():
    field = coefficient_field(("a", "b"))
    a, b = (coefficient(field, sp.Symbol(n)) for n in "ab")
    monomials = [coefficient(field, 1), a, b, a * b, a * a]
    rng = random.Random(13)

    def draw():
        if rng.random() < 0.4:
            return coefficient(field, 0)
        return sum((rng.randint(-2, 2) * mono for mono in rng.sample(monomials, 2)),
                   coefficient(field, 0))

    assert_nullspace_parity(rng, 40, 4, 5, draw, coefficient(field, 0), type(a))
    # every entry is in Q(a, b), the unit and the zero entries too
    m = Matrix(1, 3, [a, b, coefficient(field, 0)])
    assert {type(x) for vec in nullspace(m) for x in vec} == {type(a)}


# -- fraction-free elimination over Q against the Fraction elimination --------

def fraction_echelon(m):
    """Oracle: Gaussian elimination over Q in Fractions (ints taken as
    Fractions), the forward elimination ``rank`` and ``nullspace`` ran on
    rational matrices before it became fraction-free, on the nonzero rows of
    m, as ``_echelon`` takes them."""
    rows = [[Fraction(x) for x in r] for r in m.to_rows() if any(r)]
    pivots = []
    for col in range(m.cols):
        rk = len(pivots)
        if rk == len(rows):
            break
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        piv = rows[rk][col]
        for r in range(rk + 1, len(rows)):
            x = rows[r][col]
            if x:
                factor = x / piv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rk])]
        pivots.append(col)
    return rows, pivots


def is_nonzero_multiple(row, of):
    """row = c * of for some rational c != 0 (both zero counts)."""
    lead = next((j for j, x in enumerate(of) if x), None)
    if lead is None:
        return not any(row)
    return row[lead] != 0 and all(a * of[lead] == b * row[lead] for a, b in zip(row, of))


@st.composite
def rational_matrices(draw):
    """int or Fraction matrices of 0-12 rows and columns, entries up to 10^30:
    dense, sparse, rank-deficient products, and with zero rows and columns."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    bound = draw(st.sampled_from((3, 10 ** 6, 10 ** 30)))
    ints = st.integers(-bound, bound)
    if draw(st.booleans()):
        entry = ints
    else:
        entry = st.builds(Fraction, ints, st.integers(1, bound))
    if draw(st.booleans()):  # sparse: zero pivots, row swaps, free columns
        entry = st.one_of(st.just(0), st.just(0), entry)
    shape = draw(st.sampled_from(("dense", "product", "zero lines")))
    if shape == "product" and rows and cols:
        inner = draw(st.integers(1, min(rows, cols)))
        a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                          min_size=rows, max_size=rows))
        b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
        body = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
    else:
        body = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    if shape == "zero lines":
        zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
        zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
        body = [[0 if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
                for r, row in enumerate(body)]
    return Matrix(rows, cols, [x for row in body for x in row])


def bareiss_rows(m):
    """Bareiss's rows, a bound on the size of the fraction-free rows: scale
    each row of m by the lcm of its denominators; by Sylvester's identity,
    row k of Bareiss elimination is the product of the first k pivots of
    ``fraction_echelon`` on the scaled matrix times its row k."""
    scaled = [[x * lcm(*(y.denominator for y in row)) for x in row] for row in m.to_rows()]
    rows, pivots = fraction_echelon(Matrix(m.rows, m.cols, [x for r in scaled for x in r]))
    out, factor = [], 1
    for k, row in enumerate(rows):
        out.append([factor * x for x in row])
        if k < len(pivots):
            factor *= row[pivots[k]]
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_fraction_free_elimination_matches_the_fraction_oracle(m):
    rows, pivots = _echelon(m)
    want_rows, want_pivots = fraction_echelon(m)
    assert pivots == want_pivots
    assert all(type(x) is int for row in rows for x in row)
    # a wrong update keeps most ranks but not the rows
    assert all(is_nonzero_multiple(a, b) for a, b in zip(rows, want_rows))
    # rows are primitive, so no entry outgrows Bareiss's row
    assert all(gcd(*row) in (0, 1) for row in rows)
    for row, bound in zip(rows, bareiss_rows(m)):
        assert max(map(abs, row), default=0) <= max(map(abs, bound), default=0)
    assert rank(m) == len(want_pivots)
    got = nullspace(m)
    assert got == rref_nullspace(m)
    assert all(type(x) is Fraction for vec in got for x in vec)


def test_rows_without_the_pivot_column_are_left_primitive_and_untouched():
    # a row with 0 in the pivot column is never rescaled by the pivot
    diag = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert _echelon(diag) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    blocks = Matrix.from_rows([[2, 4, 0, 0], [6, 10, 0, 0],
                               [0, 0, Fraction(4, 3), 2], [0, 0, 0, 9]])
    assert _echelon(blocks) == ([[1, 2, 0, 0], [0, -1, 0, 0],
                                 [0, 0, 2, 3], [0, 0, 0, 1]], [0, 1, 2, 3])
