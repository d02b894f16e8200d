"""Dense matrices over the artifact's scalar fields and their exact linear algebra.

Entries may be ints, Fractions, or elements of sympy's Q(params) or Q(lambda)
(``ANP``); the generic operations below only assume ring arithmetic (+, -, *)
plus, where rank is needed, exact division.  ``rank`` and ``nullspace``
eliminate an int or Fraction matrix in primitive integer rows, and any other
matrix over its field.  An entry is false exactly when it is zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from .polynomials import IntPoly


class Matrix:
    """Row-major dense matrix; immutable by convention."""

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows, self.cols, self.entries = rows, cols, entries

    @staticmethod
    def from_rows(rows_list) -> "Matrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return Matrix(rows, cols, [x for r in rows_list for x in r])

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self):
        return [self.row(r) for r in range(self.rows)]

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [self[r, c] for c in range(self.cols) for r in range(self.rows)])

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, other.cols,
                      [x for row in _mat_mul(self.to_rows(), other.to_rows()) for x in row])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and not any(a - b for a, b in zip(self.entries, other.entries)))

    def __repr__(self):
        return f"Matrix({self.to_rows()!r})"


def exterior_powers(m: Matrix, top: int) -> list:
    """[Lambda^0(m), ..., Lambda^top(m)], wedge bases ordered lexicographically
    on index subsets.  The entries are the minors, built in one pass, order by
    order for all row sets, each by Laplace expansion along its first row from
    the minors one order lower, so only ring arithmetic (+, -, *) is used."""
    if m.rows != m.cols:
        raise ValueError("exterior power needs a square matrix")
    n = m.rows
    if not 0 <= top <= n:
        raise ValueError(f"exterior power degree {top} out of range 0..{n}")
    minors = {((), ()): _one_like(m.entries[0]) if m.entries else 1}
    powers = [Matrix(1, 1, minors.values())]
    for j in range(1, top + 1):
        subsets = list(combinations(range(n), j))
        step = {}
        for rows_s in subsets:
            head, tail = rows_s[0], rows_s[1:]
            for cols_t in subsets:
                acc = m[head, cols_t[0]] * minors[tail, cols_t[1:]]
                for p in range(1, j):
                    term = m[head, cols_t[p]] * minors[tail, cols_t[:p] + cols_t[p + 1:]]
                    acc = acc - term if p % 2 else acc + term
                step[rows_s, cols_t] = acc
        minors = step
        powers.append(Matrix(len(subsets), len(subsets), minors.values()))
    return powers


def _one_like(x):
    # not x - x + 1: a zero FracElement returns the int it is added to
    return 1 + (x - x)


def char_poly(m: Matrix) -> IntPoly:
    """det(xI - M) for a rational matrix, by Faddeev-LeVerrier in integer
    arithmetic on D*M (D clears the entries' denominators), made primitive:
    for an int matrix (D = 1) those integers are its coefficients."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    d, a = _integer_rows(m)
    int_coeffs = [1]  # of det(xI - D*M), highest degree first
    mk = [[int(r == c) for c in range(n)] for r in range(n)]
    for k in range(1, n + 1):
        mk = _mat_mul(a, mk)
        # exact: the coefficients of an integer matrix's char poly are integers
        ck = -sum(mk[i][i] for i in range(n)) // k
        int_coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    # det(xI - M) = D^-n det(DxI - D*M): D^n times it has c_(n-k) D^k at x^k
    return IntPoly([c * d ** k for k, c in enumerate(reversed(int_coeffs))]).primitive()


def companion(p: IntPoly) -> Matrix:
    """Companion matrix of p over Fraction: ones below the diagonal and the
    monic p's negated low coefficients in the last column; its
    characteristic polynomial is p / leading(p)."""
    n, lead = p.degree, p.leading()
    return Matrix(n, n, [Fraction(int(r == c + 1)) if c < n - 1
                         else Fraction(-p.coeffs[r], lead)
                         for r in range(n) for c in range(n)])


def poly_at_matrix(p: IntPoly, m: Matrix) -> Matrix:
    """D^deg(p) * p(M) for a rational matrix M, by Horner's rule in integer
    arithmetic on D*M (D clears the entries' denominators); it has the kernel
    of p(M)."""
    if m.rows != m.cols:
        raise ValueError("a polynomial in a matrix needs a square matrix")
    n = m.rows
    d, a = _integer_rows(m)
    acc = [[p.coeffs[-1] * x for x in row] for row in a]
    for i, c in enumerate(reversed(p.coeffs[:-1]), 1):
        for r in range(n):
            acc[r][r] += c * d ** i
        if i < p.degree:
            acc = _mat_mul(acc, a)
    return Matrix.from_rows(acc)


def _integer_rows(m: Matrix):
    """(D, the rows of D*M as ints), D the lcm of the entries' denominators."""
    d = math.lcm(*(x.denominator for x in m.entries))
    return d, [[x.numerator * (d // x.denominator) for x in m.row(r)]
               for r in range(m.rows)]


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _echelon(m: Matrix):
    """Forward elimination of m's nonzero rows: (rows, pivots), the rows in
    echelon form and the pivot column of each of the first len(pivots) rows.
    Row i is a nonzero multiple of row i of Gaussian elimination over the
    entries' field with the same row swaps: the same rank, pivots and kernel.

    Over Q (int and Fraction entries) every row is kept primitive: scaled to
    ints and divided by the gcd of its entries, and where it has x != 0 in the
    pivot column replaced by the primitive part of piv*row - x*pivot_row.  Up
    to sign it is the primitive part of Bareiss's row, so no entry outgrows
    his.  Other entries (Q(lambda), Q(params)) are eliminated with field
    division, ints taken as Fractions."""
    e, n = m.entries, m.cols
    rows = [r for r in (e[i:i + n] for i in range(0, len(e), n or 1)) if any(r)]
    kinds = {type(x) for r in rows for x in r}
    if rational := kinds <= {int, Fraction}:
        if Fraction in kinds:
            rows = _integer_rows(Matrix.from_rows(rows))[1]
        rows = [_primitive(r) for r in rows]
    else:
        rows = [[Fraction(x) if type(x) is int else x for x in r] for r in rows]
    pivots = []
    for col in range(m.cols):
        rk = len(pivots)
        if rk == len(rows):
            break
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        if rational:
            _reduce_below(rows, rk, col)
        else:
            prow = rows[rk]
            for r in range(rk + 1, len(rows)):
                if x := rows[r][col]:
                    factor = x / prow[col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return rows, pivots


def _reduce_below(rows, k, col):
    """Replace each int row below row k with x != 0 in column col by the
    primitive part of piv*row - x*rows[k], piv = rows[k][col]."""
    prow, piv = rows[k], rows[k][col]
    for r in range(k + 1, len(rows)):
        if x := rows[r][col]:
            rows[r] = _primitive([piv * a - x * b for a, b in zip(rows[r], prow)])


def _primitive(row):
    """An int row divided by the gcd of its entries; a zero row stays zero."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def is_positive_definite(rows) -> bool:
    """Whether a symmetric int matrix (its rows) is positive definite, by
    Sylvester's criterion: ``_reduce_below`` without row exchanges meets only
    positive pivots.  While they are positive it keeps every row's sign, so a
    pivot has the sign of a ratio of consecutive leading principal minors."""
    rows = [list(r) for r in rows]
    for k in range(len(rows)):
        if rows[k][k] <= 0:
            return False
        _reduce_below(rows, k, k)
    return True


def rank(m: Matrix) -> int:
    """Rank by ``_echelon``: primitive integer rows over int and Fraction
    entries, field elimination over Q(lambda) and Q(params) entries."""
    return len(_echelon(m)[1])


def nullspace(m: Matrix):
    """Exact kernel basis (list of column vectors) over a field with exact
    division: per free column f, the kernel vector that is 1 at f and 0 at
    the other free columns, by back-substitution in the echelon form (the
    vectors a reduced row echelon form reads off).  Vectors are lists of
    entries."""
    rows, pivots = _echelon(m)
    free = [c for c in range(m.cols) if c not in pivots]
    if not free:
        return []
    # Fractions over Q (the rows are ints), else the first row's field, or m's with no row
    x = rows[0][0] if rows else next(iter(m.entries), 0)
    one = _one_like(Fraction(x) if type(x) is int else x)
    zero = one - one
    basis = []
    for f in free:
        vec = [zero] * m.cols
        vec[f] = one
        for p, row in reversed(list(zip(pivots, rows))):
            acc = sum((row[c] * vec[c] for c in range(p + 1, m.cols) if vec[c]), zero)
            if acc:
                vec[p] = -acc / row[p]
        basis.append(vec)
    return basis
