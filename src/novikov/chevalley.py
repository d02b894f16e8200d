"""Twisted invariant cohomology of Lie algebras.

Builds the Chevalley-Eilenberg differential d (sign convention
d a (X, Y) = -a([X, Y])) and its twist d_theta = d - theta ^ .  on the exterior
algebra of the dual, computes cohomology dimensions over the rational-function
field of the model's parameters, provides the twisted Hodge operators for a
declared orthonormal coframe, and searches ker theta cap ker(theta o J) for
the bracket obstruction to d_theta-exact taming forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, gcd, lcm
from typing import NamedTuple

from .exact import (Matrix, coefficient, coefficient_field, nullspace, rank,
                    rational_conditions, substitution)


class LieModelError(ValueError):
    pass


# k-forms have C(dim, k) coefficients: `cohomology` takes 0.36 s on abelian12 and
# 1.2 s on ot:5 in a fresh process (shared 2-core VM); abelian20's d_theta: ~3e10 entries.
MAX_LIE_DIM = 12


def check_lie_dim(dim):
    """Refuse a dimension above MAX_LIE_DIM, before anything sized by it is built."""
    if dim > MAX_LIE_DIM:
        raise LieModelError(f"Lie algebra dimension capped at {MAX_LIE_DIM}")


@lru_cache(maxsize=None)
def wedge_basis(n, k):
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def _basis_index(n, k):
    return {s: i for i, s in enumerate(wedge_basis(n, k))}


@lru_cache(maxsize=None)
def _mask_rows(n, k):
    """{bitmask of s: row of s} over the degree-k wedge basis, in row order."""
    return {sum(1 << i for i in s): r for r, s in enumerate(wedge_basis(n, k))}


def merge_sign(s, t):
    """Sign of sorting the concatenation of disjoint increasing tuples s, t;
    0 if they intersect."""
    if set(s) & set(t):
        return 0, ()
    merged = tuple(sorted(s + t))
    # count inversions between s and t
    inv = sum(1 for a in s for b in t if a > b)
    return (-1) ** inv, merged


@dataclass(frozen=True)
class InvariantForm:
    dim: int
    degree: int
    coeffs: tuple  # scalar per lexicographic wedge-basis element; 0 where absent

    def __post_init__(self):
        want = comb(self.dim, self.degree) if 0 <= self.degree <= self.dim else 0
        cs = tuple(self.coeffs)
        if len(cs) != want:
            raise LieModelError(
                f"degree-{self.degree} form on dim {self.dim} needs {want} coefficients")
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def zero(dim, degree):
        size = comb(dim, degree) if 0 <= degree <= dim else 0
        return InvariantForm(dim, degree, (0,) * size)

    @staticmethod
    def from_dict(dim, degree, entries):
        """entries: {index tuple: coefficient}."""
        idx = _basis_index(dim, degree)
        coeffs = [0] * comb(dim, degree)
        for subset, c in entries.items():
            coeffs[idx[tuple(subset)]] = c
        return InvariantForm(dim, degree, tuple(coeffs))

    @staticmethod
    def covector(dim, i):
        return InvariantForm.from_dict(dim, 1, {(i,): 1})

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return InvariantForm(self.dim, self.degree,
                             tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return InvariantForm(self.dim, self.degree,
                             tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return InvariantForm(self.dim, self.degree, tuple(-c for c in self.coeffs))

    def scale(self, c):
        return InvariantForm(self.dim, self.degree, tuple(c * x for x in self.coeffs))

    def _check(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise LieModelError("form dimension/degree mismatch")

    def __eq__(self, other):
        return (isinstance(other, InvariantForm) and self.dim == other.dim
                and self.degree == other.degree and (self - other).is_zero())

    def __repr__(self):
        terms = []
        for s, c in zip(wedge_basis(self.dim, self.degree), self.coeffs):
            if c:
                mono = "^".join(f"e{i+1}" for i in s) or "1"
                terms.append(f"({c})*{mono}")
        return " + ".join(terms) or "0"


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if a.dim != b.dim:
        raise LieModelError("wedge of forms on different algebras")
    n = a.dim
    deg = a.degree + b.degree
    if deg > n:
        return InvariantForm.zero(n, deg)
    idx = _basis_index(n, deg)
    out = [0] * comb(n, deg)
    for s, cs in zip(wedge_basis(n, a.degree), a.coeffs):
        if not cs:
            continue
        for t, ct in zip(wedge_basis(n, b.degree), b.coeffs):
            if not ct:
                continue
            sign, merged = merge_sign(s, t)
            if sign:
                term = cs * ct
                out[idx[merged]] = out[idx[merged]] + (term if sign > 0 else -term)
    return InvariantForm(n, deg, tuple(out))


class Scaled(NamedTuple):
    """A model's brackets and theta over one common denominator den, and J
    over its own, j_den, as sparse lists of their nonzero entries.  Over Q the
    denominators are the least ones and the entries ints; over Q(params) both
    are 1 and the entries are the field elements."""
    den: int
    # per covector i, the (bits of j and l, bits below j, bits below l, c)
    # with den * d e^i = sum c e^j ^ e^l, j < l
    d_cov: list
    theta: tuple  # the (bit of l, bits below l, den * theta_l), terms of den * theta
    j_den: int
    j_rows: tuple  # per row i, the (j, j_den * J_ij); no rows without J


def _over_one_denominator(params, coeffs):
    """(den, scale): over Q the least common denominator of coeffs and the map
    c -> den * c into the ints; over Q(params) 1 and the identity."""
    if params:
        return 1, lambda c: c
    den = lcm(*(c.denominator for c in coeffs))
    return den, lambda c: c.numerator * (den // c.denominator)


def _unscale(c, den):
    """c / den, as a Fraction over Q; a zero and den = 1 leave c as it is."""
    return Fraction(c, den) if den != 1 and c else c


@dataclass(frozen=True)
class LieAlgebraModel:
    """Structure constants over Q(params), plus the Lee covector and optional
    complex structure / orthonormal coframe declaration / named forms.  Every
    coefficient is converted into ``field``: Fractions when there are no
    parameters, sympy's rational functions in them otherwise.  ``scaled``, the
    structure every operator reads, is derived from them when the model is
    made, so ``replace`` and ``instantiate`` rebuild it."""

    dim: int
    params: tuple = ()
    brackets: dict = field(default_factory=dict)  # (i,j) i<j -> {k: coefficient}
    theta: tuple = None
    J: tuple = None  # rows of coefficients; column v holds J e_v
    coframe_metric: bool = False
    named_forms: dict = field(default_factory=dict)
    name: str = ""

    @property
    def field(self):
        """Q(params), or None for Q when there are no parameters."""
        return coefficient_field(tuple(self.params))

    def __post_init__(self):
        if self.dim < 1:
            raise LieModelError("dim must be a positive integer")
        check_lie_dim(self.dim)
        K = self.field

        def conv(c):
            try:
                return coefficient(K, c)
            except ValueError as exc:
                raise LieModelError(f"coefficient {c} is not a rational function "
                                    f"of the parameters {list(self.params)}") from exc

        bk = {}
        for (i, j), comps in self.brackets.items():
            if not 0 <= i < j < self.dim:
                raise LieModelError(f"bad bracket index pair ({i}, {j})")
            if any(k not in range(self.dim) for k in comps):
                raise LieModelError(f"bracket ({i}, {j}) has a component index "
                                    f"outside 0..{self.dim - 1}: {list(comps)}")
            bk[(i, j)] = {k: v for k, c in comps.items() if (v := conv(c))}
        object.__setattr__(self, "brackets", bk)
        th = self.theta if self.theta is not None else (0,) * self.dim
        th = tuple(conv(c) for c in th)
        if len(th) != self.dim:
            raise LieModelError("theta must have one coefficient per covector")
        object.__setattr__(self, "theta", th)
        if self.J is not None:
            rows = tuple(tuple(conv(c) for c in r) for r in self.J)
            if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                raise LieModelError("J must be a dim x dim matrix")
            object.__setattr__(self, "J", rows)
        object.__setattr__(self, "named_forms", {
            name: InvariantForm(f.dim, f.degree, tuple(conv(c) for c in f.coeffs))
            for name, f in self.named_forms.items()})
        den, scale = _over_one_denominator(self.params,
                                           chain(th, *map(dict.values, bk.values())))
        d_cov = [[] for _ in range(self.dim)]
        for (j, l), comps in bk.items():
            for i, c in comps.items():
                d_cov[i].append((1 << j | 1 << l, (1 << j) - 1, (1 << l) - 1, -scale(c)))
        theta = tuple((1 << l, (1 << l) - 1, scale(c)) for l, c in enumerate(th) if c)
        j_den, j_scale = _over_one_denominator(self.params, chain(*self.J or ()))
        object.__setattr__(self, "scaled", Scaled(
            den, d_cov, theta, j_den,
            tuple(tuple((j, j_scale(c)) for j, c in enumerate(r) if c) for r in self.J or ())))

    # -- structure ---------------------------------------------------------

    def bracket_vec(self, u, v):
        """[u, v] for coefficient vectors: e^k([u, v]) = -(d e^k)(u, v), over
        the nonzero terms only."""
        return [_unscale(-sum(c * w for _, below_j, below_l, c in terms
                              for j, l in [(below_j.bit_length(), below_l.bit_length())]
                              if (w := u[j] * v[l] - u[l] * v[j])), self.scaled.den)
                for terms in self.scaled.d_cov]

    def apply_J(self, v):
        if self.J is None:
            raise LieModelError("model has no complex structure J")
        sc = self.scaled
        return [_unscale(sum(c * v[j] for j, c in row if v[j]), sc.j_den) for row in sc.j_rows]

    def covector_apply(self, cov, v):
        return sum(cov[i] * v[i] for i in range(self.dim))

    def theta_form(self):
        return InvariantForm(self.dim, 1, self.theta)

    def theta_is_closed(self) -> bool:
        """d theta = 0, without which d_theta^2 != 0 and there is no complex."""
        return not any(_d_scaled(self.scaled, 1, ((0, b, c) for b, _, c in self.scaled.theta), 0))

    def instantiate(self, mapping) -> "LieAlgebraModel":
        """Substitute parameters (names or sympy symbols) by rational numbers,
        ints or Fractions, through ``exact.substitution``; the parameters not
        named stay symbolic (an empty mapping returns the model).  A name that
        is not a parameter, a value that is not rational and a point where a
        denominator vanishes raise LieModelError."""
        values = {str(k): v for k, v in mapping.items()}
        if not values:
            return self
        unknown = sorted(set(values) - set(self.params))
        if unknown:
            raise LieModelError(f"not parameters of the model: {unknown}; "
                                f"its parameters are {list(self.params)}")
        try:
            sub = substitution(self.params, values)
            subs_all = lambda cs: tuple(map(sub, cs))
            return replace(
                self,
                params=tuple(p for p in self.params if p not in values),
                brackets={ij: {k: sub(c) for k, c in comps.items()}
                          for ij, comps in self.brackets.items()},
                theta=subs_all(self.theta),
                J=None if self.J is None else tuple(map(subs_all, self.J)),
                named_forms={k: InvariantForm(f.dim, f.degree, subs_all(f.coeffs))
                             for k, f in self.named_forms.items()},
            )
        except (TypeError, ZeroDivisionError) as exc:
            raise LieModelError(f"cannot set {values}: {exc}") from exc


# -- differential and Hodge operators --------------------------------------

@lru_cache(maxsize=None)
def _leibniz(n, k):
    """{bitmask of s: the (i, t, s minus i) for the members i of s at positions
    t, then (n, 0, s), head n being -sigma theta} over the degree-k wedge basis."""
    return {s: tuple((i, t, s ^ 1 << i) for t, i in enumerate(i for i in range(n) if s >> i & 1))
            + ((n, 0, s),) for s in _mask_rows(n, k)}


def _d_scaled(sc: Scaled, k, terms, sigma, width=1):
    """den * (d - sigma theta ^), sigma in {0, 1, -1}, of the forms with the
    (column, bitmask of s, c) of terms, s of degree k: the row-major entries of
    a matrix of width columns, cancelled entries kept.  d e^s = sum_t (-1)^t
    d e^(s_t) ^ e^(s minus s_t), t the position of s_t in s (Leibniz), and
    sorting e^j ^ e^l ^ e^rest passes j and l over the members of rest below."""
    rows, leibniz = _mask_rows(len(sc.d_cov), k + 1), _leibniz(len(sc.d_cov), k)
    # no product by a unit or by sigma: over Q(params) each product runs a gcd
    heads = sc.d_cov + [[(bit, 0, below, -c if sigma > 0 else c) for bit, below, c in sc.theta]
                        if sigma else []]
    out = [0] * (len(rows) * width)
    for col, s, cs in terms:
        for i, t, rest in leibniz[s]:
            for pair, below_j, below_l, c in heads[i]:
                if not rest & pair:
                    p, c = rows[rest | pair] * width + col, c if cs == 1 else c * cs
                    odd = t + (rest & below_j).bit_count() + (rest & below_l).bit_count() & 1
                    out[p] += -c if odd else c
    return out


def _d_sigma(model: LieAlgebraModel, form: InvariantForm, sigma) -> InvariantForm:
    """(d - sigma theta ^) form for sigma in {0, 1, -1} by ``_d_scaled``, each
    nonzero coefficient divided by den.  A form of degree k >= dim maps to
    the form of degree k + 1, which has no coefficients."""
    n, k, sc = model.dim, form.degree, model.scaled
    out = _d_scaled(sc, k, ((0, s, c) for s, c in zip(_mask_rows(n, k), form.coeffs) if c), sigma)
    return InvariantForm(n, k + 1, tuple(_unscale(c, sc.den) for c in out))


def d_apply(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    return _d_sigma(model, form, 0)


def d_theta_apply(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    return _d_sigma(model, form, 1)


def hodge_star(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    """Star for the declared orthonormal coframe, volume e^1 ^ ... ^ e^n."""
    if not model.coframe_metric:
        raise LieModelError("no orthonormal coframe declared on this model")
    n, k = model.dim, form.degree
    if not 0 <= k <= n:  # Lambda^k is zero outside 0..n
        return InvariantForm.zero(n, n - k)
    # * e^s = eps(s) e^(s^c), eps(s) = (-1)^(sum(s) - C(k, 2)) the sign of sorting
    # s + s^c; complements reverse the lexicographic order of a wedge basis
    return InvariantForm(n, n - k, tuple(-c if (sum(s) - comb(k, 2)) % 2 else c for s, c in
                                         reversed(list(zip(wedge_basis(n, k), form.coeffs)))))


def delta_theta(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    """delta_theta = - * d_{-theta} *."""
    return -hodge_star(model, _d_sigma(model, hodge_star(model, form), -1))


def laplacian_theta(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    out = InvariantForm.zero(model.dim, form.degree)
    if form.degree < model.dim:
        out = out + delta_theta(model, d_theta_apply(model, form))
    if form.degree > 0:
        out = out + d_theta_apply(model, delta_theta(model, form))
    return out


# -- validation -------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def validate(model: LieAlgebraModel) -> ValidationReport:
    """Jacobi identity, d theta = 0 and J^2 = -I.  Jacobi is checked as
    d(d e^i) = 0 on every covector: the coefficient of d(d e^i) on
    e^j ^ e^k ^ e^l is e^i of the Jacobiator of e_j, e_k, e_l, so the triples
    where the identity fails are those where some d(d e^i) has a nonzero
    coefficient, reported in lexicographic order."""
    n, sc = model.dim, model.scaled
    # den d applied to den d e^i in column i: the scale moves no zero
    dd = _d_scaled(sc, 2, ((i, t[0], t[-1]) for i, ts in enumerate(sc.d_cov) for t in ts), 0, n)
    failing = {p // n for p, c in enumerate(dd) if c}
    violations = [("jacobi", tuple(x + 1 for x in wedge_basis(n, 3)[r]))
                  for r in sorted(failing)]
    if not model.theta_is_closed():
        violations.append(("theta_not_closed", None))
    if model.J is not None:
        if n % 2 != 0:
            violations.append(("J_on_odd_dimension", None))
        square = [[0] * n for _ in range(n)]  # J_int^2 + j_den^2 I, J_int = j_den J
        for i, row in enumerate(sc.j_rows):
            square[i][i] = sc.j_den ** 2
            for j, c in row:
                for t, x in sc.j_rows[j]:
                    square[i][t] += c * x
        violations += [("J_squared", (i + 1, j + 1)) for i in range(n) for j in range(n)
                       if square[i][j]]
    return ValidationReport(not violations, violations)


# -- cohomology --------------------------------------------------------------

def scaled_d_theta_matrix(model, k, sigma=1) -> Matrix:
    """den * (d - sigma theta ^) from degree k to k+1 in the wedge bases, of a
    model or of a ``Scaled``, by one ``_d_scaled`` pass over the unit forms:
    ints over Q, field elements over Q(params) (den = 1).  Ranks and kernels
    are taken on it: a positive scale changes no rank, pivot or ``nullspace``
    basis."""
    sc = model if isinstance(model, Scaled) else model.scaled
    n, width = len(sc.d_cov), comb(len(sc.d_cov), k)
    units = ((col, s, 1) for s, col in _mask_rows(n, k).items())
    return Matrix(comb(n, k + 1), width, _d_scaled(sc, k, units, sigma, width))


def d_theta_matrix(model: LieAlgebraModel, k) -> Matrix:
    """d_theta from degree k to k+1: ``scaled_d_theta_matrix``, nonzero entries over den."""
    m, den = scaled_d_theta_matrix(model, k), model.scaled.den
    return Matrix(m.rows, m.cols, [_unscale(c, den) for c in m.entries])


def _scaled_delta_matrix(model: LieAlgebraModel, k) -> Matrix:
    """den * delta_theta from degree k to k-1: as delta_theta = - * d_(-theta) *,
    entry [v, s] is -eps(s) eps(v^c) D[v^c, s^c] with ``hodge_star``'s eps and
    D = den d_(-theta) from degree n - k, read at D's mirrored position."""
    n = model.dim
    d = scaled_d_theta_matrix(model, n - k, -1)
    eps_s, eps_u = ([(-1) ** (sum(s) - comb(j, 2)) for s in wedge_basis(n, j)]
                    for j in (k, n - k + 1))
    return Matrix(d.rows, d.cols, [x and -x * eps_s[p % d.cols] * eps_u[-1 - p // d.cols]
                                   for p, x in enumerate(reversed(d.entries))])


# A model with parameters is first evaluated at up to this many seeded rational
# points; the first at which every denominator is nonzero is used.
POINT_DRAWS = 8


def _seeded_points(count):
    """The rational points tried for a model with count parameters, in order."""
    rng = random.Random(0)
    for _ in range(POINT_DRAWS):
        yield tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                    for _ in range(count))


def _scaled_at(model: LieAlgebraModel, point):
    """den * d e^i and den * theta of ``model.scaled`` at a rational point of all
    its parameters, as ints over one least denominator (no J); None at a pole."""
    sub, sc = substitution(model.params, dict(zip(model.params, point))), model.scaled
    try:
        d_cov = [[(*bits, v) for *bits, c in terms if (v := sub(c))] for terms in sc.d_cov]
        theta = [(bit, below, v) for bit, below, c in sc.theta if (v := sub(c))]
    except ZeroDivisionError:
        return None
    den, scale = _over_one_denominator((), (t[-1] for t in chain(theta, *d_cov)))
    return Scaled(den, [[(*bits, scale(c)) for *bits, c in terms] for terms in d_cov],
                  tuple((bit, below, scale(c)) for bit, below, c in theta), 1, ())


def _generic_ranks(model: LieAlgebraModel):
    """Ranks of d_theta on k-forms over Q(params), k = 0..dim-1.

    At a rational point where the coefficients are defined, the rank r_k of
    d_theta is at most the generic rank R_k (a minor that is nonzero at the
    point is a nonzero rational function).  Since d_theta^2 = 0 over
    Q(params), R_(k-1) + R_k <= C(n, k) for every k, so
    R_k <= min(C(n, k+1) - r_(k+1), C(n, k) - r_(k-1)), which is at most the
    matrix's row and column counts.  Where r_k equals that bound, that is where
    the point's cohomology vanishes in degree k or k+1, R_k = r_k; only the
    other ranks are eliminated over Q(params).  The point decides how much
    symbolic work is left, never the answer.  d_theta^2 = 0 holds on every
    model that passes ``validate`` (Jacobi, checked as d(d e^i) = 0 on
    covectors, and d theta = 0).  The point is ``_scaled_at``'s, no second
    model, redrawn where a denominator vanishes.  A model without parameters
    is its own point: one rank per degree."""
    n = model.dim
    at = model.scaled if not model.params else next(
        (sc for point in _seeded_points(len(model.params))
         if (sc := _scaled_at(model, point)) is not None), None)
    if at is None:  # a pole at every point
        return [rank(scaled_d_theta_matrix(model, k)) for k in range(n)]
    r = [rank(scaled_d_theta_matrix(at, k)) for k in range(n)] + [0]  # r[-1] = r[n] = 0
    return [r[k] if not model.params
            or r[k] == min(comb(n, k + 1) - r[k + 1], comb(n, k) - r[k - 1])
            else rank(scaled_d_theta_matrix(model, k)) for k in range(n)]


def twisted_ce_cohomology(model: LieAlgebraModel):
    """dim H^k(Lambda g*, d_theta) for k = 0..dim, over Q(params): the
    dimensions for generic parameter values, with the ranks pinned at a seeded
    rational point where they can be (``_generic_ranks``)."""
    n = model.dim
    ranks = _generic_ranks(model)
    dims = []
    for k in range(n + 1):
        rk_out = ranks[k] if k < n else 0
        rk_in = ranks[k - 1] if k > 0 else 0
        dims.append(comb(n, k) - rk_out - rk_in)
    return dims


def harmonic_dims(model: LieAlgebraModel):
    """dim ker Delta_theta per degree; also checks the kernel equals
    ker d_theta intersect ker delta_theta degree-wise."""
    if model.params:
        raise LieModelError("instantiate parameters before Hodge computations")
    if not model.coframe_metric:
        raise LieModelError("no orthonormal coframe declared on this model")
    n = model.dim
    d = [scaled_d_theta_matrix(model, k) for k in range(n + 1)]  # both times den
    delta = [_scaled_delta_matrix(model, k) for k in range(n + 1)]
    dims = []
    for k in range(n + 1):
        # Delta_k = delta_(k+1) d_k + d_(k-1) delta_k
        terms = ([delta[k + 1].matmul(d[k])] if k < n else []) + \
            ([d[k - 1].matmul(delta[k])] if k > 0 else [])
        lap = Matrix(comb(n, k), comb(n, k), map(sum, zip(*(t.entries for t in terms))))
        dims.append(comb(n, k) - rank(lap))
        # ker Delta = ker d_theta  cap  ker delta_theta: compare ranks of the
        # stacked (d_theta; delta_theta) operator with the Laplacian's kernel
        stacked = Matrix(d[k].rows + delta[k].rows, comb(n, k), d[k].entries + delta[k].entries)
        if comb(n, k) - rank(stacked) != dims[-1]:
            raise LieModelError(f"Hodge kernel mismatch in degree {k}")
    return dims


# -- obstruction search ------------------------------------------------------

def isotropic_basis(model: LieAlgebraModel):
    """A basis over Q of K = ker theta cap ker(theta o J), lists of Fractions,
    from one nullspace of both conditions split by ``rational_conditions``."""
    if model.J is None:
        raise LieModelError("the isotropic subspace needs a complex structure J")
    sc = model.scaled
    theta, theta_j = [0] * model.dim, [0] * model.dim  # den theta, den j_den theta o J
    for _, below, t in sc.theta:
        theta[l := below.bit_length()] = t
        for j, c in sc.j_rows[l]:
            theta_j[j] += t * c
    rows = rational_conditions(theta) + rational_conditions(theta_j)
    return nullspace(Matrix(len(rows), model.dim, chain.from_iterable(rows)))


def obstruction_search(model: LieAlgebraModel):
    """The first X with [X, JX] = 0, a tuple of Fractions: the b_i of ``isotropic_basis``,
    then a b_i + b b_j for coprime 0 < a, |b| <= 4 (up to scale, every a e_i + b e_j in K).
    Every d_theta-exact 2-form vanishes on (X, JX).  None proves absence only if K = 0."""
    basis = isotropic_basis(model)
    two_term = ([a * x + b * y for x, y in zip(u, w)] for u, w in combinations(basis, 2)
                for a in range(1, 5) for b in range(-4, 5) if b and gcd(a, b) == 1)
    return next((tuple(x) for x in chain(basis, two_term)
                 if not any(model.bracket_vec(x, model.apply_J(x)))), None)
