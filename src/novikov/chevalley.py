"""Twisted invariant cohomology of Lie algebras.

Builds the Chevalley-Eilenberg differential d (sign convention
d a (X, Y) = -a([X, Y])) and its twist d_theta = d - theta ^ .  on the exterior
algebra of the dual, computes cohomology dimensions over the rational-function
field of the model's parameters, provides the twisted Hodge operators for a
declared orthonormal coframe, and searches for the bracket obstruction that
forbids d_theta-exact taming forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from sympy.polys.polyerrors import CoercionFailed

from .exact import Matrix, coefficient, coefficient_field, rank, substitution


class LieModelError(ValueError):
    pass


@lru_cache(maxsize=None)
def wedge_basis(n, k):
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def _basis_index(n, k):
    return {s: i for i, s in enumerate(wedge_basis(n, k))}


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


@dataclass(frozen=True)
class LieAlgebraModel:
    """Structure constants over Q(params), plus the Lee covector and optional
    complex structure / orthonormal coframe declaration / named forms.  Every
    coefficient is converted into ``field``: Fractions when there are no
    parameters, sympy's rational functions in them otherwise."""

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
        """Q(params), or QQ when there are no parameters."""
        return coefficient_field(tuple(self.params))

    def __post_init__(self):
        K = self.field

        def conv(c):
            try:
                return coefficient(K, c)
            except CoercionFailed as exc:
                raise LieModelError(f"coefficient {c} is not a rational function "
                                    f"of the parameters {list(self.params)}") from exc

        bk = {}
        for (i, j), comps in self.brackets.items():
            if not 0 <= i < j < self.dim:
                raise LieModelError(f"bad bracket index pair ({i}, {j})")
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

    # -- structure ---------------------------------------------------------

    def bracket_vec(self, u, v):
        """[u, v] for coefficient vectors."""
        out = [0] * self.dim
        for i in range(self.dim):
            if not u[i]:
                continue
            for j in range(self.dim):
                if not v[j] or i == j:
                    continue
                comps = self.brackets.get((i, j)) if i < j else self.brackets.get((j, i))
                if not comps:
                    continue
                sign = 1 if i < j else -1
                for k, c in comps.items():
                    term = u[i] * v[j] * c
                    out[k] = out[k] + (term if sign > 0 else -term)
        return out

    def apply_J(self, v):
        if self.J is None:
            raise LieModelError("model has no complex structure J")
        return [sum(self.J[i][j] * v[j] for j in range(self.dim))
                for i in range(self.dim)]

    def covector_apply(self, cov, v):
        return sum(cov[i] * v[i] for i in range(self.dim))

    def theta_form(self):
        return InvariantForm(self.dim, 1, self.theta)

    def instantiate(self, mapping) -> "LieAlgebraModel":
        """Substitute parameters (names or sympy symbols) by rational numbers,
        ints or Fractions, through ``exact.substitution``; the parameters not
        named stay symbolic.  A name that is not a parameter of the model, a
        value that is not rational and a point where a denominator vanishes
        raise LieModelError."""
        values = {str(k): v for k, v in mapping.items()}
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

def _d_sigma(model: LieAlgebraModel, form: InvariantForm, sigma) -> InvariantForm:
    """(d - sigma theta ^) form for sigma in {0, 1, -1}, straight from the
    structure constants: d e^i = - sum_{j<k} c^i_{jk} e^j ^ e^k, extended by
    the Leibniz rule.  A form of degree k >= dim maps to the form of degree
    k + 1, which has no coefficients."""
    n, k = model.dim, form.degree
    if k >= n:
        return InvariantForm.zero(n, k + 1)
    d_cov = {}  # i -> [(pair (j, l), -c^i_{jl}), ...]
    for pair, comps in model.brackets.items():
        for i, c in comps.items():
            d_cov.setdefault(i, []).append((pair, -c))
    theta = [((l,), -sigma * c) for l, c in enumerate(model.theta) if sigma and c]
    acc = {}
    for s, cs in zip(wedge_basis(n, k), form.coeffs):
        if not cs:
            continue
        # d(e^s) = sum_t (-1)^t d e^{s_t} ^ e^{s minus s_t}
        terms = [(pair, -c if t % 2 else c, s[:t] + s[t + 1:])
                 for t, i in enumerate(s) for pair, c in d_cov.get(i, ())]
        for head, c, rest in terms + [(head, c, s) for head, c in theta]:
            sign, merged = merge_sign(head, rest)
            if sign:
                term = c * cs
                acc[merged] = acc.get(merged, 0) + (term if sign > 0 else -term)
    return InvariantForm.from_dict(n, k + 1, acc)


def d_apply(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    return _d_sigma(model, form, 0)


def d_theta_apply(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    return _d_sigma(model, form, 1)


def hodge_star(model: LieAlgebraModel, form: InvariantForm) -> InvariantForm:
    """Star for the declared orthonormal coframe, volume e^1 ^ ... ^ e^n."""
    if not model.coframe_metric:
        raise LieModelError("no orthonormal coframe declared on this model")
    n = model.dim
    k = form.degree
    if not 0 <= k <= n:  # Lambda^k is zero outside 0..n
        return InvariantForm.zero(n, n - k)
    idx = _basis_index(n, n - k)
    out = [0] * comb(n, n - k)
    for s, cs in zip(wedge_basis(n, k), form.coeffs):
        if not cs:
            continue
        comp = tuple(i for i in range(n) if i not in s)
        sign, _ = merge_sign(s, comp)
        out[idx[comp]] = cs if sign > 0 else -cs
    return InvariantForm(n, n - k, tuple(out))


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
    n = model.dim
    failing = set()
    for i in range(n):
        dd = d_apply(model, d_apply(model, InvariantForm.covector(n, i)))
        failing.update(s for s, c in zip(wedge_basis(n, 3), dd.coeffs) if c)
    violations = [("jacobi", tuple(x + 1 for x in s))
                  for s in wedge_basis(n, 3) if s in failing]
    if not d_apply(model, model.theta_form()).is_zero():
        violations.append(("theta_not_closed", None))
    if model.J is not None:
        if n % 2 != 0:
            violations.append(("J_on_odd_dimension", None))
        square = Matrix.from_rows(model.J).matmul(Matrix.from_rows(model.J))
        violations += [("J_squared", (i + 1, j + 1)) for i in range(n) for j in range(n)
                       if square[i, j] + int(i == j)]
    return ValidationReport(not violations, violations)


# -- cohomology --------------------------------------------------------------

def _matrix_of(model: LieAlgebraModel, k, op) -> Matrix:
    """Matrix of op(model, .) on the degree-k wedge basis.  The row count is
    the coefficient count of the image degree, so it is zero when that degree
    (or k itself) lies outside 0..dim."""
    n = model.dim
    cols = [op(model, InvariantForm.from_dict(n, k, {s: 1})).coeffs
            for s in wedge_basis(n, k)]
    rows = len(cols[0]) if cols else 0
    return Matrix(rows, len(cols), [col[r] for r in range(rows) for col in cols])


def d_theta_matrix(model: LieAlgebraModel, k) -> Matrix:
    """Matrix of d_theta from degree k to k+1 in the wedge bases."""
    return _matrix_of(model, k, d_theta_apply)


# A model with parameters is first evaluated at up to this many seeded rational
# points; the first at which every denominator is nonzero is used.
POINT_DRAWS = 8


def _seeded_points(count):
    """The rational points tried for a model with count parameters, in order."""
    rng = random.Random(0)
    for _ in range(POINT_DRAWS):
        yield tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                    for _ in range(count))


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
    covectors, and d theta = 0).  The point is applied by
    ``model.instantiate``; a point where a denominator vanishes is redrawn."""
    n = model.dim
    for point in _seeded_points(len(model.params)):
        try:
            at = model.instantiate(dict(zip(model.params, point)))
            break
        except LieModelError:
            pass
    else:  # a pole at every point
        return [rank(d_theta_matrix(model, k)) for k in range(n)]
    r = [rank(d_theta_matrix(at, k)) for k in range(n)] + [0]  # r[-1] = r[n] = 0
    return [r[k] if r[k] == min(comb(n, k + 1) - r[k + 1], comb(n, k) - r[k - 1])
            else rank(d_theta_matrix(model, k)) for k in range(n)]


def twisted_ce_cohomology(model: LieAlgebraModel):
    """dim H^k(Lambda g*, d_theta) for k = 0..dim, over Q(params) when the
    model has parameters: the dimensions for generic parameter values, with the
    ranks pinned at a seeded rational point where they can be
    (``_generic_ranks``)."""
    n = model.dim
    ranks = (_generic_ranks(model) if model.params
             else [rank(d_theta_matrix(model, k)) for k in range(n)])
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
    dims = []
    for k in range(n + 1):
        lap = _matrix_of(model, k, laplacian_theta)
        dims.append(comb(n, k) - rank(lap))
        # ker Delta = ker d_theta  cap  ker delta_theta: compare ranks of the
        # stacked (d_theta; delta_theta) operator with the Laplacian's kernel
        dk = d_theta_matrix(model, k)
        deltak = _matrix_of(model, k, delta_theta)
        stacked = Matrix(dk.rows + deltak.rows, comb(n, k), dk.entries + deltak.entries)
        if comb(n, k) - rank(stacked) != dims[-1]:
            raise LieModelError(f"Hodge kernel mismatch in degree {k}")
    return dims


# -- obstruction search ------------------------------------------------------

@dataclass(frozen=True)
class ObstructionCertificate:
    """Nonzero X with [X, JX] = 0, theta(X) = 0, theta(JX) = 0: every invariant
    d_theta-exact 2-form vanishes on (X, JX), so none tames J."""

    vector: tuple  # Fractions

    def __iter__(self):
        return iter(self.vector)


def _is_certificate(model, vec):
    if not any(vec):
        return False
    jv = model.apply_J(vec)
    if model.covector_apply(model.theta, vec) or model.covector_apply(model.theta, jv):
        return False
    return not any(model.bracket_vec(vec, jv))


def obstruction_search(model: LieAlgebraModel, samples=2000, seed=0):
    """Search order: basis vectors, two-term integer combinations with
    coefficients in [-4, 4], then a seeded sample of bounded rational
    combinations (denominators <= 4).  Returns None when the budget is
    exhausted; that is evidence of absence, not a proof."""
    n = model.dim
    if model.J is None:
        raise LieModelError("obstruction search needs a complex structure J")
    for i in range(n):
        vec = tuple(Fraction(int(i == j)) for j in range(n))
        if _is_certificate(model, vec):
            return ObstructionCertificate(vec)
    coeff_range = [Fraction(c) for c in range(-4, 5) if c]
    for i, j in combinations(range(n), 2):
        for a in coeff_range:
            for b in coeff_range:
                vec = [Fraction(0)] * n
                vec[i], vec[j] = a, b
                if _is_certificate(model, tuple(vec)):
                    return ObstructionCertificate(tuple(vec))
    rng = random.Random(seed)
    for _ in range(samples):
        vec = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        if _is_certificate(model, vec):
            return ObstructionCertificate(vec)
    return None
