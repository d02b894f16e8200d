"""Constructors for every model in scope.

Fiber-bundle side: the torus mapping torus S0, the surfaces S+ and S- (the
actions N and N^-1 of a 2x2 integer matrix on H^1 and H^2 of the fiber), the
Hopf fiber model and the Kato blow-up transformer.  Lie-algebra
side: the S0 solvable algebra, the S+ algebra and its orthonormal coframe
model, the Oeljeklaus-Toma family, and the abelian reference algebra.

The Lie-algebra families are Lie algebras for every parameter value by
construction and are not validated when built: ``test_validate_catalog_models``
validates each one symbolically over Q(params).  ``validate`` runs on model
files and in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .chevalley import InvariantForm, LieAlgebraModel, check_lie_dim
from .exact import Matrix, char_poly, coefficient_field, count_roots, sturm_sequence
from .exact.algebraic import AlgebraicReal, _isolate_irreducible
from .exact.polynomials import root_bound
from .mapping_torus import FiberModel, ModelError, blow_up, torus_monodromy

DEFAULT_S0_MATRIX = ((0, 0, 1), (1, 0, 1), (0, 1, 0))  # companion of x^3 - x - 1
DEFAULT_SPM_MATRIX = ((2, 1), (1, 1))    # eigenvalues (3 +- sqrt5)/2
DEFAULT_SMINUS_MATRIX = ((1, 1), (1, 0))  # det -1, eigenvalues phi, -1/phi


@dataclass(frozen=True)
class S0Datum:
    A: tuple  # 3x3 integer matrix, det 1, one real eigenvalue alpha > 1

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.A)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ModelError("S0 needs a 3x3 integer matrix")
        object.__setattr__(self, "A", rows)


@dataclass(frozen=True)
class SpmDatum:
    N: tuple  # 2x2 integer matrix

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.N)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ModelError("S+/S- needs a 2x2 integer matrix")
        object.__setattr__(self, "N", rows)


def _real_root_counts(cp):
    """(whether cp is squarefree, its number of real roots, the number of them
    above 1), by Sturm counts on (-B, B] and (1, B] for B its root bound."""
    seq, bound = sturm_sequence(cp), root_bound(cp)
    return (seq[-1].degree == 0,  # the chain ends in gcd(cp, cp')
            count_roots(cp, -bound, bound, seq), count_roots(cp, 1, bound, seq))


def s0_alpha(datum: S0Datum) -> AlgebraicReal:
    """The distinguished Lee parameter alpha of S0, after checking that A has
    determinant 1 and one real eigenvalue, simple and above 1.  A repeated
    root of the cubic cp is real, so a squarefree cp with one real root has
    one counted with multiplicity.  cp is monic with constant -1, so a
    rational root is +-1; alpha > 1 is then irrational and cp irreducible."""
    cp = char_poly(Matrix.from_rows(datum.A))
    # det(A) = (-1)^3 * cp(0) for the 3x3 case
    if -cp.constant() != 1:
        raise ModelError(f"S0 matrix must have determinant 1, got {-cp.constant()}")
    squarefree, real, above_one = _real_root_counts(cp)
    if not squarefree or real != 1:
        raise ModelError("S0 matrix needs exactly one real eigenvalue "
                         "and a complex-conjugate pair")
    if above_one != 1:
        raise ModelError("the real eigenvalue must be simple and exceed 1")
    [alpha] = _isolate_irreducible(cp)
    return alpha


def make_s0(datum: S0Datum):
    """Torus-monodromy fiber model + the distinguished Lee parameter alpha."""
    alpha = s0_alpha(datum)
    return torus_monodromy(datum.A, "s0"), alpha


def _make_spm(datum: SpmDatum, det: int, name: str):
    """Fiber model ([1], N, N^-1, [1]) of S+ (det N = 1) or S- (det N = -1),
    + the eigenvalue alpha > 1 of N; the other eigenvalue is det/alpha."""
    label, other = ("S+", "1/alpha") if det == 1 else ("S-", "-1/alpha")
    n_mat = Matrix.from_rows(datum.N)
    cp = char_poly(n_mat)
    if cp.constant() != det:  # det(N) = cp(0) for the 2x2 case
        raise ModelError(f"{label} matrix must have determinant {det}, got {cp.constant()}")
    squarefree, real, above_one = _real_root_counts(cp)
    if not squarefree or real != 2:
        raise ModelError("matrix needs two distinct real eigenvalues")
    if above_one != 1:
        raise ModelError(f"{label} matrix needs eigenvalues alpha > 1 and {other}")
    # cp is monic with constant +-1, so a rational root is +-1: alpha > 1 and
    # det/alpha are irrational, and cp is irreducible
    one = AlgebraicReal.from_rational(1)
    alpha = next(r for r in _isolate_irreducible(cp) if one < r)
    (a, b), (c, d) = datum.N
    ident = Matrix.from_rows([[1]])
    inverse = Matrix.from_rows([[det * d, -det * b], [-det * c, det * a]])  # det * adj N
    model = FiberModel((ident, n_mat, inverse, ident), name)
    return model, alpha


def make_splus(datum: SpmDatum):
    """S+ fiber model (dims 1,2,2,1; eigenvalues alpha and 1/alpha) + alpha."""
    return _make_spm(datum, 1, "splus")


def make_sminus(datum: SpmDatum):
    """S- fiber model (dims 1,2,2,1; N has eigenvalues alpha and -1/alpha, N^-1
    has 1/alpha and -alpha) + alpha."""
    return _make_spm(datum, -1, "sminus")


def make_hopf() -> FiberModel:
    """S^1 x S^3 viewed as the trivial mapping torus of S^3: fiber cohomology
    dims (1, 0, 0, 1), identity actions."""
    ident, empty = Matrix.from_rows([[1]]), Matrix(0, 0, [])
    return FiberModel((ident, empty, empty, ident), name="hopf")


def make_kato(n: int):
    """Profile transformer for the n-point blow-up of the Hopf profile."""
    if n < 1:
        raise ModelError("Kato surfaces need at least one blown-up point (b_2 > 0)")
    return partial(blow_up, n=n)


# -- Lie algebra models ------------------------------------------------------

def s0_algebra() -> LieAlgebraModel:
    """Solvable algebra of the S0 surface, basis (A, X, Y1, Y2), parameters
    r, s; Lee covector theta = -2r * (A-dual); Tricerri form attached."""
    r, s = coefficient_field(("r", "s")).gens
    omega = InvariantForm.from_dict(4, 2, {(0, 1): -1, (2, 3): -1})
    return LieAlgebraModel(
        dim=4,
        params=("r", "s"),
        brackets={
            (0, 1): {1: -2 * r},
            (0, 2): {2: r, 3: s},
            (0, 3): {3: r, 2: -s},
        },
        theta=(-2 * r, 0, 0, 0),
        J=((0, -1, 0, 0),
           (1, 0, 0, 0),
           (0, 0, 0, -1),
           (0, 0, 1, 0)),
        named_forms={"omega": omega},
        name="s0-algebra",
    )


def splus_algebra(a=None) -> LieAlgebraModel:
    """Solvmanifold algebra of S+/S-, basis (e1..e4), theta = e4-dual; the
    complex structure carries the real parameter a."""
    params = ("a",) if a is None else ()
    av = coefficient_field(params).gens[0] if a is None else a
    return LieAlgebraModel(
        dim=4,
        params=params,
        brackets={
            (1, 2): {0: -1},
            (1, 3): {1: -1},
            (2, 3): {2: 1},
        },
        theta=(0, 0, 0, 1),
        # columns: Je1 = e2, Je2 = -e1, Je3 = e4 - a e2, Je4 = -e3 - a e1
        J=((0, -1, 0, -av),
           (1, 0, -av, 0),
           (0, 0, 0, -1),
           (0, 0, 1, 0)),
        name="splus-algebra",
    )


def splus_coframe_model() -> LieAlgebraModel:
    """Orthonormal-coframe model of S+ with d f1 = f3^f1, d f2 = f4^f1,
    d f3 = 0, d f4 = f4^f3 and theta = f3; carries the harmonic generators
    zeta, tau, h and the LCK form omega = 2(f1^f2 + f3^f4)."""
    named = {
        "zeta": InvariantForm.covector(4, 0),
        "tau": InvariantForm.from_dict(4, 2, {(0, 2): -1}),
        "h": InvariantForm.from_dict(4, 2, {(0, 1): 2}),
        "omega": InvariantForm.from_dict(4, 2, {(0, 1): 2, (2, 3): 2}),
    }
    return LieAlgebraModel(
        dim=4,
        brackets={
            (0, 2): {0: 1},
            (0, 3): {1: 1},
            (2, 3): {3: 1},
        },
        theta=(0, 0, 1, 0),
        coframe_metric=True,
        named_forms=named,
        name="splus-coframe",
    )


def ot_algebra(s: int, alpha_list=None) -> LieAlgebraModel:
    """Oeljeklaus-Toma algebra on 2s+2 generators A_1..A_s, B_1..B_s, C1, C2;
    theta is a generic combination of the A-duals with symbolic coefficients."""
    if s < 1:
        raise ModelError("OT algebras need s >= 1")
    check_lie_dim(2 * s + 2)
    if alpha_list is not None and len(alpha_list) != s:
        raise ModelError("alpha_list must have one entry per A generator")
    alpha_params = tuple(f"alpha{i+1}" for i in range(s)) if alpha_list is None else ()
    theta_params = tuple(f"r{i+1}" for i in range(s))
    gens = coefficient_field(alpha_params + theta_params).gens
    alphas = gens[:s] if alpha_list is None else alpha_list
    dim = 2 * s + 2
    c1, c2 = 2 * s, 2 * s + 1
    brackets = {}
    for i in range(s):
        brackets[(i, s + i)] = {s + i: 1}
        brackets[(i, c1)] = {c1: Fraction(-1, 2), c2: alphas[i]}
        brackets[(i, c2)] = {c1: -alphas[i], c2: Fraction(-1, 2)}
    theta = gens[-s:] + (0,) * (dim - s)
    jrows = [[0] * dim for _ in range(dim)]
    for i in range(s):  # J A_i = B_i, J B_i = -A_i
        jrows[s + i][i] = 1
        jrows[i][s + i] = -1
    jrows[c2][c1] = 1  # J C1 = C2
    jrows[c1][c2] = -1
    return LieAlgebraModel(
        dim=dim,
        params=alpha_params + theta_params,
        brackets=brackets,
        theta=theta,
        J=tuple(tuple(r) for r in jrows),
        name=f"ot-algebra-s{s}",
    )


def abelian_algebra(n: int = 4) -> LieAlgebraModel:
    """Abelian reference algebra; even dimensions carry the standard complex
    structure J e_{2i+1} = e_{2i+2}."""
    check_lie_dim(n)
    jmat = None
    if n % 2 == 0:
        rows = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            rows[i + 1][i] = 1
            rows[i][i + 1] = -1
        jmat = tuple(tuple(r) for r in rows)
    return LieAlgebraModel(dim=n, J=jmat, coframe_metric=True, name=f"abelian{n}")


def default_s0():
    return make_s0(S0Datum(DEFAULT_S0_MATRIX))


def default_splus():
    return make_splus(SpmDatum(DEFAULT_SPM_MATRIX))


def default_sminus():
    return make_sminus(SpmDatum(DEFAULT_SMINUS_MATRIX))
