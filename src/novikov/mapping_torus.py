"""Twisted Betti profiles of fiber bundles over the circle.

The bundle is encoded by the action of the gluing map on the fiber's
cohomology; the twisted Betti numbers at Lee parameter ``lam`` are assembled
from the kernel dimensions ``kappa_k(lam) = dim ker(lam * Phi_k - I)`` via

    b_k = kappa_k + kappa_{k-1},   b_{n+1} = kappa_n,

a consolidation of the twisted Mayer-Vietoris rank bookkeeping that is pinned
against golden profiles in the tests rather than trusted abstractly.

``kappa_k`` is m, the multiplicity of p, the minimal polynomial of 1/lam, in
chi_k = det(x - Phi_k) when m <= 1 or Phi_k is semisimple; otherwise p is
irreducible, so ``dim_Q ker p(Phi_k) = deg(p) * kappa_k``, one rank over Q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cmp_to_key
from math import isfinite
from operator import add

from .exact import (
    AlgebraicReal,
    Matrix,
    alg_cmp,
    alg_eq,
    alg_neg,
    alg_reciprocal,
    char_poly,
    exterior_char_polys,
    exterior_powers,
    isolate_real_roots,
    mirror,
    multiplicity,
    poly_at_matrix,
    rank,
    sturm_sequence,
)


MAX_FIBER_DIM = 8


class ModelError(ValueError):
    """A fiber model violates its structural invariants."""


def _check_fiber_dim(n):
    if n > MAX_FIBER_DIM:
        raise ModelError(f"fiber dimension capped at {MAX_FIBER_DIM}")


@dataclass(frozen=True)
class FiberModel:
    """The gluing map on H^k(F; Q), k = 0..n: actions Phi_k (int or Fraction
    matrices; None if all are semisimple) and chi_k = det(x - Phi_k), primitive
    IntPolys, x - 1 on H^0 and x -+ 1 on H^n, by default from the actions."""

    actions: tuple
    name: str = ""
    charpolys: tuple = None

    def __post_init__(self):
        degrees = self.actions if self.charpolys is None else self.charpolys
        if not degrees:
            raise ModelError("need one action per degree 0..n")
        _check_fiber_dim(len(degrees) - 1)
        if self.charpolys is None:
            for k, m in enumerate(self.actions):
                if m.rows != m.cols:
                    raise ModelError(f"action in degree {k} is not square")
            object.__setattr__(self, "charpolys", tuple(map(char_poly, self.actions)))
        if self.charpolys[0].coeffs != (-1, 1):
            raise ModelError("H^0 action must be the 1x1 identity")
        if self.charpolys[-1].coeffs not in ((-1, 1), (1, 1)):
            raise ModelError("H^n action must be [1] or [-1]")

    @property
    def dim_fiber(self):
        return len(self.charpolys) - 1


def torus_monodromy(phi1, name="") -> FiberModel:
    """Fiber T^n with the gluing automorphism acting on H^1 by the integer
    matrix phi1 (rows, acting on the coordinate coframe basis): chi_k is that
    of its k-th exterior power, kept over int only if chi_1 is not squarefree."""
    rows = tuple(tuple(r) for r in phi1)
    n = len(rows)
    if not rows or any(len(r) != n for r in rows):
        raise ModelError("monodromy matrix must be square and nonempty")
    if any(type(x) is not int for r in rows for x in r):
        raise ModelError("monodromy entries must be integers")
    _check_fiber_dim(n)  # before Lambda^k, whose size grows as binomial(n, k)
    m = Matrix.from_rows(rows)
    chi = char_poly(m)
    det = (-1) ** n * chi.constant()
    if det not in (1, -1):
        raise ModelError(f"monodromy must be invertible over Z, det = {det}")
    squarefree = sturm_sequence(chi)[-1].degree == 0  # the chain ends in gcd(chi, chi')
    actions = None if squarefree else tuple(exterior_powers(m, n))
    return FiberModel(actions, name, tuple(exterior_char_polys(chi)))


@dataclass(frozen=True)
class BettiProfile:
    lam: AlgebraicReal
    betti: tuple

    def __post_init__(self):
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))
        if any(b < 0 for b in self.betti):
            raise ModelError("negative Betti number")

    def to_json(self):
        return json.dumps({"lambda": lambda_to_jsonable(self.lam),
                           "betti": list(self.betti)})


def lambda_to_jsonable(lam: AlgebraicReal):
    lo, hi = lam.interval
    return {
        "minpoly": list(lam.minpoly.coeffs),
        "interval": [f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"],
        "approx": json_approx(lam),
    }


def json_approx(lam: AlgebraicReal):
    """lam.to_float(), or None where it is not finite: JSON has no Infinity."""
    x = lam.to_float()
    return x if isfinite(x) else None


def kappa(model: FiberModel, lam: AlgebraicReal, k: int) -> int:
    """dim ker(lam * Phi_k - I) over Q(lam): a multiplicity in chi_k, or a
    rank over Q where that may exceed it."""
    n = model.dim_fiber
    if not 0 <= k <= n:
        raise ModelError(f"degree {k} out of range 0..{n}")
    if lam.sign() <= 0:
        raise ModelError("Lee parameter must be positive")
    p = lam.reciprocal_minpoly
    m = multiplicity(p, model.charpolys[k])
    if m <= 1 or model.actions is None:
        return m
    phi = model.actions[k]
    return (phi.rows - rank(poly_at_matrix(p, phi))) // p.degree


def twisted_betti(model: FiberModel, lam: AlgebraicReal) -> BettiProfile:
    """Full twisted Betti profile b_0..b_{n+1} of the total space,
    b_k = kappa_k + kappa_{k-1} with kappa_{-1} = kappa_{n+1} = 0."""
    kappas = [kappa(model, lam, k) for k in range(model.dim_fiber + 1)]
    return BettiProfile(lam, tuple(map(add, [0] + kappas, kappas + [0])))


def exceptional_lambdas(model: FiberModel):
    """The finite set of positive lam with a nonzero profile: lam * Phi_k - I
    is singular exactly at the positive real roots of the reversed chi_k (the
    reversal drops the eigenvalue 0); sorted, deduplicated, each distinct
    chi_k isolated once, except a chi_k, k > n/2, that is ``mirror(chi_(n-k), d)``
    for d the action on H^n: its reversal's roots are the d/rho for chi_(n-k)'s."""
    chis, n = model.charpolys, model.dim_fiber
    d, found = -chis[n].constant(), []
    roots = {}  # each distinct chi_k: the real roots of its reversal
    for k, chi in enumerate(chis):
        if chi in roots:
            continue
        # chi_(n-k)(0) = +-1 makes the mirror integral, as it is on a torus
        if 2 * k > n and (dual := chis[n - k]).constant() in (1, -1) and chi == mirror(dual, d):
            roots[chi] = [alg_reciprocal(rho if d == 1 else alg_neg(rho))
                          for rho in roots[dual] if rho.sign() == d]
        else:
            roots[chi] = [lam for lam, _ in isolate_real_roots(chi.reversed())]
        found += [lam for lam in roots[chi]  # distinct within one chi_k
                  if lam.sign() > 0 and not any(alg_eq(lam, x) for x in found)]
    found.sort(key=cmp_to_key(alg_cmp))
    return found


def blow_up(profile: BettiProfile, n: int) -> BettiProfile:
    """Blow-up at n points of a 4-dimensional total space: b_2 grows by n."""
    if len(profile.betti) != 5:
        raise ModelError("blow-up formula implemented for 4-dimensional total spaces")
    if n < 0:
        raise ModelError("number of blown-up points must be nonnegative")
    b = list(profile.betti)
    b[2] += n
    return BettiProfile(profile.lam, tuple(b))


def euler_char(profile: BettiProfile) -> int:
    return sum(b if k % 2 == 0 else -b for k, b in enumerate(profile.betti))
