"""Twisted Betti profiles of fiber bundles over the circle.

The bundle is encoded by the action of the gluing map on the fiber's
cohomology; the twisted Betti numbers at Lee parameter ``lam`` are assembled
from the kernel dimensions ``kappa_k(lam) = dim ker(lam * Phi_k - I)`` via

    b_k = kappa_k + kappa_{k-1},   b_{n+1} = kappa_n,

a consolidation of the twisted Mayer-Vietoris rank bookkeeping that is pinned
against golden profiles in the tests rather than trusted abstractly.

``kappa_k`` needs no arithmetic in Q(lam): p, the minimal polynomial of
1/lam, is irreducible, so ``dim_Q ker p(Phi_k) = deg(p) * kappa_k``, one rank
over Q.  Every fiber model is the gluing map's actions on H^k(F; Q): a torus
monodromy is its exterior powers, built once when the model is made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import isfinite
from operator import add

from .exact import (
    AlgebraicReal,
    Matrix,
    alg_cmp,
    alg_eq,
    char_poly,
    exterior_powers,
    isolate_real_roots,
    poly_at_matrix,
    rank,
)


MAX_FIBER_DIM = 6


class ModelError(ValueError):
    """A fiber model violates its structural invariants."""


def _check_fiber_dim(n):
    if n > MAX_FIBER_DIM:
        raise ModelError(f"fiber dimension capped at {MAX_FIBER_DIM}")


@dataclass(frozen=True)
class FiberModel:
    """The gluing map's rational actions Phi_k on H^k(F; Q), k = 0..n:
    square matrices over int or Fraction, the identity on H^0 and +-1 on
    H^n."""

    actions: tuple
    name: str = ""

    def __post_init__(self):
        if not self.actions:
            raise ModelError("need one action per degree 0..n")
        _check_fiber_dim(self.dim_fiber)
        for k, m in enumerate(self.actions):
            if m.rows != m.cols:
                raise ModelError(f"action in degree {k} is not square")
        if self.actions[0].entries != [Fraction(1)]:
            raise ModelError("H^0 action must be the 1x1 identity")
        top = self.actions[-1]
        if top.rows != 1 or top.entries[0] not in (Fraction(1), Fraction(-1)):
            raise ModelError("H^n action must be [1] or [-1]")

    @property
    def dim_fiber(self):
        return len(self.actions) - 1


def torus_monodromy(phi1, name="") -> FiberModel:
    """Fiber T^n with the gluing automorphism acting on H^1 by the integer
    matrix phi1 (rows, acting on the coordinate coframe basis): Phi_k is its
    k-th exterior power, kept over int."""
    rows = tuple(tuple(r) for r in phi1)
    n = len(rows)
    if not rows or any(len(r) != n for r in rows):
        raise ModelError("monodromy matrix must be square and nonempty")
    if any(type(x) is not int for r in rows for x in r):
        raise ModelError("monodromy entries must be integers")
    _check_fiber_dim(n)  # before Lambda^k, whose size grows as binomial(n, k)
    actions = tuple(exterior_powers(Matrix.from_rows(rows), n))
    det = actions[n].entries[0]  # Lambda^n(M) = [det M]
    if det not in (1, -1):
        raise ModelError(f"monodromy must be invertible over Z, det = {det}")
    return FiberModel(actions, name)


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
    """dim ker(lam * Phi_k - I) over Q(lam), found by ranks over Q."""
    n = model.dim_fiber
    if not 0 <= k <= n:
        raise ModelError(f"degree {k} out of range 0..{n}")
    if lam.sign() <= 0:
        raise ModelError("Lee parameter must be positive")
    phi = model.actions[k]
    p = lam.minpoly.reversed().primitive()
    return (phi.rows - rank(poly_at_matrix(p, phi))) // p.degree


def twisted_betti(model: FiberModel, lam: AlgebraicReal) -> BettiProfile:
    """Full twisted Betti profile b_0..b_{n+1} of the total space,
    b_k = kappa_k + kappa_{k-1} with kappa_{-1} = kappa_{n+1} = 0."""
    kappas = [kappa(model, lam, k) for k in range(model.dim_fiber + 1)]
    return BettiProfile(lam, tuple(map(add, [0] + kappas, kappas + [0])))


def exceptional_lambdas(model: FiberModel):
    """The finite set of positive lam with a nonzero profile: lam * Phi_k - I
    is singular exactly at the positive real roots of the reversed
    char_poly(Phi_k), whose reversal drops the eigenvalue 0; sorted,
    deduplicated."""
    found = []
    for phi in model.actions:
        for lam, _ in isolate_real_roots(char_poly(phi).reversed()):
            if lam.sign() > 0 and not any(alg_eq(lam, x) for x in found):
                found.append(lam)
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
