"""Twisted Betti profiles of fiber bundles over the circle.

The bundle is encoded by the action of the gluing map on the fiber's
cohomology; the twisted Betti numbers at Lee parameter ``lam`` are assembled
from the kernel dimensions ``kappa_k(lam) = dim ker(lam * Phi_k - I)`` via

    b_k = kappa_k + kappa_{k-1},   b_{n+1} = kappa_n,

a consolidation of the twisted Mayer-Vietoris rank bookkeeping that is pinned
against golden profiles in the tests rather than trusted abstractly.

``kappa_k`` needs no arithmetic in Q(lam): p, the minimal polynomial of
1/lam, is irreducible, so ``dim_Q ker p(Phi_k) = deg(p) * kappa_k``, one rank
over Q.  Phi_k is computed once per model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import comb, isfinite

from .exact import (
    AlgebraicReal,
    Matrix,
    alg_cmp,
    alg_eq,
    alg_reciprocal,
    char_poly,
    exterior_power,
    isolate_real_roots,
    poly_at_matrix,
    rank,
)


class ModelError(ValueError):
    """A fiber model violates its structural invariants."""


@dataclass(frozen=True)
class ConjugatePair:
    """Opaque marker for a complex-conjugate eigenvalue pair; never equal to
    any real Lee parameter."""

    tag: str = "conjugate"


@dataclass(frozen=True)
class TorusMonodromy:
    """Fiber T^n with the gluing automorphism acting on H^1 by the integer
    matrix phi1 (the matrix acting on the coordinate coframe basis)."""

    phi1: tuple  # rows of ints

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.phi1)
        object.__setattr__(self, "phi1", rows)
        n = len(rows)
        if not rows or any(len(r) != n for r in rows):
            raise ModelError("monodromy matrix must be square and nonempty")
        # char_poly is det(xI - M), so its constant term is (-1)^n det M
        d = (-1) ** n * char_poly(Matrix.from_rows(rows)).constant()
        if d not in (1, -1):
            raise ModelError(f"monodromy must be invertible over Z, det = {d}")

    @property
    def dim(self):
        return len(self.phi1)


@dataclass(frozen=True)
class ExplicitActions:
    """Explicit rational matrices Phi_k on each H^k(F), with declared dims."""

    dim: int
    actions: tuple  # actions[k] is a Matrix over Fraction of size dim H^k

    def __post_init__(self):
        if len(self.actions) != self.dim + 1:
            raise ModelError("need one action per degree 0..n")
        for k, m in enumerate(self.actions):
            if m.rows != m.cols:
                raise ModelError(f"action in degree {k} is not square")
        if self.actions[0].entries != [Fraction(1)]:
            raise ModelError("H^0 action must be the 1x1 identity")
        top = self.actions[self.dim]
        if top.rows != 1 or top.entries[0] not in (Fraction(1), Fraction(-1)):
            raise ModelError("H^n action must be [1] or [-1]")


@dataclass(frozen=True)
class EigenDescriptor:
    """Per-degree eigenvalue lists (AlgebraicReal or ConjugatePair, each with a
    multiplicity); multiplicities must sum to the declared H^k dimension."""

    dim: int
    h_dims: tuple
    spectra: tuple  # spectra[k] = tuple of (AlgebraicReal | ConjugatePair, mult)

    def __post_init__(self):
        if len(self.h_dims) != self.dim + 1 or len(self.spectra) != self.dim + 1:
            raise ModelError("need eigenvalue data per degree 0..n")
        for k, spec in enumerate(self.spectra):
            total = 0
            for ev, mult in spec:
                total += (2 * mult) if isinstance(ev, ConjugatePair) else mult
            if total != self.h_dims[k]:
                raise ModelError(
                    f"degree {k}: multiplicities sum to {total}, declared {self.h_dims[k]}")


@dataclass(frozen=True)
class FiberModel:
    dim_fiber: int
    mode: object
    name: str = ""
    # Phi_k, filled in on first use
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.mode
        if isinstance(m, TorusMonodromy):
            if m.dim != self.dim_fiber:
                raise ModelError("monodromy size does not match fiber dimension")
        elif isinstance(m, (ExplicitActions, EigenDescriptor)):
            if m.dim != self.dim_fiber:
                raise ModelError("mode dimension does not match fiber dimension")
        else:
            raise ModelError(f"unknown fiber mode {type(m).__name__}")
        if self.dim_fiber > 6:
            raise ModelError("fiber dimension capped at 6")

    def h_dim(self, k):
        m = self.mode
        if isinstance(m, TorusMonodromy):
            return comb(self.dim_fiber, k)
        if isinstance(m, ExplicitActions):
            return m.actions[k].rows
        return m.h_dims[k]


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


def _phi_matrix(model: FiberModel, k):
    """Phi_k, over int for a torus monodromy and Fraction for explicit actions."""
    m = model.mode
    if isinstance(m, TorusMonodromy):
        if k not in model._cache:
            model._cache[k] = exterior_power(Matrix.from_rows(m.phi1), k, one=1)
        return model._cache[k]
    if isinstance(m, ExplicitActions):
        return m.actions[k]
    raise TypeError("eigen-descriptor mode has no explicit matrices")


def kappa(model: FiberModel, lam: AlgebraicReal, k: int) -> int:
    """dim ker(lam * Phi_k - I) over Q(lam), found by ranks over Q."""
    n = model.dim_fiber
    if not 0 <= k <= n:
        raise ModelError(f"degree {k} out of range 0..{n}")
    if lam.sign() <= 0:
        raise ModelError("Lee parameter must be positive")
    mode = model.mode
    if isinstance(mode, EigenDescriptor):
        target = alg_reciprocal(lam)
        # conjugate pairs never match a real lambda
        return sum(mult for ev, mult in mode.spectra[k]
                   if not isinstance(ev, ConjugatePair) and alg_eq(ev, target))
    phi = _phi_matrix(model, k)
    p = lam.minpoly.reversed().primitive()
    return (phi.rows - rank(poly_at_matrix(p, phi))) // p.degree


def twisted_betti(model: FiberModel, lam: AlgebraicReal) -> BettiProfile:
    """Full twisted Betti profile b_0..b_{n+1} of the total space."""
    n = model.dim_fiber
    kappas = [kappa(model, lam, k) for k in range(n + 1)]
    betti = [kappas[0]]
    betti += [kappas[k] + kappas[k - 1] for k in range(1, n + 1)]
    betti.append(kappas[n])
    return BettiProfile(lam, tuple(betti))


def exceptional_lambdas(model: FiberModel):
    """The finite set of positive lam with a nonzero profile: reciprocals of
    the positive real eigenvalues of every Phi_k; sorted, deduplicated."""
    found = []
    mode = model.mode
    if isinstance(mode, EigenDescriptor):
        eigen = [ev for spec in mode.spectra for ev, _ in spec
                 if not isinstance(ev, ConjugatePair)]
    else:
        eigen = [r for k in range(model.dim_fiber + 1)
                 for r, _ in isolate_real_roots(char_poly(_phi_matrix(model, k)))]
    for ev in eigen:
        if ev.sign() <= 0:
            continue
        lam = alg_reciprocal(ev)
        if not any(alg_eq(lam, x) for x in found):
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
