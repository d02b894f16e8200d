"""Invariant taming/LCK cone feasibility.

Decides whether the kernel of d_theta on invariant 2-forms meets the open cone
of J-taming (resp. J-compatible) positive forms.  The d_theta-closedness side
is exact: `kernel_basis` is one nullspace of an integer matrix.  The cone is
held as the matrices S_i = Sym(omega_i(., J.)) of its basis forms: integers
over one common denominator, read as floats only by the ascent and lambda_min.
Infeasibility is first sought as an exact rank-one certificate: a vector v
with omega(v, Jv) = v^T S_i v = 0 for every i (for an empty basis, v = e_1),
among the basis vectors and then `chevalley.isotropic_basis` (ker theta cap
ker(theta o J)).  Then Z = v v^T is positive semidefinite, nonzero and
orthogonal to every S_i, so no combination is positive definite (theorem of
alternatives for strict LMIs, Boyd & Vandenberghe, Convex Optimization,
5.8-5.9) and the verdict is "infeasible (certified)".  Feasibility is then
sought as an exact certificate: a small integer combination x of the basis
forms (a {-1, 0, 1} vector, at most MAX_CANDIDATES of them, by support size
and then lexicographically) with sum x_i S_i positive definite, every leading
principal minor positive by the elimination step of `rank` without row
exchanges (Sylvester's criterion).  Only when no candidate passes does one
deterministic projected subgradient ascent on the unit ball decide in floating
point (`_ascent`); a feasible ascent point is rationalised and checked the
same way.  A feasible verdict carries x in `certificate` (rational strings)
and in `coefficients` (floats), with `lambda_min` the float smallest
eigenvalue at x/|x|; a feasible verdict without a certificate, and an
uncertified infeasible one, are float evidence, not proof, and say so.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, islice, product

from .chevalley import (
    InvariantForm,
    LieAlgebraModel,
    LieModelError,
    isotropic_basis,
    scaled_d_theta_matrix,
    wedge_basis,
)
from .exact import Matrix, exterior_powers, is_positive_definite, nullspace

FEASIBILITY_TOL = 1e-6  # the ascent calls a lambda_min above this feasible
MAX_ITERS = 5000  # the ascent's steps, one eigh each
# Candidates of the exact feasibility search.  Every feasible query of the
# tests and the benchmark passes by the 29th (support 2); the bound keeps a
# fruitless search to a few milliseconds on the kernels seen there.
MAX_CANDIDATES = 256
# Denominators at which a feasible ascent point is rationalised.  They stay
# at most 10**6, so a float coefficient reads back to the same fraction under
# limit_denominator(10**6).
RATIONALISE_DENOMINATORS = (10 ** 2, 10 ** 4, 10 ** 6)


@dataclass
class TamingCertificate:
    coefficients: list  # floats, in the cone-basis coordinate space
    lambda_min: float  # 0.0 when certified infeasible: the bound lambda_min <= 0
    kind: str  # "taming" | "lck"
    feasible: bool
    reason: str = ""
    # Fractions: when feasible, the coefficients x of a form with
    # Sym(omega(., J.)) positive definite; when infeasible, a vector v with
    # omega(v, Jv) = 0 on the kernel
    certificate: list = None

    @property
    def verdict(self):
        if self.feasible:
            return "feasible"
        if self.certificate is not None:
            return "infeasible (certified)"
        return "infeasible (evidence, not proof)"

    def to_json(self):
        return json.dumps({
            "coefficients": list(map(float, self.coefficients)),
            "lambda_min": float(self.lambda_min),
            "kind": self.kind,
            "verdict": self.verdict,
            "reason": self.reason,
            "certificate": None if self.certificate is None
            else [str(c) for c in self.certificate],
        })


def kernel_basis(model: LieAlgebraModel, kind="taming"):
    """Exact basis of the forms the cone is searched in: ker d_theta on
    invariant 2-forms, for 'lck' those with omega(J., J.) = omega, whose
    coefficients are Lambda^2(J)^T applied to omega's.  One nullspace of ints:
    den * d_theta, for 'lck' over j_den^2 I - Lambda^2(j_den J)^T.
    Parameters must be instantiated to rationals beforehand."""
    if model.params:
        raise LieModelError("instantiate parameters before cone computations")
    m = scaled_d_theta_matrix(model, 2)
    if kind == "lck":
        if model.J is None:
            raise LieModelError("the LCK cone needs a complex structure J")
        n, w, sc = model.dim, m.cols, model.scaled
        j_int = Matrix(n, n, [dict(row).get(t, 0) for row in sc.j_rows for t in range(n)])
        image = exterior_powers(j_int, 2)[2]
        m = Matrix(m.rows + w, w, m.entries + [sc.j_den ** 2 * (r == c) - image[c, r]
                                               for r in range(w) for c in range(w)])
    return [InvariantForm(model.dim, 2, tuple(vec)) for vec in nullspace(m)]


def taming_feasibility(model: LieAlgebraModel, kind="taming", theta=None) -> TamingCertificate:
    """Decide whether some kernel form omega has Sym(omega(., J.)) positive
    definite: by an exact rank-one certificate of infeasibility when
    `_rank_one_certificate` finds one, then by an exact certificate of
    feasibility when a small integer combination gives one, otherwise by the
    one ascent of `_ascent`, which calls the search feasible when lambda_min
    exceeds FEASIBILITY_TOL; its feasible point is certified if a
    rationalisation of it passes the exact check.  A theta given must be closed."""
    if kind not in ("taming", "lck"):
        raise ValueError("kind must be 'taming' or 'lck'")
    if theta is not None:
        model = replace(model, theta=theta)
        if not model.theta_is_closed():
            raise LieModelError("theta is not closed, so d_theta^2 != 0")
    if model.J is None:
        raise LieModelError("cone feasibility needs a complex structure J")
    mats, den = _integer_sym_matrices(model, kernel_basis(model, kind))
    v = _rank_one_certificate(model, mats)
    if v is not None:
        shown = ", ".join(map(str, v))
        return TamingCertificate(
            [], 0.0, kind, False, certificate=v,
            reason=f"omega(v, Jv) = 0 over Q for v = ({shown}) and every kernel form")
    for x in _candidates(len(mats)):
        if _combination_is_positive_definite(mats, x):
            return _certified(_as_floats(mats, den), kind, x, "the integer combination")
    floats = _as_floats(mats, den)
    cert = _ascent(floats, kind)
    if not cert.feasible:
        return cert
    for d in RATIONALISE_DENOMINATORS:
        x = [Fraction(c).limit_denominator(d) for c in cert.coefficients]
        if _combination_is_positive_definite(mats, x):
            return _certified(floats, kind, x,
                              f"the ascent point rationalised at denominator {d}")
    return replace(cert, reason=(
        f"lambda_min > FEASIBILITY_TOL in floating point; no rationalisation up to "
        f"denominator {RATIONALISE_DENOMINATORS[-1]} passes the exact check, "
        "so this is evidence, not proof"))


def _certified(floats, kind, x, source) -> TamingCertificate:
    """Feasible verdict backed by the exact check on the coefficients x, with
    lambda_min the float smallest eigenvalue at x/|x| (one eigh)."""
    import numpy as np

    x = [Fraction(c) for c in x]
    unit = np.array([float(c) for c in x])
    unit /= np.linalg.norm(unit)
    lam = np.linalg.eigh(np.tensordot(unit, floats, axes=1))[0][0]
    shown = ", ".join(map(str, x))
    reason = (f"Sym(omega(., J.)) is positive definite over Q at {source} "
              f"x = ({shown}) of the basis forms: every leading principal "
              "minor is positive (fraction-free Sylvester criterion)")
    return TamingCertificate([float(c) for c in x], float(lam), kind, True,
                             reason=reason, certificate=x)


def _integer_sym_matrices(model, basis):
    """(mats, den): the matrices Sym(omega_i(., J.)) = (W_i J + (W_i J)^T) / 2
    of the basis forms over Q, times their least common denominator den, as
    integer rows.  They are summed in ints from the forms over one common
    denominator and J's integer rows in ``model.scaled``, then divided by the
    gcd of their scale and every entry.  A common positive factor leaves every
    combination's definiteness, and every zero of v^T S_i v, as it is."""
    n, sc = model.dim, model.scaled
    scale = math.lcm(*(c.denominator for form in basis for c in form.coeffs))
    mats = []
    for form in basis:
        wj = [[0] * n for _ in range(n)]  # scale * j_den * W J, row by row
        for (i, k), c in zip(wedge_basis(n, 2), form.coeffs):
            if c:
                c = c.numerator * (scale // c.denominator)
                for t, x in sc.j_rows[k]:
                    wj[i][t] += c * x
                for t, x in sc.j_rows[i]:
                    wj[k][t] -= c * x
        mats.append([[wj[u][t] + wj[t][u] for t in range(n)] for u in range(n)])
    total = 2 * scale * sc.j_den  # S_i = mats[i] / total
    g = math.gcd(total, *(x for m in mats for row in m for x in row))
    return [[[x // g for x in row] for row in m] for m in mats], total // g


def _as_floats(mats, den):
    """The S_i = mats[i] / den as floats, stacked: one correctly rounded int
    division per entry, also where an entry or den is past the float range."""
    import numpy as np  # numpy is loaded only where the cone needs floats

    return np.array([[[x / den for x in row] for row in m] for m in mats])


def _candidates(d):
    """The nonzero {-1, 0, 1} vectors of length d by support size, then
    lexicographically by support and signs (+1 before -1); at most
    MAX_CANDIDATES of them."""
    every = ([dict(zip(support, signs)).get(i, 0) for i in range(d)]
             for size in range(1, d + 1)
             for support in combinations(range(d), size)
             for signs in product((1, -1), repeat=size))
    return islice(every, MAX_CANDIDATES)


def _combination_is_positive_definite(mats, x):
    """Whether sum x_i mats[i] is positive definite, for rational x, exactly: x
    is scaled to integers, a diagonal entry <= 0 refuses it, and the sum, over
    the matrices with x_i != 0 and row by row, goes to `is_positive_definite`."""
    den = math.lcm(*(Fraction(c).denominator for c in x))
    terms = [(int(Fraction(c) * den), m) for c, m in zip(x, mats) if c]
    if not terms or any(sum(c * m[u][u] for c, m in terms) <= 0 for u in range(len(mats[0]))):
        return False  # the zero matrix, or one that is not positive on some e_u
    return is_positive_definite(
        [list(map(sum, zip(*([c * e for e in m[u]] for c, m in terms))))
         for u in range(len(mats[0]))])


def _quadratic_form(m, v):
    """v^T m v, summed over the nonzero entries of v only."""
    support = [u for u, c in enumerate(v) if c]
    return sum(v[u] * m[u][t] * v[t] for u in support for t in support)


def _rank_one_candidates(model):
    """The e_j (an empty basis needs e_1; a certificate may lie outside K), then
    ``isotropic_basis``: every d_theta-exact form vanishes on (v, Jv) if [v, Jv] = 0."""
    units = ([int(i == j) for i in range(model.dim)] for j in range(model.dim))
    return chain(units, isotropic_basis(model))


def _rank_one_certificate(model, mats):
    """A candidate vector v with v^T S v = omega(v, Jv) = 0 exactly for every
    matrix S = Sym(omega(., J.)) in `mats`, or None.  Z = v v^T is then a
    nonzero positive semidefinite matrix with <Z, S> = 0 on the span, which
    excludes a positive definite member."""
    return next((v for v in _rank_one_candidates(model)
                 if not any(_quadratic_form(m, v) for m in mats)), None)


def _ascent(mats, kind) -> TamingCertificate:
    """Maximize lambda_min(sum x_i mats[i]), mats the S_i in floats, over the
    unit ball by one projected subgradient ascent from x = 0 with steps 1/k,
    keeping the best x/|x|.  lambda_min is concave and positively homogeneous,
    so on the ball every local maximum is global and needs no restart (Shor
    1985; Nesterov, Introductory Lectures, 3.2.3).  An infeasible verdict is
    evidence, not proof."""
    import numpy as np

    x = np.zeros(len(mats))
    best_x, best_val, stale = None, -np.inf, 0
    for k in range(1, MAX_ITERS + 1):
        vals, vecs = np.linalg.eigh(np.tensordot(x, mats, axes=1))
        norm = np.linalg.norm(x)
        if norm:  # 0 is a legal iterate, where lambda_min / |x| is undefined
            if vals[0] / norm > best_val + 1e-12:
                best_val, best_x, stale = vals[0] / norm, x / norm, 0
            else:
                stale += 1
                if stale > 200:  # plateau: the ascent has converged
                    break
            if best_val > 10 * FEASIBILITY_TOL:
                break  # feasibility is established; further steps only polish
        v = vecs[:, 0]
        grad = np.array([v @ m @ v for m in mats])  # subgradient of lambda_min
        gn = np.linalg.norm(grad)
        if not gn:
            break
        x = x + grad / (k * gn)
        x /= max(1.0, np.linalg.norm(x))  # back into the ball
    if best_x is None:  # no slope at x = 0: e_1 is isotropic in floats
        return TamingCertificate([0.0] * len(mats), 0.0, kind, False, "v^T S_i v = 0 at v = e_1")
    feasible = best_val > FEASIBILITY_TOL
    reason = "" if feasible else "best lambda_min <= tolerance along the ascent"
    return TamingCertificate(list(best_x), float(best_val), kind, feasible, reason)


def certificate_form(model: LieAlgebraModel, cert: TamingCertificate) -> InvariantForm:
    """The combination of the ``kernel_basis`` forms that a feasible verdict's
    exact certificate gives: d_theta-closed, and J-invariant for 'lck', by
    construction.  Any other verdict names no form: ValueError."""
    if not cert.feasible or cert.certificate is None:
        raise ValueError("only a feasible verdict with an exact certificate names a form")
    form = InvariantForm.zero(model.dim, 2)
    for q, b in zip(cert.certificate, kernel_basis(model, cert.kind)):
        form = form + b.scale(q)
    return form
