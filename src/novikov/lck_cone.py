"""Invariant taming/LCK cone feasibility.

Decides whether the kernel of d_theta on invariant 2-forms meets the open cone
of J-taming (resp. J-compatible) positive forms.  The d_theta-closedness side
is exact (the kernel basis is computed by rational elimination).  Infeasibility
is first sought as an exact rank-one certificate: a vector v with
omega(v, Jv) = 0 over Q for every kernel basis form omega.  Then Z = v v^T is
positive semidefinite, nonzero and orthogonal to every Sym(omega_i(., J.)), so
no combination is positive definite (theorem of alternatives for strict LMIs,
Boyd & Vandenberghe, Convex Optimization, 5.8-5.9) and the verdict is
"infeasible (certified)".  Otherwise a projected subgradient ascent decides in
floating point: a feasible verdict carries a form that can be checked exactly,
an uncertified infeasible verdict is evidence, not proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .chevalley import (
    InvariantForm,
    LieAlgebraModel,
    LieModelError,
    d_theta_matrix,
    wedge_basis,
)
from .exact import Matrix, exterior_power, nullspace

FEASIBILITY_TOL = 1e-6
DEFAULT_RESTARTS = 64
DEFAULT_MAX_ITERS = 5000


@dataclass
class TamingCertificate:
    coefficients: list  # floats, in the kernel-basis coordinate space
    lambda_min: float  # 0.0 when certified: the bound lambda_min <= 0
    kind: str  # "taming" | "lck"
    feasible: bool
    reason: str = ""
    certificate: list = None  # Fractions v with omega(v, Jv) = 0 on the kernel

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


def kernel_basis(model: LieAlgebraModel):
    """Exact basis of ker d_theta on invariant 2-forms.  Parameters must be
    instantiated to rationals beforehand."""
    if model.params:
        raise LieModelError("instantiate parameters before cone computations")
    mat = d_theta_matrix(model, 2)
    basis = nullspace(mat)
    return [InvariantForm(model.dim, 2, tuple(vec)) for vec in basis]


def form_to_matrix(form: InvariantForm):
    """Antisymmetric matrix W with W[u, v] = omega(e_u, e_v), as floats."""
    import numpy as np  # numpy is loaded only where the cone needs floats

    n = form.dim
    w = np.zeros((n, n))
    for (i, j), c in zip(wedge_basis(n, 2), form.coeffs):
        v = float(c)
        w[i, j] = v
        w[j, i] = -v
    return w


def _require_j(model):
    if model.J is None:
        raise LieModelError("cone feasibility needs a complex structure J")
    return model.J


def _j_float(model):
    import numpy as np

    return np.array([[float(c) for c in row] for row in _require_j(model)])


def _j_invariant_subbasis(model, basis):
    """Restrict a kernel basis to the J-invariant forms omega(J., J.) = omega,
    exactly over Q.  The coefficients of omega(J., J.) are Lambda^2(J)^T
    applied to those of omega, so the combinations sought span the kernel of
    (Lambda^2(J)^T - I) B, where B holds the basis forms as columns."""
    jmat = Matrix.from_rows(_require_j(model))
    if not basis:
        return []
    b = Matrix.from_rows(list(zip(*(form.coeffs for form in basis))))
    image = exterior_power(jmat, 2).transpose().matmul(b)
    combo = nullspace(Matrix(b.rows, b.cols,
                             [x - y for x, y in zip(image.entries, b.entries)]))
    return [InvariantForm(model.dim, 2, tuple(b.matmul(Matrix(b.cols, 1, vec)).entries))
            for vec in combo]


def _cone_basis(model, kind):
    """The basis the cone is searched in, and certificate coefficients are
    given in: the kernel basis, cut to its J-invariant forms for 'lck'."""
    basis = kernel_basis(model)
    return _j_invariant_subbasis(model, basis) if kind == "lck" else basis


def taming_feasibility(model: LieAlgebraModel, kind="taming", theta=None,
                       tol=FEASIBILITY_TOL, restarts=DEFAULT_RESTARTS,
                       max_iters=DEFAULT_MAX_ITERS, seed=0) -> TamingCertificate:
    """Decide whether some kernel form omega has Sym(omega(., J.)) positive
    definite: by an exact rank-one certificate of infeasibility when a basis
    vector gives one, otherwise by the restarted ascent of `_ascent`, which
    calls the search feasible when lambda_min exceeds tol (0 <= tol < inf)."""
    if kind not in ("taming", "lck"):
        raise ValueError("kind must be 'taming' or 'lck'")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if theta is not None:
        model = replace(model, theta=theta)
    basis = _cone_basis(model, kind)
    if not basis:
        return TamingCertificate([], 0.0, kind, False, reason="kernel is zero")
    jmat = _j_float(model)
    v = _rank_one_certificate(model, basis)
    if v is not None:
        shown = ", ".join(map(str, v))
        return TamingCertificate(
            [], 0.0, kind, False, certificate=v,
            reason=f"omega(v, Jv) = 0 over Q for v = ({shown}) and every kernel form")
    return _ascent(basis, jmat, kind, tol, restarts, max_iters, seed)


def _pairing(form: InvariantForm, v, jv):
    """omega(v, Jv) over Q, from the form's coefficients on e^i ^ e^k."""
    return sum(c * (v[i] * jv[k] - v[k] * jv[i])
               for (i, k), c in zip(wedge_basis(form.dim, 2), form.coeffs) if c)


def _rank_one_certificate(model, basis):
    """A basis vector v = e_j with omega(v, Jv) = 0 exactly for every form in
    `basis`, or None.  Z = v v^T is then a nonzero positive semidefinite
    matrix with <Z, Sym(omega(., J.))> = 0 on the span, which excludes a
    positive definite member."""
    for j in range(model.dim):
        v = [Fraction(int(i == j)) for i in range(model.dim)]
        jv = model.apply_J(v)
        if all(_pairing(b, v, jv) == 0 for b in basis):
            return v
    return None


def _ascent(basis, jmat, kind, tol, restarts, max_iters, seed) -> TamingCertificate:
    """Maximize lambda_min(Sym(omega(., J.))) over the unit sphere of the
    kernel-coefficient space by projected subgradient ascent with restarts.
    Its infeasible verdict is evidence, not proof."""
    import numpy as np

    mats = []
    for b in basis:
        m = form_to_matrix(b) @ jmat
        mats.append((m + m.T) / 2)
    mats = np.array(mats)

    rng = np.random.default_rng(seed)
    dim = len(basis)

    def lam_min(x):
        vals, vecs = np.linalg.eigh(np.tensordot(x, mats, axes=1))
        return vals[0], vecs[:, 0]

    best_x, best_val = None, -np.inf
    for _ in range(restarts):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        run_best, stale = -np.inf, 0
        for it in range(1, max_iters + 1):
            val, v = lam_min(x)
            if val > best_val:
                best_val, best_x = val, x.copy()
            if val > run_best + 1e-12:
                run_best, stale = val, 0
            else:
                stale += 1
                if stale > 200:  # plateau, this restart has converged
                    break
            grad = np.array([v @ m @ v for m in mats])  # subgradient of lambda_min
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            step = x + (1.0 / it) * grad / gn
            norm = np.linalg.norm(step)
            if norm < 1e-14:  # on a 1-D kernel a step from x = -1 lands on 0
                break
            x = step / norm
        val, _ = lam_min(x)
        if val > best_val:
            best_val, best_x = val, x
        if best_val > 10 * tol:
            break  # feasibility is established; further restarts only polish

    feasible = best_val > tol
    reason = "" if feasible else "best lambda_min <= tolerance over all restarts"
    return TamingCertificate(list(best_x), float(best_val), kind, feasible, reason)


def certificate_form(model: LieAlgebraModel, cert: TamingCertificate,
                     max_denominator=10**6) -> InvariantForm:
    """Exact reconstruction: rationalize the certificate coefficients in the
    cone's basis; the result is d_theta-closed exactly by construction."""
    form = InvariantForm.zero(model.dim, 2)
    for c, b in zip(cert.coefficients, _cone_basis(model, cert.kind)):
        q = Fraction(c).limit_denominator(max_denominator)
        form = form + b.scale(q)
    return form
