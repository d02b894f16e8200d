"""Seeded inputs for the three benchmark workloads.

Inputs are computed with sympy, numpy and the standard library; no
``novikov`` code runs while they are made.  The program under test sees the
model files written here and the command lines in ``Query.argv``.  Each query
carries a ``check`` record that tells the oracles in ``oracles.py`` what a
correct answer looks like.

A workload is one *cycle* of queries.  The benchmark repeats whole cycles, so
the mix of query classes in a run is fixed and the seed varies the instances:
the conjugating bases of the torus monodromies, the rational Lee parameters,
the signs of the almost-abelian bases and the rational instantiation points.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import log

import sympy as sp

X = sp.Symbol("x")

# Companion-matrix templates by fiber dimension, given as the coefficients
# c0..c_{n-1} of the monic x^n + c_{n-1} x^{n-1} + ... + c0 with
# c0 = (-1)^n, so every template lies in SL_n(Z).  Conjugating a template by
# a seeded unimodular matrix changes the entries but not the spectrum, so the
# number of exceptional Lee parameters (and with it the cost class of a scan)
# is fixed per template while the arithmetic the program does is not.
TORUS_TEMPLATES = {
    3: [(-1, -1, 0), (-1, -3, 0), (-1, 3, -4)],
    4: [(1, -1, -3, 1), (1, 0, -3, 0), (1, -2, 0, -1)],
    5: [(-1, -1, 0, 0, 0), (-1, 0, 1, -3, 0)],
    6: [(1, 0, -3, 0, -3, 0), (1, -1, 0, 0, -3, 0)],
}
# Generated fibers per dimension and the elementary conjugation steps each
# gets (None: only a change of signs, D M D with D = diag(+-1)).  Large fibers
# get fewer steps: their cost grows fast with entry size and pivot order, and
# a steady benchmark needs the cost of a cycle to vary little between seeds.
TORUS_COUNT = {3: 8, 4: 8, 5: 6, 6: 4}
TORUS_STEPS = {3: 4, 4: 2, 5: None, 6: None}
RATIONALS_PER_FIBER = 5  # on dims 3-4; one on the costly dims 5-6

# Catalog fibers: golden profiles pinned by acceptance criteria 1-4 and 7,
# keyed by Lee parameter (as a float).  Rows not pinned are checked by
# duality and Euler characteristic only.
S0_ALPHA = 1.324717957244746      # real root of x^3 - x - 1
SPLUS_ALPHA = 2.618033988749895   # (3 + sqrt 5) / 2
SMINUS_ALPHA = 1.618033988749895  # golden ratio


# "source" is what the SVD oracle needs: the S0 monodromy, or for the
# eigen-descriptor fibers diagonal stand-ins with the same real spectrum on
# each H^k (the twisted profile depends on nothing else).
CATALOG_FIBERS = {
    "s0:default": {
        "source": {"matrix": [[0, 0, 1], [1, 0, 1], [0, 1, 0]]},
        "lambdas": [1 / S0_ALPHA, 1.0, S0_ALPHA],
        "golden": {S0_ALPHA: (0, 0, 1, 1, 0), 1 / S0_ALPHA: (0, 1, 1, 0, 0),
                   1.0: (1, 1, 0, 1, 1)},
        "alpha": S0_ALPHA, "blowup": 0,
    },
    "splus:default": {
        "source": {"diagonal": [[1.0], [1 / SPLUS_ALPHA, SPLUS_ALPHA],
                                [1 / SPLUS_ALPHA, SPLUS_ALPHA], [1.0]]},
        "lambdas": [1 / SPLUS_ALPHA, 1.0, SPLUS_ALPHA],
        "golden": {SPLUS_ALPHA: (0, 1, 2, 1, 0)},
        "alpha": SPLUS_ALPHA, "blowup": 0,
    },
    "sminus:default": {
        "source": {"diagonal": [[1.0], [-1 / SMINUS_ALPHA, SMINUS_ALPHA],
                                [1 / SMINUS_ALPHA, -SMINUS_ALPHA], [1.0]]},
        "lambdas": [1 / SMINUS_ALPHA, 1.0, SMINUS_ALPHA],
        "golden": {SMINUS_ALPHA: (0, 0, 1, 1, 0), 1 / SMINUS_ALPHA: (0, 1, 1, 0, 0)},
        "alpha": SMINUS_ALPHA, "blowup": 0,
    },
    "hopf": {
        "source": {"diagonal": [[1.0], [], [], [1.0]]},
        "lambdas": [1.0], "golden": {}, "alpha": None, "blowup": 0,
    },
    "kato:3": {
        "source": {"diagonal": [[1.0], [], [], [1.0]]},
        "lambdas": [1.0], "golden": {}, "alpha": None, "blowup": 3,
    },
}


@dataclass
class Query:
    """One request.  ``argv`` goes to ``novikov.cli.main``; a query with
    ``call`` set instead invokes that public function on ``spec``'s model."""

    qid: str
    argv: list = None
    call: str = None
    spec: str = None
    check: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    queries: list
    model_specs: list  # what a fresh interpreter builds or loads at set-up
    # Queries that raised when the benchmark was defined.  They run once,
    # outside the timed loop; check["known_error"] names the exception.
    known_failures: list = field(default_factory=list)


# -- small exact helpers ------------------------------------------------------

def _det(rows):
    """Integer determinant by cofactor expansion (orders up to 3 here)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def exterior_power_int(m, k):
    n = len(m)
    subsets = list(combinations(range(n), k))
    if k == 0:
        return [[1]]
    return [[_det([[m[r][c] for c in t] for r in s]) for t in subsets] for s in subsets]


def companion(coeffs):
    n = len(coeffs)
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -coeffs[i]
    return m


def conjugate_unimodular(m, rng, steps):
    """E M E^-1 for `steps` random elementary E = I + c e_i e_j^T, c = +-1,
    after a random simultaneous permutation of rows and columns; with steps
    None, D M D for a random diagonal D of signs."""
    n = len(m)
    if steps is None:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        return [[signs[i] * m[i][j] * signs[j] for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for k in range(n):
            m[i][k] += c * m[j][k]
        for k in range(n):
            m[k][j] -= c * m[k][i]
    return m


def _frac_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _horner(coeffs, x):
    """Value at x of the polynomial with integer coefficients, lowest first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _root_float(coeffs, lo, hi):
    """The single root of the polynomial in (lo, hi), to double precision."""
    s_lo = _horner(coeffs, lo) > 0
    while hi - lo > abs(hi) * Fraction(1, 2 ** 60):
        mid = (lo + hi) / 2
        v = _horner(coeffs, mid)
        if v == 0:
            return float(mid)
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def exceptional_lambdas_exact(m):
    """Reciprocals of the positive real eigenvalues of every exterior power
    of the integer matrix m, as sorted (spec string, float) pairs."""
    found = {}
    for k in range(len(m) + 1):
        cp = sp.Matrix(exterior_power_int(m, k)).charpoly(X).as_expr()
        for f, _ in sp.factor_list(cp, X)[1]:
            poly = sp.Poly(f, X)
            coeffs = [int(c) for c in reversed(poly.all_coeffs())]  # lowest first
            if poly.degree() == 1:
                mu = Fraction(-coeffs[0], coeffs[1])
                if mu > 0:
                    found.setdefault(f"rational:{_frac_str(1 / mu)}", float(1 / mu))
                continue
            for (lo, hi), _ in poly.intervals():
                lo, hi = Fraction(str(lo)), Fraction(str(hi))
                while hi > 0 and (lo <= 0 or hi - lo > Fraction(1, 8)):
                    lo, hi = (Fraction(str(v)) for v in
                              poly.refine_root(lo, hi, eps=(hi - lo) / 4))
                if hi <= 0:
                    continue
                lam = 1 / _root_float(coeffs, lo, hi)
                if any(abs(v - lam) < 1e-9 * lam for v in found.values()):
                    continue
                recip = list(reversed(coeffs))  # minimal polynomial of 1/mu
                spec = "poly:" + ",".join(map(str, recip)) + \
                    f"@({_frac_str(1 / hi)},{_frac_str(1 / lo)})"
                found[spec] = lam
    return sorted(found.items(), key=lambda kv: kv[1])


# -- Lie algebra documents ----------------------------------------------------
#
# Catalog algebras are transcribed here in model-file form so the oracles can
# rebuild their differentials without calling the program.

J4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
      ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]


def _bracket(i, j, coeffs):
    """1-based model-file bracket entry from 0-based indices."""
    return {"i": i + 1, "j": j + 1, "coeffs": {str(k + 1): v for k, v in coeffs.items()}}


def s0_algebra_doc():
    return {"type": "lie_algebra", "name": "s0-algebra", "dim": 4, "params": ["r", "s"],
            "brackets": [_bracket(0, 1, {1: "-2*r"}), _bracket(0, 2, {2: "r", 3: "s"}),
                         _bracket(0, 3, {3: "r", 2: "-s"})],
            "theta": ["-2*r", "0", "0", "0"], "J": J4}


def splus_algebra_doc():
    return {"type": "lie_algebra", "name": "splus-algebra", "dim": 4, "params": ["a"],
            "brackets": [_bracket(1, 2, {0: "-1"}), _bracket(1, 3, {1: "-1"}),
                         _bracket(2, 3, {2: "1"})],
            "theta": ["0", "0", "0", "1"],
            "J": [["0", "-1", "0", "-a"], ["1", "0", "-a", "0"],
                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}


def splus_coframe_doc():
    return {"type": "lie_algebra", "name": "splus-coframe", "dim": 4,
            "brackets": [_bracket(0, 2, {0: "1"}), _bracket(0, 3, {1: "1"}),
                         _bracket(2, 3, {3: "1"})],
            "theta": ["0", "0", "1", "0"], "coframe": True}


def abelian4_doc():
    return {"type": "lie_algebra", "name": "abelian4", "dim": 4, "brackets": [],
            "theta": ["0"] * 4, "J": J4, "coframe": True}


def ot_doc(s):
    """Oeljeklaus-Toma algebra on A_1..A_s, B_1..B_s, C1, C2 with symbolic
    alpha_i and theta = sum r_i A_i-dual."""
    alphas = [f"alpha{i + 1}" for i in range(s)]
    rs = [f"r{i + 1}" for i in range(s)]
    dim, c1, c2 = 2 * s + 2, 2 * s, 2 * s + 1
    brackets = []
    for i in range(s):
        brackets.append(_bracket(i, s + i, {s + i: "1"}))
        brackets.append(_bracket(i, c1, {c1: "-1/2", c2: alphas[i]}))
        brackets.append(_bracket(i, c2, {c1: f"-{alphas[i]}", c2: "-1/2"}))
    jm = [["0"] * dim for _ in range(dim)]
    for i in range(s):
        jm[s + i][i], jm[i][s + i] = "1", "-1"
    jm[c2][c1], jm[c1][c2] = "1", "-1"
    return {"type": "lie_algebra", "name": f"ot{s}", "dim": dim, "params": alphas + rs,
            "brackets": brackets, "theta": rs + ["0"] * (s + 2), "J": jm}


def almost_abelian_doc(shape_rng, sign_rng, m, params, with_j):
    """R x_A R^m on e0..em: [e0, e_i] = sum_k A[k][i] e_k, all other brackets
    zero, so Jacobi holds for any A; theta = r e^0 is closed because no bracket
    has an e0 component.  `shape_rng` draws an integer A with each parameter
    added to one entry; `sign_rng` then flips the signs of basis vectors,
    A -> D A D.  The flips change every matrix the program builds but not the
    work it does, so the cost of a cycle does not depend on the run's seed."""
    a = [[shape_rng.choice((0, 0, 0, 1, -1, 2, -2)) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        a[i][i] = shape_rng.choice((1, -1, 2, -2, 3))
    text = [[str(v) for v in row] for row in a]
    cells = shape_rng.sample([(i, j) for i in range(m) for j in range(m)], len(params))
    for p, (i, j) in zip(params, cells):
        text[i][j] = f"{p}+({a[i][j]})" if a[i][j] else p
    signs = [sign_rng.choice((1, -1)) for _ in range(m)]

    def signed(k, i):
        t = text[k][i]
        if signs[k] * signs[i] > 0:
            return t
        return f"-({t})" if any(c.isalpha() for c in t) else str(-int(t))

    brackets = []
    for i in range(m):
        coeffs = {k + 1: signed(k, i) for k in range(m) if text[k][i] != "0"}
        if coeffs:
            brackets.append(_bracket(0, i + 1, coeffs))
    doc = {"type": "lie_algebra", "name": f"aa{m + 1}", "dim": m + 1,
           "params": list(params) + ["r"], "brackets": brackets,
           "theta": ["r"] + ["0"] * m}
    if with_j:
        doc["J"] = J4
    return doc


def instantiate_doc(doc, values):
    """Substitute rational values for parameters, as strings in the file."""
    def sub(expr):
        if not any(ch.isalpha() for ch in expr):  # a number already
            return expr
        return str(sp.sympify(expr, rational=True).subs(
            {sp.Symbol(k): sp.Rational(str(v)) for k, v in values.items()}))
    out = json.loads(json.dumps(doc))
    out["params"] = [p for p in doc.get("params", []) if p not in values]
    if not out["params"]:
        del out["params"]
    for b in out["brackets"]:
        b["coeffs"] = {k: sub(v) for k, v in b["coeffs"].items()}
    out["theta"] = [sub(c) for c in out["theta"]]
    if "J" in out:
        out["J"] = [[sub(c) for c in row] for row in out["J"]]
    return out


def _rationals(rng, count):
    """Distinct seeded rationals in (0, 30], none equal to 1."""
    out = set()
    while len(out) < count:
        q = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        if q != 1:
            out.add(q)
    return sorted(out)


def _rand_rational(rng, num=9, den=7):
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q:
            return q


# -- workloads ----------------------------------------------------------------

def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _catalog_check(name):
    info = CATALOG_FIBERS[name]
    return {"type": "fiber", "source": info["source"], "lambdas": info["lambdas"],
            "golden": info["golden"], "blowup": info["blowup"]}


def fiber_scan(seed, workdir):
    rng = random.Random(f"fiber_scan:{seed}")
    queries, specs = [], list(CATALOG_FIBERS)
    for name, info in CATALOG_FIBERS.items():
        base = _catalog_check(name)
        queries.append(Query(f"scan {name}", ["scan", name], check=dict(base, answer="scan")))
        queries.append(Query(f"verify {name}", ["verify", name],
                             check=dict(base, answer="verify")))
        q, = _rationals(rng, 1)
        queries.append(Query(f"cohomology {name} rational", ["cohomology", name, "--lambda",
                                                            f"rational:{_frac_str(q)}"],
                             check=dict(base, answer="profile", lam=float(q))))
        if info["alpha"] is not None:
            queries.append(Query(f"cohomology {name} alpha",
                                 ["cohomology", name, "--at-alpha"],
                                 check=dict(base, answer="profile", lam=info["alpha"])))
    queries.append(Query("cohomology s0 1/alpha",
                         ["cohomology", "s0:default", "--lambda-log=-log(alpha)"],
                         check=dict(_catalog_check("s0:default"), answer="profile",
                                    lam=1 / S0_ALPHA)))
    spectra = {}  # conjugation keeps the spectrum: one computation per template
    for n, count in TORUS_COUNT.items():
        templates = TORUS_TEMPLATES[n]
        for idx in range(count):
            coeffs = templates[idx % len(templates)]
            if coeffs not in spectra:
                spectra[coeffs] = exceptional_lambdas_exact(companion(coeffs))
            lams = spectra[coeffs]
            m = conjugate_unimodular(companion(coeffs), rng, TORUS_STEPS[n])
            path = _write(os.path.join(workdir, f"torus{n}_{idx}.json"),
                          {"type": "torus_monodromy", "name": f"torus{n}_{idx}", "matrix": m})
            specs.append(path)
            base = {"type": "fiber", "source": {"matrix": m},
                    "lambdas": [v for _, v in lams], "golden": {}, "blowup": 0}
            tag = f"torus{n}_{idx}"
            if n <= 4 or idx == 0:  # one scan per large dimension
                queries.append(Query(f"scan {tag}", ["scan", path],
                                     check=dict(base, answer="scan")))
            if n == 3:
                queries.append(Query(f"verify {tag}", ["verify", path],
                                     check=dict(base, answer="verify")))
            # every exceptional lambda on small fibers; on large ones the
            # lambda > 1 of lowest algebraic degree and its reciprocal, so the
            # number-field degree (the main cost factor) is fixed per template
            if n <= 4:
                chosen = list(lams)
            else:
                big = [kv for kv in lams if kv[1] > 1]
                spec, val = min(big, key=lambda kv: (kv[0].count(","), -kv[1]))
                recip = min(lams, key=lambda kv: abs(kv[1] * val - 1))
                chosen = [(spec, val), recip]
            # cheap single-lambda queries, most of them at rational points:
            # their latency is the per-call cost (parsing, loading, the
            # exterior powers) that latency_p50_s tracks
            for q in _rationals(rng, RATIONALS_PER_FIBER if n <= 4 else 1):
                chosen.append((f"rational:{_frac_str(q)}", float(q)))
            for spec, val in chosen:
                queries.append(Query(f"cohomology {tag} {val:.6f}",
                                     ["cohomology", path, "--lambda", spec],
                                     check=dict(base, answer="profile", lam=val)))
    return Workload("fiber_scan", queries, specs)


# Symbolic cohomology models; ot:3 is left out because one query takes about
# 13 s in process, over half a run, which leaves too few samples per run.
LIE_GENERIC_CATALOG = {"ot:1": lambda: ot_doc(1), "ot:2": lambda: ot_doc(2),
                       "s0-algebra": s0_algebra_doc, "splus-algebra": splus_algebra_doc}
# Generated almost-abelian algebras: (dimension, parameters in A) per model.
# Their cost varies by a factor of up to 4 with the integer entries of A, so
# the entries are fixed and the seed varies signs and rational points only.
LIE_GENERIC_SHAPES = [(4, ("a",)), (4, ("a", "b"))] * 8 + [(5, ("a",))] * 4


def lie_generic(seed, workdir):
    rng = random.Random(f"lie_generic:{seed}")
    queries, specs = [], list(LIE_GENERIC_CATALOG)
    for name, make in LIE_GENERIC_CATALOG.items():
        queries.append(Query(f"cohomology {name}", ["cohomology", name],
                             check={"type": "lie_generic", "doc": make(),
                                    "points": _points(rng, make())}))
    shapes = random.Random("lie_generic shapes")  # the same structures every run
    for idx, (n, params) in enumerate(LIE_GENERIC_SHAPES):
        doc = almost_abelian_doc(shapes, rng, n - 1, params, with_j=False)
        path = _write(os.path.join(workdir, f"aa{n}_{idx}.json"), doc)
        specs.append(path)
        queries.append(Query(f"cohomology aa{n}_{idx}", ["cohomology", path],
                             check={"type": "lie_generic", "doc": doc,
                                    "points": _points(rng, doc)}))
    return Workload("lie_generic", queries, specs)


def _points(rng, doc, count=3):
    """Seeded rational points with large numerators and denominators, so the
    largest rank among them is the generic rank with high probability."""
    return [{p: _frac_str(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)))
             for p in doc.get("params", [])} for _ in range(count)]


# The lck query that crashed when the benchmark was defined (1-dimensional
# J-invariant kernel, the first ascent step lands on x = 0); it stays among
# the known failures whatever the seed.
OT1_CRASH_POINT = {"alpha1": "1/5", "r1": "-3/2"}


def lie_rational(seed, workdir):
    rng = random.Random(f"lie_rational:{seed}")
    queries, specs = [], ["s0-algebra", "abelian4", "splus-coframe", "splus-algebra",
                          "ot:1", "ot:2"]
    r_alpha = Fraction(log(S0_ALPHA) / 2).limit_denominator(10 ** 9)
    s0_at = instantiate_doc(s0_algebra_doc(), {"r": r_alpha, "s": 1})
    for kind in ("taming", "lck"):
        for flag, sign in (("--at-alpha", 1), ("--at-inverse-alpha", -1)):
            queries.append(Query(f"cone s0-algebra {flag} {kind}",
                                 ["cone", "s0-algebra", flag, "--kind", kind],
                                 check={"type": "cone", "doc": s0_at, "theta_sign": sign,
                                        "kind": kind,
                                        "golden": _s0_cone_golden(kind, sign)}))
        queries.append(Query(f"cone abelian4 {kind}",
                             ["cone", "abelian4", "--theta", "zero", "--kind", kind],
                             check={"type": "cone", "doc": abelian4_doc(), "theta_sign": 0,
                                    "kind": kind, "golden": True}))
    for name, doc in (("splus-coframe", splus_coframe_doc()), ("abelian4", abelian4_doc())):
        queries.append(Query(f"harmonic_dims {name}", call="harmonic_dims", spec=name,
                             check={"type": "harmonic", "doc": doc}))
    for name, doc in (("s0-algebra", s0_algebra_doc()), ("splus-algebra", splus_algebra_doc()),
                      ("ot:1", ot_doc(1)), ("ot:2", ot_doc(2))):
        queries.append(Query(f"obstruction_search {name}", call="obstruction_search",
                             spec=name, check={"type": "obstruction", "doc": doc,
                                               "required": True}))
    # Seeded points are drawn per taming verdict (by a float estimate), so
    # every run holds the same number of long infeasible searches and quick
    # feasible ones; the search length is what a query costs here.
    instances = [("ot1_crash", ot_doc(1), OT1_CRASH_POINT),
                 ("ot1_0", ot_doc(1), _draw_point(rng, ot_doc(1), feasible=False)),
                 ("ot1_1", ot_doc(1), _draw_point(rng, ot_doc(1), feasible=True))]
    ot2 = ot_doc(2)
    instances.append(("ot2_0", ot2, {p: _rand_rational(rng) for p in ot2["params"]}))
    shapes = random.Random("lie_rational shapes")
    for idx, params in enumerate((("a",), ("a", "b"))):
        doc = almost_abelian_doc(shapes, rng, 3, params, with_j=True)
        instances.append((f"aa4_{idx}", doc, _draw_point(rng, doc, feasible=False)))
    for tag, doc, point in instances:
        inst = instantiate_doc(doc, point)
        path = _write(os.path.join(workdir, f"{tag}.json"), inst)
        specs.append(path)
        queries.append(Query(f"cohomology {tag}", ["cohomology", path],
                             check={"type": "lie_point", "doc": inst,
                                    "generic": doc, "points": _points(rng, doc)}))
        queries.append(Query(f"verify {tag}", ["verify", path],
                             check={"type": "lie_verify", "doc": inst}))
        # taming on ot(2) points is left out: its search takes 1 s to 15 s
        # depending on the point, which no run length here can average out
        for kind in ("lck",) if tag.startswith("ot2") else ("taming", "lck"):
            queries.append(Query(f"cone {tag} {kind}", ["cone", path, "--kind", kind],
                                 check={"type": "cone", "doc": inst, "theta_sign": 1,
                                        "kind": kind, "golden": None}))
        if tag.startswith("ot1"):
            queries.append(Query(f"obstruction_search {tag}", call="obstruction_search",
                                 spec=path, check={"type": "obstruction", "doc": inst,
                                                   "required": True}))
    # `cone --kind lck` on a 1-dimensional J-invariant kernel with an
    # indefinite form raised LinAlgError when the benchmark was defined: the
    # first ascent step lands on x = 0 and x becomes NaN.
    import oracles

    crashing = []
    for q in queries:
        check = q.check
        if check["type"] == "cone" and check["kind"] == "lck":
            lie = oracles.LieDoc(check["doc"])
            theta = [c * check["theta_sign"] for c in lie.theta]
            if len(oracles.cone_basis(lie, theta, "lck")) == 1:
                check["known_error"] = "LinAlgError"
                crashing.append(q)
    queries = [q for q in queries if q not in crashing]
    return Workload("lie_rational", queries, specs, crashing)


def _draw_point(rng, doc, feasible, tries=200):
    """A seeded rational point whose estimated taming verdict is `feasible`;
    after `tries` misses, the last point drawn."""
    import oracles

    for _ in range(tries):
        point = {p: _rand_rational(rng) for p in doc["params"]}
        if oracles.taming_looks_feasible(instantiate_doc(doc, point)) == feasible:
            break
    return point


def _s0_cone_golden(kind, sign):
    """Acceptance criterion 12: LCK-feasible at alpha, taming-infeasible at
    1/alpha.  The other two s0 cases are checked without a pinned verdict."""
    if kind == "lck" and sign > 0:
        return True
    if kind == "taming" and sign < 0:
        return False
    return None


WORKLOADS = {"fiber_scan": fiber_scan, "lie_generic": lie_generic,
             "lie_rational": lie_rational}


def build(name, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)


def main(argv):
    """python3 perfbench/gen.py <workload> <seed> <dir>: the model files go
    to <dir>, the pickled Workload to <dir>/workload.pickle."""
    name, seed, workdir = argv
    workload = build(name, int(seed), workdir)
    with open(os.path.join(workdir, "workload.pickle"), "wb") as fh:
        pickle.dump(workload, fh)


if __name__ == "__main__":
    # through the importable module, so the pickle names gen.Query and not
    # __main__.Query
    import gen

    gen.main(sys.argv[1:])
