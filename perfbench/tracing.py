"""Spans around the calls into each layer, recorded from outside ``src/``.

``Tracer.install`` replaces each traced public function under every name a
``novikov`` module binds it to (and a few methods and ``numpy.linalg.eigh``)
with a wrapper that records a span: name, start, end, parent span and query
id, plus one number describing the call (matrix size, kernel dimension).
Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

import numpy


def _entries(m):
    return m.rows * m.cols


def _rank_kind(m):
    """Scalar type of a matrix's entries: q (Fraction), nf or rf."""
    first = m.entries[0] if m.entries else None
    name = type(first).__name__
    return {"NFElem": "nf", "RatFunc": "rf"}.get(name, "q")


# (span name, module, attribute, describe(args, result) -> number or None)
FUNCTIONS = [
    ("exact.isolate_real_roots", "novikov.exact.algebraic", "isolate_real_roots", None),
    ("exact.count_roots", "novikov.exact.polynomials", "count_roots", None),
    ("exact.alg_ops", "novikov.exact.algebraic", "alg_eq", None),
    ("exact.alg_ops", "novikov.exact.algebraic", "alg_cmp", None),
    ("exact.alg_ops", "novikov.exact.algebraic", "alg_reciprocal", None),
    ("exact.char_poly", "novikov.exact.matrices", "char_poly", lambda a, r: a[0].rows),
    ("exact.exterior_power", "novikov.exact.matrices", "exterior_power", None),
    ("exact.rank", "novikov.exact.matrices", "rank", lambda a, r: _entries(a[0])),
    ("exact.rank", "novikov.exact.matrices", "nf_rank", lambda a, r: _entries(a[0])),
    ("exact.rank", "novikov.exact.matrices", "rf_rank", lambda a, r: _entries(a[0])),
    ("exact.nullspace", "novikov.exact.matrices", "nullspace", None),
    ("mapping_torus.exceptional_lambdas", "novikov.mapping_torus", "exceptional_lambdas", None),
    ("mapping_torus.kappa", "novikov.mapping_torus", "kappa", None),
    ("mapping_torus.twisted_betti", "novikov.mapping_torus", "twisted_betti", None),
    ("chevalley.d_theta_matrix", "novikov.chevalley", "d_theta_matrix",
     lambda a, r: _entries(r)),
    ("chevalley.twisted_ce_cohomology", "novikov.chevalley", "twisted_ce_cohomology", None),
    ("chevalley.harmonic_dims", "novikov.chevalley", "harmonic_dims", None),
    ("chevalley.validate", "novikov.chevalley", "validate", None),
    ("chevalley.obstruction_search", "novikov.chevalley", "obstruction_search", None),
    ("lck_cone.kernel_basis", "novikov.lck_cone", "kernel_basis", lambda a, r: len(r)),
    ("lck_cone.taming_feasibility", "novikov.lck_cone", "taming_feasibility", None),
    ("modelfile.load", "novikov.modelfile", "load_model", None),
    ("cli.main", "novikov.cli", "main", None),
] + [("catalog.build", "novikov.catalog", name, None) for name in (
    "default_s0", "default_splus", "default_sminus", "make_s0", "make_splus",
    "make_sminus", "make_hopf", "make_kato", "s0_algebra", "splus_algebra",
    "splus_coframe_model", "ot_algebra", "abelian_algebra")]

# (span name, module, class, method)
METHODS = [
    ("exact.ratfunc", "novikov.exact.ratfunc", "RatFunc", "__init__"),
    ("exact.nf.mul", "novikov.exact.numberfield", "NFElem", "__mul__"),
]


class Tracer:
    def __init__(self):
        self.names = []          # span name table
        self._name_id = {}
        self.name = array("i")   # per span: index into names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1 for a root span
        self.query = array("i")
        self.info = array("d")    # describe() value, or -1
        self.kind = []            # per span: rank scalar kind or ""
        self._stack = []
        self.query_id = -1
        self._undo = []

    # -- recording --------------------------------------------------------

    def span_id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name_id, kind=""):
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.info.append(-1.0)
        self.kind.append(kind)
        self._stack.append(idx)
        return idx

    def close(self, idx, info=None):
        self.end[idx] = time.perf_counter()
        if info is not None:
            self.info[idx] = info
        self._stack.pop()

    def wrap(self, fn, name, describe=None):
        name_id = self.span_id(name)
        tracer = self
        is_rank = name == "exact.rank"

        def traced(*args, **kwargs):
            idx = tracer.open(name_id, _rank_kind(args[0]) if is_rank else "")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = None
                if describe is not None and result is not None:
                    info = describe(args, result)
                tracer.close(idx, info)

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every traced function under all names novikov modules bind."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "novikov" or n.startswith("novikov.")]
        for name, modname, attr, describe in FUNCTIONS:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[modname], cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name))
        self._undo.append((numpy.linalg, "eigh", numpy.linalg.eigh))
        numpy.linalg.eigh = self.wrap(numpy.linalg.eigh, "lck_cone.eigh")

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines [name, start, end, parent, query, info, kind]."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.query[i], self.info[i],
                                     self.kind[i]]) + "\n")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        covered, reach = 0.0, starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def outermost(names, parents):
    """True for a span with no ancestor of the same name (an alias calling
    the function it wraps, or recursion, is one call)."""
    flags = []
    for i in range(len(names)):
        p = parents[i]
        while p >= 0 and names[p] != names[i]:
            p = parents[p]
        flags.append(p < 0)
    return flags


# Metric names that do not follow <span>.calls / <span>.self_s.
CALLS_NAME = {"exact.ratfunc": "exact.ratfunc.inits", "exact.nf.mul": "exact.nf.mul_calls",
              "lck_cone.eigh": "lck_cone.eigh_calls"}
SELF_NAME = {"exact.nf.mul": "exact.nf.self_s"}
# Model construction is reported inclusive of the exact arithmetic it does.
INCLUSIVE_NAME = {"catalog.build": "catalog.build_s", "modelfile.load": "modelfile.load_s"}
# What describe() returns, per span name.
INFO_NAME = {"chevalley.d_theta_matrix": "entries", "lck_cone.kernel_basis": "kernel_dim"}
RANK_KINDS = ("q", "nf", "rf")


def metric_names():
    """Every per-layer metric the spans give."""
    spans = {name for name, *_ in FUNCTIONS} | {name for name, *_ in METHODS}
    spans |= {"lck_cone.eigh"}
    spans = spans - {"exact.rank"} | {f"exact.rank.{k}" for k in RANK_KINDS}
    names = {"exact.char_poly.max_n"} | set(INCLUSIVE_NAME.values())
    names |= {f"exact.rank.{k}.entries" for k in RANK_KINDS}
    names |= {f"{span}.{info}" for span, info in INFO_NAME.items()}
    for span in spans:
        names |= {CALLS_NAME.get(span, f"{span}.calls"), SELF_NAME.get(span, f"{span}.self_s")}
    return names


def layer_metrics(tracer):
    """The per-layer table of one traced cycle: every name in metric_names(),
    0 for a layer that never ran."""
    names = [tracer.names[i] for i in tracer.name]
    starts, ends, parents, info = tracer.start, tracer.end, tracer.parent, tracer.info
    selfs = self_times(starts, ends, parents)
    outer = outermost(names, parents)
    agg = dict.fromkeys(metric_names(), 0.0)

    def add(key, value):
        agg[key] += value  # a KeyError here means metric_names() is out of date

    for i, name in enumerate(names):
        if name == "query":  # the benchmark's own span around each query
            continue
        if name == "exact.rank":
            name = f"exact.rank.{tracer.kind[i]}"
            if outer[i]:
                add(f"{name}.entries", info[i])
        elif name in INFO_NAME and info[i] >= 0:
            add(f"{name}.{INFO_NAME[name]}", info[i])
        elif name == "exact.char_poly":
            agg["exact.char_poly.max_n"] = max(agg["exact.char_poly.max_n"], info[i])
        add(SELF_NAME.get(name, f"{name}.self_s"), selfs[i])
        if outer[i]:
            add(CALLS_NAME.get(name, f"{name}.calls"), 1)
            if name in INCLUSIVE_NAME:
                add(INCLUSIVE_NAME[name], ends[i] - starts[i])
    return agg
