"""Command-line front end.

Subcommands: ``cohomology`` (twisted Betti profile at a Lee parameter),
``scan`` (profiles at every exceptional parameter), ``verify`` (invariant
suites, JSON report) and ``cone`` (taming/LCK feasibility).  Models are
either catalog names (``s0:default``, ``s0:<rows>``, ``splus:<rows>``,
``sminus:<rows>``, ``hopf``, ``kato:<n>``, ``ot:<s>``, ``s0-algebra``,
``splus-algebra``, ``splus-coframe``, ``abelian<n>``) or paths to JSON model
files.

Exit codes: 0 success, 2 usage/parse error, 3 model validation error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .catalog import (
    DEFAULT_S0_MATRIX,
    S0Datum,
    SpmDatum,
    abelian_algebra,
    default_s0,
    default_sminus,
    default_splus,
    make_hopf,
    make_kato,
    make_s0,
    make_sminus,
    make_splus,
    ot_algebra,
    s0_algebra,
    s0_alpha,
    splus_algebra,
    splus_coframe_model,
)
from .chevalley import (LieAlgebraModel, LieModelError, ValidationReport,
                        twisted_ce_cohomology, validate)
from .exact import AlgebraicReal, alg_power, alg_reciprocal
from .lck_cone import taming_feasibility
from .mapping_torus import (
    FiberModel,
    ModelError,
    euler_char,
    exceptional_lambdas,
    json_approx,
    lambda_to_jsonable,
    twisted_betti,
)
from .modelfile import SchemaError, _parse_expr, load_model, parse_eigenvalue_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_VERIFY = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class ResolvedModel:
    """A named model plus optional distinguished alpha, profile transform and
    the validation report of a model file, which the loader validated."""

    def __init__(self, name, model, alpha=None, transform=None, report=None):
        self.name = name
        self.model = model
        self.alpha = alpha
        self.transform = transform  # BettiProfile -> BettiProfile
        self.report = report

    @property
    def is_fiber(self):
        return isinstance(self.model, FiberModel)

    def profile(self, lam):
        """Twisted Betti profile at lam, after the transform if there is one."""
        p = twisted_betti(self.model, lam)
        return p if self.transform is None else self.transform(p)


def _parse_int_rows(text, what):
    try:
        return tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    except ValueError as exc:
        raise CliError(f"cannot parse {what} matrix {text!r}: rows are "
                       "semicolon-separated, entries comma-separated integers",
                       EXIT_USAGE) from exc


def _parse_int(text, what):
    """int(text), or exit 2: also where digits exceed Python's conversion limit."""
    try:
        return int(text)
    except ValueError as exc:
        raise CliError(f"{what}, got {text!r}", EXIT_USAGE) from exc


def resolve_model(spec: str) -> ResolvedModel:
    head, _, rest = spec.partition(":")
    if head == "s0":
        model, alpha = default_s0() if rest in ("", "default") else \
            make_s0(S0Datum(_parse_int_rows(rest, "s0")))
        return ResolvedModel(spec, model, alpha)
    if head in ("splus", "sminus"):
        maker, default = ((make_splus, default_splus) if head == "splus"
                          else (make_sminus, default_sminus))
        model, alpha = default() if rest in ("", "default") else \
            maker(SpmDatum(_parse_int_rows(rest, head)))
        return ResolvedModel(spec, model, alpha)
    if spec == "hopf":
        return ResolvedModel(spec, make_hopf())
    if head == "kato":
        n = _parse_int(rest, "kato needs an integer point count")
        return ResolvedModel(spec, make_hopf(), transform=make_kato(n))
    if spec == "s0-algebra":
        return ResolvedModel(spec, s0_algebra())
    if spec == "splus-algebra":
        return ResolvedModel(spec, splus_algebra())
    if spec == "splus-coframe":
        return ResolvedModel(spec, splus_coframe_model())
    m = re.fullmatch(r"abelian(\d+)", spec)
    if m:
        n = _parse_int(m.group(1), "abelian needs an integer dimension")
        return ResolvedModel(spec, abelian_algebra(n))
    if head == "ot":
        return ResolvedModel(spec, ot_algebra(_parse_int(rest, "ot needs an integer s")))
    # otherwise: a model file path; the loader refuses a model that fails validation
    model = load_model(spec)
    name = getattr(model, "name", "") or spec
    return ResolvedModel(name, model, report=ValidationReport(True, []))


# -- Lee parameter selection -------------------------------------------------

def _parse_lambda(text) -> AlgebraicReal:
    try:
        ev, mult = parse_eigenvalue_spec(text)
    except SchemaError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if not isinstance(ev, AlgebraicReal) or mult != 1 or ev.sign() <= 0:
        raise CliError(f"{text!r} does not denote a single positive real value", EXIT_USAGE)
    return ev


_LOG_RE = re.compile(r"^(?:(-?\d+)\s*\*\s*)?(-?)log\(alpha\)$")
# alpha^k is found through the k-th power of a companion matrix, and its
# float value is printed: both grow with |k|
MAX_LOG_MULTIPLE = 100


def _parse_lambda_log(text, alpha) -> AlgebraicReal:
    """lambda = e^t; only t = 0 and integer multiples of log(alpha) are exact."""
    text = text.strip()
    if text == "0":
        return AlgebraicReal.from_rational(1)
    m = _LOG_RE.match(text.replace(" ", ""))
    if not m:
        raise CliError(
            f"--lambda-log accepts 0 or <int>*log(alpha), got {text!r}; "
            "for other Lee parameters pass --lambda directly", EXIT_USAGE)
    if alpha is None:
        raise CliError("this model has no distinguished alpha for --lambda-log",
                       EXIT_USAGE)
    digits = m.group(1) or "1"
    # int() refuses thousands of digits, and so many are out of range anyway
    if len(digits) > 12 or abs(int(digits)) > MAX_LOG_MULTIPLE:
        raise CliError("--lambda-log multiple is out of range; |k| <= "
                       f"{MAX_LOG_MULTIPLE} is supported", EXIT_USAGE)
    k = -int(digits) if m.group(2) == "-" else int(digits)
    return alg_power(alpha, k)


def select_lambda(args, resolved) -> AlgebraicReal:
    chosen = [x for x in ("lam", "lambda_log", "at_alpha") if getattr(args, x)]
    if len(chosen) != 1:
        raise CliError("choose exactly one of --lambda, --lambda-log, --at-alpha",
                       EXIT_USAGE)
    if args.at_alpha:
        if resolved.alpha is None:
            raise CliError(f"model {resolved.name} has no distinguished alpha",
                           EXIT_USAGE)
        return resolved.alpha
    if args.lam:
        return _parse_lambda(args.lam)
    return _parse_lambda_log(args.lambda_log, resolved.alpha)


# -- subcommands -------------------------------------------------------------

def cmd_cohomology(args):
    resolved = resolve_model(args.model)
    if resolved.is_fiber:
        lam = select_lambda(args, resolved)
        profile = resolved.profile(lam)
        print(f"model   {resolved.name}")
        print(f"lambda  {lam.to_float():.6f}")
        print(f"b = {list(profile.betti)}")
        print(profile.to_json())
        return EXIT_OK
    if args.lam or args.lambda_log or args.at_alpha:
        raise CliError("Lie algebra models use their declared theta; "
                       "lambda selectors apply to fiber models", EXIT_USAGE)
    params = list(resolved.model.params)
    dims = twisted_ce_cohomology(resolved.model)
    print(f"model   {resolved.name}")
    if params:
        print(f"generic in {', '.join(params)}: the dimensions off a proper "
              "algebraic subset of parameter values")
    print(f"b = {dims}")
    print(json.dumps({"model": resolved.name, "betti": dims, "generic_in": params}))
    return EXIT_OK


def cmd_scan(args):
    resolved = resolve_model(args.model)
    if not resolved.is_fiber:
        raise CliError("scan applies to fiber models", EXIT_USAGE)
    rows = [(lam, resolved.profile(lam)) for lam in exceptional_lambdas(resolved.model)]
    report = json.dumps([{"lambda": lambda_to_jsonable(lam),
                          "betti": list(p.betti)} for lam, p in rows])
    print(f"model   {resolved.name}")
    print(f"{'lambda':>12}  betti")
    for lam, profile in rows:
        print(f"{lam.to_float():>12.6f}  {list(profile.betti)}")
    print(report)
    return EXIT_OK


def _verify_fiber(resolved):
    checks = []
    exceptional = exceptional_lambdas(resolved.model)
    lams = exceptional + [AlgebraicReal.from_rational(q)
                          for q in (Fraction(2), Fraction(1, 3), Fraction(7, 5))]
    profiles = [resolved.profile(lam) for lam in lams]
    # where H^n acts by -1 duality pairs lambda with -1/lambda, which no
    # profile has, so the check is left out
    if resolved.model.charpolys[-1].coeffs == (-1, 1):
        pairs = []
        for lam, p in zip(lams, profiles):
            good = tuple(reversed(p.betti)) == resolved.profile(alg_reciprocal(lam)).betti
            pairs.append({"lambda": json_approx(lam), "ok": good})
        checks.append({"name": "poincare_duality", "ok": all(pair["ok"] for pair in pairs),
                       "pairs": pairs})
    chis = {euler_char(p) for p in profiles}
    expected = 0 if resolved.transform is None else None
    ok_euler = len(chis) == 1 and (expected is None or chis == {expected})
    checks.append({"name": "euler_constant", "ok": ok_euler,
                   "values": sorted(chis)})
    if resolved.alpha is not None:
        in_exc = any(resolved.alpha == x for x in exceptional)
        checks.append({"name": "alpha_exceptional", "ok": in_exc})
    return checks


def _verify_algebra(resolved):
    model = resolved.model
    report = validate(model) if resolved.report is None else resolved.report
    checks = [{"name": "structure_valid", "ok": bool(report),
               "violations": [list(map(str, v)) for v in report.violations]}]
    dims = twisted_ce_cohomology(model)
    chi = sum(d if k % 2 == 0 else -d for k, d in enumerate(dims))
    checks.append({"name": "twisted_euler_zero", "ok": chi == 0, "betti": dims})
    return checks


def cmd_verify(args):
    if args.all_catalog == bool(args.model):
        raise CliError("give a model or --all-catalog", EXIT_USAGE)
    if args.all_catalog:
        names = ["s0:default", "splus:default", "sminus:default", "hopf", "kato:3",
                 "s0-algebra", "splus-algebra", "splus-coframe", "ot:1", "ot:2",
                 "abelian4"]
    else:
        names = [args.model]
    reports = []
    all_ok = True
    for name in names:
        resolved = resolve_model(name)
        checks = _verify_fiber(resolved) if resolved.is_fiber \
            else _verify_algebra(resolved)
        ok = all(c["ok"] for c in checks)
        all_ok = all_ok and ok
        reports.append({"model": resolved.name, "ok": ok, "checks": checks})
        status = "pass" if ok else "FAIL"
        print(f"{resolved.name:<16} {status}")
    print(json.dumps({"ok": all_ok, "models": reports}))
    return EXIT_OK if all_ok else EXIT_VERIFY


def _instantiated_s0(invert: bool):
    """S0 algebra with r matched to the distinguished alpha (alpha = e^{2r});
    the log is a float rationalized for the cone module only.  The inverse
    parameter keeps the algebra and negates the Lee covector."""
    alpha = s0_alpha(S0Datum(DEFAULT_S0_MATRIX))
    r = Fraction(math.log(alpha.to_float()) / 2).limit_denominator(10 ** 9)
    model = s0_algebra().instantiate({"r": r, "s": Fraction(1)})
    theta = tuple(-c for c in model.theta) if invert else None
    return model, theta


def _parse_theta(text, model):
    if text == "zero":
        return (0,) * model.dim
    try:
        parts = [_parse_expr(p, (), "a theta coefficient") for p in text.split(",")]
    except SchemaError as exc:
        raise CliError(f"cannot parse --theta: {exc}; use 'zero' or "
                       "comma-separated rationals", EXIT_USAGE) from exc
    if len(parts) != model.dim:
        raise CliError(f"theta needs {model.dim} coefficients", EXIT_USAGE)
    return tuple(parts)


def cmd_cone(args):
    selectors = sum(bool(x) for x in (args.theta, args.at_alpha, args.at_inverse_alpha))
    if selectors > 1:
        raise CliError("choose at most one of --theta, --at-alpha, "
                       "--at-inverse-alpha", EXIT_USAGE)
    theta = None
    if args.at_alpha or args.at_inverse_alpha:
        if args.model != "s0-algebra":
            raise CliError("--at-alpha / --at-inverse-alpha apply to s0-algebra",
                           EXIT_USAGE)
        model, theta = _instantiated_s0(invert=args.at_inverse_alpha)
    else:
        resolved = resolve_model(args.model)
        if resolved.is_fiber:
            raise CliError("cone feasibility applies to Lie algebra models",
                           EXIT_USAGE)
        model = resolved.model
        if model.params:
            raise CliError(f"model {resolved.name} has free parameters "
                           f"{list(model.params)}; instantiate them in a model file",
                           EXIT_USAGE)
        if args.theta:
            theta = _parse_theta(args.theta, model)
    try:
        cert = taming_feasibility(model, kind=args.kind, theta=theta)
    except OverflowError as exc:  # a cone past the float range
        raise CliError(f"the cone's matrices exceed floats: {exc}", EXIT_USAGE) from exc
    print(f"kind        {cert.kind}")
    if cert.feasible or cert.certificate is None:
        print(f"lambda_min  {cert.lambda_min:.6g}")
    else:
        print("lambda_min  <= 0 (certified)")
    print(f"verdict     {cert.verdict}")
    print(cert.to_json())
    return EXIT_OK


@functools.cache  # nothing in it varies, so one parser serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="Twisted cohomology of mapping tori and solvmanifold models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="twisted Betti profile")
    p.add_argument("model")
    p.add_argument("--lambda", dest="lam", metavar="SPEC",
                   help="rational:<p>/<q> or poly:<c0,c1,...>@(<lo>,<hi>)")
    p.add_argument("--lambda-log", dest="lambda_log", metavar="T",
                   help="Lee parameter e^T; T = 0 or <k>*log(alpha), "
                        f"|k| <= {MAX_LOG_MULTIPLE}")
    p.add_argument("--at-alpha", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("scan", help="profiles at every exceptional parameter")
    p.add_argument("model")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="invariant suites, JSON report")
    p.add_argument("model", nargs="?")
    p.add_argument("--all-catalog", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cone", help="taming/LCK cone feasibility")
    p.add_argument("model")
    p.add_argument("--kind", choices=("taming", "lck"), default="taming")
    p.add_argument("--theta", metavar="SPEC",
                   help="'zero' or comma-separated rational coefficients")
    p.add_argument("--at-alpha", action="store_true")
    p.add_argument("--at-inverse-alpha", action="store_true")
    p.set_defaults(func=cmd_cone)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, LieModelError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:  # an exact answer past Python's int-to-str digit limit
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an exact answer is too long to print: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
