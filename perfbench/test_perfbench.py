"""Tests of the benchmark itself: deterministic inputs, oracles that reject
corrupted answers, and the span self-time arithmetic.  None of them runs the
program under test."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402


def _snapshot(workload, workdir):
    """Queries and file contents with the directory name taken out."""
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name)) as fh:
            files[name] = fh.read()
    queries = [(q.qid, [a.replace(workdir, "<dir>") for a in q.argv or []], q.call,
                (q.spec or "").replace(workdir, "<dir>"),
                json.dumps(q.check, sort_keys=True, default=str).replace(workdir, "<dir>"))
               for q in workload.queries]
    return queries, files


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = _snapshot(gen.build(name, 7, str(tmp_path / "a")), str(tmp_path / "a"))
    again = _snapshot(gen.build(name, 7, str(tmp_path / "b")), str(tmp_path / "b"))
    other = _snapshot(gen.build(name, 8, str(tmp_path / "c")), str(tmp_path / "c"))
    assert first == again
    assert first != other


def test_generated_monodromies_are_unimodular_conjugates():
    import random
    import sympy as sp
    rng = random.Random(3)
    for coeffs in (c for cs in gen.TORUS_TEMPLATES.values() for c in cs):
        base = gen.companion(coeffs)
        m = gen.conjugate_unimodular(base, rng, 5)
        assert sp.Matrix(m).det() == 1
        assert sp.Matrix(m).charpoly() == sp.Matrix(base).charpoly()


def test_lie_rational_keeps_the_known_lck_crash_input_as_a_known_failure(tmp_path):
    workload = gen.build("lie_rational", 1, str(tmp_path))
    known = {q.qid: q.check["known_error"] for q in workload.known_failures}
    assert known["cone ot1_crash lck"] == "LinAlgError"
    assert known["cone s0-algebra --at-inverse-alpha lck"] == "LinAlgError"
    assert not set(known) & {q.qid for q in workload.queries}
    # a 2-dimensional J-invariant kernel stays in the timed loop
    assert any(q.qid == "cone s0-algebra --at-alpha lck" for q in workload.queries)


def test_benchmark_json_names_only_per_layer_metrics_the_spans_give():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    overhead = {"trace.overhead_s", "trace.overhead_frac"}
    assert overhead <= declared
    assert declared - overhead <= tracing.metric_names()
    assert tracing.layer_metrics(tracing.Tracer()) == dict.fromkeys(tracing.metric_names(), 0.0)


def _fiber_check(name, answer, **extra):
    info = gen.CATALOG_FIBERS[name]
    return dict({"type": "fiber", "source": info["source"], "lambdas": info["lambdas"],
                 "golden": info["golden"], "blowup": info["blowup"], "answer": answer},
                **extra)


def _profile_out(lam, betti):
    return json.dumps({"lambda": {"approx": lam}, "betti": list(betti)})


def test_fiber_profile_oracle_rejects_a_bumped_entry():
    check = _fiber_check("s0:default", "profile", lam=gen.S0_ALPHA)
    assert oracles.check_fiber(check, 0, _profile_out(gen.S0_ALPHA, (0, 0, 1, 1, 0))) is None
    assert oracles.check_fiber(check, 0, _profile_out(gen.S0_ALPHA, (0, 0, 2, 1, 0)))
    assert oracles.check_fiber(check, 4, _profile_out(gen.S0_ALPHA, (0, 0, 1, 1, 0)))


def test_fiber_scan_oracle_rejects_broken_duality_and_missing_lambda():
    rows = [(1 / gen.S0_ALPHA, (0, 1, 1, 0, 0)), (1.0, (1, 1, 0, 1, 1)),
            (gen.S0_ALPHA, (0, 0, 1, 1, 0))]
    out = lambda rs: json.dumps([{"lambda": {"approx": l}, "betti": list(b)} for l, b in rs])
    check = _fiber_check("s0:default", "scan")
    assert oracles.check_fiber(check, 0, out(rows)) is None
    assert oracles.check_fiber(check, 0, out(rows[1:]))
    swapped = [(rows[0][0], (0, 0, 1, 1, 0)), rows[1], (rows[2][0], (0, 1, 1, 0, 0))]
    assert oracles.check_fiber(check, 0, out(swapped))


def test_verify_oracles_reject_a_failed_suite_and_wrong_betti_numbers():
    check = _fiber_check("hopf", "verify")
    report = lambda ok, values: json.dumps({"ok": ok, "models": [{"checks": [
        {"name": "poincare_duality", "ok": ok, "pairs": [{}] * 4},
        {"name": "euler_constant", "ok": ok, "values": values}]}]})
    assert oracles.check_fiber(check, 0, report(True, [0])) is None
    assert oracles.check_fiber(check, 4, report(False, [0]))
    assert oracles.check_fiber(check, 0, report(True, [1]))
    inst = gen.instantiate_doc(gen.s0_algebra_doc(), {"r": "1/2", "s": "1/3"})
    lie = lambda betti: json.dumps({"ok": True, "models": [{"checks": [
        {"name": "structure_valid", "ok": True},
        {"name": "twisted_euler_zero", "ok": True, "betti": betti}]}]})
    check = {"type": "lie_verify", "doc": inst}
    assert oracles.check_lie_verify(check, 0, lie([0, 0, 1, 1, 0])) is None
    assert oracles.check_lie_verify(check, 0, lie([0, 1, 1, 0, 0]))


def test_svd_oracle_on_a_torus_matches_known_profile():
    source = {"matrix": gen.companion((-1, -1, 0))}  # the S0 monodromy up to conjugacy
    actions = oracles.fiber_actions(source)
    assert oracles.betti_float(actions, gen.S0_ALPHA) == (0, 0, 1, 1, 0)
    assert oracles.betti_float(actions, 1.0) == (1, 1, 0, 1, 1)
    assert oracles.betti_float(actions, 2.5) == (0, 0, 0, 0, 0)


def test_lie_generic_oracle_rejects_a_bumped_betti_number():
    doc = gen.ot_doc(1)
    check = {"type": "lie_generic", "doc": doc,
             "points": [{"alpha1": "3/7", "r1": "5/11"}, {"alpha1": "-2/9", "r1": "7/3"}]}
    out = lambda b: json.dumps({"betti": b})
    assert oracles.check_lie_generic(check, 0, out([0, 0, 0, 0, 0])) is None
    assert oracles.check_lie_generic(check, 0, out([0, 1, 1, 0, 0]))
    splus = {"type": "lie_generic", "doc": gen.splus_algebra_doc(), "points": [{"a": "2/3"}]}
    assert oracles.check_lie_generic(splus, 0, out([0, 1, 2, 1, 0])) is None
    assert oracles.check_lie_generic(splus, 0, out([0, 1, 3, 2, 0]))


def test_lie_point_oracle_checks_exact_betti_numbers():
    inst = gen.instantiate_doc(gen.s0_algebra_doc(), {"r": "1/2", "s": "1/3"})
    check = {"type": "lie_point", "doc": inst, "generic": gen.s0_algebra_doc(),
             "points": [{"r": "3/5", "s": "7/2"}]}
    out = lambda b: json.dumps({"betti": b})
    assert oracles.check_lie_point(check, 0, out([0, 0, 1, 1, 0])) is None
    assert oracles.check_lie_point(check, 0, out([0, 0, 1, 1, 1]))


def test_harmonic_and_obstruction_oracles_reject_corruption():
    from fractions import Fraction as F
    check = {"type": "harmonic", "doc": gen.splus_coframe_doc()}
    assert oracles.check_harmonic(check, [0, 1, 2, 1, 0]) is None
    assert oracles.check_harmonic(check, [0, 1, 2, 2, 0])
    check = {"type": "obstruction", "doc": gen.s0_algebra_doc(), "required": True}
    assert oracles.check_obstruction(check, (F(0), F(0), F(1), F(0))) is None
    assert oracles.check_obstruction(check, (F(1), F(0), F(0), F(0)))
    assert oracles.check_obstruction(check, None)


def _cone_out(coefficients, feasible):
    verdict = "feasible" if feasible else "infeasible (evidence, not proof)"
    return json.dumps({"coefficients": coefficients, "lambda_min": 0.5, "kind": "taming",
                       "verdict": verdict, "reason": ""})


def test_cone_oracle_reverifies_certificates_and_rejects_flipped_verdicts():
    check = {"type": "cone", "doc": gen.abelian4_doc(), "theta_sign": 0, "kind": "taming",
             "golden": True}
    kahler = [1, 0, 0, 0, 0, 1]  # e^01 + e^23 in the wedge basis
    assert oracles.check_cone(check, 0, _cone_out(kahler, True)) is None
    assert oracles.check_cone(check, 0, _cone_out([-c for c in kahler], True))
    assert oracles.check_cone(check, 0, _cone_out(kahler, False))
    # without a pinned verdict an infeasible claim is refuted by sampling
    check["golden"] = None
    assert oracles.check_cone(check, 0, _cone_out([], False))


def test_positive_definite_by_ldlt():
    from fractions import Fraction as F
    assert oracles.is_positive_definite([[F(2), F(1)], [F(1), F(2)]])
    assert not oracles.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
    assert not oracles.is_positive_definite([[F(0), F(0)], [F(0), F(1)]])


def test_self_time_subtracts_the_part_children_cover():
    # root [0, 10] with children a [1, 4] (grandchild [2, 3]) and b [5, 6];
    # c [8, 12] overhangs the root and d [8.5, 9] overlaps c
    starts = [0.0, 1.0, 2.0, 5.0, 8.0, 8.5]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0, 9.0]
    parents = [-1, 0, 1, 0, 0, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 3 - 1 - 2, 3 - 1, 1, 1, 4, 0.5])


def test_nested_spans_of_one_name_count_as_one_call():
    names = ["exact.rank", "exact.rank", "exact.char_poly", "exact.rank"]
    parents = [-1, 0, 1, -1]
    assert tracing.outermost(names, parents) == [True, False, True, True]


def test_tracer_records_parents_and_restores_functions():
    t = tracing.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = t.wrap(inner, "inner")
    wrapped_outer = t.wrap(outer, "outer")
    assert wrapped_outer(1) == 4
    assert [t.names[i] for i in t.name] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.start[0] <= t.start[1] <= t.end[1] <= t.end[0]


def test_a_crash_fails_the_run_unless_it_is_the_pinned_known_failure():
    import types

    import run

    def program(exc):
        def main(argv):
            raise exc
        return types.SimpleNamespace(main=main), None

    query = gen.Query("cone x lck", ["cone", "x", "--kind", "lck"],
                      check={"type": "cone", "known_error": "LinAlgError"})
    failed, wrong, reasons = run.judge([query], [(0, 0.1, None, None, "ValueError: boom")])
    assert (failed, wrong) == (1, 0) and "boom" in reasons["cone x lck"]

    class LinAlgError(Exception):
        pass

    assert run.probe_known_failures([query], program(LinAlgError("nan"))) == (1, {})
    still, reasons = run.probe_known_failures([query], program(ValueError("other")))
    assert still == 0 and "ValueError" in reasons["cone x lck"]
