"""Benchmark of the novikov command line, in process.

    python3 perfbench/run.py --workload fiber_scan --seed 1 --seconds 33 --trace 0

Runs one workload (see gen.py) as a closed loop with one client: each query
goes to ``novikov.cli.main(argv)`` (or to a public function where no
subcommand exists) after the previous one returned.  Whole cycles of the
workload's queries repeat for about ``--seconds`` (at least three cycles).
Every answer is checked by ``oracles.py`` after the timed interval.

With ``--trace 0`` the last output line holds the end-to-end metrics; with
``--trace 1`` a warm-up cycle runs and then a cycle in which each query runs
untraced and traced, and it holds the per-layer metrics (per cycle) and the
tracing overhead.  The metric names and
units are those of ``BENCHMARK.json``.  Spans are written to
``perfbench/_work/``.

Queries that raised when the benchmark was defined are not in the timed loop:
they run once afterwards and must still raise the same exception or give an
answer the oracles accept.  Any other exception or wrong answer makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 3
MIN_CYCLES = 3
# The tail is a fixed percentile per workload: the highest that has at least
# ten samples beyond it in a run of MIN_CYCLES cycles and that falls
# inside, not at the edge of, a block of similar heavy queries of a cycle
# (dimension-6 fibers; ot:2 and the dimension-5 algebras; the infeasible
# taming searches).
TAIL_PERCENTILE = {"fiber_scan": 98, "lie_generic": 85, "lie_rational": 90}

# One BLAS thread.  On a shared machine with few cores, a second thread in
# the cone optimiser's eigh calls makes its speed follow the other tenants'
# load: one taming search took 0.9 s to 1.6 s with two threads, and 1.3 s to
# 1.6 s with one.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"no {path}")
    with open(path) as fh:
        return json.load(fh)


def load_program():
    if not os.path.isfile(os.path.join(SRC, "novikov", "cli.py")):
        fail(f"no novikov sources under {SRC}")
    sys.path.insert(0, SRC)
    import novikov
    import novikov.chevalley
    import novikov.cli
    if not os.path.abspath(novikov.__file__).startswith(SRC + os.sep):
        fail(f"novikov was imported from {novikov.__file__}, not from {SRC}")
    return novikov.cli, novikov.chevalley


def execute(query, cli, chevalley):
    """Run one query; returns (exit code, answer).  Exceptions propagate."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if query.argv is not None:
            try:
                rc = cli.main(list(query.argv))
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 2
            return rc, out.getvalue()
        model = cli.resolve_model(query.spec).model
        return 0, getattr(chevalley, query.call)(model)


def freeze_heap():
    """Objects that exist now (the imported modules) are left out of garbage
    collection, and each query starts after a collection, as in a fresh
    process: otherwise collector pauses over the whole long-lived heap land
    in whichever query happens to trigger them."""
    gc.collect()
    gc.freeze()


def timed_query(qi, query, program, tracer=None):
    """One sample: (query index, latency, exit code, answer, exception)."""
    import sympy

    # as in a fresh process, no query finds another's sympy cache
    sympy.core.cache.clear_cache()
    gc.collect()
    if tracer:
        tracer.query_id = qi
        root = tracer.open(tracer.span_id("query"))
    t0 = time.perf_counter()
    try:
        rc, answer = execute(query, *program)
        error = None
    except Exception as exc:  # a crash is a failed query, not a benchmark error
        rc, answer, error = None, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    return qi, latency, rc, answer, error


def run_cycles(queries, seconds, program, min_cycles=MIN_CYCLES):
    """Closed loop over whole cycles: after `min_cycles`, another cycle starts
    only if at least half of it, at the last cycle's pace, fits in `seconds`,
    so a run measures `seconds` on average.  Returns samples, wall time and
    the number of cycles."""
    freeze_heap()
    samples, cycles = [], 0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        samples += [timed_query(qi, query, program) for qi, query in enumerate(queries)]
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_cycles and now + (now - start) / 2 - begin >= seconds:
            break
    return samples, time.perf_counter() - begin, cycles


def paired_cycle(queries, program, tracer):
    """One cycle in which each query runs untraced and then traced, so that
    the tracing overhead is taken between neighbouring runs of one query and
    a shared machine's drift in speed cancels.  Returns both sample lists."""
    freeze_heap()
    plain, traced = [], []
    for qi, query in enumerate(queries):
        plain.append(timed_query(qi, query, program))
        tracer.install()
        try:
            traced.append(timed_query(qi, query, program, tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def verdict(query, rc, answer):
    """The oracle's reason to reject an answer, or None."""
    check = query.check
    try:
        if query.argv is not None:
            return oracles.CLI_CHECKS[check["type"]](check, rc, answer)
        return oracles.CALL_CHECKS[check["type"]](check, answer)
    except Exception as exc:  # malformed output is a wrong answer
        return f"unreadable answer: {type(exc).__name__}: {exc}"


def judge(queries, samples):
    """Oracle verdicts outside the timed interval.  Returns (failed, wrong,
    reasons by query id); identical answers to one query are judged once."""
    verdicts, reasons = {}, {}
    failed = wrong = 0
    for qi, _, rc, answer, error in samples:
        query = queries[qi]
        if error is not None:
            failed += 1
            reasons.setdefault(query.qid, error)
            continue
        key = (qi, rc, answer if isinstance(answer, str) else repr(answer))
        if key not in verdicts:
            verdicts[key] = verdict(query, rc, answer)
        if verdicts[key] is not None:
            failed += 1
            wrong += 1
            reasons.setdefault(query.qid, verdicts[key])
    return failed, wrong, reasons


def probe_known_failures(queries, program):
    """Run each known-failure query once.  Returns (how many still raise
    their pinned exception, reasons by query id for any other outcome than
    that or an accepted answer)."""
    still, reasons = 0, {}
    for query in queries:
        try:
            rc, answer = execute(query, *program)
        except Exception as exc:
            if type(exc).__name__ == query.check["known_error"]:
                still += 1
            else:
                reasons[query.qid] = f"{type(exc).__name__}: {exc}"
            continue
        reason = verdict(query, rc, answer)
        if reason is not None:
            reasons[query.qid] = reason
    return still, reasons


def build_workload(name, seed, workdir):
    """Inputs are made in a child process, so the generator's memory does not
    count in this process's peak."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), name, str(seed),
                           workdir], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"input generator failed:\n{proc.stderr}")
    with open(os.path.join(workdir, "workload.pickle"), "rb") as fh:
        return pickle.load(fh)


def measure_setup(workload, workdir, repeats):
    """Wall times of `repeats` fresh interpreters, one after another, that
    import novikov.cli and build or load the workload's models."""
    spec_file = os.path.join(workdir, "setup_specs.json")
    with open(spec_file, "w") as fh:
        json.dump(workload.model_specs, fh)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), spec_file],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return times


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def report(values, declared):
    """The metrics BENCHMARK.json declares, with its units, from `values`."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(args, workload, workdir, program, spec):
    # one set-up probe before the timed interval and the rest after it, so
    # that a short slow spell of a shared machine does not set the median
    setup = measure_setup(workload, workdir, 1)
    samples, wall, cycles = run_cycles(workload.queries, args.seconds, program)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setup + measure_setup(workload, workdir, SETUP_REPEATS - 1))
    failed, wrong, reasons = judge(workload.queries, samples)
    # failed samples keep their latencies; a run with any is not correct
    latencies = [s[1] for s in samples]
    tail_p = TAIL_PERCENTILE[args.workload]
    tail = percentile(latencies, tail_p)
    metrics = report({
        "setup_s": setup_s,
        # per second spent inside queries; the loop's housekeeping between
        # queries (cache clearing, collection) is not the program's time
        "queries_per_s": (len(samples) - failed) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }, spec["end_to_end"])
    beyond = sum(1 for v in latencies if v > tail)
    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"queries {len(samples)}  wall {wall:.3f} s")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<16} {failed / len(samples):.6g}  ({failed} of {len(samples)}, "
          f"{wrong} wrong answers)")
    print(f"  latency_tail_s is p{tail_p}: {beyond} of {len(samples)} samples beyond it")
    return samples, failed, reasons, metrics


def traced(args, workload, workdir, program, spec):
    # a first cycle pays one-time costs (lazy imports, first calls), so the
    # overhead compares warm runs
    warm, _, _ = run_cycles(workload.queries, 0, program, min_cycles=1)
    tracer = tracing.Tracer()
    plain, traced_samples = paired_cycle(workload.queries, program, tracer)
    samples = warm + plain + traced_samples
    failed, _, reasons = judge(workload.queries, samples)
    plain_s = sum(s[1] for s in plain)
    traced_s = sum(s[1] for s in traced_samples)
    table = tracing.layer_metrics(tracer)
    table["trace.overhead_s"] = traced_s - plain_s
    table["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics = report(table, spec["per_layer"])
    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl.gz")
    tracer.write(span_file)
    print(f"workload {args.workload}  seed {args.seed}  queries {traced_s:.3f} s traced, "
          f"{plain_s:.3f} s untraced, {len(tracer.start)} spans "
          f"written to {os.path.relpath(span_file, ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    return samples, failed, reasons, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":  # each workload in a fresh interpreter
        for name in TAIL_PERCENTILE:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    spec = load_spec()
    program = load_program()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = build_workload(args.workload, args.seed, workdir)
        run = traced if args.trace else end_to_end
        samples, failed, reasons, metrics = run(args, workload, workdir, program, spec)
        still, probe_reasons = probe_known_failures(workload.known_failures, program)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if workload.known_failures:
        print(f"  known failures, run once outside the timed loop: {still} of "
              f"{len(workload.known_failures)} still raise their pinned exception")
    for qid, reason in sorted(reasons.items()):
        print(f"  failed: {qid}: {reason}")
    for qid, reason in sorted(probe_reasons.items()):
        print(f"  failed (known-failure query): {qid}: {reason}")
    print(json.dumps({"correct": failed == 0 and not probe_reasons, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
