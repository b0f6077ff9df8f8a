"""retractlab benchmark: analyze and gen over a seeded corpus.

    python3 bench/run.py --workload small --seed 1 --seconds 5 --trace 0
    python3 bench/run.py                 # every workload in turn

Each workload runs in one process, as a closed loop with one caller: the
next operation starts when the previous one returns.  One operation is one
in-process `retractlab.cli.run_cli` call, `analyze <file> --json` or
`gen ... --count 1`, under a per-operation time cap enforced by an
interval timer on the main thread.  Every output is checked against the
exit code and digest recorded at the seed commit (`reference.json`).
Times are reported at the host's reference speed (see speed.py).

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
prints the per-layer metrics and the tracing overhead, and fails if an
exact counter differs between two traced passes.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Exit status 0 means every output matched; 1 means a mismatch or a failed
check.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import namedtuple
from time import perf_counter

import corpus
import speed
import tracing

SETUP_RUNS = 3         # fresh set-up processes per untraced run
WARMUP_OPS = 3         # run untimed before measuring
MIN_RUNS = 3           # runs of each operation that completes
SETUP_TIMEOUT_S = 120
TRACE_CAP_FACTOR = 1.5

END_TO_END = (
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p95_ms", "ms"),
    ("op_max_ms", "ms"), ("sweep_s", "s"), ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("endo.compose_calls", "count"), ("endo.compose_s", "s"),
    ("endo.idempotency_s", "s"),
    ("ring.mul_calls", "count"), ("ring.mul_term_pairs", "count"),
    ("ring.mul_s", "s"), ("ring.ns_per_term_pair", "ns"),
    ("ring.substitute_s", "s"), ("ring.max_terms", "count"),
    ("domains.coeff_ops", "count"), ("domains.coeff_s", "s"),
    ("domains.max_coeff_bits", "bits"),
    ("engine.certificates_s", "s"), ("engine.y_variables_s", "s"),
    ("engine.quotient_s", "s"), ("engine.trdeg_s", "s"),
    ("intlinalg.decompose_s", "s"), ("intlinalg.solve_s", "s"),
    ("grammar.parse_s", "s"), ("grammar.render_s", "s"), ("cli.self_s", "s"),
    ("generator.gen_s", "s"), ("generator.conjugate_calls", "count"),
    ("generator.compose_per_conjugate", "ratio"),
    ("trace.overhead_s", "s"), ("trace.counted_ops", "count"),
)

CAPPED, OK, MISMATCH = "capped", "ok", "mismatch"

# One run of one operation.  `seconds` is at reference speed, or the wall
# time for a capped run; `record` holds the traced counters and layer
# times, or None when untraced.
Result = namedtuple("Result", "seconds status message record")


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library catches it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def digest(text):
    """First 16 hex digits of the sha256 of the output bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def import_library():
    """Import retractlab from this checkout's src/, or exit non-zero."""
    init = os.path.join(corpus.SRC_DIR, "retractlab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("bench: no retractlab sources at %s" % init)
    sys.path.insert(0, corpus.SRC_DIR)
    import retractlab
    import retractlab.cli
    if os.path.abspath(retractlab.__file__) != init:
        raise SystemExit("bench: imported retractlab from %s, not %s"
                         % (retractlab.__file__, init))
    return retractlab


def run_op(cli, argv, cap):
    """Run one CLI call with a wall-clock cap in seconds; return (exit code
    or None if capped, wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                code = cli.run_cli(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            code = None
        elapsed = perf_counter() - t0
    return code, elapsed, out.getvalue()


def judge(op, code, out, ref):
    """OK, CAPPED or MISMATCH, with a message for a mismatch."""
    if code is None:
        return CAPPED, None
    digests = ref["digests"]
    if op.key not in digests:
        return MISMATCH, "%s: no reference digest" % op.key
    expected = digests[op.key]
    if expected is None:
        # capped at the seed commit, so there are no bytes to compare
        return _check_unreferenced(op, code, out)
    got = [code, digest(out)]
    if got != expected:
        return MISMATCH, "%s: expected %s, got %s" % (op.key, expected, got)
    return OK, None


def _check_unreferenced(op, code, out):
    """A report must parse, have the unit rank the generator was asked for
    and all certificates true."""
    try:
        report = json.loads(out) if code == 0 else {}
    except ValueError:
        report = {}
    certificates = report.get("certificates")
    if (report.get("r") != op.spec.r or not certificates
            or not all(certificates.values())):
        return MISMATCH, "%s: exit %s, no valid report" % (op.key, code)
    return OK, None


def run_pass(cli, ops, ref, gauge, tracer=None, cap_factor=1.0):
    """Run each operation once, under its cap times `cap_factor`.  Returns
    one Result per operation."""
    timed = []
    for op in ops:
        gauge.before_op()
        if tracer is not None:
            tracer.begin_op(op.key)
        start = perf_counter()
        code, elapsed, out = run_op(cli, op.argv, op.cap * cap_factor)
        record = tracer.end_op() if tracer is not None else None
        gauge.after_op(elapsed)
        timed.append((start, start + elapsed, elapsed,
                      judge(op, code, out, ref), record))
    # so that the last operation has samples after it too
    gauge.before_op()
    results = []
    for start, end, wall, (status, message), record in timed:
        # a capped run counts at the cap, not at the work it did
        factor = 1.0 if status == CAPPED else gauge.around(start, end)
        if record is not None:
            record = tracing.scaled(record, factor)
        results.append(Result(wall * factor, status, message, record))
    return results


def measure(cli, ops, ref, seconds, gauge):
    """Run every operation once, then repeat the ones that completed until
    each has run MIN_RUNS times and `seconds` have passed.  A capped
    operation runs once.  Returns the list of Results of each operation."""
    start = perf_counter()
    runs = [[r] for r in run_pass(cli, ops, ref, gauge)]
    done = [i for i, rs in enumerate(runs) if rs[0].status == OK]
    while done and (len(runs[done[0]]) < MIN_RUNS
                    or perf_counter() - start < seconds):
        for i, r in zip(done, run_pass(cli, [ops[i] for i in done], ref,
                                       gauge)):
            runs[i].append(r)
    return runs


def tail_rank(n):
    """1-based rank of the highest percentile, at most p95, with at least
    ten samples above it (the minimum when there are fewer than eleven)."""
    return max(1, min(math.ceil(0.95 * n - 1e-9), n - 10))


def summarize(runs):
    """End-to-end metrics (except set-up and memory) from the Results of
    each operation.  An operation's time is the median of its runs; it
    completed if its first run did and no run gave a wrong output (a later
    run that hits the cap is a slow run, counted at the cap)."""
    per_op = [statistics.median(r.seconds for r in rs) * 1e3 for rs in runs]
    ranked = sorted(per_op)
    rank = tail_rank(len(ranked))
    completed = sum(1 for rs in runs if rs[0].status == OK
                    and all(r.status != MISMATCH for r in rs))
    return {
        "op_p50_ms": statistics.median(per_op),
        "op_p95_ms": ranked[rank - 1],
        "op_max_ms": ranked[-1],
        "sweep_s": sum(per_op) / 1e3,
        "completed_frac": completed / len(runs),
    }, {
        "ops": len(runs), "tail_rank": rank,
        "most_runs": max(len(rs) for rs in runs),
        "attempted": sum(len(rs) for rs in runs),
        "capped": sum(1 for rs in runs if rs[0].status == CAPPED),
        "mismatched": sum(1 for rs in runs for r in rs
                          if r.status == MISMATCH),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up -------------------------------------------------------------------

def setup_child(workload, seed, out_dir):
    """Body of one fresh set-up process: import the library and write the
    workload's problem files; prints the seconds this took at reference
    speed, calibrated afterwards so that the timed part is unchanged."""
    t0 = perf_counter()
    retractlab = import_library()
    ops = corpus.plan(workload, seed, corpus.load_reference(), out_dir)
    corpus.write_inputs(ops, retractlab)
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed * speed.SpeedGauge().overall()[0]}))


def measure_setup(workload, seed, work_dir, runs):
    """Set up `runs` times, each in a fresh process; the files of the last
    one stay in work_dir.  Returns the set-up times."""
    times = []
    for _ in range(runs):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload, "--seed", str(seed),
             "--out-dir", work_dir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("bench: set-up failed (exit %d)"
                             % proc.returncode)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# -- one workload -------------------------------------------------------------

def _report_mismatches(results):
    messages = [r.message for r in results if r.status == MISMATCH]
    for message in messages[:20]:
        print("MISMATCH " + message, file=sys.stderr)
    if len(messages) > 20:
        print("... %d more mismatches" % (len(messages) - 20),
              file=sys.stderr)


def _print_metrics(metrics, units):
    for name, unit in units:
        print("  %-34s %14.6f %s" % (name, metrics[name], unit))


def _print_speed(gauge):
    factor, samples = gauge.overall()
    print("  times at reference speed: each wall time is scaled by the "
          "calibration samples around it (%d samples, overall factor %.4f)"
          % (samples, factor))


def run_untraced(cli, ops, ref, seconds, gauge, setup_times):
    runs = measure(cli, ops, ref, seconds, gauge)
    metrics, info = summarize(runs)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    _print_metrics(metrics, END_TO_END)
    _print_speed(gauge)
    print("  set-up: median of %d fresh processes; %d ops, each timed as "
          "the median of its runs (up to %d; once if capped); sweep_s is "
          "their sum; op_p95_ms is the %.1fth percentile (%d ops above it)"
          % (len(setup_times), info["ops"], info["most_runs"],
             100.0 * info["tail_rank"] / info["ops"],
             info["ops"] - info["tail_rank"]))
    print("  failed_frac %.6f: %d ops capped (%.0f s, or %.0f s for those "
          "the seed commit never finished), %d of %d runs mismatched"
          % (1 - metrics["completed_frac"], info["capped"], corpus.CAP_S,
             corpus.UNFINISHED_CAP_S, info["mismatched"],
             info["attempted"]))
    _report_mismatches([r for rs in runs for r in rs])
    return metrics, info["attempted"], info["mismatched"], True


def run_traced(cli, ops, ref, gauge, retractlab, trace_path):
    """One untraced pass, then a traced pass, then a second traced pass
    over the operations the first completed, to check that their exact
    counters repeat.  Traced passes allow TRACE_CAP_FACTOR times the cap so
    that tracing alone does not push an operation past it."""
    untraced = run_pass(cli, ops, ref, gauge)
    with tracing.Tracer(retractlab) as tracer:
        traced = run_pass(cli, ops, ref, gauge, tracer, TRACE_CAP_FACTOR)
        tracer.write_spans(trace_path)
        tracer.clear()
        done = [i for i, r in enumerate(traced) if r.status != CAPPED]
        again = run_pass(cli, [ops[i] for i in done], ref, gauge, tracer,
                         TRACE_CAP_FACTOR)
    exact_ok = True
    for i, b in zip(done, again):
        a = traced[i]
        diff = [k for k in tracing.EXACT
                if b.status != CAPPED and a.record[k] != b.record[k]]
        if diff:
            exact_ok = False
            print("COUNTER MISMATCH %s: %s" % (ops[i].key, ", ".join(
                "%s %s != %s" % (k, a.record[k], b.record[k])
                for k in diff)), file=sys.stderr)
    metrics = tracing.layer_metrics([traced[i].record for i in done])
    both = [i for i in done if untraced[i].status != CAPPED]
    plain = sum(untraced[i].seconds for i in both)
    metrics["trace.overhead_s"] = sum(traced[i].seconds for i in both) - plain
    _print_metrics(metrics, PER_LAYER)
    _print_speed(gauge)
    print("  per-layer metrics over the %d of %d ops that completed traced; "
          "over the %d that completed in both, untraced %.3f s, traced "
          "%.3f s; exact counters %s on the second traced pass; spans in %s"
          % (len(done), len(ops), len(both), plain,
             plain + metrics["trace.overhead_s"],
             "repeat" if exact_ok else "DIFFER", trace_path))
    results = untraced + traced + again
    _report_mismatches(results)
    mismatched = sum(1 for r in results if r.status == MISMATCH)
    return metrics, len(results), mismatched, exact_ok


def run_workload(args):
    work_root = os.path.join(corpus.ROOT, ".bench_work")
    work_dir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    retractlab = import_library()
    cli = retractlab.cli
    try:
        setup_times = measure_setup(args.workload, args.seed, work_dir,
                                    1 if args.trace else SETUP_RUNS)
        ref = corpus.load_reference()
        ops = corpus.plan(args.workload, args.seed, ref, work_dir)
        signal.signal(signal.SIGALRM, _on_alarm)
        for op in ops[:WARMUP_OPS]:
            run_op(cli, op.argv, op.cap)
        gauge = speed.SpeedGauge()
        print("workload %s, seed %d, %d ops, trace %d"
              % (args.workload, args.seed, len(ops), args.trace))
        if args.trace:
            trace_path = os.path.join(work_root, "trace-%s-seed%d.jsonl"
                                      % (args.workload, args.seed))
            metrics, attempted, failed, checks_ok = run_traced(
                cli, ops, ref, gauge, retractlab, trace_path)
            units = PER_LAYER
        else:
            metrics, attempted, failed, checks_ok = run_untraced(
                cli, ops, ref, args.seconds, gauge, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = failed == 0 and checks_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit("bench: workload %s printed no result (exit %d)"
                             % (workload, proc.returncode))
        status = status or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = value
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed, args.out_dir)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
