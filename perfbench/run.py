"""Benchmark entry point.

    python3 perfbench/run.py --workload <escape|certify|deep_probe|large_m|all>
                             --seed <n> --seconds <s> --trace <0|1>

Runs one workload from one process, through the library's public API, and
prints a readable report followed, as the last line, by one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, measured by wrapping the library from outside (see
harness.Tracer), plus the tracing overhead against untraced passes of the
same work.  Exits with 2, printing no result, when the library source is not
next to the benchmark.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy is imported: one BLAS thread, so that the load comes
# from one single-threaded process and reductions run in a fixed order.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
WORKLOAD_NAMES = ("escape", "certify", "deep_probe", "large_m")


def parse_args(argv):
    p = argparse.ArgumentParser(description="linsaddle benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# An operation still running after this long is stopped and counted as
# failed.  The Lanczos probe can fail to converge and would otherwise run for
# minutes (ARPACK's default of 10 n iterations).
OP_LIMIT_S = 30.0


# Set-up times `import linsaddle` in this many fresh interpreters, one after
# the other, and takes the median; each has ended before the next starts.
IMPORT_REPEATS = 5
_IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); from time import perf_counter; "
                 "t0 = perf_counter(); import linsaddle; print(perf_counter() - t0)")


def import_seconds() -> float:
    """Wall seconds of `import linsaddle` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


class OperationTimedOut(Exception):
    pass


def call_with_time_limit(seconds: float, fn, *args):
    """fn(*args), stopped by OperationTimedOut after `seconds`.  The signal
    lands between Python bytecodes; the probe's iteration loop is Python."""

    def expire(signum, frame):
        raise OperationTimedOut(f"operation stopped after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """Executes the operations of one workload and keeps every outcome.

    An operation that raises, runs out of time, or whose output fails a
    check is counted as failed, and the run goes on."""

    def __init__(self, wl, tracer, lib_error, starts=None):
        self.wl = wl
        self.tracer = tracer
        self.lib_error = lib_error
        self.starts = starts  # harness.SeededStarts, or None
        # Operation key (or "pass_checks") -> whether every execution of it
        # passed.  An operation is counted once however many passes repeat
        # it, so attempted and failed depend on the seed alone, not on how
        # many passes the host's speed allowed.
        self.outcomes: dict[str, bool] = {}
        self.unexpected = 0
        self.checks = defaultdict(lambda: [0, 0])  # name -> [passed, failed]
        self.examples = defaultdict(list)  # name -> first failure details
        self.pass_results = []
        self.fingerprints = {}
        self._call_counts = {}
        # Executions not yet converted to reference seconds, then compact
        # per-key arrays, so memory does not grow with the operation count.
        self._pending = []  # (op key, pass index or None if untraced, t0, t1, Stages)
        self.op_s = defaultdict(lambda: array("d"))  # untraced, per op key
        self.op_wall_s = defaultdict(lambda: array("d"))
        self.stage_s = defaultdict(lambda: defaultdict(lambda: array("d")))
        self.counts = {}  # op key -> work counters (deterministic per key)
        self.traced_s = defaultdict(lambda: [0.0, 0.0])  # traced pass -> [reference, wall]

    def settle(self, cal) -> None:
        """Convert pending executions to reference seconds; call right after
        a calibration reading, so each has a reading on both sides."""
        for key, traced_pass, t0, t1, st in self._pending:
            k = cal.factor(t0, t1)
            if traced_pass is None:
                self.op_s[key].append(k * (t1 - t0))
                self.op_wall_s[key].append(t1 - t0)
                for stage, seconds in st.seconds.items():
                    self.stage_s[key][stage].append(k * seconds)
                self.counts[key] = st.counts
            else:
                acc = self.traced_s[traced_pass]
                acc[0] += k * (t1 - t0)
                acc[1] += t1 - t0
        self._pending.clear()

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    def _tally(self, key, results) -> None:
        ok = True
        for name, passed, detail in results:
            self.checks[name][0 if passed else 1] += 1
            if not passed:
                ok = False
                if len(self.examples[name]) < 3:
                    self.examples[name].append(detail)
        self.outcomes[key] = self.outcomes.get(key, True) and ok

    def _guarded(self, fn, what):
        """Call fn; an error becomes a failed check named `what`, not a crash.
        Errors other than the library's own (a scipy error passed through, a
        time-out) are failures too, and are also counted as unexpected."""
        try:
            return fn(), []
        except self.lib_error as err:
            return None, [(what, False, f"{type(err).__name__}: {err}")]
        except Exception as err:  # the operation's boundary: record and go on
            self.unexpected += 1
            traceback.print_exc(file=sys.stderr)
            return None, [(what, False, f"unexpected {type(err).__name__}: {err}")]

    @staticmethod
    def _same_as_first(store, key, value, name):
        if key not in store:
            store[key] = value
            return []
        return [(name, value == store[key], f"{value} != {store[key]}")]

    def execute(self, op, traced_pass=None):
        """Run op once, untraced or as part of traced pass `traced_pass`."""
        from workloads import Stages

        st = Stages()
        if self.starts is not None:
            self.starts.begin(op.key)
        tracer = self.tracer
        traced = traced_pass is not None
        lo = tracer.mark()
        tracer.active = traced
        t0 = perf_counter()
        try:
            with tracer.span(f"op.{self.wl.name}"):
                result, results = self._guarded(
                    lambda: call_with_time_limit(OP_LIMIT_S, op.run, st), "raised")
        finally:
            t1 = perf_counter()
            tracer.active = False
        self._pending.append((op.key, traced_pass, t0, t1, st))
        if results:
            fingerprint = ("raised", results[0][2].split(":")[0])
        else:
            checked, results = self._guarded(lambda: op.check(result), "check_raised")
            results = (checked or []) + results
            fingerprint = op.fingerprint(result)
        results += self._same_as_first(self.fingerprints, op.key, fingerprint, "deterministic")
        if traced:
            results += self._same_as_first(self._call_counts, op.key,
                                           tracer.call_counts(lo, tracer.mark()),
                                           "deterministic_calls")
        self._tally(op.key, results)
        return result

    def pass_checks(self, results: dict) -> None:
        """The workload's checks on a whole pass, counted as one operation."""
        if self.wl.pass_checks is None:
            return
        if any(r is None for r in results.values()):
            checked = [("pass_complete", False, "an operation of the first pass raised")]
        else:
            checked, raised = self._guarded(lambda: self.wl.pass_checks(results), "check_raised")
            checked = (checked or []) + raised
        self.pass_results = checked
        self._tally("pass_checks", checked)


def run_workload(name, seed, seconds, trace):
    import harness
    import linsaddle as ls
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    # Set-up is import and small-matrix work on every workload, so it is
    # calibrated with the small kernel.
    setup_cal = harness.Calibration("small")
    setup_cal.sample()
    imports = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        wall_s = import_seconds()
        t1 = perf_counter()
        setup_cal.sample()
        imports.append(wall_s * setup_cal.factor(t0, t1))
    setups = []
    for _ in range(wl.setup_repeats):
        setup_cal.maybe_sample()
        t0 = perf_counter()
        inputs = wl.setup(seed)
        setups.append((t0, perf_counter()))
    setup_cal.sample()
    ops = wl.ops(inputs)
    cal = harness.Calibration(wl.reference)
    cal.sample()

    tracer = harness.Tracer()
    starts = harness.SeededStarts(seed)
    run = Run(wl, tracer, ls.LinSaddleError, starts)
    span_ranges = []  # per traced pass
    checkpoints = []
    t_start = perf_counter()
    try:
        starts.install()
        if trace:
            tracer.install()
        # Long operations take readings inside, at calls the workload names.
        inner = [getattr(importlib.import_module(f"linsaddle.{mod}"), fn)
                 for mod, fn in wl.checkpoints]
        checkpoints = harness.rebind({id(f): (f, cal.checkpoint(f)) for f in inner})
        n_pass = 0
        while True:
            # An untraced pass, then in traced runs the same pass traced.
            results = {}
            for op in ops:
                if cal.maybe_sample():
                    run.settle(cal)
                results[op.key] = run.execute(op)
                if not trace and n_pass and perf_counter() - t_start >= seconds:
                    break
            if n_pass == 0:
                run.pass_checks(results)
            if trace:
                lo = tracer.mark()
                for op in ops:
                    if cal.maybe_sample():
                        run.settle(cal)
                    run.execute(op, traced_pass=len(span_ranges))
                span_ranges.append((lo, tracer.mark()))
            n_pass += 1
            if perf_counter() - t_start >= seconds:
                break
    finally:
        harness.restore(checkpoints)
        tracer.uninstall()
        starts.uninstall()
    measured_s = perf_counter() - t_start
    cal.sample()
    run.settle(cal)

    # Every time below is in reference seconds (see harness.Calibration).
    pooled = [t for v in run.op_s.values() for t in v]
    # One value per operation, its median time, so that neither the host's
    # slow spells nor a pass cut short by the clock weight the percentiles.
    op_medians = [harness.median(v) for v in run.op_s.values()]
    e2e = {
        "setup_s": harness.median(imports)
        + harness.median([setup_cal.reference_s(t0, t1) for t0, t1 in setups]),
        "peak_rss_mb": harness.peak_rss_mb(),
        "pass_s": sum(op_medians),
        "op_p50_ms": 1e3 * harness.percentile(op_medians, 0.50),
        "op_p95_ms": 1e3 * harness.percentile(op_medians, 0.95),
    }
    # Per pass: each operation's median stage time, summed over operations.
    stage_s = defaultdict(float)
    for stages in run.stage_s.values():
        for stage, values in stages.items():
            stage_s[stage] += harness.median(values)
    counts = defaultdict(int)
    for key_counts in run.counts.values():
        for name_, n in key_counts.items():
            counts[name_] += n
    headline = wl.headline(stage_s, counts, e2e)

    metrics = {}
    if trace:
        units = {m: u for m, u, _, _ in harness.PER_LAYER}
        per_pass = []
        for i, (lo, hi) in enumerate(span_ranges):
            # Span times take their pass's wall-to-reference factor.
            ref_s, wall_s = run.traced_s[i]
            values = harness.per_layer_values(tracer.aggregate(lo, hi))
            per_pass.append({m: v * ref_s / wall_s if units[m] == "s" else v
                             for m, v in values.items()})
        traced_total = sum(ref_s for ref_s, _ in run.traced_s.values())
        for metric, unit in harness.metric_specs("per_layer"):
            if metric == harness.OVERHEAD_METRIC[0]:
                value = 100.0 * (traced_total - sum(pooled)) / sum(pooled)
            else:
                value = harness.median([p[metric] for p in per_pass])
            metrics[metric] = {"value": value, "unit": unit}
        trace_path = TRACE_DIR / f"{name}-seed{seed}.npz"
        tracer.write(trace_path)
    else:
        for metric, unit in harness.metric_specs("end_to_end"):
            metrics[metric] = {"value": e2e[metric], "unit": unit}

    print(f"== workload {name}: {wl.why}")
    print(f"   seed {seed}, {len(ops)} operations per pass, {n_pass} pass(es), "
          f"{measured_s:.2f} s measured (asked {seconds:g} s), trace={int(trace)}")
    print(f"   host speed: {len(cal.values)} reference readings, median "
          f"{harness.median(cal.values) * 1e3:.3f} ms, range {min(cal.values) * 1e3:.3f}.."
          f"{max(cal.values) * 1e3:.3f} ms ({wl.reference} kernel); times are in reference "
          f"seconds (wall seconds scaled to a {cal.nominal_s * 1e3:g} ms reading); wall "
          f"pass_s {sum(harness.median(v) for v in run.op_wall_s.values()):.6g} s")
    print(f"   operations: attempted {run.attempted}, failed {run.failed}, "
          f"unexpected errors {run.unexpected}")
    for check, (ok, bad) in sorted(run.checks.items()):
        line = f"   check {check}: {ok} passed, {bad} failed"
        if bad:
            line += " | e.g. " + " ; ".join(run.examples[check])
        print(line)
    digest = hashlib.sha256(repr(sorted(run.fingerprints.items())).encode()).hexdigest()[:16]
    print(f"   results digest {digest} (first result of every operation; equal for equal seeds)")
    for check, passed, detail in run.pass_results:
        print(f"   first-pass check {check}: {'ok' if passed else 'FAILED'} ({detail})")
    e2e_text = ", ".join(f"{m} {e2e[m]:.6g} {u}" for m, u in harness.metric_specs("end_to_end"))
    print(f"   end-to-end over {len(pooled)} untraced executions of {len(op_medians)} operations: "
          f"{e2e_text}; one pass (sum of the operations' medians) {e2e['pass_s']:.6g} s")
    print("   workload metrics: " + ", ".join(f"{m} {v:.6g} {u}" for m, v, u in headline))
    if trace:
        print(f"   {len(span_ranges)} traced pass(es), tracing overhead "
              f"{metrics[harness.OVERHEAD_METRIC[0]]['value']:.2f} % against the untraced "
              f"passes; {tracer.mark()} spans written to {trace_path.relative_to(ROOT)}")
        for metric, m in metrics.items():
            print(f"   layer {metric}: {m['value']:.6g} {m['unit']}")

    # Failed operations are in `failed`; correct means every output was
    # checked and every metric could be computed.
    correct = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "linsaddle" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'linsaddle'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import linsaddle

    if Path(linsaddle.__file__).resolve().parent != (SRC / "linsaddle").resolve():
        print(f"error: imported linsaddle from {linsaddle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    print("machine: " + json.dumps(harness.machine_info(BLAS_THREADS)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
