"""The barymorph benchmark.

    python3 perfbench/run.py --workload mesh-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the package is imported from ./src.  Each
run sets up (import, first inputs, one warm-up op), then runs one
client's closed loop of verified ops until the summed op time reaches
--seconds and the current cycle of sizes is complete (see workloads.py).
Inputs for later cycles are generated between ops, outside the timing.

--trace 0 prints the end-to-end metrics.  Their times are scaled to a
reference host speed with a kernel timed after every op, because shared
hosts drift by more than the bounds (calibrate.py); raw times are
printed next to them.  setup_s is the median over three set-ups: this
process's own, from the start of this script to the first timed op, and
two more in fresh processes run after the window.
--trace 1 runs half the window untraced and half traced, prints the
per-layer table, writes the spans to .perfbench_out/ and prints the
per-layer metrics, per op, with the tracing overhead.

The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 when ./src/barymorph is
missing, without printing a result.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("mesh-pipeline", "nested-morph", "decay-sweep")
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120
FAILURES_SHOWN = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "schedule_steps": "steps",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes (used by --self-check)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload tiny, untraced and traced, and "
                        "check that every metric is printed with its unit")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def thread_budget(workload):
    """(OpenBLAS threads, decay --jobs): at most nproc threads computing.

    decay-sweep runs nproc rows in the cli's thread pool, so each row's
    BLAS calls get one thread; the other workloads run one Python thread
    and give BLAS all nproc."""
    if workload == "decay-sweep":
        return 1, nproc()
    return nproc(), None


def import_program():
    if not os.path.isfile(os.path.join(SRC, "barymorph", "__init__.py")):
        fail(f"no barymorph package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import barymorph
    import barymorph.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(barymorph.__file__))) != SRC:
        fail(f"imported barymorph from {barymorph.__file__}, not from {SRC}")
    return barymorph, barymorph.cli


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for f in ("level", "type", "size"):
                with open(os.path.join(base, entry, f)) as fh:
                    fields[f] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            out.append(f"L{fields['level']}{kind}={fields['size']}")
    except OSError:
        return "unknown"
    return " ".join(out) or "unknown"


def environment_line(workload, blas_threads, jobs):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc={nproc()} OPENBLAS_NUM_THREADS={blas_threads} "
            f"decay_jobs={jobs if jobs else '-'} client_threads=1 "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} numpy_blas={blas.get('name')}-"
            f"{blas.get('version')} scipy_blas={sblas.get('name')}-"
            f"{sblas.get('version')} caches: {cache_sizes()}")


# --- running ops ----------------------------------------------------------------

class Window:
    """Outcome of one closed-loop window of ops.

    Each op's wall time is also kept scaled to the reference host speed
    (see calibrate.py), from the kernel timed before and after it; the
    set-up's warm-up op, timed as part of set-up, passes calibrate=None."""

    def __init__(self, calibrate=None):
        self.calibrate = calibrate
        self.latencies = []  # raw seconds, verified ops only
        self.scaled = []     # the same, scaled to the reference host speed
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0   # summed op time, failed ops included
        self.scaled_elapsed = 0.0
        self.steps = []
        self.failures = []
        self.kernel_s = calibrate.kernel_seconds() if calibrate else None

    def add_time(self, raw):
        scaled = raw
        if self.calibrate:
            before, self.kernel_s = self.kernel_s, self.calibrate.kernel_seconds()
            scaled *= self.calibrate.REFERENCE_S / (0.5 * (before + self.kernel_s))
        self.elapsed += raw
        self.scaled_elapsed += scaled
        return scaled

    @property
    def ops_per_s(self):
        return len(self.scaled) / self.scaled_elapsed if self.scaled_elapsed else 0.0

    @property
    def raw_ops_per_s(self):
        return len(self.latencies) / self.elapsed if self.elapsed else 0.0


def run_one(wl, inp, window, ctx=contextlib.nullcontext()):
    window.attempted += 1
    t0 = time.perf_counter()
    try:
        with ctx:
            out = wl.run_op(inp)
    except Exception as exc:  # a failing op is counted, not fatal
        window.add_time(time.perf_counter() - t0)
        window.failed += 1
        window.failures.append(f"raised {type(exc).__name__}: {exc}")
        return
    latency = time.perf_counter() - t0
    scaled = window.add_time(latency)
    try:
        problems = wl.check(inp, out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        window.failed += 1
        window.failures.append("; ".join(problems))
        return
    window.latencies.append(latency)
    window.scaled.append(scaled)
    steps = wl.steps(out)
    if steps is not None:
        window.steps.append(steps)


def run_window(wl, calibrate, seconds, cycle, inputs, tracer=None):
    """Whole cycles of ops until the summed op time reaches `seconds`.

    Returns the window and the next cycle's index and inputs."""
    window = Window(calibrate)
    while True:
        for inp in inputs:
            ctx = (tracer.op_span(window.attempted) if tracer
                   else contextlib.nullcontext())
            run_one(wl, inp, window, ctx)
        cycle += 1
        inputs = wl.cycle_inputs(cycle)
        if window.elapsed >= seconds:
            return window, cycle, inputs


def setup(args, bm, cli):
    """Everything before the first timed op, after the imports."""
    import workloads
    blas_threads, jobs = thread_budget(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, bm, cli, args.seed, jobs, OUT_DIR, tiny=args.tiny)
    inputs = wl.cycle_inputs(0)
    warm = Window()
    run_one(wl, wl.warmup_input(), warm)
    return wl, inputs, warm


def setup_in_fresh_process(args):
    """(scaled, raw) set-up time of a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


# --- metrics ----------------------------------------------------------------------

def tail(latencies, percentile):
    """(value, samples beyond it) at a percentile, by nearest rank."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def end_to_end(window, setups, peak_rss_mb, tail_percentile):
    scaled = window.scaled or [0.0]  # no verified op: report zeros
    raw = window.latencies or [0.0]
    tail_value, beyond = tail(scaled, tail_percentile)
    # a workload without morphs outputs one static drawing or table per
    # op: the one-step schedule of a constant morph
    steps = statistics.fmean(window.steps) if window.steps else 1.0
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": window.ops_per_s,
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb,
        "schedule_steps": steps,
    }
    n = len(window.latencies)
    notes = {
        "setup_s": ("median of " + " ".join(f"{s:.4f}" for s, _ in setups)
                    + "; raw " + " ".join(f"{r:.4f}" for _, r in setups)),
        "ops_per_s": (f"{n} verified ops in {window.scaled_elapsed:.3f} s; raw "
                      f"{window.raw_ops_per_s:.6f} in {window.elapsed:.3f} s"),
        "latency_p50_ms": f"{n} samples; raw {1e3 * statistics.median(raw):.3f}",
        "latency_tail_ms": (f"p{tail_percentile} of {n} samples, {beyond} beyond it"
                            + ("" if beyond >= 10 else " (fewer than 10)")
                            + f"; raw {1e3 * tail(raw, tail_percentile)[0]:.3f}"),
        "schedule_steps": (f"mean k over {len(window.steps)} schedules" if window.steps
                           else "no morph in this workload: one-step schedule"),
    }
    return metrics, notes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metric(name, value, unit, note=""):
    print(f"{name:<36} {value:>16.6f} {unit:<9} {note}")


def report_failures(window):
    for msg in window.failures[:FAILURES_SHOWN]:
        print(f"perfbench: failed op: {msg}", file=sys.stderr)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


# --- modes ------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if args.self_check:
        import selfcheck
        return selfcheck.run(os.path.abspath(__file__), ROOT, WORKLOADS,
                             END_TO_END_UNITS)
    blas_threads, jobs = thread_budget(args.workload)
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads)  # before numpy loads
    bm, cli = import_program()
    sys.path.insert(0, HERE)
    wl, inputs, warm = setup(args, bm, cli)
    raw_setup = time.perf_counter() - SCRIPT_START
    import calibrate
    own_setup = (raw_setup * calibrate.REFERENCE_S / calibrate.kernel_seconds(),
                 raw_setup)
    if args.setup_only:
        report_failures(warm)
        print(json.dumps({"setup_s": own_setup[0], "raw_setup_s": raw_setup,
                          "warmup_failed": warm.failed}))
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment_line(args.workload, blas_threads, jobs))
    report_failures(warm)
    if args.trace:
        return traced_run(args, bm, calibrate, wl, inputs, warm)

    window, _, _ = run_window(wl, calibrate, args.seconds, 0, inputs)
    rss = peak_rss_mb()
    setups = [own_setup] + [setup_in_fresh_process(args)
                            for _ in range(SETUP_REPEATS - 1)]
    report_failures(window)
    metrics, notes = end_to_end(window, setups, rss, wl.tail_percentile)
    print("times scaled to the reference host speed (perfbench/calibrate.py); "
          "raw wall times in the notes")
    for name, value in metrics.items():
        print_metric(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
    ratio = window.failed / window.attempted
    print_metric("ops_failed_ratio", ratio, "ratio",
                 f"{window.failed} of {window.attempted} ops failed "
                 f"(warm-up: {warm.failed} of 1)")
    correct = window.failed == 0 and warm.failed == 0 and window.latencies
    print(result_line(correct, window.attempted, window.failed, metrics,
                      END_TO_END_UNITS))
    return 0


def traced_run(args, bm, calibrate, wl, inputs, warm):
    import tracing
    half = args.seconds / 2.0
    plain, cycle, inputs = run_window(wl, calibrate, half, 0, inputs)
    tracer = tracing.Tracer(bm)
    tracer.install()
    try:
        traced, _, _ = run_window(wl, calibrate, half, cycle, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    report_failures(plain)
    report_failures(traced)
    analysis = tracing.Analysis(tracer)
    for line in analysis.table():
        print(line)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    for name, parent in analysis.nesting_violations[:FAILURES_SHOWN]:
        print(f"perfbench: span {name} is not inside its parent ({parent})",
              file=sys.stderr)
    layer = tracing.per_layer_metrics(analysis, plain.ops_per_s, traced.ops_per_s)
    for name, (value, unit) in layer.items():
        print_metric(name, value, unit)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print_metric("ops_failed_ratio", failed / attempted, "ratio",
                 f"{failed} of {attempted} ops failed")
    correct = (failed == 0 and warm.failed == 0 and traced.latencies
               and not analysis.nesting_violations)
    print(result_line(correct, attempted, failed,
                      {k: v for k, (v, _) in layer.items()},
                      {k: u for k, (_, u) in layer.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
