"""Span tracer that times barymorph's layers from outside the package.

Every public function of the traced modules is replaced, in every module
namespace that holds it (the defining module, the modules that import it
and the top-level package), by a wrapper that records a span: name,
start, end, thread CPU at both ends, parent span, op id and thread.  The
package itself is not modified and needs no hooks.

Two private functions are wrapped as well: the dense solve, only to
count LU work (it opens no span, so the bisection solves stay in
discretize_morph's self time), and the decay row workers, whose spans
run in the pool threads of `barymorph.cli`.  Spans are kept in memory
and written out at the end.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

TRACED_MODULES = ("plane_graph", "families", "embedder", "coefficients",
                  "geometry", "morph", "cli")
ROW_WORKERS = ("_eg_row", "_nested_row")
SOLVE = "_solve"
OP = "op"

VERIFY = "geometry.verify_planar_straight_line"
EXTREMES = "geometry.separated_object_extremes"
WITNESS = "geometry.min_distance_internal_face_witness"
DISCRETIZE = "morph.discretize_morph"
MORPH_AT = "morph.morph_at"
VALIDATE_SCHEDULE = "morph.validate_schedule"
F_DRAWING = "embedder.f_drawing"
RESIDUAL = "embedder.residual"
RECOVER = "coefficients.recover_coefficients"
INTERPOLATE = "coefficients.interpolate"
VALIDATE_COEFFS = "coefficients.validate_coefficients"
BUILD = "plane_graph.build_maximal_plane_graph"
DECAY = "cli.cmd_decay"
LU_FLOPS = "embedder.lu_flops"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: object  # sid of the enclosing span, or None
    name: str       # "<module>.<function>", or "op" for the benchmark's op
    t0: float
    t1: float
    cpu0: float     # calling thread's CPU clock at start and end
    cpu1: float
    op: object
    thread: int
    failed: bool

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def wait(self):
        """Wall time minus the calling thread's CPU time; BLAS worker
        threads' CPU is not in the latter."""
        return max(0.0, self.wall - (self.cpu1 - self.cpu0))


def _drawing(args, kwargs):
    return args[0] if args else kwargs["d"]


def _verify_work(args, kwargs, result):
    m = len(_drawing(args, kwargs).graph.edges)
    return float(m * m)


def _extremes_work(args, kwargs, result):
    g = _drawing(args, kwargs).graph
    n, m = g.vertex_count, len(g.edges)
    return 8.0 * (n * n + n * m + m * m)  # float64 n^2, n*m and m^2 matrices


def _recover_work(args, kwargs, result):
    return float(len(_drawing(args, kwargs).graph.internal_vertices))


def _discretize_work(args, kwargs, result):
    return float(result.k)


# work counted per successful call, as (op, name, value) events
_WORK = {
    VERIFY: _verify_work,
    EXTREMES: _extremes_work,
    RECOVER: _recover_work,
    DISCRETIZE: _discretize_work,
}


class Tracer:
    """Installs the wrappers and collects spans and work events."""

    def __init__(self, barymorph):
        self.bm = barymorph
        self.spans = []   # list.append is atomic, so pool threads share it
        self.events = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_thread_stack = None
        self._patched = []  # (namespace, attribute, original)

    def install(self):
        mods = {name: importlib.import_module(f"barymorph.{name}")
                for name in TRACED_MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if not attr.startswith("_") or (short == "cli" and attr in ROW_WORKERS):
                    wrappers[fn] = self._span_wrapper(name, fn, _WORK.get(name))
                elif short == "embedder" and attr == SOLVE:
                    wrappers[fn] = self._solve_wrapper(fn)
        for ns in [self.bm] + list(mods.values()):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])
                    self._patched.append((ns, attr, value))
        self._op_thread_stack = self._stack()

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's outermost span belongs to the span the thread
            # running the ops has open (cli.cmd_decay, waiting on the pool)
            op_stack = self._op_thread_stack
            parent = op_stack[-1] if op_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def _leave(self, stack, sid, parent, name, t0, cpu0, failed):
        t1 = time.perf_counter()
        cpu1 = time.thread_time()
        stack.pop()
        self.spans.append(Span(sid, parent, name, t0, t1, cpu0, cpu1, self.op,
                               threading.get_ident(), failed))

    def _span_wrapper(self, name, fn, work_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, sid = tracer._enter()
            failed = True
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._leave(stack, sid, parent, name, t0, cpu0, failed)
            if work_fn is not None:
                tracer.events.append((tracer.op, name, work_fn(args, kwargs, result)))
            return result

        return traced

    def _solve_wrapper(self, fn):
        tracer = self
        param = inspect.signature(fn).parameters.get("dense_limit")
        limit_default = param.default if param is not None else float("inf")

        @functools.wraps(fn)
        def counted(system, *args, **kwargs):
            N = system.A.shape[0]
            limit = args[0] if args and param is not None \
                else kwargs.get("dense_limit", limit_default)
            if 0 < N <= limit:
                tracer.events.append((tracer.op, LU_FLOPS, 2.0 * N ** 3 / 3.0))
            return fn(system, *args, **kwargs)

        return counted

    def op_span(self, op_id):
        """Context manager: the benchmark's root span around one op."""
        return _OpSpan(self, op_id)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.t0, "end": s.t1, "cpu_s": s.cpu1 - s.cpu0,
                    "op": s.op, "thread": s.thread, "failed": s.failed}) + "\n")


class _OpSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op = self.op_id
        self.stack, self.parent, self.sid = self.tracer._enter()
        self.cpu0 = time.thread_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._leave(self.stack, self.sid, self.parent, OP, self.t0,
                           self.cpu0, exc_type is not None)
        self.tracer.op = None
        return False


# --- analysis ---------------------------------------------------------------

def _covered(t0, t1, intervals):
    """Length of [t0, t1] covered by the union of the given intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


class Analysis:
    """Per-name aggregates over the spans that belong to ops."""

    def __init__(self, tracer):
        spans = [s for s in tracer.spans if s.op is not None]
        self.by_id = {s.sid: s for s in spans}
        children = defaultdict(list)
        self.nesting_violations = []
        for s in spans:
            p = self.by_id.get(s.parent)
            if p is None:
                if s.name != OP:
                    self.nesting_violations.append((s.name, "no parent in its op"))
                continue
            children[p.sid].append(s)
            if s.t0 < p.t0 or s.t1 > p.t1 or s.op != p.op:
                self.nesting_violations.append((s.name, p.name))
        self.ops = [s for s in spans if s.name == OP]
        self.op_wall = sum(s.wall for s in self.ops)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.wait = defaultdict(float)
        self.failed = defaultdict(int)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.in_discretize = defaultdict(int)
        for s in spans:
            own = s.wall - _covered(s.t0, s.t1, [(c.t0, c.t1) for c in children[s.sid]])
            self.calls[s.name] += 1
            self.busy[s.name] += s.wall
            self.self_time[s.name] += own
            self.wait[s.name] += s.wait
            self.failed[s.name] += s.failed
            layer = s.name.split(".")[0]
            self.layer_self[layer] += own
            ancestors = self._ancestors(s)
            if all(a.name.split(".")[0] != layer for a in ancestors):
                self.layer_busy[layer] += s.wall
            if any(a.name == DISCRETIZE for a in ancestors):
                self.in_discretize[s.name] += 1
        self.work = defaultdict(float)
        for op, name, value in tracer.events:
            if op is not None:
                self.work[name] += value

    def _ancestors(self, s):
        out = []
        p = self.by_id.get(s.parent)
        while p is not None:
            out.append(p)
            p = self.by_id.get(p.parent)
        return out

    def names_in(self, layer):
        return [n for n in self.calls if n.split(".")[0] == layer]

    def table(self):
        """Per-function and per-layer busy and self time, as text lines.

        share is self time over all traced thread time, so the shares add
        up to 100 even when pool threads overlap."""
        total = sum(self.self_time.values()) or 1.0
        lines = [f"# traced: {len(self.ops)} ops, {self.op_wall:.3f} s op wall time, "
                 f"{total:.3f} s thread time, {sum(self.calls.values())} spans",
                 f"# {'span':<48} {'calls':>8} {'busy_s':>10} {'self_s':>10} "
                 f"{'wait_s':>9} {'share%':>6}"]
        for name in sorted(self.calls, key=lambda n: -self.self_time[n]):
            lines.append(f"# {name:<48} {self.calls[name]:>8} {self.busy[name]:>10.4f} "
                         f"{self.self_time[name]:>10.4f} {self.wait[name]:>9.4f} "
                         f"{100 * self.self_time[name] / total:>6.1f}")
        lines.append(f"# {'layer':<48} {'':>8} {'busy_s':>10} {'self_s':>10} "
                     f"{'':>9} {'share%':>6}")
        for layer in sorted(self.layer_self, key=lambda n: -self.layer_self[n]):
            lines.append(f"# {layer:<48} {'':>8} {self.layer_busy[layer]:>10.4f} "
                         f"{self.layer_self[layer]:>10.4f} {'':>9} "
                         f"{100 * self.layer_self[layer] / total:>6.1f}")
        lines.append("# busy = wall time in spans (outermost per layer); self = busy "
                     "minus time covered by child spans; share = self over all "
                     "traced thread time; wait_s = wall minus the calling thread's "
                     "CPU time (BLAS worker threads not included)")
        return lines


def per_layer_metrics(a, untraced_ops_per_s, traced_ops_per_s):
    """The per-layer metrics, per op over the traced window."""
    n = max(1, len(a.ops))
    fam = a.names_in("families")
    rows = [n_ for n_ in a.calls if n_.startswith("cli._") and n_[4:] in ROW_WORKERS]
    row_busy = sum(a.busy[r] for r in rows)
    steps = a.work[DISCRETIZE]
    per_op = lambda v: v / n
    return {
        "geometry.verify.calls": (per_op(a.calls[VERIFY]), "count/op"),
        "geometry.verify.busy_s": (per_op(a.busy[VERIFY]), "s/op"),
        "geometry.verify.edge_pairs_computed": (per_op(a.work[VERIFY]), "count/op"),
        "geometry.extremes.calls": (per_op(a.calls[EXTREMES]), "count/op"),
        "geometry.extremes.busy_s": (per_op(a.busy[EXTREMES]), "s/op"),
        "geometry.extremes.bytes_computed": (per_op(a.work[EXTREMES]), "B/op"),
        "geometry.witness.busy_s": (per_op(a.busy[WITNESS]), "s/op"),
        "morph.discretize.calls": (per_op(a.calls[DISCRETIZE]), "count/op"),
        "morph.discretize.busy_s": (per_op(a.busy[DISCRETIZE]), "s/op"),
        "morph.discretize.self_s": (per_op(a.self_time[DISCRETIZE]), "s/op"),
        "morph.steps": (per_op(steps), "count/op"),
        "morph.verifies_per_step": (a.in_discretize[VERIFY] / steps if steps else 0.0,
                                    "ratio"),
        "morph.morph_at.calls": (per_op(a.calls[MORPH_AT]), "count/op"),
        "morph.morph_at.busy_s": (per_op(a.busy[MORPH_AT]), "s/op"),
        "morph.validate_schedule.busy_s": (per_op(a.busy[VALIDATE_SCHEDULE]), "s/op"),
        "embedder.f_drawing.calls": (per_op(a.calls[F_DRAWING]), "count/op"),
        "embedder.f_drawing.busy_s": (per_op(a.busy[F_DRAWING]), "s/op"),
        "embedder.f_drawing.wait_s": (per_op(a.wait[F_DRAWING]), "s/op"),
        "embedder.f_drawing.failed": (per_op(a.failed[F_DRAWING]), "count/op"),
        "embedder.lu_flops_computed": (per_op(a.work[LU_FLOPS]), "flop/op"),
        "embedder.residual.busy_s": (per_op(a.busy[RESIDUAL]), "s/op"),
        "coefficients.recover.calls": (per_op(a.calls[RECOVER]), "count/op"),
        "coefficients.recover.busy_s": (per_op(a.busy[RECOVER]), "s/op"),
        "coefficients.recover.vertices": (per_op(a.work[RECOVER]), "count/op"),
        "coefficients.recover.failed": (per_op(a.failed[RECOVER]), "count/op"),
        "coefficients.interpolate.busy_s": (per_op(a.busy[INTERPOLATE]), "s/op"),
        "coefficients.validate.busy_s": (per_op(a.busy[VALIDATE_COEFFS]), "s/op"),
        "plane_graph.build.calls": (per_op(a.calls[BUILD]), "count/op"),
        "plane_graph.build.busy_s": (per_op(a.busy[BUILD]), "s/op"),
        "families.calls": (per_op(sum(a.calls[f] for f in fam)), "count/op"),
        "families.busy_s": (per_op(a.layer_busy["families"]), "s/op"),
        "families.self_s": (per_op(a.layer_self["families"]), "s/op"),
        "cli.decay.calls": (per_op(a.calls[DECAY]), "count/op"),
        "cli.decay.busy_s": (per_op(a.busy[DECAY]), "s/op"),
        "cli.decay.self_s": (per_op(a.self_time[DECAY]), "s/op"),
        "cli.decay.rows": (per_op(sum(a.calls[r] for r in rows)), "count/op"),
        "cli.decay.row_wait_s": (per_op(sum(a.wait[r] for r in rows)), "s/op"),
        "cli.decay.thread_overlap": (row_busy / a.busy[DECAY] if a.busy[DECAY] else 0.0,
                                     "ratio"),
        "trace.ops_per_s_untraced": (untraced_ops_per_s, "1/s"),
        "trace.ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.overhead": (untraced_ops_per_s / traced_ops_per_s - 1.0
                           if traced_ops_per_s else 0.0, "ratio"),
        "trace.spans": (per_op(sum(a.calls.values())), "count/op"),
    }
