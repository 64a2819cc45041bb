"""Command-line front end.

Subcommands:
  draw      solve a drawing from a graph (+ coefficients or uniform weights)
  recover   read coefficients back off a drawing
  morph     interpolate two drawings in coefficient space, optionally
            discretized into a schedule of safe linear steps
  decay     family sweeps reporting log-space resolution bounds as CSV
  validate  structural checks on input files, or a random self-check

Exit codes: 0 success, 2 parse error, 3 validation error, 4 solver error.
Error messages name the violated invariant.  Timing always goes to
stderr so file and stdout output stay byte-identical across runs.
"""

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .coefficients import (
    load_coefficients,
    recover_coefficients,
    format_coefficients,
    uniform_coefficients,
)
from .embedder import f_drawing, log_resolution_floor, residual
from .errors import (
    BarymorphError,
    OuterMismatch,
    ParameterOutOfRange,
    ParseError,
    SolverError,
    ValidationError,
)
from .families import eades_garvan, eg_chain_oracle, nested_triangles, \
    random_stacked_triangulation
from .geometry import (
    Drawing,
    Triangle,
    _face_pair_distances,
    _require_planar,
    emit_svg,
    format_drawing,
    load_drawing,
    outer_triangle,
    separated_object_extremes,
    triangle_resolution,
)
from .morph import (
    MIN_STEP_DEFAULT,
    discretize_morph,
    fg_morph,
    format_schedule,
    lambda_min_at,
    morph_at,
    morph_resolution_floor,
    save_schedule,
)
from .plane_graph import load_graph

EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
OUTER_TOL = 1e-12


def _log(msg):
    print(msg, file=sys.stderr)


def _triangle_from_args(args):
    if getattr(args, "triangle", None):
        return Triangle(points=np.array(args.triangle, dtype=float).reshape(3, 2))
    return Triangle(points=np.array(EQUILATERAL))


def _write_text(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- draw ----------------------------------------------------------------

def cmd_draw(args):
    g = load_graph(args.graph)
    if args.coeffs:
        matrix = load_coefficients(args.coeffs, g)
    else:
        matrix = uniform_coefficients(g)
    tri = _triangle_from_args(args)
    t0 = time.perf_counter()
    d = f_drawing(g, matrix, tri)
    _log(f"draw: n={g.vertex_count} runtime_ms={(time.perf_counter() - t0) * 1e3:.3f}")
    _write_text(format_drawing(d), args.output)
    if args.svg:
        emit_svg(d, args.svg)
    return 0


# --- recover -------------------------------------------------------------

def cmd_recover(args):
    g = load_graph(args.graph)
    d = load_drawing(args.drawing, g)
    _require_planar(d, "input drawing")
    matrix, _trace = recover_coefficients(d)
    res = separated_object_extremes(d).resolution
    _log(f"recover: min_lambda={matrix.min_lambda():.6g} "
         f"resolution/n={res / g.vertex_count:.6g}")
    _write_text(format_coefficients(matrix), args.output)
    return 0


# --- morph ---------------------------------------------------------------

def _checkpoint_svgs(schedule, graph, directory):
    os.makedirs(directory, exist_ok=True)
    cps = schedule.checkpoints
    for i, (t, d) in enumerate(cps):
        emit_svg(d, os.path.join(directory, f"checkpoint_{i:04d}.svg"))
    for j, ((_, a), (_, b)) in enumerate(zip(cps, cps[1:])):
        mid = Drawing(graph, 0.5 * (a.coords + b.coords))
        emit_svg(mid, os.path.join(directory, f"midpoint_{j:04d}.svg"))


def cmd_morph(args):
    if args.samples < 1:
        raise ParseError(f"--samples must be >= 1, got {args.samples}")
    g = load_graph(args.graph)
    d0 = load_drawing(args.drawing0, g)
    d1 = load_drawing(args.drawing1, g)
    outer_ids = list(g.outer_cycle)
    drift = float(np.abs(d0.coords[outer_ids] - d1.coords[outer_ids]).max())
    if drift > OUTER_TOL:
        raise OuterMismatch(f"outer triangles differ by {drift:.3g} "
                            f"(tolerance {OUTER_TOL:g})")
    _require_planar(d0, "first drawing")
    _require_planar(d1, "second drawing")
    m0, _ = recover_coefficients(d0)
    m1, _ = recover_coefficients(d1)
    outer = outer_triangle(d0)
    m = fg_morph(g, m0, m1, outer, validate=False)

    n = g.vertex_count
    r = min(separated_object_extremes(d0).resolution,
            separated_object_extremes(d1).resolution)
    lam_bound = r / n
    for label, mat in (("t=0", m0), ("t=1", m1)):
        lm = mat.min_lambda()
        _log(f"morph: lambda_min[{label}]={lm:.6g} r/n={lam_bound:.6g} "
             f"bound_holds={lm > lam_bound}")

    t0 = time.perf_counter()
    if args.discretize:
        schedule = discretize_morph(m, min_step=args.min_step)
        ts = np.array([t for t, _ in schedule.checkpoints])
        _log(f"morph: k={schedule.k}")
    else:
        ts = np.linspace(0.0, 1.0, args.samples + 1)
    lam_min, floor = morph_resolution_floor(m, ts)
    for t, lm, fl in zip(ts, lam_min, floor):
        _log(f"morph: t={t:.6f} lambda_min={lm:.6g} floor_log={fl:.6f}")

    if args.discretize:
        if args.output:
            save_schedule(schedule, args.output)
        else:
            sys.stdout.write(format_schedule(schedule))
        if args.frames:
            _checkpoint_svgs(schedule, g, args.frames)
    else:
        d_mid = morph_at(m, args.t)
        _write_text(format_drawing(d_mid), args.output)
        if args.frames:
            os.makedirs(args.frames, exist_ok=True)
            for i, t in enumerate(ts):
                emit_svg(morph_at(m, float(t)),
                         os.path.join(args.frames, f"sample_{i:04d}.svg"))
    _log(f"morph: runtime_ms={(time.perf_counter() - t0) * 1e3:.3f}")
    return 0


# --- decay ---------------------------------------------------------------

def _parse_n_range(text):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ParseError(f"bad n-range {text!r}, expected A:B or A:B:S")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ParseError(f"bad n-range {text!r}") from None
    if step <= 0 or hi < lo:
        raise ParseError(f"bad n-range {text!r}")
    return range(lo, hi + 1, step)

CSV_HEADER = "n,lambda_min,triangle_res,measured_log,floor_log,ceiling_log"
SANDWICH_SLACK = 1e-9
# log2 decay per vertex implied by the per-ring area contraction: two
# rings per six vertices, square root to pass from area to length.
NESTED_SLOPE_BOUND = -math.log2(16.0 / 15.0) / 6.0


def _eg_row(n, lam, r):
    t0 = time.perf_counter()
    inst = eades_garvan(n, lam, r)
    d = f_drawing(inst.graph, inst.matrix, inst.outer, validate=False)
    xs = d.coords[list(inst.chain), 0]
    oracle = eg_chain_oracle(n, lam, r)
    rel = float(np.max(np.abs(xs - oracle) / np.abs(oracle)))
    if rel > 1e-10:
        raise ValidationError("chain x-coordinates deviate from the "
                              f"tridiagonal oracle by {rel:.3g} relative")
    rep = separated_object_extremes(d)
    lam_min = inst.matrix.min_lambda()
    measured = math.log(rep.resolution)
    floor = log_resolution_floor(n, lam_min, r)
    ceiling = math.log(r) + (n - 4) * math.log(lam / (1.0 - lam))
    runtime = (time.perf_counter() - t0) * 1e3
    return (n, lam_min, r, measured, floor, ceiling), runtime


def _nested_row(n):
    t0 = time.perf_counter()
    inst = nested_triangles(n)
    m0, _ = recover_coefficients(inst.gamma0)
    m1, _ = recover_coefficients(inst.gamma1)
    m = fg_morph(inst.graph, m0, m1, inst.outer, validate=False)
    d_half = morph_at(m, 0.5)
    rep = separated_object_extremes(d_half)
    lam_min = lambda_min_at(m, 0.5)
    r = triangle_resolution(inst.outer)
    measured = math.log(rep.resolution)
    floor = log_resolution_floor(n, lam_min, r)
    ceiling = _nested_ceiling(inst, d_half)
    runtime = (time.perf_counter() - t0) * 1e3
    return (n, lam_min, r, measured, floor, ceiling), runtime


def _nested_ceiling(inst, d_half):
    """Upper bound on the halfway resolution from the second ring.

    The second ring's corners and the opposite edges of their incident
    internal faces form separated pairs, so their min distance divided
    by the drawing diameter (the longest outer side) bounds the
    resolution from above.  Needs at least three rings.
    """
    if inst.k < 3:
        return None
    vertices, _, dist = _face_pair_distances(d_half)
    best = dist[np.isin(vertices, inst.rings[1])].min()
    diameter = max(inst.outer.side_lengths())
    return math.log(best / diameter)


def _named_row(worker, n):
    """worker(n), naming the row in the message of any error it raises."""
    try:
        return worker(n)
    except BarymorphError as exc:
        raise type(exc)(f"n={n}: {exc}") from exc


def _format_row(row):
    n, lam_min, r, measured, floor, ceiling = row
    ceiling_txt = "NA" if ceiling is None else f"{ceiling:.12f}"
    return (f"{n},{lam_min:.12f},{r:.12f},{measured:.12f},"
            f"{floor:.12f},{ceiling_txt}")


def _check_sandwich(row):
    n, _, _, measured, floor, ceiling = row
    if measured < floor - SANDWICH_SLACK:
        raise ValidationError(f"n={n}: measured log resolution {measured:.9f} "
                              f"below certified floor {floor:.9f}")
    if ceiling is not None and measured > ceiling + SANDWICH_SLACK:
        raise ValidationError(f"n={n}: measured log resolution {measured:.9f} "
                              f"above family ceiling {ceiling:.9f}")


def cmd_decay(args):
    ns = list(_parse_n_range(args.n_range))
    if args.jobs < 0:
        raise ParseError(f"--jobs must be >= 0 (0 picks a default), got {args.jobs}")
    if args.family == "eg":
        if not 0.0 < args.lam <= 0.25:
            raise ParameterOutOfRange(f"lambda = {args.lam} outside (0, 1/4]")
        worker = lambda n: _eg_row(n, args.lam, args.r)
    else:
        worker = _nested_row
    jobs = args.jobs or min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda n: _named_row(worker, n), ns))
    rows = [row for row, _ in results]
    for (row, runtime), n in zip(results, ns):
        _log(f"decay: n={n} runtime_ms={runtime:.3f}")
    for row in rows:
        _check_sandwich(row)
    lines = [CSV_HEADER] + [_format_row(row) for row in rows]
    _write_text("\n".join(lines) + "\n", args.output)
    if args.family == "nested" and len(rows) >= 2:
        ns_arr = np.array([row[0] for row in rows], dtype=float)
        logs2 = np.array([row[3] for row in rows]) / math.log(2.0)
        slope = float(np.polyfit(ns_arr, logs2, 1)[0])
        _log(f"decay: fitted log2-resolution slope {slope:.6f} per vertex "
             f"(required <= {NESTED_SLOPE_BOUND:.6f})")
        if slope > NESTED_SLOPE_BOUND:
            raise ValidationError(
                f"fitted decay slope {slope:.6f} above {NESTED_SLOPE_BOUND:.6f}; "
                f"halfway drawings are not contracting as required")
    return 0


# --- validate ------------------------------------------------------------

def cmd_validate(args):
    if args.random_stacked is not None:
        return _validate_random(args)
    if args.graph is None:
        raise ParseError("validate needs a graph file or --random-stacked")
    g = load_graph(args.graph)
    print(f"graph ok: n={g.vertex_count} m={len(g.edges)} "
          f"internal_faces={len(g.faces)}")
    if args.drawing:
        d = load_drawing(args.drawing, g)
        _require_planar(d, "drawing")
        rep = separated_object_extremes(d)
        print(f"drawing ok: resolution={rep.resolution:.6g}")
    if args.coeffs:
        matrix = load_coefficients(args.coeffs, g)
        print(f"coefficients ok: min_lambda={matrix.min_lambda():.6g}")
    return 0


def _validate_random(args):
    if args.count < 1:
        raise ParseError(f"--count must be >= 1, got {args.count}")
    n = args.random_stacked
    tri = Triangle(points=np.array(EQUILATERAL))
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    for i in range(args.count):
        g = random_stacked_triangulation(n, rng=rng)
        matrix = uniform_coefficients(g)
        d = f_drawing(g, matrix, tri, validate=False)
        _require_planar(d, f"self-check {i}: drawing")
        res = residual(d, matrix)
        if res > 1e-10:
            raise SolverError(f"self-check {i}: residual {res:.3g} above 1e-10")
    _log(f"validate: runtime_ms={(time.perf_counter() - t0) * 1e3:.3f}")
    print(f"self-check ok: {args.count} stacked triangulations, n={n}, "
          f"seed={args.seed}")
    return 0


# --- parser --------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="barymorph",
        description="Convex-combination drawings, coefficient recovery, "
                    "coefficient-space morphs, and resolution-decay sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("draw", help="solve a drawing for a graph")
    p.add_argument("graph")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--coeffs", help="coefficient file (default: uniform weights)")
    grp.add_argument("--tutte", action="store_true",
                     help="uniform 1/deg weights (the default)")
    p.add_argument("--triangle", type=float, nargs=6, metavar="C",
                   help="outer corners x1 y1 x2 y2 x3 y3 (default equilateral)")
    p.add_argument("-o", "--output", help="drawing file (default stdout)")
    p.add_argument("--svg", help="also write an SVG rendering")
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("recover", help="recover coefficients from a drawing")
    p.add_argument("graph")
    p.add_argument("drawing")
    p.add_argument("-o", "--output", help="coefficient file (default stdout)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("morph", help="coefficient-space morph between two drawings")
    p.add_argument("graph")
    p.add_argument("drawing0")
    p.add_argument("drawing1")
    p.add_argument("--discretize", action="store_true",
                   help="emit a schedule of planar linear steps")
    p.add_argument("--min-step", type=float, default=MIN_STEP_DEFAULT, dest="min_step")
    p.add_argument("--samples", type=int, default=10,
                   help="without --discretize: sample count for floor logging")
    p.add_argument("-t", type=float, default=0.5, dest="t",
                   help="without --discretize: time of the emitted drawing")
    p.add_argument("-o", "--output", help="schedule or drawing file (default stdout)")
    p.add_argument("--frames", help="directory for SVG frames")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("decay", help="resolution-decay sweep over a family")
    p.add_argument("--family", choices=("eg", "nested"), required=True)
    p.add_argument("--n-range", required=True, dest="n_range", metavar="A:B[:S]")
    p.add_argument("--lambda", type=float, default=0.25, dest="lam",
                   help="chain coefficient (eg family)")
    p.add_argument("--r", type=float, default=math.sqrt(3.0) / 2.0,
                   help="outer triangle resolution (eg family)")
    p.add_argument("-o", "--output", help="CSV file (default stdout)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker threads (default 0: min(8, CPU count))")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("validate", help="validate input files or run a self-check")
    p.add_argument("graph", nargs="?")
    p.add_argument("--drawing")
    p.add_argument("--coeffs")
    p.add_argument("--random-stacked", type=int, dest="random_stacked",
                   metavar="N", help="self-check on random stacked triangulations")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --random-stacked")
    p.add_argument("--count", type=int, default=20,
                   help="number of self-check instances")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        _log(f"parse error: {exc}")
        return 2
    except ValidationError as exc:
        _log(f"validation error ({type(exc).__name__}): {exc}")
        return 3
    except SolverError as exc:
        _log(f"solver error ({type(exc).__name__}): {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
