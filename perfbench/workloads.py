"""Seeded inputs, ops and per-op checks for the three workloads.

Each workload is a closed loop run by one client.  Its ops come in
cycles: one cycle holds one op from every size stratum, in a seeded
order.  Within a stratum the size moves from cycle to cycle along a
golden-ratio sequence, which spreads the sizes of a run evenly over the
stratum.  That size schedule is the same for every seed, so a run's
rates and memory do not depend on which sizes a seed happened to draw;
the seed draws everything else (mesh points, rigid motions, chain
weights, op order).  The program receives only the generated inputs.

The latency tail is reported at a fixed percentile per workload, the
highest one with at least ten samples beyond it in a 30 s run at the
commit that defined the benchmark.  It stays fixed so that every commit
reports the same percentile; each run prints how many samples lie
beyond it.

The program is reached through module attributes at call time
(`bm.f_drawing`, `cli.main`), so the tracer's wrappers see every call.
"""

import contextlib
import io
import math
import os

import numpy as np
from scipy.spatial import Delaunay

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT3_2 = math.sqrt(3.0) / 2.0
EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3_2))
UNIT_DIAMETER = 1.0  # of any drawing inside EQUILATERAL


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _strata_sizes(cycle, strata):
    """One size per stratum (lo, hi, step) for the given cycle."""
    pos = (0.5 + cycle * GOLDEN) % 1.0
    return [lo + step * min((hi - lo) // step, int(pos * ((hi - lo) // step + 1)))
            for lo, hi, step in strata]


# --- mesh-pipeline ------------------------------------------------------------

def delaunay_mesh(bm, rng, n):
    """Maximal plane graph of a Delaunay triangulation of the unit
    equilateral triangle's corners plus n-3 uniform points inside it."""
    corners = np.array(EQUILATERAL)
    u = rng.random((n - 3, 2))
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    inner = corners[0] + u[:, :1] * (corners[1] - corners[0]) \
        + u[:, 1:] * (corners[2] - corners[0])
    pts = np.vstack([corners, inner])
    tri = Delaunay(pts)
    if len(tri.coplanar):
        raise RuntimeError("Delaunay dropped input points")
    faces = []
    for a, b, c in tri.simplices.tolist():
        cross = ((pts[b, 0] - pts[a, 0]) * (pts[c, 1] - pts[a, 1])
                 - (pts[b, 1] - pts[a, 1]) * (pts[c, 0] - pts[a, 0]))
        faces.append((a, b, c) if cross > 0 else (a, c, b))
    return bm.build_maximal_plane_graph(faces, (0, 1, 2))


class MeshPipeline:
    """draw -> verify -> extremes -> witness -> recover -> re-solve -> residual."""

    name = "mesh-pipeline"
    tail_percentile = 80

    def __init__(self, bm, seed, tiny=False):
        self.bm = bm
        self.seed = seed
        self.strata = ([(20, 29, 1), (30, 40, 1)] if tiny else
                       [(200, 299, 1), (300, 399, 1), (400, 499, 1), (500, 599, 1)])
        self.triangle = bm.Triangle(np.array(EQUILATERAL))

    def warmup_input(self):
        return delaunay_mesh(self.bm, _rng(self.seed, 0), self.strata[0][0])

    def cycle_inputs(self, cycle):
        rng = _rng(self.seed, 1, cycle)
        sizes = _strata_sizes(cycle, self.strata)
        rng.shuffle(sizes)
        return [delaunay_mesh(self.bm, rng, n) for n in sizes]

    def run_op(self, g):
        bm = self.bm
        d = bm.t_drawing(g, self.triangle)
        planar, violations = bm.verify_planar_straight_line(d)
        report = bm.separated_object_extremes(d)
        witness = bm.min_distance_internal_face_witness(d)
        matrix, _trace = bm.recover_coefficients(d)
        again = bm.f_drawing(g, matrix, self.triangle)
        res = bm.residual(again, matrix)
        return d, planar, violations, report, witness, matrix, again, res

    def check(self, g, out):
        d, planar, violations, report, witness, matrix, again, res = out
        n = g.vertex_count
        problems = []
        if not planar:
            problems.append(f"verifier rejects the drawing: {violations[:3]}")
        bad = _misoriented_faces(g, d.coords)
        if bad:
            problems.append(f"{bad} faces not counter-clockwise")
        if witness.distance != report.min_dist:
            problems.append(f"witness {witness.distance!r} != brute force "
                            f"{report.min_dist!r}")
        if not matrix.min_lambda() > report.resolution / n:
            problems.append(f"min_lambda {matrix.min_lambda():.3g} <= "
                            f"resolution/n {report.resolution / n:.3g}")
        drift = float(np.abs(again.coords - d.coords).max())
        if drift > 1e-8 * UNIT_DIAMETER:
            problems.append(f"re-solve drifts {drift:.3g} from the drawing")
        if not res <= 1e-10:
            problems.append(f"residual {res:.3g} above 1e-10")
        return problems

    def steps(self, out):
        return None


def _misoriented_faces(g, coords):
    """Internal faces whose drawn orientation is not counter-clockwise.

    With a counter-clockwise outer triangle, all internal faces
    counter-clockwise implies a planar drawing of the triangulated disk;
    this check shares no code with the package's verifier.
    """
    f = np.array(g.faces)
    p0, p1, p2 = coords[f[:, 0]], coords[f[:, 1]], coords[f[:, 2]]
    area2 = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    return int(np.count_nonzero(area2 <= 0.0))


# --- nested-morph -------------------------------------------------------------

class NestedMorph:
    """recover both drawings -> fg_morph -> discretize_morph -> validate_schedule."""

    name = "nested-morph"
    tail_percentile = 55

    def __init__(self, bm, seed, tiny=False):
        self.bm = bm
        self.seed = seed
        # n = 9 twice, so that the median and the tail percentile both sit
        # inside the n = 9 ops rather than on a boundary between sizes
        self.sizes = [6] if tiny else [6, 9, 9, 12]

    def _instance(self, rng, n):
        bm = self.bm
        inst = bm.nested_triangles(n)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = rng.uniform(-5.0, 5.0, size=2)
        return (inst.graph,
                bm.apply_rigid_transform(inst.gamma0, angle, shift),
                bm.apply_rigid_transform(inst.gamma1, angle, shift))

    def warmup_input(self):
        return self._instance(_rng(self.seed, 0), 6)

    def cycle_inputs(self, cycle):
        rng = _rng(self.seed, 1, cycle)
        sizes = list(self.sizes)
        rng.shuffle(sizes)
        return [self._instance(rng, n) for n in sizes]

    def run_op(self, inp):
        bm = self.bm
        graph, d0, d1 = inp
        m0, _ = bm.recover_coefficients(d0)
        m1, _ = bm.recover_coefficients(d1)
        morph = bm.fg_morph(graph, m0, m1, bm.outer_triangle(d0))
        schedule = bm.discretize_morph(morph)
        return schedule, bm.validate_schedule(morph, schedule)

    def check(self, inp, out):
        _graph, d0, d1 = inp
        schedule, violations = out
        problems = []
        if violations:
            problems.append(f"validate_schedule: {violations[:3]}")
        ts = [t for t, _ in schedule.checkpoints]
        if ts[0] != 0.0 or ts[-1] != 1.0:
            problems.append(f"schedule runs from {ts[0]!r} to {ts[-1]!r}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            problems.append("checkpoint times not strictly increasing")
        diameter = float(np.ptp(d0.coords, axis=0).max())
        for given, (_, drawn) in ((d0, schedule.checkpoints[0]),
                                  (d1, schedule.checkpoints[-1])):
            drift = float(np.abs(given.coords - drawn.coords).max())
            if drift > 1e-8 * diameter:
                problems.append(f"end drawing drifts {drift:.3g} from its input")
        return problems

    def steps(self, out):
        return out[0].k


# --- decay-sweep --------------------------------------------------------------

CSV_HEADER = "n,lambda_min,triangle_res,measured_log,floor_log,ceiling_log"
SANDWICH_SLACK = 1e-9
LAMBDA_LO, LAMBDA_HI = 0.15, 0.25
# Chain rows reach the float64 floor and fail ("internal face ... lost its
# orientation") once their ceiling log(r) + (n-4) log(lam/(1-lam)) falls
# to about -608 (lam = 0.25) or -688 (lam = 0.15).  Each eg window draws
# lam above the value that puts its top row's ceiling at this level.
EG_CEILING_LOG_MIN = -575.0


def _eg_lambda_floor(n, r):
    q = math.exp((EG_CEILING_LOG_MIN - math.log(r)) / (n - 4))
    return q / (1.0 + q)


class DecaySweep:
    """One in-process `barymorph decay` call per op; eg and nested windows alternate."""

    name = "decay-sweep"
    tail_percentile = 70

    def __init__(self, cli, seed, jobs, out_dir, tiny=False):
        self.cli = cli
        self.seed = seed
        self.jobs = jobs
        self.csv_path = os.path.join(out_dir, f"decay-{os.getpid()}.csv")
        if tiny:
            self.eg_len, self.eg_strata = 5, [(7, 12, 1), (13, 20, 1)]
            self.nested_len, self.nested_strata = 3, [(6, 9, 3), (12, 15, 3)]
        else:
            # eg windows of 20 consecutive n inside 7..520; nested windows
            # of 8 multiples of 3 inside 6..117 (float64 limit, see below)
            self.eg_len = 20
            self.eg_strata = [(7, 170, 1), (171, 335, 1), (336, 501, 1)]
            self.nested_len = 8
            self.nested_strata = [(6, 30, 3), (33, 63, 3), (66, 96, 3)]

    def _eg(self, rng, start, length):
        top = start + length - 1
        r = float(rng.uniform(0.3, SQRT3_2))
        lam = float(rng.uniform(max(LAMBDA_LO, _eg_lambda_floor(top, r)), LAMBDA_HI))
        return ("eg", start, top, 1, lam, r)

    def warmup_input(self):
        return self._eg(_rng(self.seed, 0), 7, self.eg_len)

    def cycle_inputs(self, cycle):
        rng = _rng(self.seed, 1, cycle)
        eg = _strata_sizes(cycle, self.eg_strata)
        nested = _strata_sizes(cycle, self.nested_strata)
        rng.shuffle(eg)
        rng.shuffle(nested)
        ops = []
        for a, b in zip(eg, nested):
            ops.append(self._eg(rng, a, self.eg_len))
            ops.append(("nested", b, b + 3 * (self.nested_len - 1), 3, None, None))
        return ops

    def argv(self, inp):
        family, lo, hi, step, lam, r = inp
        argv = ["decay", "--family", family, "--n-range", f"{lo}:{hi}:{step}",
                "--jobs", str(self.jobs), "-o", self.csv_path]
        if family == "eg":
            argv += ["--lambda", repr(lam), "--r", repr(r)]
        return argv

    def run_op(self, inp):
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = self.cli.main(self.argv(inp))
        return code, log.getvalue()

    def check(self, inp, out):
        family, lo, hi, step, lam, r = inp
        code, log = out
        try:
            with open(self.csv_path) as fh:
                lines = fh.read().splitlines()
            os.remove(self.csv_path)
        except FileNotFoundError:
            lines = []
        if code != 0:
            return [f"exit code {code}: {log.strip().splitlines()[-1:]}"]
        problems = []
        if not lines or lines[0] != CSV_HEADER:
            return [f"bad CSV header {lines[:1]}"]
        rows = [line.split(",") for line in lines[1:]]
        ns = list(range(lo, hi + 1, step))
        if [int(row[0]) for row in rows] != ns:
            return [f"CSV rows for n={[row[0] for row in rows]}, expected {ns}"]
        for row in rows:
            n = int(row[0])
            lam_min, tri_res, measured, floor = (float(x) for x in row[1:5])
            ceiling = None if row[5] == "NA" else float(row[5])
            if measured < floor - SANDWICH_SLACK:
                problems.append(f"n={n}: measured {measured} below floor {floor}")
            if ceiling is not None and measured > ceiling + SANDWICH_SLACK:
                problems.append(f"n={n}: measured {measured} above ceiling {ceiling}")
            # the floor recomputed from the printed (12-decimal) columns
            expect = math.log(tri_res / 2.0) + n * math.log(lam_min / 3.0)
            if abs(expect - floor) > 1e-6:
                problems.append(f"n={n}: floor {floor} != recomputed {expect}")
            if family == "eg":
                expect = math.log(r) + (n - 4) * math.log(lam / (1.0 - lam))
                if ceiling is None or abs(expect - ceiling) > 1e-9:
                    problems.append(f"n={n}: ceiling {ceiling} != {expect}")
                if abs(lam_min - lam) > 1e-11 or abs(tri_res - r) > 1e-11:
                    problems.append(f"n={n}: lambda_min/r columns {row[1:3]}")
            elif n >= 9 and ceiling is None:
                problems.append(f"n={n}: nested row without a ceiling")
        return problems

    def steps(self, out):
        return None


def make(name, bm, cli, seed, jobs, out_dir, tiny=False):
    if name == MeshPipeline.name:
        return MeshPipeline(bm, seed, tiny)
    if name == NestedMorph.name:
        return NestedMorph(bm, seed, tiny)
    if name == DecaySweep.name:
        return DecaySweep(cli, seed, jobs, out_dir, tiny)
    raise ValueError(f"unknown workload {name!r}")
