"""Acceptance gate: one test and one printed PASS/FAIL line per shipped
guarantee, each asserted at its stated tolerance and runtime budget.

The criterion lines bypass pytest's capture so they show up in any log;
measured constants (fits, ratios) are included in the line.  Criteria 1
and 2 share one runtime budget, accumulated through session_times.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from barymorph import (
    CoefficientMatrix,
    Drawing,
    Triangle,
    discretize_morph,
    eades_garvan,
    eg_chain_oracle,
    f_drawing,
    fg_curve_length_estimate,
    fg_morph,
    interpolate,
    log_resolution_floor,
    min_distance_internal_face_witness,
    morph_at,
    outer_triangle,
    random_stacked_triangulation,
    recover_coefficients,
    residual,
    ring_triangle_areas,
    rotate_translate,
    separated_object_extremes,
    triangle_extent_check,
    triangle_resolution,
    uniform_coefficients,
    validate_schedule,
    verify_planar_straight_line,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

# measured 1.027 on this corpus (the small-graph cases are dominated by
# the unit t-leg of the curve); frozen with margin, not tuned to pass
CURVE_LENGTH_OVER_DN3 = 2.5


def _emit(capsys, verdict, num, label, notes):
    extra = " ".join(f"{k}={v}" for k, v in notes.items())
    line = f"{verdict} criterion {num:02d}: {label}"
    if extra:
        line += f" [{extra}]"
    with capsys.disabled():
        print(line)


@contextmanager
def criterion(capsys, num, label):
    notes = {}
    try:
        yield notes
    except BaseException:
        _emit(capsys, "FAIL", num, label, notes)
        raise
    _emit(capsys, "PASS", num, label, notes)


def _random_matrix(g, rng):
    weights = {}
    for v in g.internal_vertices:
        nb = list(g.neighbors(v))
        raw = rng.uniform(0.1, 1.0, len(nb))
        raw /= raw.sum()
        weights[v] = dict(zip(nb, raw.tolist()))
    return CoefficientMatrix(g, weights)


def test_criterion_01_drawings_planar_with_small_residual(
        capsys, solve_corpus, session_times):
    with criterion(capsys, 1,
                   "every corpus drawing planar, residual <= 1e-10") as notes:
        t0 = time.perf_counter()
        drawn = []
        for case in solve_corpus:
            d = f_drawing(case.graph, case.matrix, case.triangle,
                          validate=False)
            ok, violations = verify_planar_straight_line(d)
            assert ok, (case.name, violations[:3])
            assert residual(d, case.matrix) <= 1e-10, case.name
            drawn.append((case, d))
        elapsed = time.perf_counter() - t0
        session_times["c1_seconds"] = elapsed
        session_times["c1_drawings"] = drawn
        notes["cases"] = len(drawn)
        notes["runtime_s"] = f"{elapsed:.2f}"
        assert elapsed < 10.0


def test_criterion_02_log_resolution_floor(capsys, solve_corpus, session_times):
    with criterion(capsys, 2,
                   "log resolution above log(r/2) + n*log(lam_min/3) - 1e-9"
                   ) as notes:
        t0 = time.perf_counter()
        drawn = session_times.get("c1_drawings")
        if drawn is None:
            drawn = [(c, f_drawing(c.graph, c.matrix, c.triangle,
                                   validate=False)) for c in solve_corpus]
        worst = math.inf
        for case, d in drawn:
            rep = separated_object_extremes(d)
            floor = log_resolution_floor(case.graph.vertex_count,
                                         case.matrix.min_lambda(),
                                         triangle_resolution(case.triangle))
            margin = math.log(rep.resolution) - floor
            assert margin >= -1e-9, (case.name, margin)
            worst = min(worst, margin)
        elapsed = time.perf_counter() - t0
        total = elapsed + session_times.get("c1_seconds", 0.0)
        notes["min_margin"] = f"{worst:.3f}"
        notes["shared_runtime_s"] = f"{total:.2f}"
        assert total < 10.0


def test_criterion_03_chain_decay_ceiling_and_oracle(capsys):
    with criterion(capsys, 3,
                   "chain family resolution <= r*(1/3)^(n-4), oracle match"
                   ) as notes:
        t0 = time.perf_counter()
        lam, r = 0.25, SQRT3_2
        ratio = lam / (1.0 - lam)
        for n in range(7, 26):
            inst = eades_garvan(n, lam, r)
            d = f_drawing(inst.graph, inst.matrix, inst.outer, validate=False)
            rep = separated_object_extremes(d)
            assert rep.resolution <= r * ratio ** (n - 4), n
            xs = d.coords[list(inst.chain), 0]
            oracle = eg_chain_oracle(n, lam, r)
            rel = float(np.max(np.abs(xs - oracle) / np.abs(oracle)))
            assert rel <= 1e-10, (n, rel)
        elapsed = time.perf_counter() - t0
        notes["rows"] = "n=7..25"
        notes["runtime_s"] = f"{elapsed:.2f}"
        assert elapsed < 5.0


def test_criterion_04_recovery_bound_and_roundtrip(capsys, drawing_corpus):
    with criterion(capsys, 4,
                   "recovered min_lambda > resolution/n, roundtrip <= 1e-8*D"
                   ) as notes:
        t0 = time.perf_counter()
        worst_dev = 0.0
        for case in drawing_corpus[:50]:
            d = case.drawing
            rep = separated_object_extremes(d)
            matrix, _trace = recover_coefficients(d)
            assert matrix.min_lambda() > rep.resolution / d.graph.vertex_count, \
                case.name
            redraw = f_drawing(d.graph, matrix, outer_triangle(d),
                               validate=False)
            dev = float(np.abs(redraw.coords - d.coords).max())
            assert dev <= 1e-8 * rep.max_dist, (case.name, dev)
            worst_dev = max(worst_dev, dev / rep.max_dist)
        elapsed = time.perf_counter() - t0
        notes["drawings"] = 50
        notes["max_roundtrip_over_D"] = f"{worst_dev:.2e}"
        notes["runtime_s"] = f"{elapsed:.2f}"
        assert elapsed < 10.0


def test_criterion_05_rigid_equivariance(capsys, solve_corpus):
    with criterion(capsys, 5,
                   "solve commutes with rigid motions within 1e-9*D") as notes:
        rng = np.random.default_rng(550210)
        picks = [solve_corpus[i] for i in
                 (0, 4, 8, 12, 16, 17, 40, 60, 85, len(solve_corpus) - 1)]
        transforms = [(rng.uniform(0.0, 2.0 * math.pi),
                       rng.uniform(-5.0, 5.0, 2)) for _ in range(20)]
        worst = 0.0
        for case in picks:
            base = f_drawing(case.graph, case.matrix, case.triangle,
                             validate=False)
            D = separated_object_extremes(base).max_dist
            for theta, shift in transforms:
                moved = Triangle(rotate_translate(case.triangle.points,
                                                  theta, shift))
                a = f_drawing(case.graph, case.matrix, moved, validate=False)
                b = rotate_translate(base.coords, theta, shift)
                dev = float(np.abs(a.coords - b).max())
                assert dev <= 1e-9 * D, (case.name, theta, dev)
                worst = max(worst, dev / D)
        notes["pairs"] = "10 drawings x 20 transforms"
        notes["max_dev_over_D"] = f"{worst:.2e}"


def test_criterion_06_face_witness_equals_brute_force(capsys, drawing_corpus):
    with criterion(capsys, 6,
                   "face-scan min distance equals brute force exactly") as notes:
        for case in drawing_corpus:
            rep = separated_object_extremes(case.drawing)
            w = min_distance_internal_face_witness(case.drawing)
            assert w.distance == rep.min_dist, case.name
        notes["drawings"] = len(drawing_corpus)


def test_criterion_07_triangle_shape_bounds(capsys):
    with criterion(capsys, 7,
                   "fuzzed triangles: r <= sqrt(3)/2, h/l >= r, X <= Y/r"
                   ) as notes:
        rng = np.random.default_rng(77113)
        count = 0
        while count < 10_000:
            p = rng.uniform(-10.0, 10.0, (3, 2))
            area2 = float((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                          - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
            scale = float(np.abs(p).max())
            if abs(area2) <= 1e-9 * scale * scale:
                continue  # resample near-degenerate corner sets
            if area2 < 0.0:
                p = p[[0, 2, 1]]
            tri = Triangle(points=p)
            r = triangle_resolution(tri)
            rep = triangle_extent_check(tri)
            assert r <= SQRT3_2 + 1e-12
            assert rep.h_over_l_min >= r - 1e-12
            assert rep.x_extent <= rep.y_extent / r + 1e-12
            count += 1
        notes["triangles"] = count


def test_criterion_08_nested_morph_pipeline(capsys, nested_instances):
    with criterion(capsys, 8,
                   "nested family: shared outer, 1/n separation, weight and "
                   "area bounds, exponential midpoint decay") as notes:
        t0 = time.perf_counter()
        ns, mid_logs = [], []
        c_fit = c2_fit = math.inf
        for n, inst in sorted(nested_instances.items()):
            k = inst.k
            outer_ids = list(inst.graph.outer_cycle)
            assert np.array_equal(inst.gamma0.coords[outer_ids],
                                  inst.gamma1.coords[outer_ids]), n
            m0, _ = recover_coefficients(inst.gamma0)
            m1, _ = recover_coefficients(inst.gamma1)
            for d in (inst.gamma0, inst.gamma1):
                rep = separated_object_extremes(d)
                c_fit = min(c_fit, rep.min_dist * n)
                c2_fit = min(c2_fit, rep.resolution * n * n)
            # outward weights: ring-to-ring spine entries in the straight
            # drawing, diagonal entries in the rotated one
            for i in range(2, k):
                (ui, vi, zi), (uj, vj, zj) = inst.rings[i - 1], inst.rings[i]
                for a, b in ((ui, uj), (vi, vj), (zi, zj)):
                    assert m0.weights[a][b] > 0.5, (n, "spine", a, b)
                for a, b in ((ui, zj), (vi, uj), (zi, vj)):
                    assert m1.weights[a][b] > 0.5, (n, "diagonal", a, b)
            mid = f_drawing(inst.graph, interpolate(m0, m1, 0.5), inst.outer,
                            validate=False)
            areas = ring_triangle_areas(mid, inst.rings)
            for i in range(2, k):
                assert areas[i - 1] <= 0.9375 * areas[i], (n, i)
            ns.append(n)
            mid_logs.append(math.log(separated_object_extremes(mid).resolution))
        assert c_fit > 0.0 and c2_fit > 0.0
        slope = float(np.polyfit(ns, mid_logs, 1)[0])
        assert slope < 0.0, slope
        elapsed = time.perf_counter() - t0
        notes["separation_c"] = f"{c_fit:.3f}"
        notes["resolution_c'"] = f"{c2_fit:.3f}"
        notes["midpoint_log_slope"] = f"{slope:.3f}"
        notes["runtime_s"] = f"{elapsed:.2f}"
        assert elapsed < 30.0


def _c9_morphs(nested_instances, equilateral):
    """The morphs criterion 09 discretizes: nested 9 and five random pairs."""
    inst = nested_instances[9]
    m0, _ = recover_coefficients(inst.gamma0)
    m1, _ = recover_coefficients(inst.gamma1)
    morphs = [("nested9", fg_morph(inst.graph, m0, m1, inst.outer))]
    rng = np.random.default_rng(615001)
    for i in range(5):
        n = int(rng.integers(5, 21))
        g = random_stacked_triangulation(n, rng=rng)
        morphs.append((f"pair{i}_n{n}",
                       fg_morph(g, _random_matrix(g, rng),
                                _random_matrix(g, rng), equilateral)))
    return morphs


def test_criterion_09_discretization_safety(capsys, nested_instances,
                                            equilateral, session_times):
    with criterion(capsys, 9,
                   "discretized morphs: finite planar schedules, steps "
                   "within delta/3, t strictly increasing") as notes:
        t0 = time.perf_counter()
        morphs = _c9_morphs(nested_instances, equilateral)
        ks, schedules = [], []
        for name, m in morphs:
            schedule = discretize_morph(m)  # raises if a step is not planar
            assert schedule.k >= 1, name
            ts = [t for t, _ in schedule.checkpoints]
            assert ts[0] == 0.0 and ts[-1] == 1.0, name
            assert all(b > a for a, b in zip(ts, ts[1:])), name
            for j, ((ta, da), (tb, db)) in enumerate(
                    zip(schedule.checkpoints, schedule.checkpoints[1:])):
                motion = float(np.abs(db.coords - da.coords).max())
                assert motion <= schedule.step_radii[j] + 1e-12, (name, j)
                # independent oracle for the step check: the full verifier
                mid = Drawing(da.graph, 0.5 * (da.coords + db.coords))
                assert verify_planar_straight_line(mid) == (True, []), (name, j)
            assert validate_schedule(m, schedule) == [], name
            ks.append(schedule.k)
            schedules.append((name, schedule))
        session_times["c9_morphs"] = morphs
        session_times["c9_schedules"] = schedules
        elapsed = time.perf_counter() - t0
        notes["schedules"] = "+".join(str(k) for k in ks) + " steps"
        notes["runtime_s"] = f"{elapsed:.2f}"
        assert elapsed < 60.0


def test_c9_steps_verify_at_old_sample_fractions(nested_instances, equilateral,
                                                session_times):
    """Differential check of the exact step check on the criterion 09 steps:
    each accepted step also verifies at the nine fractions the sampled
    check used.  Every 8th step of each schedule keeps the cost near one
    verify per step."""
    schedules = session_times.get("c9_schedules")
    if schedules is None:
        schedules = [(name, discretize_morph(m))
                     for name, m in _c9_morphs(nested_instances, equilateral)]
    for name, schedule in schedules:
        cps = schedule.checkpoints
        for j in range(0, schedule.k, 8):
            (_, a), (_, b) = cps[j], cps[j + 1]
            for s in range(1, 10):
                d = Drawing(a.graph, (1.0 - s / 10) * a.coords + s / 10 * b.coords)
                assert verify_planar_straight_line(d)[0], (name, j, s)


def test_criterion_10_curve_length_diagnostic(capsys, nested_instances,
                                              session_times):
    with criterion(capsys, 10,
                   "curve length monotone under refinement and below "
                   f"{CURVE_LENGTH_OVER_DN3}*D*N^3") as notes:
        morphs = session_times.get("c9_morphs")
        if morphs is None:
            inst = nested_instances[9]
            m0, _ = recover_coefficients(inst.gamma0)
            m1, _ = recover_coefficients(inst.gamma1)
            morphs = [("nested9", fg_morph(inst.graph, m0, m1, inst.outer))]
        inst12 = nested_instances[12]
        a, _ = recover_coefficients(inst12.gamma0)
        b, _ = recover_coefficients(inst12.gamma1)
        morphs = morphs + [("nested12", fg_morph(inst12.graph, a, b,
                                                 inst12.outer))]
        worst_ratio = 0.0
        for name, m in morphs:
            l16 = fg_curve_length_estimate(m, 16)
            l32 = fg_curve_length_estimate(m, 32)
            l64 = fg_curve_length_estimate(m, 64)
            assert l32 >= l16 - 1e-12 and l64 >= l32 - 1e-12, name
            N = len(m.graph.internal_vertices)
            D = max(separated_object_extremes(morph_at(m, t)).max_dist
                    for t in (0.0, 1.0))
            ratio = l64 / (D * N ** 3)
            assert ratio <= CURVE_LENGTH_OVER_DN3, (name, ratio)
            worst_ratio = max(worst_ratio, ratio)
        notes["morphs"] = len(morphs)
        notes["max_length_over_DN3"] = f"{worst_ratio:.3f}"
