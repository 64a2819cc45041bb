import math

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    Drawing,
    MorphSchedule,
    build_maximal_plane_graph,
    discretize_morph,
    f_drawing,
    fg_curve_length_estimate,
    fg_curve_point,
    fg_morph,
    lambda_min_at,
    log_resolution_floor,
    morph_at,
    morph_resolution_floor,
    nested_triangles,
    parse_schedule,
    format_schedule,
    geometric_eps,
    interpolate,
    random_stacked_triangulation,
    recover_coefficients,
    separated_object_extremes,
    triangle_resolution,
    uniform_coefficients,
    validate_schedule,
    verify_planar_straight_line,
)
from barymorph.errors import (
    GraphMismatch,
    InvalidCoefficients,
    ParameterOutOfRange,
    ParseError,
    StepStalled,
    ValidationError,
)
from barymorph.embedder import _place, _solve
from barymorph.morph import _check_linear_step, _weights


def _random_coefficients(g, rng):
    weights = {}
    for v in g.internal_vertices:
        nb = list(g.neighbors(v))
        raw = rng.uniform(0.1, 1.0, len(nb))
        weights[v] = dict(zip(nb, (raw / raw.sum()).tolist()))
    return CoefficientMatrix(g, weights)


@pytest.fixture(scope="module")
def nested9_morph():
    inst = nested_triangles(9)
    m0, _ = recover_coefficients(inst.gamma0)
    m1, _ = recover_coefficients(inst.gamma1)
    return fg_morph(inst.graph, m0, m1, inst.outer)


@pytest.fixture(scope="module")
def k4_morph(k4, equilateral):
    uni = uniform_coefficients(k4)
    skew = CoefficientMatrix(k4, {3: {0: 0.6, 1: 0.2, 2: 0.2}})
    return fg_morph(k4, uni, skew, equilateral)


def test_morph_requires_shared_graph(k4, equilateral):
    other = random_stacked_triangulation(5, seed=3)
    with pytest.raises(GraphMismatch):
        fg_morph(k4, uniform_coefficients(k4), uniform_coefficients(other),
                 equilateral)


def test_morph_validates_matrices(k4, equilateral):
    bad = CoefficientMatrix(k4, {3: {0: 0.5, 1: 0.5, 2: 0.5}})
    with pytest.raises(InvalidCoefficients):
        fg_morph(k4, uniform_coefficients(k4), bad, equilateral)


def test_endpoints_reproduce_f_drawings(k4_morph):
    d0 = f_drawing(k4_morph.graph, k4_morph.m0, k4_morph.outer)
    d1 = f_drawing(k4_morph.graph, k4_morph.m1, k4_morph.outer)
    assert np.array_equal(morph_at(k4_morph, 0.0).coords, d0.coords)
    assert np.array_equal(morph_at(k4_morph, 1.0).coords, d1.coords)


def test_constant_morph(k4, equilateral):
    m = fg_morph(k4, uniform_coefficients(k4), uniform_coefficients(k4),
                 equilateral)
    a = morph_at(m, 0.3)
    b = morph_at(m, 0.7)
    assert np.array_equal(a.coords, b.coords)
    schedule = discretize_morph(m)
    assert schedule.k == 1
    # only the t coordinate moves, so the curve has length exactly 1
    assert fg_curve_length_estimate(m, 16) == 1.0


def test_lambda_min_along_morph(k4_morph):
    ends = min(k4_morph.m0.min_lambda(), k4_morph.m1.min_lambda())
    assert lambda_min_at(k4_morph, 0.0) == k4_morph.m0.min_lambda()
    assert lambda_min_at(k4_morph, 1.0) == k4_morph.m1.min_lambda()
    for t in np.linspace(0.0, 1.0, 11):
        assert lambda_min_at(k4_morph, t) >= ends - 1e-15


def test_floor_matches_scalar_formula(nested9_morph):
    m = nested9_morph
    lam, floor = morph_resolution_floor(m, [0.0, 0.5])
    n = m.graph.vertex_count
    r = triangle_resolution(m.outer)
    assert floor[0] == pytest.approx(
        log_resolution_floor(n, lambda_min_at(m, 0.0), r), rel=1e-12)
    assert lam[1] == pytest.approx(lambda_min_at(m, 0.5), rel=1e-12)


def test_measured_resolution_above_floor(nested9_morph):
    ts = np.linspace(0.0, 1.0, 21)
    _, floor = morph_resolution_floor(nested9_morph, ts)
    for t, f in zip(ts, floor):
        rep = separated_object_extremes(morph_at(nested9_morph, t))
        assert math.log(rep.resolution) >= f - 1e-9


def _c9_pair(equilateral):
    """The first random pair criterion 09 discretizes (same seed and draws)."""
    rng = np.random.default_rng(615001)
    g = random_stacked_triangulation(int(rng.integers(5, 21)), rng=rng)
    m0 = _random_coefficients(g, rng)
    return fg_morph(g, m0, _random_coefficients(g, rng), equilateral)


MORPH_TS = [0.0, 1.0, 0.5, 1.0 / 3.0, 1e-9, 1.0 - 1e-9] + [i / 23 for i in range(1, 23, 2)] \
    + [0.37, 0.123456789, 0.999, 0.001]


@pytest.mark.parametrize("which", ["nested9", "c9_pair0"])
def test_morph_path_equals_f_drawing_of_interpolate(which, nested9_morph, equilateral):
    """Every morph consumer (morph_at, the bisection solve, the curve point)
    reproduces f_drawing of the dict interpolation byte for byte."""
    m = nested9_morph if which == "nested9" else _c9_pair(equilateral)
    build, at = _weights(m)
    internal = sorted(m.graph.internal_vertices)
    assert len(MORPH_TS) >= 20
    for t in MORPH_TS:
        ref = f_drawing(m.graph, interpolate(m.m0, m.m1, t), m.outer, validate=False)
        assert morph_at(m, t).coords.tobytes() == ref.coords.tobytes(), t
        system = build(at(t))
        assert _place(system, *_solve(system)).tobytes() == ref.coords.tobytes(), t
        point = fg_curve_point(m, t).point
        assert point[1::2].tobytes() == ref.coords[internal, 0].tobytes(), t
        assert point[2::2].tobytes() == ref.coords[internal, 1].tobytes(), t


def test_morph_systems_equal_loop_oracle(nested9_morph, assemble_by_loop):
    m = nested9_morph
    build, at = _weights(m)
    for t in MORPH_TS:
        system = build(at(t))
        internal, A, bx, by = assemble_by_loop(m.graph, interpolate(m.m0, m.m1, t), m.outer)
        assert system.internal_ids == internal
        for got, want in ((system.A, A), (system.bx, bx), (system.by, by)):
            assert got.tobytes() == want.tobytes(), t


def test_lambda_min_equals_interpolate(nested9_morph):
    m = nested9_morph
    lam, _ = morph_resolution_floor(m, MORPH_TS)
    for t, got in zip(MORPH_TS, lam):
        want = interpolate(m.m0, m.m1, t).min_lambda()
        assert lambda_min_at(m, t) == want and got == want, t


def test_morph_time_outside_unit_interval(k4_morph):
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ParameterOutOfRange):
            morph_at(k4_morph, bad)
        with pytest.raises(ParameterOutOfRange):
            lambda_min_at(k4_morph, bad)


def test_discretize_nested(nested9_morph):
    schedule = discretize_morph(nested9_morph)
    assert schedule.k >= 2
    ts = [t for t, _ in schedule.checkpoints]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(schedule.step_radii) == schedule.k
    assert validate_schedule(nested9_morph, schedule) == []


def test_discretize_stalls_on_huge_min_step(nested9_morph):
    with pytest.raises(StepStalled):
        discretize_morph(nested9_morph, min_step=0.9)


def test_discretize_min_step_range(k4_morph):
    for bad in (0.0, 1.5):
        with pytest.raises(ParameterOutOfRange):
            discretize_morph(k4_morph, min_step=bad)


# --- the exact check of a linear step -------------------------------------

OLD_SAMPLE_FRACTIONS = [s / 10 for s in range(1, 10)]
STEP_MARGIN = 2.0 * math.sqrt(2.0)  # doubled-area threshold over eps * scale^2


def _verifies_at(a, b, fractions):
    return all(verify_planar_straight_line(
        Drawing(a.graph, (1.0 - s) * a.coords + s * b.coords))[0] for s in fractions)


def _step_accepted(a, b):
    try:
        _check_linear_step(a.graph, a, b, "[0, 1]")
    except ValidationError:
        return False
    return True


def test_linear_step_crossing_between_samples_rejected():
    g = build_maximal_plane_graph([(0, 1, 3), (0, 3, 2), (1, 2, 4), (2, 3, 4),
                                   (3, 1, 4)], (0, 1, 2))
    tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    a = Drawing(g, tri + [[0.545455, 0.314918], [0.681818, 0.393648]])
    b = Drawing(g, tri + [[0.798297, 0.282784], [0.558332, 0.752391]])
    # both ends and all nine old sample fractions verify ...
    assert _verifies_at(a, b, [0.0, 1.0] + OLD_SAMPLE_FRACTIONS)
    # ... yet edges (1, 4) and (2, 3) cross in between
    _, violations = verify_planar_straight_line(
        Drawing(g, 0.05 * a.coords + 0.95 * b.coords))
    assert ("edge_crossing", ((1, 4), (2, 3))) in violations
    with pytest.raises(ValidationError,
                       match=r"linear step \[0, 1\]: face \(2, 3, 4\)"):
        _check_linear_step(g, a, b, "[0, 1]")


def test_linear_step_check_never_accepts_what_verify_rejects(equilateral):
    # Seeded random Tutte-to-Tutte steps: two random convex-combination
    # drawings of one stacked triangulation, joined by one straight step.
    rng = np.random.default_rng(20031)
    outcomes = set()
    for _ in range(60):
        g = random_stacked_triangulation(int(rng.integers(5, 25)), rng=rng)
        a, b = (f_drawing(g, _random_coefficients(g, rng), equilateral)
                for _ in range(2))
        accepted = _step_accepted(a, b)
        outcomes.add(accepted)
        if accepted:
            assert _verifies_at(a, b, OLD_SAMPLE_FRACTIONS)
    assert outcomes == {True, False}


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_linear_step_margin_at_eps_scale(scale):
    # K4 whose outer edge (0, 2) is the diagonal of [-scale, scale]^2, the
    # longest segment a drawing of that scale holds.  Vertex 3 slides along
    # it at height h, so face (0, 3, 2) keeps doubled area 2 sqrt(2) scale h
    # all along the step; vertex_on_edge fires once h <= eps * scale.
    g = build_maximal_plane_graph([(0, 1, 3), (1, 2, 3), (0, 3, 2)], (0, 1, 2))
    eps = geometric_eps()
    along = np.array([1.0, 1.0]) / math.sqrt(2.0)
    normal = np.array([1.0, -1.0]) / math.sqrt(2.0)
    corners = scale * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])
    for factor in (0.5, 0.9, 1.01, 1.1, 2.0, 10.0):
        h = factor * eps * scale
        a, b = (Drawing(g, np.vstack([corners, [scale * 0.3 * side * along
                                                  + h * normal]]))
                for side in (-1.0, 1.0))
        accepted = _step_accepted(a, b)
        assert accepted == (factor > 1.0), factor
        # the threshold is tight: just below it the verifier rejects too
        assert _verifies_at(a, b, OLD_SAMPLE_FRACTIONS) == accepted, factor


def test_linear_step_eps_perturbations_of_random_drawings(equilateral):
    # Push one vertex of a face to doubled area factor * 2 sqrt(2) eps S^2
    # over its opposite edge and slide it parallel to that edge.
    rng = np.random.default_rng(52003)
    eps = geometric_eps()
    accepted_count = 0
    for _ in range(40):
        g = random_stacked_triangulation(int(rng.integers(5, 25)), rng=rng)
        d = f_drawing(g, _random_coefficients(g, rng), equilateral)
        face = g.faces[int(rng.integers(len(g.faces)))]
        corner = int(rng.integers(3))
        v, p, q = face[corner], face[(corner + 1) % 3], face[(corner + 2) % 3]
        if v in g.outer_cycle:
            continue
        edge = d.coords[q] - d.coords[p]
        length = float(np.hypot(*edge))
        unit = edge / length
        normal = np.array([-unit[1], unit[0]])  # towards v in a ccw face
        foot = d.coords[p] + (d.coords[v] - d.coords[p]) @ unit * unit
        for factor in (0.5, 1.01, 1.5, 4.0):
            h = factor * STEP_MARGIN * eps * d.scale ** 2 / length
            ends = []
            for side in (-1.0, 1.0):
                coords = d.coords.copy()
                coords[v] = foot + h * normal + side * 1e-3 * length * unit
                ends.append(Drawing(g, coords))
            if _step_accepted(*ends):
                accepted_count += 1
                assert _verifies_at(*ends, OLD_SAMPLE_FRACTIONS), (face, factor)
    assert accepted_count > 0


def test_schedule_roundtrip(k4_morph):
    schedule = discretize_morph(k4_morph)
    text = format_schedule(schedule)
    back = parse_schedule(text, k4_morph.graph)
    assert back.k == schedule.k
    for (ta, da), (tb, db) in zip(schedule.checkpoints, back.checkpoints):
        assert ta == tb
        assert np.array_equal(da.coords, db.coords)
    assert back.step_radii == schedule.step_radii
    assert validate_schedule(k4_morph, back) == []


@pytest.mark.parametrize("mangle", [
    lambda t: "not a schedule\n" + t.split("\n", 1)[1],
    lambda t: t.replace("schedule k", "schedule k nine\n#", 1),
    lambda t: t.rsplit("\nv ", 1)[0] + "\n",        # drop the last vertex line
    lambda t: t.replace("\nv 0 ", "\nw 0 ", 1),     # bad tag
    lambda t: t.replace("\nv 1 ", "\nv 0 ", 1),     # duplicate id
    lambda t: "schedule k -1\n",                    # negative step count
    lambda t: t.replace("\nv 1 ", "\nv one ", 1),   # non-integer id
    lambda t: t.replace("\nv 0 0 ", "\nv 0 x ", 1), # non-numeric coordinate
    lambda t: t.replace("\nt 0\n", "\nt zero\n", 1),  # non-numeric time
    lambda t: t.replace("\nt 1\n", "\nt 2\n", 1),     # time outside [0, 1]
])
def test_schedule_parse_errors(k4_morph, mangle):
    text = format_schedule(discretize_morph(k4_morph))
    with pytest.raises(ParseError):
        parse_schedule(mangle(text), k4_morph.graph)


def test_validate_schedule_empty_reports_endpoints(k4_morph):
    empty = MorphSchedule(checkpoints=(), step_radii=())
    assert validate_schedule(k4_morph, empty) == [("endpoints", (None, None))]


def test_validate_schedule_flags_tampering(k4_morph):
    schedule = discretize_morph(k4_morph)
    t_last, d_last = schedule.checkpoints[-1]
    shifted = type(d_last)(d_last.graph, d_last.coords + 0.01)
    bad = type(schedule)(
        checkpoints=schedule.checkpoints[:-1] + ((t_last, shifted),),
        step_radii=schedule.step_radii)
    codes = {code for code, _ in validate_schedule(k4_morph, bad)}
    assert "checkpoint_mismatch" in codes


def test_curve_point_layout(k4_morph):
    p = fg_curve_point(k4_morph, 0.25)
    d = morph_at(k4_morph, 0.25, check=False)
    assert p.t == 0.25
    assert p.point.shape == (3,)  # t plus x, y of the single internal vertex
    assert p.point[0] == 0.25
    assert p.point[1] == pytest.approx(d.coords[3, 0], abs=1e-12)
    assert p.point[2] == pytest.approx(d.coords[3, 1], abs=1e-12)


def test_curve_length_monotone_refinement(nested9_morph):
    l8 = fg_curve_length_estimate(nested9_morph, 8)
    l16 = fg_curve_length_estimate(nested9_morph, 16)
    l32 = fg_curve_length_estimate(nested9_morph, 32)
    assert l16 >= l8 - 1e-12
    assert l32 >= l16 - 1e-12
    assert l8 >= 1.0  # the t coordinate alone contributes length 1


def test_curve_length_needs_two_segments(k4_morph):
    with pytest.raises(ParameterOutOfRange):
        fg_curve_length_estimate(k4_morph, 1)
