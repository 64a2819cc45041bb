import math

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    MorphSchedule,
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
    random_stacked_triangulation,
    recover_coefficients,
    separated_object_extremes,
    triangle_resolution,
    uniform_coefficients,
    validate_schedule,
)
from barymorph.errors import (
    GraphMismatch,
    InvalidCoefficients,
    ParameterOutOfRange,
    ParseError,
    StepStalled,
)
from barymorph.morph import _MorphSolver


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


def test_solver_agrees_with_reference(nested9_morph):
    solver = _MorphSolver(nested9_morph)
    for t in (0.0, 0.37, 1.0):
        ref = morph_at(nested9_morph, t, check=False)
        dev = np.abs(solver.coords_at(t) - ref.coords).max()
        assert dev <= 1e-11 * ref.scale


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
