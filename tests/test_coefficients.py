import math

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    Drawing,
    eades_garvan,
    f_drawing,
    format_coefficients,
    interpolate,
    nested_triangles,
    parse_coefficients,
    recover_coefficients,
    separated_object_extremes,
    t_drawing,
    uniform_coefficients,
    validate_coefficients,
)
from barymorph.coefficients import _recover_vertex
from barymorph.errors import (
    GraphMismatch,
    InvalidCoefficients,
    NonStarShaped,
    ParameterOutOfRange,
)

SQRT3_2 = math.sqrt(3.0) / 2.0


# --- construction and validation ----------------------------------------

def test_uniform_k4(k4):
    m = uniform_coefficients(k4)
    assert set(m.weights) == {3}
    assert m.weights[3] == {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
    report = validate_coefficients(k4, m)
    assert report.violations == ()
    assert report.min_lambda == pytest.approx(1 / 3)


def test_uniform_nested_degrees():
    # Innermost ring vertices have degree 4, other internal rings 6.
    inst = nested_triangles(12)
    m = uniform_coefficients(inst.graph)
    for v in inst.rings[0]:
        assert len(m.weights[v]) == 4
        assert all(w == 0.25 for w in m.weights[v].values())
    for ring in inst.rings[1:-1]:
        for v in ring:
            assert len(m.weights[v]) == 6
            assert all(w == pytest.approx(1 / 6) for w in m.weights[v].values())


def test_eg_matrix_valid():
    inst = eades_garvan(9, 0.25, SQRT3_2)
    report = validate_coefficients(inst.graph, inst.matrix)
    assert report.violations == ()
    assert report.min_lambda == 0.25


def test_row_sum_violation(k4):
    m = CoefficientMatrix(k4, {3: {0: 0.3, 1: 0.3, 2: 0.3}})
    report = validate_coefficients(k4, m)
    assert "row_sum" in {v[0] for v in report.violations}


def test_min_entry_bound_needs_broken_rows():
    # With valid rows the pigeonhole makes the bound unbeatable, so the
    # check only fires alongside another violation.
    from barymorph import build_maximal_plane_graph
    g = build_maximal_plane_graph(
        [(0, 1, 3), (1, 2, 3), (0, 3, 2)], (0, 1, 2))
    stacked = build_maximal_plane_graph(
        [(0, 1, 4), (1, 3, 4), (0, 4, 3), (1, 2, 3), (0, 3, 2)], (0, 1, 2))
    m = CoefficientMatrix(stacked, {
        3: {0: 0.26, 1: 0.26, 2: 0.26, 4: 0.26},
        4: {0: 0.30, 1: 0.40, 3: 0.30},
    })
    codes = {v[0] for v in validate_coefficients(stacked, m).violations}
    assert "min_entry_bound" in codes
    assert "row_sum" in codes


def test_nonpositive_and_spurious_entries(k4):
    m = CoefficientMatrix(k4, {3: {0: 0.5, 1: 0.6, 2: -0.1}})
    codes = {v[0] for v in validate_coefficients(k4, m).violations}
    assert "nonpositive_entry" in codes
    m2 = CoefficientMatrix(k4, {3: {0: 1 / 3, 1: 1 / 3, 2: 1 / 3},
                                0: {1: 1.0}})
    codes2 = {v[0] for v in validate_coefficients(k4, m2).violations}
    assert "external_row" in codes2


@pytest.mark.parametrize("row, codes", [
    ({0: math.nan, 1: 0.5, 2: 0.5}, {"nonpositive_entry", "row_sum"}),
    ({0: math.inf, 1: 0.5, 2: 0.5}, {"row_sum"}),
    ({0: math.inf, 1: -math.inf, 2: 0.5}, {"nonpositive_entry", "row_sum"}),
    ({0: 1e308, 1: 1e308, 2: 0.5}, {"row_sum"}),  # overflows math.fsum
], ids=["nan", "inf", "inf_minus_inf", "huge"])
def test_non_finite_weights_are_violations(k4, row, codes):
    report = validate_coefficients(k4, CoefficientMatrix(k4, {3: row}))
    assert codes <= {code for code, _ in report.violations}


def test_missing_row(k4):
    m = CoefficientMatrix(k4, {})
    codes = {v[0] for v in validate_coefficients(k4, m).violations}
    assert "missing_row" in codes


# --- interpolation -------------------------------------------------------

def test_interpolate_endpoints(k4):
    m0 = uniform_coefficients(k4)
    m1 = CoefficientMatrix(k4, {3: {0: 0.5, 1: 0.25, 2: 0.25}})
    assert interpolate(m0, m1, 0.0) == m0
    assert interpolate(m0, m1, 1.0) == m1
    mid = interpolate(m0, m1, 0.5)
    assert mid.weights[3][0] == pytest.approx((1 / 3 + 0.5) / 2)


def test_interpolate_mean_value(k4):
    m0 = CoefficientMatrix(k4, {3: {0: 0.2, 1: 0.4, 2: 0.4}})
    m1 = CoefficientMatrix(k4, {3: {0: 0.6, 1: 0.2, 2: 0.2}})
    assert interpolate(m0, m1, 0.5).weights[3][0] == pytest.approx(0.4)


def test_interpolate_guards(k4, equilateral):
    inst = nested_triangles(6)
    with pytest.raises(GraphMismatch):
        interpolate(uniform_coefficients(k4),
                    uniform_coefficients(inst.graph), 0.5)
    m = uniform_coefficients(k4)
    with pytest.raises(ParameterOutOfRange):
        interpolate(m, m, 1.5)


def test_interpolation_preserves_min_bound(k4):
    m0 = CoefficientMatrix(k4, {3: {0: 0.2, 1: 0.4, 2: 0.4}})
    m1 = CoefficientMatrix(k4, {3: {0: 0.6, 1: 0.2, 2: 0.2}})
    floor = min(m0.min_lambda(), m1.min_lambda())
    for t in np.linspace(0, 1, 11):
        assert interpolate(m0, m1, float(t)).min_lambda() >= floor - 1e-15


# --- recovery ------------------------------------------------------------

def test_recover_k4_centroid(k4, equilateral):
    d = t_drawing(k4, equilateral)
    m, trace = recover_coefficients(d)
    for u in (0, 1, 2):
        assert m.weights[3][u] == pytest.approx(1 / 3, abs=1e-14)
    for hit in trace.hits[3]:
        assert hit.kind == "edge"
        assert hit.mu[0] == pytest.approx(1 / 3, abs=1e-14)


def test_recover_vertex_hit_branch():
    # Ray from the top neighbor passes exactly through the bottom one.
    vp = np.array([0.0, 0.0])
    pts = np.array([[0.0, 2.0], [2.0, 0.5], [0.0, -1.0], [-2.0, 0.5]])
    row, hits = _recover_vertex(vp, pts)
    assert hits[0].kind == "vertex"
    assert hits[0].hit == 2
    assert hits[0].mu[0] == pytest.approx(1 / 3, abs=1e-14)
    assert hits[0].mu[1] == pytest.approx(2 / 3, abs=1e-14)
    assert hits[0].mu[2] == 0.0
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_recover_trace_invariants(k4, equilateral):
    inst = nested_triangles(9)
    for d in (inst.gamma0, inst.gamma1, t_drawing(k4, equilateral)):
        res = separated_object_extremes(d).resolution
        m, trace = recover_coefficients(d)
        for v, hits in trace.hits.items():
            for hit in hits:
                assert sum(hit.mu) == pytest.approx(1.0, abs=1e-12)
                assert hit.mu[0] > 0.0
                assert hit.mu[1] > 0.0
                assert hit.mu[2] >= 0.0
                assert hit.mu[0] >= res - 1e-12


def test_recover_rejects_folded_drawing(k4, equilateral):
    d = t_drawing(k4, equilateral)
    coords = d.coords.copy()
    coords[3] = (0.5, 1.2)  # outside the outer triangle: fan folds over
    with pytest.raises(NonStarShaped):
        recover_coefficients(Drawing(k4, coords))


def test_recover_round_trip_nested():
    inst = nested_triangles(9)
    m, _ = recover_coefficients(inst.gamma0)
    redrawn = f_drawing(inst.graph, m, inst.outer, validate=True)
    D = separated_object_extremes(inst.gamma0).max_dist
    assert np.abs(redrawn.coords - inst.gamma0.coords).max() <= 1e-8 * D


def test_recovered_min_lambda_bound():
    inst = nested_triangles(12)
    for d in (inst.gamma0, inst.gamma1):
        m, _ = recover_coefficients(d)
        res = separated_object_extremes(d).resolution
        assert m.min_lambda() > res / inst.graph.vertex_count


# --- text format ---------------------------------------------------------

def test_coefficients_round_trip(k4):
    m = uniform_coefficients(k4)
    m2 = parse_coefficients(format_coefficients(m), k4)
    assert m2 == m


def test_parse_rejects_invalid_matrix(k4):
    text = "w 3 0 0.5\nw 3 1 0.5\nw 3 2 0.5\n"
    with pytest.raises(InvalidCoefficients):
        parse_coefficients(text, k4)
