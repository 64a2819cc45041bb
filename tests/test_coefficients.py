import math
import warnings

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    Drawing,
    build_maximal_plane_graph,
    eades_garvan,
    f_drawing,
    format_coefficients,
    interpolate,
    nested_triangles,
    parse_coefficients,
    random_stacked_triangulation,
    recover_coefficients,
    separated_object_extremes,
    t_drawing,
    uniform_coefficients,
    validate_coefficients,
)
from barymorph.errors import (
    GraphMismatch,
    InvalidCoefficients,
    NonStarShaped,
    ParameterOutOfRange,
)
from barymorph.plane_graph import neighbors_cw

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
    assert trace.cw_order == {3: (0, 2, 1)}
    assert trace.mu.shape == (3, 3) and not trace.vertex_hit.any()
    assert trace.mu[:, 0] == pytest.approx([1 / 3] * 3, abs=1e-14)


# Vertex 3 at the origin has four neighbors; the rays from 2 (top) and
# from 4 (below) pass exactly through each other.
KITE_FACES = [(0, 1, 4), (1, 3, 4), (0, 4, 3), (1, 2, 3), (2, 0, 3)]
KITE_COORDS = [(-2.0, -1.0), (2.0, -1.0), (0.0, 2.0), (0.0, 0.0), (0.0, -0.5)]


def test_recover_vertex_hit_branch(recover_by_loop):
    d = Drawing(build_maximal_plane_graph(KITE_FACES, (0, 1, 2)), KITE_COORDS)
    m, trace = recover_coefficients(d)
    assert trace.cw_order[3] == (0, 2, 1, 4)
    rays = slice(0, 4)  # vertex 3 comes first
    assert trace.vertex_hit[rays].tolist() == [False, True, False, True]
    assert trace.hit[rays][[1, 3]].tolist() == [3, 1]
    assert trace.mu[1] == pytest.approx([0.2, 0.8, 0.0], abs=1e-15)
    assert trace.mu[3] == pytest.approx([0.8, 0.2, 0.0], abs=1e-15)
    assert trace.mu[[1, 3], 2].tolist() == [0.0, 0.0]
    assert math.fsum(m.weights[3].values()) == pytest.approx(1.0, abs=1e-12)
    assert m.weights == recover_by_loop(d)[0]


def test_recover_trace_invariants(k4, equilateral):
    inst = nested_triangles(9)
    kite = Drawing(build_maximal_plane_graph(KITE_FACES, (0, 1, 2)), KITE_COORDS)
    for d in (inst.gamma0, inst.gamma1, t_drawing(k4, equilateral), kite):
        res = separated_object_extremes(d).resolution
        m, trace = recover_coefficients(d)
        mu = trace.mu
        assert len(mu) == sum(len(cw) for cw in trace.cw_order.values())
        assert mu.sum(axis=1) == pytest.approx(np.ones(len(mu)), abs=1e-12)
        assert np.all(mu[:, 0] > 0.0) and np.all(mu[:, 1] > 0.0) and np.all(mu[:, 2] >= 0.0)
        assert np.all(mu[:, 0] >= res - 1e-12)
        assert np.all(mu[trace.vertex_hit, 2] == 0.0)


def _same_recovery(d, recover_by_loop, name):
    """recover_coefficients equals the loop: weights, key order and trace."""
    m, trace = recover_coefficients(d)
    weights, hits = recover_by_loop(d)
    assert [(v, list(row.items())) for v, row in m.weights.items()] == \
        [(v, list(row.items())) for v, row in weights.items()], name
    assert trace.cw_order == {v: tuple(row) for v, row in weights.items()}, name
    assert trace.vertex_hit.tolist() == [h[0] for h in hits], name
    assert trace.hit.tolist() == [h[2] for h in hits], name
    assert trace.mu.tolist() == [list(h[3]) for h in hits], name


def test_recover_equals_loop_oracle(drawing_corpus, delaunay_drawing, recover_by_loop):
    """The array pass reproduces the per-vertex loop bit for bit on the
    corpus, nested drawing pairs to n = 117, 100 seeded Delaunay meshes
    and stacked Tutte drawings with many vertex-hit rays."""
    for case in drawing_corpus:
        _same_recovery(case.drawing, recover_by_loop, case.name)
    for n in range(6, 118, 3):
        inst = nested_triangles(n)
        _same_recovery(inst.gamma0, recover_by_loop, f"nested{n}_a")
        _same_recovery(inst.gamma1, recover_by_loop, f"nested{n}_b")
    sizes = np.random.default_rng(6).integers(10, 601, size=100)
    for seed, n in enumerate(sizes):
        _same_recovery(delaunay_drawing(seed, int(n)), recover_by_loop, f"delaunay{seed}")
    triangle = nested_triangles(6).outer
    for n in (20, 100, 300):
        g = random_stacked_triangulation(n, rng=np.random.default_rng(n))
        _same_recovery(t_drawing(g, triangle), recover_by_loop, f"stacked{n}")


def _fuzz_drawings(rng):
    """Near-degenerate drawings: eps-scale jitter, a vertex pulled onto
    (or nearly onto) a neighbor, across the opposite edge of one of its
    faces, or onto the line of two neighbors, neighbors made collinear
    with their vertex or wound twice around it, and whole drawings shrunk
    until lengths underflow or grown until differences overflow."""
    triangle = nested_triangles(6).outer
    for case in range(360):
        g = random_stacked_triangulation(int(rng.integers(5, 16)), rng=rng)
        coords = t_drawing(g, triangle).coords.copy()
        v = int(rng.choice(sorted(g.internal_vertices)))
        face = [f for f in g.faces if v in f][int(rng.integers(0, g.degree(v)))]
        a, b = (u for u in face if u != v)
        kind = case % 9
        if kind == 0:
            coords += rng.normal(scale=10.0 ** -rng.integers(9, 17), size=coords.shape)
        elif kind == 1:
            coords[v] = coords[a] + (coords[v] - coords[a]) * 10.0 ** -rng.integers(8, 330)
        elif kind == 2:
            coords[v] = coords[a] + coords[b] - coords[v]  # reflected: face flips
        elif kind == 3:
            coords[v] = coords[a] + rng.uniform(-0.5, 1.5) * (coords[b] - coords[a])
        elif kind == 4:
            # a neighbor moved onto the line through v and another neighbor
            c = int(rng.choice(sorted(g.neighbors(v) - {a})))
            coords[c] = coords[v] + rng.uniform(-2.0, -0.1) * (coords[a] - coords[v])
        elif kind == 5:
            coords[v] = coords[a] + rng.uniform(-1e-15, 1e-15, size=2)
        elif kind == 6:
            coords *= 10.0 ** -rng.integers(140, 320)
        elif kind == 7:
            coords -= coords.mean(axis=0)
            coords *= rng.uniform(0.3, 1.0) * 1.7e308 / np.abs(coords).max()
            coords[v] = -coords[a]
        else:
            # neighbors on a star polygon: every turn clockwise, two windings
            cw = neighbors_cw(g, v)
            angles = rng.uniform(0.0, 2.0 * np.pi) - 4.0 * np.pi * np.arange(len(cw)) / len(cw)
            coords[list(cw)] = coords[v] + 0.1 * np.stack([np.cos(angles), np.sin(angles)], 1)
        yield f"fuzz{case}", Drawing(g, coords)


def test_recover_matches_loop_on_degenerate_fuzz(recover_by_loop):
    """Where the loop raises NonStarShaped, the array pass raises the same
    message; where it returns finite weights, they are equal; where it
    divides by zero or returns non-finite weights, the array pass raises
    NonStarShaped instead, and it never warns."""
    outcomes = {"equal": 0, "same_error": 0, "typed": 0}
    for name, d in _fuzz_drawings(np.random.default_rng(7)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                weights, _ = recover_by_loop(d)
                finite = all(math.isfinite(w) for row in weights.values()
                             for w in row.values())
                expected = weights if finite else ZeroDivisionError()
            except (NonStarShaped, ZeroDivisionError) as exc:
                expected = exc
        if isinstance(expected, dict):
            _same_recovery(d, recover_by_loop, name)
            outcomes["equal"] += 1
            continue
        with pytest.raises(NonStarShaped) as info:
            recover_coefficients(d)
        if isinstance(expected, NonStarShaped):
            assert str(info.value) == str(expected), name
            outcomes["same_error"] += 1
        else:
            assert str(info.value).endswith(
                "ray through the vertex meets a degenerate triangle"), name
            outcomes["typed"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_recover_extreme_scales_are_typed_errors(k4, recover_by_loop):
    # eg at n = 300 collapses until the squared chord of a vertex-hit ray
    # underflows: a bare ZeroDivisionError before.
    inst = eades_garvan(300, 0.25, 0.5)
    with pytest.raises(NonStarShaped, match=r"^vertex \d+: ray through the vertex meets a "
                                            r"degenerate triangle$"):
        recover_coefficients(t_drawing(inst.graph, inst.outer))
    # The offset to neighbor 0 overflows, so its ray has no direction.
    d = Drawing(k4, [(-1e308, -1e308), (1e308, -1e308), (0.0, 1e308), (9e307, -9e307)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonStarShaped) as expected:
            recover_by_loop(d)
    with pytest.raises(NonStarShaped) as info:
        recover_coefficients(d)
    assert str(info.value) == str(expected.value) == \
        "vertex 3: ray through the vertex leaves no polygon sector"


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
