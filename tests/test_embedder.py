import math

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    Drawing,
    assemble_system,
    eades_garvan,
    interpolate,
    eg_chain_oracle,
    f_drawing,
    log_resolution_floor,
    nested_triangles,
    recover_coefficients,
    residual,
    separated_object_extremes,
    t_drawing,
    uniform_coefficients,
)
from barymorph.errors import ResidualTooLarge, SingularSystem, SolverError

SQRT3_2 = math.sqrt(3.0) / 2.0


def test_k4_system(k4, equilateral):
    sys_ = assemble_system(k4, uniform_coefficients(k4), equilateral)
    assert sys_.A.shape == (1, 1)
    assert sys_.A[0, 0] == 1.0
    assert sys_.bx[0] == pytest.approx((0.0 + 1.0 + 0.5) / 3.0)
    assert sys_.by[0] == pytest.approx(SQRT3_2 / 3.0)


def test_chain_system_is_tridiagonal():
    inst = eades_garvan(7, 0.25, SQRT3_2)
    sys_ = assemble_system(inst.graph, inst.matrix, inst.outer)
    A = sys_.A
    assert A.shape == (4, 4)
    assert np.allclose(np.diag(A), 1.0)
    assert np.allclose(np.diag(A, 1)[:3], [-0.25, -0.25, -0.25])
    band = np.triu(np.abs(A), 2)
    assert band.max() == 0.0


def test_system_row_sums(k4, equilateral):
    # Row i sums to the weight mass vertex i puts on external neighbors:
    # the diagonal 1 minus the internal off-diagonal weights.
    inst = eades_garvan(8, 0.2, 0.5)
    sys_ = assemble_system(inst.graph, inst.matrix, inst.outer)
    internal = set(sys_.internal_ids)
    for i, v in enumerate(sys_.internal_ids):
        external_mass = sum(w for u, w in inst.matrix.weights[v].items()
                            if u not in internal)
        assert sys_.A[i].sum() == pytest.approx(external_mass, abs=1e-12)


def test_system_diagonal_dominance():
    inst = nested_triangles(15)
    sys_ = assemble_system(inst.graph, uniform_coefficients(inst.graph),
                           inst.outer)
    internal = set(sys_.internal_ids)
    for i, v in enumerate(sys_.internal_ids):
        off = np.abs(sys_.A[i]).sum() - abs(sys_.A[i, i])
        has_external = any(u not in internal
                           for u in inst.graph.neighbors(v))
        if has_external:
            assert off < 1.0 - 1e-12
        else:
            assert off <= 1.0 + 1e-12


def _system_cases(solve_corpus):
    """The solve corpus, eg rows across the decay window, and interpolated
    nested systems, as (name, graph, matrix, triangle)."""
    cases = [(c.name, c.graph, c.matrix, c.triangle) for c in solve_corpus]
    for n in list(range(7, 521, 37)) + [520]:
        inst = eades_garvan(n, 0.25, SQRT3_2)
        cases.append((f"eg{n}", inst.graph, inst.matrix, inst.outer))
    for n in (9, 15, 30):
        inst = nested_triangles(n)
        m0, _ = recover_coefficients(inst.gamma0)
        m1, _ = recover_coefficients(inst.gamma1)
        for t in (0.0, 0.3, 0.5, 1.0):
            cases.append((f"nested{n}@{t}", inst.graph, interpolate(m0, m1, t), inst.outer))
    return cases


def test_assembly_equals_loop_oracle(solve_corpus, assemble_by_loop):
    for name, g, matrix, triangle in _system_cases(solve_corpus):
        sys_ = assemble_system(g, matrix, triangle, validate=False)
        internal, A, bx, by = assemble_by_loop(g, matrix, triangle)
        assert sys_.internal_ids == internal, name
        for got, want in ((sys_.A, A), (sys_.bx, bx), (sys_.by, by)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _residual_by_loop(d, matrix):
    """residual's numerator, vertex by vertex in dict order."""
    worst = 0.0
    for v, row in matrix.weights.items():
        target = np.zeros(2)
        for u, w in row.items():
            target += w * d.coords[u]
        worst = max(worst, float(np.abs(d.coords[v] - target).max()))
    return worst


def test_residual_equals_loop_oracle(solve_corpus):
    rng = np.random.default_rng(5)
    for name, g, matrix, triangle in _system_cases(solve_corpus)[::3]:
        d = f_drawing(g, matrix, triangle, validate=False)
        moved = Drawing(g, d.coords + rng.normal(scale=1e-3, size=d.coords.shape))
        for drawing in (d, moved):
            diff = drawing.coords[:, None, :] - drawing.coords[None, :, :]
            diameter = float(np.hypot(diff[..., 0], diff[..., 1]).max())
            assert residual(drawing, matrix) == _residual_by_loop(drawing, matrix) / diameter, name


@pytest.mark.parametrize("coords", [
    [(0.0, 0.0), (3.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
    [(0.5, 1.5), (2.0, -1.5), (1.0, 0.5), (1.5, -0.5)],
    [(1.0, 1.0)] * 4,
], ids=["collinear", "collinear_sloped", "coincident"])
def test_residual_without_convex_hull(k4, coords):
    # Qhull rejects these point sets; the diameter is still the all-pairs one.
    d, matrix = Drawing(k4, coords), uniform_coefficients(k4)
    diff = d.coords[:, None, :] - d.coords[None, :, :]
    diameter = float(np.hypot(diff[..., 0], diff[..., 1]).max())
    worst = _residual_by_loop(d, matrix)
    assert residual(d, matrix) == (worst / diameter if diameter else math.inf)


def test_non_finite_weight_is_singular_system(k4, equilateral):
    # pins the check that lets _solve skip scipy's input scan
    bad = CoefficientMatrix(k4, {3: {0: math.nan, 1: 0.5, 2: 0.5}})
    with pytest.raises(SingularSystem):
        f_drawing(k4, bad, equilateral, validate=False)


def test_k4_barycenter(k4, equilateral):
    d = t_drawing(k4, equilateral)
    assert d.coords[3] == pytest.approx([0.5, math.sqrt(3) / 6], abs=1e-15)


def test_chain_n5_closed_form():
    lam, r = 0.25, SQRT3_2
    inst = eades_garvan(5, lam, r)
    d = f_drawing(inst.graph, inst.matrix, inst.outer, validate=False)
    x1 = lam * r / (1.0 - lam * lam)
    assert d.coords[inst.chain[0], 0] == pytest.approx(x1, rel=1e-14)
    assert d.coords[inst.chain[1], 0] == pytest.approx(lam * x1, rel=1e-14)


def test_chain_n7_matches_oracle_and_flat():
    inst = eades_garvan(7, 0.25, SQRT3_2)
    d = f_drawing(inst.graph, inst.matrix, inst.outer, validate=False)
    xs = d.coords[list(inst.chain), 0]
    oracle = eg_chain_oracle(7, 0.25, SQRT3_2)
    assert np.max(np.abs(xs - oracle) / np.abs(oracle)) <= 1e-10
    assert np.abs(d.coords[list(inst.chain), 1]).max() == 0.0


def test_t_drawing_is_uniform_f_drawing(k4, equilateral):
    a = t_drawing(k4, equilateral)
    b = f_drawing(k4, uniform_coefficients(k4), equilateral)
    assert np.array_equal(a.coords, b.coords)


def test_deterministic_solves(equilateral):
    inst = nested_triangles(12)
    m = uniform_coefficients(inst.graph)
    a = f_drawing(inst.graph, m, inst.outer)
    b = f_drawing(inst.graph, m, inst.outer)
    assert np.array_equal(a.coords, b.coords)


def test_nested_t_drawing_face_orientations():
    inst = nested_triangles(12)
    d = t_drawing(inst.graph, inst.outer)
    for a, b, c in inst.graph.faces:
        pa, pb, pc = d.coords[a], d.coords[b], d.coords[c]
        area2 = (pb[0] - pa[0]) * (pc[1] - pa[1]) \
            - (pb[1] - pa[1]) * (pc[0] - pa[0])
        assert area2 > 0.0


def test_residual_of_solution(k4, equilateral):
    m = uniform_coefficients(k4)
    d = f_drawing(k4, m, equilateral)
    assert residual(d, m) <= 1e-10


def test_residual_detects_displacement(k4, equilateral):
    m = uniform_coefficients(k4)
    d = f_drawing(k4, m, equilateral)
    D = separated_object_extremes(d).max_dist
    coords = d.coords.copy()
    coords[3] += (0.1 * D, 0.0)
    assert residual(Drawing(k4, coords), m) > 1e-6


def test_singular_system_detected(k4, equilateral):
    # A malformed matrix putting all mass on an internal self-loop-like
    # row cannot happen through validation, so drive the solver directly
    # with validate off: full mass on the internal vertex's row wiped out.
    # An empty row (no entries at all) must fail the same typed way.
    for row in ({0: 0.0, 1: 0.0, 2: 0.0}, {}):
        bad = CoefficientMatrix(k4, {3: row})
        with pytest.raises((SingularSystem, SolverError, ResidualTooLarge)):
            f_drawing(k4, bad, equilateral, validate=False)


def test_log_floor_formula():
    val = log_resolution_floor(10, 0.25, 0.5)
    assert val == pytest.approx(math.log(0.25) + 10 * math.log(0.25 / 3.0))


def test_log_floor_certificate_small(k4, equilateral):
    d = t_drawing(k4, equilateral)
    rep = separated_object_extremes(d)
    floor = log_resolution_floor(4, 1 / 3, SQRT3_2)
    assert math.log(rep.resolution) >= floor - 1e-9
