import math

import numpy as np
import pytest

from barymorph import (
    CoefficientMatrix,
    Drawing,
    assemble_system,
    eades_garvan,
    eg_chain_oracle,
    f_drawing,
    log_resolution_floor,
    nested_triangles,
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
    bad = CoefficientMatrix(k4, {3: {0: 0.0, 1: 0.0, 2: 0.0}})
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
