"""Shared fixtures: the drawing corpus used across the test suite.

The corpus mixes 100 seeded random stacked triangulations (n up to 50)
with instances of both adversarial families.  Family sizes stop where
their drawings are still float-verifiable: chains at n = 14, uniform
nested solves at n = 24.  Beyond that the drawings collapse below the
verifier's epsilon by design, and only the decay sweeps (which measure
rather than verify) push further.  The prescribed nested drawing pairs
keep the full range; their separations are bounded away from zero.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import Delaunay

from barymorph import (
    Drawing,
    Triangle,
    build_maximal_plane_graph,
    eades_garvan,
    f_drawing,
    nested_triangles,
    random_stacked_triangulation,
    uniform_coefficients,
)
from barymorph.coefficients import ANGULAR_EPS
from barymorph.errors import NonStarShaped
from barymorph.plane_graph import neighbors_cw

CORPUS_SEED = 988231
STACKED_COUNT = 100
EG_NS = range(7, 15)
NESTED_NS = range(6, 31, 3)
NESTED_SOLVE_NS = range(6, 25, 3)
SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class SolveCase:
    """A system to solve: f_drawing(graph, matrix, triangle)."""

    name: str
    graph: object
    matrix: object
    triangle: object


@dataclass(frozen=True)
class DrawingCase:
    """A concrete drawing, either solved from a SolveCase or prescribed."""

    name: str
    drawing: object


@pytest.fixture(scope="session")
def equilateral():
    return Triangle(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3_2]]))


@pytest.fixture(scope="session")
def k4():
    return build_maximal_plane_graph([(0, 1, 3), (1, 2, 3), (0, 3, 2)], (0, 1, 2))


@pytest.fixture(scope="session")
def nested_instances():
    return {n: nested_triangles(n) for n in NESTED_NS}


@pytest.fixture(scope="session")
def eg_instances():
    return {n: eades_garvan(n, 0.25, SQRT3_2) for n in EG_NS}


@pytest.fixture(scope="session")
def solve_corpus(equilateral, eg_instances, nested_instances):
    """Family systems first, then the 100 random stacked triangulations."""
    cases = []
    for n, inst in eg_instances.items():
        cases.append(SolveCase(f"eg{n}", inst.graph, inst.matrix, inst.outer))
    for n in NESTED_SOLVE_NS:
        inst = nested_instances[n]
        cases.append(SolveCase(f"nested{n}", inst.graph,
                               uniform_coefficients(inst.graph), inst.outer))
    rng = np.random.default_rng(CORPUS_SEED)
    sizes = rng.integers(4, 51, size=STACKED_COUNT)
    for i, n in enumerate(sizes):
        g = random_stacked_triangulation(int(n), rng=rng)
        cases.append(SolveCase(f"stacked{i}_n{n}", g,
                               uniform_coefficients(g), equilateral))
    return cases


@pytest.fixture(scope="session")
def drawing_corpus(solve_corpus, nested_instances):
    """Solved drawings for every solve case plus the prescribed nested pairs."""
    cases = [DrawingCase(c.name, f_drawing(c.graph, c.matrix, c.triangle,
                                           validate=False))
             for c in solve_corpus]
    for n, inst in nested_instances.items():
        cases.append(DrawingCase(f"nested{n}_a", inst.gamma0))
        cases.append(DrawingCase(f"nested{n}_b", inst.gamma1))
    return cases


def _ccw(pts, a, b, c):
    (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0


@pytest.fixture(scope="session")
def delaunay_drawing(equilateral):
    """delaunay_drawing(seed, n): the Delaunay triangulation of the outer
    corners and n - 3 seeded points inside, drawn at the points themselves."""
    def draw(seed, n):
        rng = np.random.default_rng(seed)
        corners = equilateral.points
        u = rng.random((n - 3, 2))
        flip = u.sum(axis=1) > 1.0
        u[flip] = 1.0 - u[flip]
        pts = np.vstack([corners, corners[0] + u @ (corners[1:] - corners[0])])
        faces = [(a, b, c) if _ccw(pts, a, b, c) else (a, c, b)
                 for a, b, c in Delaunay(pts).simplices.tolist()]
        return Drawing(build_maximal_plane_graph(faces, (0, 1, 2)), pts)

    return draw


def _assemble_by_loop(g, matrix, triangle):
    internal = tuple(sorted(g.internal_vertices))
    index = {v: i for i, v in enumerate(internal)}
    corner = {v: triangle.points[i] for i, v in enumerate(g.outer_cycle)}
    A, bx, by = np.eye(len(internal)), np.zeros(len(internal)), np.zeros(len(internal))
    for v in internal:
        i = index[v]
        for u, w in matrix.weights[v].items():
            if u in index:
                A[i, index[u]] = -w
            else:
                bx[i] += w * corner[u][0]
                by[i] += w * corner[u][1]
    return internal, A, bx, by


@pytest.fixture(scope="session")
def assemble_by_loop():
    """The interior system (internal ids, A, bx, by) entry by entry in dict
    order: the oracle the weight-array assembly must match byte for byte."""
    return _assemble_by_loop


def _tri2(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _recover_vertex(vp, pts):
    """Coefficient row for one internal vertex.

    vp is the vertex position, pts the neighbor positions in clockwise
    order.  Returns (row weights aligned with pts, hits), one hit
    (vertex_hit, k, i, mu) per ray.  Raises NonStarShaped when the
    neighbor polygon does not wind once clockwise around vp.
    """
    d = len(pts)
    rel = pts - vp
    norms = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(norms == 0.0):
        raise NonStarShaped("neighbor coincides with the vertex")
    unit = rel / norms[:, None]

    turn = 0.0
    for j in range(d):
        a, b = unit[j], unit[(j + 1) % d]
        cr = a[0] * b[1] - a[1] * b[0]
        if cr >= 0.0:
            raise NonStarShaped("neighbor polygon does not turn clockwise")
        turn += math.atan2(cr, a @ b)
    if abs(turn + 2.0 * math.pi) > 1e-6:
        raise NonStarShaped(f"neighbor polygon winds {turn / (2 * math.pi):.3f} turns")

    acc = np.zeros(d)
    hits = []
    for k in range(d):
        q = -unit[k]
        sin_to = q[0] * unit[:, 1] - q[1] * unit[:, 0]  # cross(q, unit_i)
        cos_to = unit @ q
        vertex_is = np.nonzero((np.abs(sin_to) <= ANGULAR_EPS) & (cos_to > 0.0))[0]
        if vertex_is.size:
            i = int(vertex_is[0])
            # v lies on the chord u_k .. u_i; weight by arc position.
            chord = rel[i] - rel[k]
            b = float((-rel[k]) @ chord) / float(chord @ chord)
            mu = (1.0 - b, b, 0.0)
            hits.append((True, k, i, mu))
            acc[k] += mu[0]
            acc[i] += mu[1]
            continue
        # Clockwise sector scan; first matching sector wins (lower index).
        for i in range(d):
            j = (i + 1) % d
            if i == k or j == k:
                continue
            c1 = unit[i, 0] * q[1] - unit[i, 1] * q[0]   # cross(unit_i, q)
            c2 = q[0] * unit[j, 1] - q[1] * unit[j, 0]   # cross(q, unit_j)
            if c1 <= 0.0 and c2 <= 0.0:
                break
        else:
            raise NonStarShaped("ray through the vertex leaves no polygon sector")
        area = _tri2(rel[k], rel[i], rel[j])
        mu_k = _tri2(np.zeros(2), rel[i], rel[j]) / area
        mu_j = _tri2(rel[k], rel[i], np.zeros(2)) / area
        s = mu_k + mu_j + _tri2(rel[k], np.zeros(2), rel[j]) / area
        mu_k /= s
        mu_j /= s
        mu_i = 1.0 - mu_k - mu_j  # exact complement, weights sum to 1
        mu = (mu_k, mu_i, mu_j)
        hits.append((False, k, i, mu))
        acc[k] += mu_k
        acc[i] += mu_i
        acc[j] += mu_j
    return acc / d, hits


def _recover_by_loop(d):
    g = d.graph
    weights = {}
    all_hits = []
    for v in sorted(g.internal_vertices):
        cw = neighbors_cw(g, v)
        try:
            row, hits = _recover_vertex(d.coords[v], d.coords[list(cw)])
        except NonStarShaped as exc:
            raise NonStarShaped(f"vertex {v}: {exc}") from None
        weights[v] = {u: float(w) for u, w in zip(cw, row)}
        all_hits += hits
    return weights, all_hits


@pytest.fixture(scope="session")
def recover_by_loop():
    """Recovered weights {v: {u: w}} and the hits of every ray, vertex by
    vertex and ray by ray: the oracle recover_coefficients must match
    bit for bit, key order included."""
    return _recover_by_loop


@pytest.fixture(scope="session")
def session_times():
    """Accumulator for criteria whose runtime budgets are shared."""
    return {}
