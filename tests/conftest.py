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

from barymorph import (
    Triangle,
    build_maximal_plane_graph,
    eades_garvan,
    f_drawing,
    nested_triangles,
    random_stacked_triangulation,
    uniform_coefficients,
)

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


@pytest.fixture(scope="session")
def session_times():
    """Accumulator for criteria whose runtime budgets are shared."""
    return {}
