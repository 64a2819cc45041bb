"""Solve for the unique drawing fixed by a coefficient matrix.

With the outer cycle pinned to a triangle, the conditions
x(v) = sum_u lambda_vu x(u) over internal v form a nonsingular linear
system: A has ones on the diagonal, -lambda_vu for internal neighbors,
and the external terms move to the right-hand side.  A is factored once
and reused for the x and y solves.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coefficients import assert_valid, uniform_coefficients
from .errors import ResidualTooLarge, SingularSystem, SolverError
from .geometry import Drawing, _doubled_areas

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class BarycentricSystem:
    graph: object
    triangle: object
    internal_ids: tuple
    A: np.ndarray
    bx: np.ndarray
    by: np.ndarray


def assemble_system(g, matrix, triangle, validate=True):
    """Build the interior system; corner i of the triangle pins the i-th
    outer-cycle vertex."""
    if validate:
        assert_valid(g, matrix)
    internal = tuple(sorted(g.internal_vertices))
    index = {v: i for i, v in enumerate(internal)}
    corner = {v: triangle.points[i] for i, v in enumerate(g.outer_cycle)}
    N = len(internal)
    A = np.eye(N)
    bx = np.zeros(N)
    by = np.zeros(N)
    for v in internal:
        i = index[v]
        for u, w in matrix.weights[v].items():
            if u in index:
                A[i, index[u]] = -w
            else:
                bx[i] += w * corner[u][0]
                by[i] += w * corner[u][1]
    return BarycentricSystem(graph=g, triangle=triangle, internal_ids=internal,
                             A=A, bx=bx, by=by)


def _solve(system):
    A, bx, by = system.A, system.bx, system.by
    try:
        with np.errstate(all="ignore"):
            lu, piv = scipy.linalg.lu_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.all(np.isfinite(lu)):
        raise SingularSystem("LU factorization produced non-finite entries")
    x = scipy.linalg.lu_solve((lu, piv), bx)
    y = scipy.linalg.lu_solve((lu, piv), by)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise SingularSystem("solution contains non-finite entries")
    return x, y


def _relative_residual(A, z, b):
    num = float(np.abs(A @ z - b).max()) if z.size else 0.0
    den = float(np.abs(b).max()) if b.size else 0.0
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _place(system, x, y):
    """Coordinates with the outer cycle on the system's triangle and the
    internal vertices at the solution (x, y)."""
    coords = np.empty((system.graph.vertex_count, 2))
    coords[list(system.graph.outer_cycle)] = system.triangle.points
    internal = list(system.internal_ids)
    coords[internal, 0] = x
    coords[internal, 1] = y
    return coords


def f_drawing(g, matrix, triangle, validate=True, check=True):
    """Drawing fixed by the coefficients, outer cycle on the triangle.

    check=True enforces the residual tolerance and that every internal
    face keeps positive orientation (cheap guards; full planarity
    verification is the caller's business).
    """
    system = assemble_system(g, matrix, triangle, validate=validate)
    x, y = _solve(system)
    coords = _place(system, x, y)
    if check:
        rx = _relative_residual(system.A, x, system.bx)
        ry = _relative_residual(system.A, y, system.by)
        if max(rx, ry) > RESIDUAL_TOL:
            raise ResidualTooLarge(f"relative residual {max(rx, ry):.3e}")
        areas = _doubled_areas(coords[list(g.faces)])
        if np.any(areas <= 0.0):
            bad = g.faces[int(np.argmin(areas))]
            raise SolverError(f"internal face {bad} lost its orientation")
    return Drawing(g, coords)


def t_drawing(g, triangle):
    """Drawing from uniform coefficients (the barycenter iteration fixpoint)."""
    return f_drawing(g, uniform_coefficients(g), triangle, validate=False)


def residual(d, matrix):
    """Max violation of the fixpoint conditions, normalized by the drawing
    diameter."""
    g, coords = d.graph, d.coords
    worst = 0.0
    for v, row in matrix.weights.items():
        target = np.zeros(2)
        for u, w in row.items():
            target += w * coords[u]
        worst = max(worst, float(np.abs(coords[v] - target).max()))
    diff = coords[:, None, :] - coords[None, :, :]
    diameter = float(np.hypot(diff[..., 0], diff[..., 1]).max())
    if diameter == 0.0:
        return math.inf
    return worst / diameter


def log_resolution_floor(n, lambda_min, triangle_res):
    """Guaranteed log lower bound on drawing resolution:
    log(r/2) + n log(lambda_min/3)."""
    return math.log(triangle_res / 2.0) + n * math.log(lambda_min / 3.0)
