"""Solve for the unique drawing fixed by a coefficient matrix.

With the outer cycle pinned to a triangle, the conditions
x(v) = sum_u lambda_vu x(u) over internal v form a nonsingular linear
system: A has ones on the diagonal, -lambda_vu for internal neighbors,
and the external terms move to the right-hand side.  Every system, of
one matrix or of a morph at t, is built by _assembler from weight arrays
laid out by _entries.  A is factored once for the x and y solves.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial import ConvexHull, QhullError

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


def _entries(g, matrix):
    """The matrix as arrays: the sorted internal ids, and row, column and
    weight of every entry, rows in id order, each in its dict order.  The
    column is the neighbor's internal index, or -1 - k for the outer
    vertex on corner k."""
    internal = tuple(sorted(g.internal_vertices))
    column = dict(zip(internal + g.outer_cycle, [*range(len(internal)), -1, -2, -3]))
    entries = np.array([(i, column[u], w) for i, v in enumerate(internal)
                        for u, w in matrix.weights[v].items()], dtype=float).reshape(-1, 3)
    rows, cols = entries[:, :2].T.astype(np.intp)
    return internal, rows, cols, entries[:, 2]


def _assembler(g, triangle, internal, rows, cols):
    """The build function weights -> system of one entry layout.  Internal
    entries set A through precomputed flat indices; np.bincount adds the
    external w * corner in entry order from 0.0, as a row loop would."""
    N = len(internal)
    inner, outer = cols >= 0, cols < 0
    flat, outer_rows = rows[inner] * N + cols[inner], rows[outer]
    cx, cy = triangle.points[-1 - cols[outer]].T.copy()

    def build(w):
        A = np.eye(N)
        A.put(flat, -w[inner])
        terms = w[outer]
        return BarycentricSystem(g, triangle, internal, A,
                                 np.bincount(outer_rows, terms * cx, N),
                                 np.bincount(outer_rows, terms * cy, N))

    return build


def assemble_system(g, matrix, triangle, validate=True):
    """Build the interior system; corner i of the triangle pins the i-th
    outer-cycle vertex."""
    if validate:
        assert_valid(g, matrix)
    internal, rows, cols, weights = _entries(g, matrix)
    return _assembler(g, triangle, internal, rows, cols)(weights)


def _solve(system):
    try:
        with np.errstate(all="ignore"):  # no input scan: lu and x, y are checked
            lu, piv = scipy.linalg.lu_factor(system.A, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    if not np.all(np.isfinite(lu)):
        raise SingularSystem("LU factorization produced non-finite entries")
    x = scipy.linalg.lu_solve((lu, piv), system.bx, check_finite=False)
    y = scipy.linalg.lu_solve((lu, piv), system.by, check_finite=False)
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
    return _drawing(assemble_system(g, matrix, triangle, validate=validate), check)


def _drawing(system, check=True):
    """Solve the system into a Drawing, with f_drawing's guards if check."""
    x, y = _solve(system)
    coords = _place(system, x, y)
    if check:
        rx = _relative_residual(system.A, x, system.bx)
        ry = _relative_residual(system.A, y, system.by)
        if max(rx, ry) > RESIDUAL_TOL:
            raise ResidualTooLarge(f"relative residual {max(rx, ry):.3e}")
        areas = _doubled_areas(coords[system.graph.face_array])
        if np.any(areas <= 0.0):
            bad = system.graph.faces[int(np.argmin(areas))]
            raise SolverError(f"internal face {bad} lost its orientation")
    return Drawing(system.graph, coords)


def t_drawing(g, triangle):
    """Drawing from uniform coefficients (the barycenter iteration fixpoint)."""
    return f_drawing(g, uniform_coefficients(g), triangle, validate=False)


def residual(d, matrix):
    """Max violation of the fixpoint conditions, normalized by the drawing
    diameter."""
    g, coords = d.graph, d.coords
    internal, rows, cols, weights = _entries(g, matrix)
    nbrs = coords[np.array(internal + g.outer_cycle[::-1])[cols]]  # column -1 - k: corner k
    target = [np.bincount(rows, weights * nbrs[:, k], len(internal)) for k in (0, 1)]
    worst = float(np.abs(coords[list(internal)] - np.stack(target, axis=1)).max())
    try:  # the farthest pair of a point set is a pair of hull vertices
        ends = coords[ConvexHull(coords).vertices]
    except QhullError:  # collinear or coincident: the lexicographic extremes
        ends = coords[np.lexsort(coords.T[::-1])[[0, -1]]]
    diff = ends[:, None, :] - ends[None, :, :]
    diameter = float(np.hypot(diff[..., 0], diff[..., 1]).max())
    if diameter == 0.0:
        return math.inf
    return worst / diameter


def log_resolution_floor(n, lambda_min, triangle_res):
    """Guaranteed log lower bound on drawing resolution:
    log(r/2) + n log(lambda_min/3)."""
    return math.log(triangle_res / 2.0) + n * math.log(lambda_min / 3.0)
