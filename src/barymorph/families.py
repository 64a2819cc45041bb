"""Graph families with provably extreme resolution behavior.

Chain family (ids: u=0, v=1, z=2, chain vertex v_i = 2+i): a path
v_1..v_{n-3} hangs between the two outer vertices u and v, anchored at
the third outer vertex z = v_0.  With chain weight lam and anchor
abscissa r the drawing collapses exponentially: x(v_{i+1}) < x(v_i) and
x(v_{n-4}) <= r (lam/(1-lam))^{n-4}, while every y is zero.

Nested-triangles family (ring i ids: u_i=3(i-1), v_i=3(i-1)+1,
z_i=3(i-1)+2): k = n/3 concentric triangles joined by spokes and one
diagonal per side.  Two planar drawings share the outer ring: gamma0
places ring i at (-i,-i), (i,-i), (0,i); gamma1 cyclically rotates the
ring labels depending on (k - i) mod 3.  Morphing between them forces
intermediate rings to shrink geometrically.
"""

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientMatrix
from .errors import ParameterOutOfRange
from .geometry import SQRT3_2, Drawing, Triangle, _doubled_areas, _require_planar
from .plane_graph import build_maximal_plane_graph


@dataclass(frozen=True)
class EadesGarvanInstance:
    graph: object
    matrix: CoefficientMatrix
    outer: Triangle
    lam: float
    r: float
    chain: tuple  # ids of v_1 .. v_{n-3}


def eades_garvan(n, lam, r):
    """Chain instance with weight lam in (0, 1/4] and anchor r in (0, sqrt3/2].

    The r range keeps the outer triangle's resolution equal to r itself.
    """
    if n < 5:
        raise ParameterOutOfRange(f"need n >= 5, got {n}")
    if not 0.0 < lam <= 0.25:
        raise ParameterOutOfRange(f"lam = {lam} outside (0, 1/4]")
    if not 0.0 < r <= SQRT3_2:
        raise ParameterOutOfRange(f"r = {r} outside (0, sqrt(3)/2]")
    u, v, z = 0, 1, 2
    vid = lambda i: 2 + i  # v_0 = z
    faces = []
    for i in range(n - 3):
        faces.append((u, vid(i + 1), vid(i)))
        faces.append((v, vid(i), vid(i + 1)))
    faces.append((u, v, vid(n - 3)))
    g = build_maximal_plane_graph(faces, (u, v, z))

    weights = {}
    for i in range(1, n - 3):
        weights[vid(i)] = {u: 0.5 - lam, v: 0.5 - lam,
                           vid(i - 1): lam, vid(i + 1): lam}
    last = n - 3
    weights[vid(last)] = {u: 0.5 - lam / 2, v: 0.5 - lam / 2, vid(last - 1): lam}
    outer = Triangle([(0.0, 0.5), (0.0, -0.5), (r, 0.0)])
    return EadesGarvanInstance(graph=g, matrix=CoefficientMatrix(g, weights),
                               outer=outer, lam=lam, r=r,
                               chain=tuple(vid(i) for i in range(1, n - 2)))


def eg_chain_oracle(n, lam, r):
    """Chain abscissas by an independent tridiagonal elimination.

    Solves x_i = lam x_{i-1} + lam x_{i+1} (with x_0 = r fixed and
    x_{n-3} = lam x_{n-4}) by a plain Thomas sweep; deliberately shares
    no code with the dense embedding solver.  r is the anchor
    x-coordinate and is not range-checked here.
    """
    if n < 5:
        raise ParameterOutOfRange(f"need n >= 5, got {n}")
    if not 0.0 < lam <= 0.25:
        raise ParameterOutOfRange(f"lam = {lam} outside (0, 1/4]")
    if r <= 0.0:
        raise ParameterOutOfRange(f"need r > 0, got {r}")
    N = n - 3
    diag = np.ones(N)
    rhs = np.zeros(N)
    rhs[0] = lam * r
    # forward elimination of the sub-diagonal (-lam), then back substitution
    for i in range(1, N):
        m = lam / diag[i - 1]
        diag[i] = 1.0 - lam * m
        rhs[i] += m * rhs[i - 1]
    x = np.empty(N)
    x[-1] = rhs[-1] / diag[-1]
    for i in range(N - 2, -1, -1):
        x[i] = (rhs[i] + lam * x[i + 1]) / diag[i]
    return x


@dataclass(frozen=True)
class NestedTrianglesInstance:
    graph: object
    k: int
    rings: tuple  # ((u_i, v_i, z_i) ids), ring 1 innermost
    gamma0: Drawing
    gamma1: Drawing
    outer: Triangle


def nested_triangles(n):
    """Nested-triangles instance; n must be a positive multiple of 3, >= 6."""
    if n < 6 or n % 3 != 0:
        raise ParameterOutOfRange(f"need n >= 6 divisible by 3, got {n}")
    k = n // 3
    uid = lambda i: 3 * (i - 1)
    vid = lambda i: 3 * (i - 1) + 1
    zid = lambda i: 3 * (i - 1) + 2
    faces = [(uid(1), vid(1), zid(1))]
    for i in range(1, k):
        faces += [
            (uid(i), zid(i), zid(i + 1)),
            (uid(i), zid(i + 1), uid(i + 1)),
            (vid(i), uid(i), uid(i + 1)),
            (vid(i), uid(i + 1), vid(i + 1)),
            (zid(i), vid(i), vid(i + 1)),
            (zid(i), vid(i + 1), zid(i + 1)),
        ]
    g = build_maximal_plane_graph(faces, (uid(k), vid(k), zid(k)))

    # The three anchor points of ring i; gamma1 rotates their assignment.
    left = lambda i: (-float(i), -float(i))
    right = lambda i: (float(i), -float(i))
    top = lambda i: (0.0, float(i))
    coords0 = np.empty((n, 2))
    coords1 = np.empty((n, 2))
    for i in range(1, k + 1):
        coords0[uid(i)] = left(i)
        coords0[vid(i)] = right(i)
        coords0[zid(i)] = top(i)
        anchors, shift = (top(i), right(i), left(i)), (k - i) % 3
        coords1[[zid(i), vid(i), uid(i)]] = anchors[shift:] + anchors[:shift]
    gamma0 = Drawing(g, coords0)
    gamma1 = Drawing(g, coords1)
    _require_planar(gamma0, "gamma0")
    _require_planar(gamma1, "gamma1")
    outer = Triangle([left(k), right(k), top(k)])
    rings = tuple((uid(i), vid(i), zid(i)) for i in range(1, k + 1))
    return NestedTrianglesInstance(graph=g, k=k, rings=rings,
                                   gamma0=gamma0, gamma1=gamma1, outer=outer)


def ring_triangle_areas(d, rings):
    """Unsigned area of each ring triangle in a drawing."""
    return 0.5 * np.abs(_doubled_areas(d.coords[list(rings)]))


def random_stacked_triangulation(n, seed=None, rng=None):
    """Random maximal plane graph grown by repeated face splits.

    Starts from the 4-vertex triangulation and drops each new vertex
    into a uniformly chosen internal face, connecting it to the three
    corners.  Deterministic given a seed.
    """
    if n < 4:
        raise ParameterOutOfRange(f"need n >= 4, got {n}")
    if rng is None:
        rng = np.random.default_rng(seed)
    faces = [(0, 1, 3), (1, 2, 3), (0, 3, 2)]
    for w in range(4, n):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        faces += [(a, b, w), (b, c, w), (c, a, w)]
    return build_maximal_plane_graph(faces, (0, 1, 2))
