"""Straight-line drawings and the distances that define resolution.

A drawing assigns coordinates to every vertex of a maximal plane graph.
Two geometric objects (vertices and open edge segments) are *separated*
when they are not incident: any two distinct vertices, a vertex and an
edge it does not bound, or two edges without a shared endpoint.  The
resolution of a drawing is min over separated pairs of their distance
divided by the max.

All comparisons use an absolute epsilon scaled by coordinate magnitude;
the default 1e-12 can be overridden through the BARYMORPH_EPS
environment variable.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDrawing,
    DegenerateTriangle,
    ParseError,
    ValidationError,
    WitnessNotFound,
)

EPS_DEFAULT = 1e-12
SQRT3_2 = math.sqrt(3.0) / 2.0  # best possible triangle resolution


def geometric_eps():
    """Base geometric epsilon, overridable via BARYMORPH_EPS."""
    return float(os.environ.get("BARYMORPH_EPS", EPS_DEFAULT))


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _doubled_areas(tri):
    """Doubled signed areas of triangles tri[..., 0:3, :], positive if ccw."""
    return _cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])


@dataclass(frozen=True)
class Drawing:
    """Coordinates for every vertex of a plane graph.  Immutable."""

    graph: object
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.graph.vertex_count, 2):
            raise ValidationError(
                f"coords shape {coords.shape}, expected ({self.graph.vertex_count}, 2)")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("coords contain non-finite values")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def scale(self):
        return max(1.0, float(np.abs(self.coords).max()))


@dataclass(frozen=True)
class Triangle:
    """Non-degenerate triangle with counter-clockwise corners."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.shape != (3, 2):
            raise DegenerateTriangle(f"expected 3 corner points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateTriangle("corners contain non-finite values")
        area2 = _doubled_areas(pts)
        scale = max(1.0, float(np.abs(pts).max()))
        if area2 <= geometric_eps() * scale * scale:
            kind = "clockwise" if area2 < 0 else "collinear"
            raise DegenerateTriangle(f"corners are {kind} (signed area {area2 / 2:g})")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def signed_area(self):
        return 0.5 * float(_doubled_areas(self.points))

    def side_lengths(self):
        p = self.points
        return tuple(float(np.hypot(*(p[(i + 1) % 3] - p[i]))) for i in range(3))


@dataclass(frozen=True)
class ResolutionReport:
    min_dist: float
    max_dist: float
    resolution: float
    min_witness: tuple
    max_witness: tuple


@dataclass(frozen=True)
class FaceWitness:
    vertex: int
    edge: tuple
    distance: float


def point_segment_distance(point, segment):
    """Euclidean distance from a point to a closed segment ((a), (b))."""
    a, b = (np.asarray(segment[0], dtype=float), np.asarray(segment[1], dtype=float))
    return float(_segment_distances(np.asarray(point, dtype=float), a, b))


def _segment_distances(p, a, b):
    """Distances from points p to closed segments ab, elementwise over
    broadcast (..., 2) arrays; t = 0 where the squared length underflows
    to 0, as on collapsed chains."""
    # elementwise arithmetic throughout: BLAS dot products may round
    # differently for one row than for many, and the face-local paths
    # must reproduce the pairwise values bit for bit
    ab = b - a
    rel = p - a
    denom = ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]
    num = rel[..., 0] * ab[..., 0] + rel[..., 1] * ab[..., 1]
    t = np.clip(np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0),
                0.0, 1.0)
    return np.hypot(p[..., 0] - (a[..., 0] + t * ab[..., 0]),
                    p[..., 1] - (a[..., 1] + t * ab[..., 1]))


def _separated_pairs(d):
    """Distance tables and masks over the separated pairs of a drawing.

    Returns (E, vv, D_ve, vv_mask, ve_mask, ee_mask): the m x 2 edge
    array in stored order, the n x n vertex distances, the n x m
    vertex/segment distances, and masks selecting distinct vertex pairs
    (upper triangle), vertices that do not bound the edge, and edges
    without a shared endpoint (upper triangle).
    """
    coords = d.coords
    n = coords.shape[0]
    E = np.array(d.graph.edges, dtype=int).reshape(-1, 2)
    m = E.shape[0]

    diff = coords[:, None, :] - coords[None, :, :]
    vv = np.hypot(diff[..., 0], diff[..., 1])
    vv_mask = np.triu(np.ones((n, n), dtype=bool), 1)

    D_ve = np.empty((n, m))
    for j, (a, b) in enumerate(E):
        D_ve[:, j] = _segment_distances(coords, coords[a], coords[b])
    ve_mask = np.ones((n, m), dtype=bool)
    cols = np.arange(m)
    ve_mask[E[:, 0], cols] = False
    ve_mask[E[:, 1], cols] = False

    # four 2-D compares; one 4-D broadcast is markedly slower on big meshes
    share = np.zeros((m, m), dtype=bool)
    for k in range(2):
        for l in range(2):
            share |= E[:, k][:, None] == E[:, l][None, :]
    ee_mask = np.triu(~share, 1)
    return E, vv, D_ve, vv_mask, ve_mask, ee_mask


def _face_pair_distances(d):
    """Distance from each internal-face corner to its opposite edge.

    Returns (vertices, edges, dist) over the 3(2n-5) pairs, face-major
    and corner-minor: a corner, its opposite edge as (min, max) ids in
    stored order, and their distance, which equals the pairwise table
    entry of _separated_pairs bit for bit.
    """
    faces = np.array(d.graph.faces, dtype=int).reshape(-1, 3)
    vertices = faces.ravel()
    a, b = np.roll(faces, -1, axis=1).ravel(), np.roll(faces, -2, axis=1).ravel()
    edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    c = d.coords
    return vertices, edges, _segment_distances(c[vertices], c[edges[:, 0]], c[edges[:, 1]])


def separated_object_extremes(d):
    """Min and max distance over separated object pairs, with witnesses.

    When every internal face and the outer triangle have positive
    computed doubled area (the sign test f_drawing enforces; no epsilon,
    as decay drawings lie legitimately below it) the drawing is planar
    (Floater, Math. Comp. 72, 2003) and both extremes are face-local,
    O(n): the minimum is the least face-pair distance of
    _face_pair_distances (the face lemma of
    min_distance_internal_face_witness), or an edge length if that is
    no larger, and the maximum is the longest outer side, as every other
    vertex is strictly inside the outer triangle.  Witnesses follow the
    brute-force scan order: vertex/vertex wins an exact tie, then the
    smallest (vertex, index in graph.edges), and the first outer side of
    the longest length.  Other drawings take the brute force over all
    pairs, _extremes_by_pairs, which is also the test oracle.

    Exactly coincident vertices are an error (resolution would be 0);
    arbitrarily small positive separations are measured faithfully, as
    the adversarial families drive them below any fixed epsilon.
    """
    g, coords = d.graph, d.coords
    if not np.all(_doubled_areas(coords[list(g.faces) + [g.outer_cycle]]) > 0.0):
        return _extremes_by_pairs(d)
    E = np.array(g.edges, dtype=int).reshape(-1, 2)
    lengths = np.hypot(*(coords[E[:, 0]] - coords[E[:, 1]]).T)
    pair = lambda j: (("vertex", g.edges[j][0]), ("vertex", g.edges[j][1]))

    vertices, edges, dist = _face_pair_distances(d)
    delta = dist.min()
    j = int(np.argmin(lengths))
    if lengths[j] <= delta:
        min_dist, min_witness = float(lengths[j]), pair(j)
    else:
        n, m = g.vertex_count, len(E)
        index = np.searchsorted(E[:, 0] * n + E[:, 1], edges[:, 0] * n + edges[:, 1])
        v, j = divmod(int((vertices * m + index)[dist == delta].min()), m)
        min_dist, min_witness = float(delta), (("vertex", v), ("edge", g.edges[j]))

    outer = np.flatnonzero(np.isin(E, g.outer_cycle).all(axis=1))
    j = int(outer[np.argmax(lengths[outer])])
    max_dist = float(lengths[j])
    return ResolutionReport(min_dist=min_dist, max_dist=max_dist,
                            resolution=min_dist / max_dist,
                            min_witness=min_witness, max_witness=pair(j))


def _extremes_by_pairs(d):
    """separated_object_extremes by brute force over all vertex/vertex,
    vertex/edge and edge/edge pairs, O((n+m)^2) but fully vectorized.
    Distances between non-adjacent edges assume the drawing is planar
    (segments do not cross)."""
    E, vv, D_ve, vv_mask, ve_mask, ee_mask = _separated_pairs(d)
    edges = d.graph.edges
    iu, ju = np.nonzero(vv_mask & (vv == 0.0))
    if iu.size:
        raise DegenerateDrawing(f"vertices {iu[0]} and {ju[0]} coincide")

    # Edge/edge min distance from the four endpoint-to-segment values;
    # valid because non-adjacent edges of a planar drawing do not cross.
    near = np.minimum(D_ve[E[:, 0], :], D_ve[E[:, 1], :])
    ee = np.minimum(near.T, near)

    groups = [(vv, vv_mask, lambda i, j: (("vertex", i), ("vertex", j))),
              (D_ve, ve_mask, lambda i, j: (("vertex", i), ("edge", edges[j])))]
    if ee_mask.any():
        groups.append((ee, ee_mask,
                       lambda i, j: (("edge", edges[i]), ("edge", edges[j]))))

    best_min = (math.inf, None)
    best_max = (-math.inf, None)
    for values, mask, witness in groups:
        masked = np.where(mask, values, np.nan)
        lo = np.nanmin(masked)
        hi = np.nanmax(masked)
        if lo < best_min[0]:
            i, j = np.unravel_index(np.nanargmin(masked), masked.shape)
            best_min = (float(lo), witness(int(i), int(j)))
        if hi > best_max[0]:
            i, j = np.unravel_index(np.nanargmax(masked), masked.shape)
            best_max = (float(hi), witness(int(i), int(j)))

    min_dist, min_witness = best_min
    max_dist, max_witness = best_max
    return ResolutionReport(min_dist=min_dist, max_dist=max_dist,
                            resolution=min_dist / max_dist,
                            min_witness=min_witness, max_witness=max_witness)


def min_distance_internal_face_witness(d):
    """Fast path for the minimum separated distance.

    The global minimum over separated pairs is always attained by a
    vertex and the opposite edge of a common internal face, so the
    3(2n-5) face pairs of _face_pair_distances suffice.  Returns the
    first pair, in face order, at their minimum; its distance equals the
    brute-force minimum of _extremes_by_pairs exactly (same evaluation).
    """
    vertices, edges, dist = _face_pair_distances(d)
    if not dist.size:
        raise WitnessNotFound("graph has no internal faces")
    k = int(np.argmin(dist))
    return FaceWitness(vertex=int(vertices[k]), edge=tuple(int(v) for v in edges[k]),
                       distance=float(dist[k]))


def apply_rigid_transform(d, rotation, translation):
    """Rotate a drawing about the origin and translate it."""
    return Drawing(d.graph, rotate_translate(d.coords, rotation, translation))


def rotate_translate(points, rotation, translation):
    c, s = math.cos(rotation), math.sin(rotation)
    R = np.array([[c, -s], [s, c]])
    return np.asarray(points, dtype=float) @ R.T + np.asarray(translation, dtype=float)


# --- triangles -----------------------------------------------------------

def triangle_resolution(t):
    """Resolution of a triangle seen as a 3-vertex drawing.

    Separated pairs are the three corner pairs and the three
    corner/opposite-side pairs; edges are pairwise adjacent.  Never
    exceeds sqrt(3)/2, attained exactly by equilateral triangles.
    """
    p = t.points
    dists = list(t.side_lengths())
    for i in range(3):
        dists.append(point_segment_distance(p[i], (p[(i + 1) % 3], p[(i + 2) % 3])))
    res = min(dists) / max(dists)
    if res > SQRT3_2 + 1e-12:
        raise ValidationError(f"triangle resolution {res} above sqrt(3)/2")
    return res


@dataclass(frozen=True)
class ExtentReport:
    x_extent: float
    y_extent: float
    h_over_l_min: float


def triangle_extent_check(t):
    """Extent and height/side ratios of a triangle, with guard checks.

    For resolution r the horizontal extent X obeys X <= Y/r and every
    height-to-its-side ratio is at least r; both are asserted here with
    1e-12 slack.
    """
    p = t.points
    x_extent = float(p[:, 0].max() - p[:, 0].min())
    y_extent = float(p[:, 1].max() - p[:, 1].min())
    area2 = abs(float(_doubled_areas(p)))
    # height over each side, divided by that side
    h_over_l_min = min(area2 / (side * side) for side in t.side_lengths())
    r = triangle_resolution(t)
    if h_over_l_min < r - 1e-12:
        raise ValidationError(f"height/side ratio {h_over_l_min} below resolution {r}")
    if x_extent > y_extent / r + 1e-12:
        raise ValidationError(f"x extent {x_extent} above y extent {y_extent} / r {r}")
    return ExtentReport(x_extent=x_extent, y_extent=y_extent, h_over_l_min=h_over_l_min)


def outer_triangle(d):
    """Triangle spanned by the outer cycle, in stored cycle order."""
    return Triangle(d.coords[list(d.graph.outer_cycle)])


# --- planarity verification ---------------------------------------------

def verify_planar_straight_line(d):
    """Check a drawing is planar and realizes its graph's embedding.

    Verifies: no coincident vertices, no vertex in the relative interior
    of a non-incident edge, no crossing or overlap between edges, the
    angular neighbor order at each vertex matches the rotation derived
    from the face list, and the outer triangle is counter-clockwise with
    every other vertex strictly inside.  Returns (ok, violations) where
    violations is a list of (code, payload) pairs.  Tolerances scale
    geometric_eps() by the drawing's coordinate magnitude S = d.scale.

    An O(n) certificate answers (True, []) first when every internal
    face has doubled area > eps S^2, _outer_violations finds nothing and
    the face-pair minimum delta of _face_pair_distances exceeds
    K sqrt(eps) S with K = 2.  Why no code can then fire: the areas
    clear their rounding error, so the drawing is planar with the given
    embedding (Floater, Math. Comp. 72, 2003); there is no edge_crossing
    and every separated distance is at least delta (the face lemma of
    min_distance_internal_face_witness), far above the eps S of
    coincident_vertices and vertex_on_edge.  zero_angle and edge_overlap
    compare absolute cross products with eps S^2.  For neighbours u, w
    of v with a positive dot product, angle theta and |u - v| <= |w - v|,
    the foot of u on the line vw lies on the edge vw, so |u - v| sin theta
    is the distance of the separated pair (u, vw), at least delta, and
    |cross| = |w - v| |u - v| sin theta >= delta^2.  Collinear edges whose
    projections overlap put an endpoint of one over the other at
    distance |cross| / length <= eps S^2 / delta.  Both codes thus need
    delta <= sqrt(eps) S, i.e. K = 1; K = 2 leaves a factor 4 on delta^2
    for rounding.  The same bound keeps neighbour directions eps / 2 rad
    apart (|u - v|, |w - v| <= sqrt(8) S), far above the rounding of
    arctan2, so rotation_mismatch cannot fire either.  Every other
    drawing gets the full pairwise check, _verify_by_pairs, unchanged.
    """
    eps = geometric_eps()
    scale = d.scale
    eps_area = eps * scale * scale
    if np.all(_doubled_areas(d.coords[list(d.graph.faces)]) > eps_area) \
            and not _outer_violations(d, eps_area) \
            and _face_pair_distances(d)[2].min() > 2.0 * math.sqrt(eps) * scale:
        return True, []
    return _verify_by_pairs(d)


def _verify_by_pairs(d):
    """The full verifier over all separated pairs, O(m^2); the fallback
    of verify_planar_straight_line and its test oracle."""
    eps = geometric_eps()
    g, coords = d.graph, d.coords
    n = g.vertex_count
    scale = d.scale
    eps_len = eps * scale
    eps_area = eps * scale * scale
    violations = []

    E, vv, D_ve, vv_mask, ve_mask, ee_mask = _separated_pairs(d)
    for vi, vj in zip(*np.nonzero(vv_mask & (vv <= eps_len))):
        violations.append(("coincident_vertices", (int(vi), int(vj))))
    for vi, ej in zip(*np.nonzero(ve_mask & (D_ve <= eps_len))):
        violations.append(("vertex_on_edge", (int(vi), g.edges[ej])))

    # Proper crossings between non-adjacent edges.
    P = coords[E[:, 0]]
    Q = coords[E[:, 1]]
    dir1 = Q - P
    # _cross spelled out per coordinate: same arithmetic, but no m x m x 2
    # temporary, which set the verifier's peak memory on large meshes
    dx, dy = dir1[:, 0, None], dir1[:, 1, None]
    o1 = dx * (P[None, :, 1] - P[:, None, 1]) - dy * (P[None, :, 0] - P[:, None, 0])
    o2 = dx * (Q[None, :, 1] - P[:, None, 1]) - dy * (Q[None, :, 0] - P[:, None, 0])
    straddle = ((o1 > eps_area) & (o2 < -eps_area)) | ((o1 < -eps_area) & (o2 > eps_area))
    crossing = straddle & straddle.T & ee_mask
    for ei, ej in zip(*np.nonzero(crossing)):
        violations.append(("edge_crossing", (g.edges[ei], g.edges[ej])))

    # Collinear non-adjacent edges overlapping along their common line.
    flat = (np.abs(o1) <= eps_area) & (np.abs(o2) <= eps_area) \
        & (np.abs(o1).T <= eps_area) & (np.abs(o2).T <= eps_area) & ee_mask
    for ei, ej in zip(*np.nonzero(flat)):
        axis = dir1[ei]
        t0, t1 = 0.0, float(axis @ axis)
        s0 = float((P[ej] - P[ei]) @ axis)
        s1 = float((Q[ej] - P[ei]) @ axis)
        lo, hi = min(s0, s1), max(s0, s1)
        if min(t1, hi) - max(t0, lo) > eps_area:
            violations.append(("edge_overlap", (g.edges[ei], g.edges[ej])))

    # Zero angle between edges sharing an endpoint.
    for v in range(n):
        nbrs = sorted(g.neighbors(v))
        rel = coords[nbrs] - coords[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if abs(_cross(rel[i], rel[j])) <= eps_area and rel[i] @ rel[j] > 0:
                    violations.append(("zero_angle", (v, nbrs[i], nbrs[j])))

    # Rotation system: counter-clockwise angular order must match the
    # rotation derived from the faces, as the same cyclic sequence.
    zero_angle_at = {v for code, payload in violations if code == "zero_angle"
                     for v in payload[:1]}
    for v in range(n):
        if v in zero_angle_at:
            continue
        rot = g._rotation_ccw[v]
        nbrs = list(rot)
        rel = coords[nbrs] - coords[v]
        order = [nbrs[k] for k in np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
        i0 = order.index(rot[0])
        if tuple(order[i0:] + order[:i0]) != rot:
            violations.append(("rotation_mismatch", v))

    violations += _outer_violations(d, eps_area)
    return (not violations), violations


def _outer_violations(d, eps_area):
    """outer_not_ccw, or else outside_outer_face for every other vertex
    not strictly inside the outer triangle."""
    g, coords = d.graph, d.coords
    a, b, c = g.outer_cycle
    if _cross(coords[b] - coords[a], coords[c] - coords[a]) <= eps_area:
        return [("outer_not_ccw", (a, b, c))]
    inner = [v for v in range(g.vertex_count) if v not in (a, b, c)]
    pts = coords[inner]
    inside = np.ones(len(inner), dtype=bool)
    for s, t in ((a, b), (b, c), (c, a)):
        inside &= _cross(coords[t] - coords[s], pts - coords[s]) > eps_area
    return [("outside_outer_face", inner[k]) for k in np.nonzero(~inside)[0]]


def _require_planar(d, label):
    """Raise ValidationError naming label unless d verifies planar."""
    ok, violations = verify_planar_straight_line(d)
    if not ok:
        raise ValidationError(f"{label} is not a planar straight-line drawing: "
                              f"{violations[:5]}")


# --- text format and SVG -------------------------------------------------
#
#   v <id> <x> <y>        one line per vertex, >= 17 significant digits

def format_drawing(d):
    lines = [f"v {i} {x:.17g} {y:.17g}" for i, (x, y) in enumerate(d.coords)]
    return "\n".join(lines) + "\n"


def parse_drawing(text, graph):
    n = graph.vertex_count
    coords = np.full((n, 2), np.nan)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "v" or len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected 'v <id> <x> <y>'")
        try:
            i = int(tokens[1])
            x, y = float(tokens[2]), float(tokens[3])
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex line {line!r}") from None
        if not 0 <= i < n:
            raise ParseError(f"line {lineno}: vertex {i} not in 0..{n - 1}")
        if not math.isnan(coords[i, 0]):
            raise ParseError(f"line {lineno}: vertex {i} repeated")
        coords[i] = (x, y)
    if np.isnan(coords).any():
        missing = sorted(int(i) for i in np.nonzero(np.isnan(coords[:, 0]))[0])
        raise ParseError(f"missing coordinates for vertices {missing}")
    return Drawing(graph, coords)


def load_drawing(path, graph):
    with open(path) as fh:
        return parse_drawing(fh.read(), graph)


def save_drawing(d, path):
    with open(path, "w") as fh:
        fh.write(format_drawing(d))


def emit_svg(d, path=None):
    """Render edges and vertices to SVG, viewBox fit to the outer triangle
    plus a 5% margin.  Returns the SVG text; writes it when path given."""
    tri = outer_triangle(d).points
    x0, y0 = tri.min(axis=0)
    x1, y1 = tri.max(axis=0)
    margin = 0.05 * max(x1 - x0, y1 - y0)
    x0, y0, x1, y1 = x0 - margin, y0 - margin, x1 + margin, y1 + margin
    w, h = x1 - x0, y1 - y0
    # SVG y grows downward; emit with y negated.
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="{x0:.6g} {-y1:.6g} {w:.6g} {h:.6g}">']
    sw = 0.004 * max(w, h)
    for a, b in d.graph.edges:
        (xa, ya), (xb, yb) = d.coords[a], d.coords[b]
        out.append(f'  <line x1="{xa:.10g}" y1="{-ya:.10g}" x2="{xb:.10g}" '
                   f'y2="{-yb:.10g}" stroke="black" stroke-width="{sw:.3g}"/>')
    r = 1.6 * sw
    for v, (x, y) in enumerate(d.coords):
        fill = "tomato" if v in d.graph.internal_vertices else "steelblue"
        out.append(f'  <circle cx="{x:.10g}" cy="{-y:.10g}" r="{r:.3g}" fill="{fill}"/>')
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
