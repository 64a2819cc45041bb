"""Maximal plane graphs given as explicit face lists.

A graph on vertex ids 0..n-1 is described by its internal triangular
faces plus the outer 3-cycle.  Internal faces are stored counter-
clockwise as drawn in the plane; the outer cycle is also stored
counter-clockwise in the plane, which means face tracing on the sphere
consumes the outer cycle reversed.  The rotation system is always
derived from the faces, never supplied by the caller, so a PlaneGraph
that constructs successfully is a consistent triangulated sphere
embedding with one face marked as outer.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeTooLow,
    EulerViolation,
    InconsistentEmbedding,
    NonSimple,
    NotTriangulated,
    ParseError,
    UnknownVertex,
    ValidationError,
)


def _canon(face):
    """Rotate a cyclic triple so the smallest id comes first (orientation kept)."""
    a, b, c = face
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


class PlaneGraph:
    """Immutable combinatorial map of a maximal plane graph.

    Construct through :func:`build_maximal_plane_graph`; the initializer
    trusts its arguments.
    """

    __slots__ = ("vertex_count", "faces", "outer_cycle", "edges", "face_array",
                 "edge_array", "_adjacency", "_rotation_ccw", "_face_set", "_internal")

    def __init__(self, vertex_count, faces, outer_cycle, adjacency,
                 rotation_ccw, edges, face_set):
        self.vertex_count = vertex_count
        self.faces = faces
        self.outer_cycle = outer_cycle
        self._adjacency = adjacency
        self._rotation_ccw = rotation_ccw
        self.edges = edges  # sorted (min, max) pairs
        self._face_set = face_set
        self._internal = frozenset(range(vertex_count)) - frozenset(outer_cycle)
        self.face_array = np.array(faces).reshape(-1, 3)
        self.edge_array = np.array(edges).reshape(-1, 2)
        self.face_array.flags.writeable = self.edge_array.flags.writeable = False

    # -- plain queries ----------------------------------------------------

    @property
    def internal_vertices(self):
        return self._internal

    @property
    def external_vertices(self):
        return frozenset(self.outer_cycle)

    def neighbors(self, v):
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v):
        self._check_vertex(v)
        return len(self._adjacency[v])

    def has_edge(self, u, v):
        return v in self._adjacency[u] if 0 <= u < self.vertex_count else False

    def _check_vertex(self, v):
        if not isinstance(v, (int,)) or not 0 <= v < self.vertex_count:
            raise UnknownVertex(f"vertex {v!r} not in 0..{self.vertex_count - 1}")

    def __eq__(self, other):
        if not isinstance(other, PlaneGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self._face_set == other._face_set
                and _canon(self.outer_cycle) == _canon(other.outer_cycle))

    def __hash__(self):
        return hash((self.vertex_count, self._face_set, _canon(self.outer_cycle)))

    def __repr__(self):
        return (f"PlaneGraph(n={self.vertex_count}, "
                f"faces={len(self.faces)}, outer={self.outer_cycle})")


@dataclass(frozen=True)
class VertexClass:
    internal: frozenset
    external: frozenset


def build_maximal_plane_graph(face_list, outer_cycle):
    """Validate a face list and return the PlaneGraph it describes.

    Checks, in order: each face is a triple of three distinct known ids;
    no loop or multi-edge; Euler counts (m = 3n-6, internal faces =
    2n-5); face tracing closes every directed edge exactly once and the
    rotation at each vertex is a single cycle; minimum degree 3.
    """
    faces = [tuple(f) for f in face_list]
    outer = tuple(outer_cycle)
    for tri in faces + [outer]:
        if len(tri) != 3 or len(set(tri)) != 3:
            raise NotTriangulated(f"face {tri} is not a 3-cycle")
        for v in tri:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise UnknownVertex(f"bad vertex id {v!r} in face {tri}")

    ids = {v for tri in faces for v in tri} | set(outer)
    n = max(ids) + 1
    if n < 4:
        raise EulerViolation(f"need n >= 4, got n = {n}")
    if ids != set(range(n)):
        missing = sorted(set(range(n)) - ids)
        raise UnknownVertex(f"vertex ids not contiguous, missing {missing}")

    # Directed boundary slots: internal faces as given, outer face reversed.
    boundary = faces + [(outer[0], outer[2], outer[1])]
    darts = []
    for a, b, c in boundary:
        darts += [(a, b), (b, c), (c, a)]
    dart_count = Counter(darts)
    pair_count = Counter(tuple(sorted(d)) for d in darts)
    dup = [d for d, k in dart_count.items() if k > 1]
    multi = [p for p, k in pair_count.items() if k > 2]
    if dup or multi:
        raise NonSimple(f"edge used more than once per side: {sorted(dup or multi)}")

    edge_set = set(pair_count)
    m = len(edge_set)
    if m != 3 * n - 6:
        raise EulerViolation(f"m = {m}, expected 3n-6 = {3 * n - 6}")
    if len(faces) != 2 * n - 5:
        raise EulerViolation(
            f"{len(faces)} internal faces, expected 2n-5 = {2 * n - 5}")

    missing_rev = [d for d in dart_count if (d[1], d[0]) not in dart_count]
    if missing_rev:
        raise InconsistentEmbedding(
            f"directed edges without a reverse side: {sorted(missing_rev)}")

    # CCW successor around each corner: face (v, a, b) puts b after a at v.
    succ = [dict() for _ in range(n)]
    for tri in boundary:
        for i in range(3):
            v, a, b = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            succ[v][a] = b
    rotation = []
    for v in range(n):
        nbrs = succ[v]
        start = min(nbrs)
        cyc = [start]
        while True:
            nxt = succ[v][cyc[-1]]
            if nxt == start:
                break
            if nxt in cyc or len(cyc) > len(nbrs):
                raise InconsistentEmbedding(f"rotation at vertex {v} is not a single cycle")
            cyc.append(nxt)
        if len(cyc) != len(nbrs):
            raise InconsistentEmbedding(f"rotation at vertex {v} splits into several cycles")
        rotation.append(tuple(cyc))

    adjacency = tuple(frozenset(succ[v]) for v in range(n))
    low = [v for v in range(n) if len(adjacency[v]) < 3]
    if low:
        raise DegreeTooLow(f"vertices with degree < 3: {low}")

    face_set = frozenset(_canon(tri) for tri in faces)
    if len(face_set) != len(faces):
        raise NonSimple("duplicate internal face")
    return PlaneGraph(n, tuple(faces), outer, adjacency, tuple(rotation),
                      tuple(sorted(edge_set)), face_set)


def classify_vertices(g):
    """Split vertex ids into internal and external (outer-cycle) sets."""
    return VertexClass(internal=g.internal_vertices, external=g.external_vertices)


def neighbors_cw(g, v):
    """Clockwise cyclic neighbor order of v, starting at the smallest id.

    The order is the reverse of the counter-clockwise rotation derived
    from the face list.  For an internal vertex every consecutive pair
    (u_k, u_{k+1}) spans an internal face together with v.
    """
    g._check_vertex(v)
    return _neighbors_cw(g, v)


def _neighbors_cw(g, v):  # neighbors_cw for a v known to be a vertex of g
    ccw = g._rotation_ccw[v]
    return (ccw[0],) + tuple(reversed(ccw[1:]))


def _sides(cycle):
    """The sides of a cycle (a tuple of ids) as (min, max) pairs, in order."""
    return [(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def enclosed_subgraph(g, cycle):
    """Vertices and edges on or strictly inside a cycle of g.

    The cycle is a vertex sequence whose consecutive pairs (cyclically)
    must be edges.  "Inside" is the side of the cycle not containing the
    outer face.
    """
    cyc = tuple(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValidationError(f"not a simple cycle: {cyc}")
    for v in cyc:
        g._check_vertex(v)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(a, b):
            raise ValidationError(f"cycle step ({a},{b}) is not an edge")
    cyc_edges = set(_sides(cyc))

    # Region search over faces: outer face (index -1) seeds the outside;
    # faces sharing an edge not on the cycle are in the same region.
    edge_faces = {}
    for idx, tri in [*enumerate(g.faces), (-1, g.outer_cycle)]:
        for e in _sides(tri):
            edge_faces.setdefault(e, []).append(idx)

    outside = {-1}
    stack = [-1]
    while stack:
        f = stack.pop()
        tri = g.outer_cycle if f == -1 else g.faces[f]
        for e in _sides(tri):
            if e in cyc_edges:
                continue
            for other in edge_faces[e]:
                if other not in outside:
                    outside.add(other)
                    stack.append(other)

    inside_faces = [tri for idx, tri in enumerate(g.faces) if idx not in outside]
    vertices = set(cyc)
    edges = set(cyc_edges)
    for tri in inside_faces:
        vertices.update(tri)
        edges.update(_sides(tri))
    return frozenset(vertices), frozenset(edges), tuple(inside_faces)


def verify_enclosed_subgraph(g, cycle):
    """Check the subgraph inside a cycle is biconnected and triangulated.

    Returns (vertices, edges) on success and raises ValidationError
    otherwise.  Every enclosed face of g is a triangle by construction,
    so the substantive check is biconnectivity.
    """
    vertices, edges, inside_faces = enclosed_subgraph(g, cycle)
    for tri in inside_faces:
        if len(set(tri)) != 3:
            raise ValidationError(f"enclosed face {tri} is not a triangle")
    if len(vertices) < 3:
        raise ValidationError("enclosed subgraph has fewer than 3 vertices")

    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected(keep):
        keep = set(keep)
        if not keep:
            return True
        seen = {next(iter(keep))}
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()] & keep:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == keep

    if not connected(vertices):
        raise ValidationError("enclosed subgraph is disconnected")
    # Quadratic articulation scan; graphs here are desk-scale.
    for v in vertices:
        if not connected(vertices - {v}):
            raise ValidationError(f"enclosed subgraph has cut vertex {v}")
    return vertices, edges


# --- text format ---------------------------------------------------------
#
#   n <count>
#   outer a b c
#   f a b c          (one line per internal face)
#
# Whitespace separated; '#' starts a comment.

def parse_graph(text):
    """Parse the text graph format and build the graph."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line.split()))

    if not lines or lines[0][1][0] != "n":
        raise ParseError("first line must be 'n <count>'")
    try:
        n = int(lines[0][1][1])
    except (IndexError, ValueError):
        raise ParseError(f"line {lines[0][0]}: bad vertex count") from None
    if len(lines) < 2 or lines[1][1][0] != "outer":
        raise ParseError("second line must be 'outer a b c'")

    def triple(lineno, tokens):
        if len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected 3 vertex ids")
        try:
            return tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None

    outer = triple(*lines[1])
    faces = []
    for lineno, tokens in lines[2:]:
        if tokens[0] != "f":
            raise ParseError(f"line {lineno}: expected 'f a b c', got {tokens[0]!r}")
        faces.append(triple(lineno, tokens))

    g = build_maximal_plane_graph(faces, outer)
    if g.vertex_count != n:
        raise ParseError(f"header says n={n} but faces use {g.vertex_count} vertices")
    return g


def format_graph(g):
    out = [f"n {g.vertex_count}", "outer {} {} {}".format(*g.outer_cycle)]
    out += ["f {} {} {}".format(*tri) for tri in g.faces]
    return "\n".join(out) + "\n"


def load_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())


def save_graph(g, path):
    with open(path, "w") as fh:
        fh.write(format_graph(g))
