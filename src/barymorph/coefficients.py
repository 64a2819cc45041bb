"""Convex-combination coefficient matrices and their recovery.

A coefficient matrix assigns every internal vertex v a positive weight
on each of its neighbors, summing to 1, so that a drawing solves
v = sum_u lambda_vu * u for all internal v.  Recovery inverts this: given
a planar drawing, shoot a ray from each neighbor u_k through v into the
star-shaped neighbor polygon and read off barycentric weights, then
average them over the d rays.  The recovered matrix reproduces the
drawing exactly, and its smallest entry is provably larger than
resolution / n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GraphMismatch,
    InvalidCoefficients,
    NonStarShaped,
    ParameterOutOfRange,
    ParseError,
)
from .plane_graph import neighbors_cw

ROW_SUM_TOL = 1e-12
ANGULAR_EPS = 1e-10  # ray treated as hitting a polygon vertex within this angle


class CoefficientMatrix:
    """Per-internal-vertex neighbor weights on a fixed plane graph."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = {v: dict(row) for v, row in sorted(weights.items())}

    def min_lambda(self):
        return min(w for row in self.weights.values() for w in row.values())

    def __eq__(self, other):
        if not isinstance(other, CoefficientMatrix):
            return NotImplemented
        return self.graph == other.graph and self.weights == other.weights

    def __repr__(self):
        return (f"CoefficientMatrix(n={self.graph.vertex_count}, "
                f"rows={len(self.weights)})")


@dataclass(frozen=True)
class CoefficientReport:
    min_lambda: float
    violations: tuple


def uniform_coefficients(g):
    """Equal weights 1/deg(v) on every neighbor (the barycentric choice)."""
    weights = {}
    for v in sorted(g.internal_vertices):
        d = g.degree(v)
        weights[v] = {u: 1.0 / d for u in sorted(g.neighbors(v))}
    return CoefficientMatrix(g, weights)


def validate_coefficients(g, matrix):
    """Structural validation; returns a report with all violations found.

    Checks support (positive weight exactly on incident edges of internal
    vertices), row sums within 1e-12 of 1, and the unavoidable upper
    bound on the smallest entry: <= 1/3 for n >= 4 and <= 1/4 for n >= 5.
    NaN and infinite weights fail the support or the row-sum check.
    """
    violations = []
    if matrix.graph != g:
        violations.append(("graph_mismatch", None))
        return CoefficientReport(min_lambda=math.nan, violations=tuple(violations))
    internal = g.internal_vertices
    for v in matrix.weights:
        if v not in internal:
            violations.append(("external_row", v))
    entries = []
    for v in sorted(internal):
        row = matrix.weights.get(v)
        if row is None:
            violations.append(("missing_row", v))
            continue
        nbrs = g.neighbors(v)
        for u in row:
            if u not in nbrs:
                violations.append(("spurious_entry", (v, u)))
        for u in sorted(nbrs):
            w = row.get(u, 0.0)
            if not w > 0.0:
                violations.append(("nonpositive_entry", (v, u)))
            else:
                entries.append(w)
        try:
            s = math.fsum(row.values())
        except (OverflowError, ValueError):  # inf - inf, or a sum past float range
            s = math.nan
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            violations.append(("row_sum", (v, s)))
    min_lambda = min(entries) if entries else math.nan
    bound = 1.0 / 3.0 if g.vertex_count == 4 else 0.25
    if entries and min_lambda > bound + ROW_SUM_TOL:
        violations.append(("min_entry_bound", (min_lambda, bound)))
    return CoefficientReport(min_lambda=min_lambda, violations=tuple(violations))


def assert_valid(g, matrix):
    report = validate_coefficients(g, matrix)
    if report.violations:
        raise InvalidCoefficients(f"coefficient violations: {report.violations[:5]}")
    return report


def interpolate(m0, m1, t):
    """Entrywise convex combination (1-t) m0 + t m1 on a shared graph."""
    if m0.graph != m1.graph:
        raise GraphMismatch("coefficient matrices live on different graphs")
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"t = {t} outside [0, 1]")
    s = 1.0 - t
    weights = {}
    for v, row0 in m0.weights.items():
        row1 = m1.weights[v]
        weights[v] = {u: s * w + t * row1[u] for u, w in row0.items()}
    return CoefficientMatrix(m0.graph, weights)


# --- recovery ------------------------------------------------------------

@dataclass(frozen=True)
class RayHit:
    """One ray of the recovery: from neighbor index k through v."""

    kind: str          # "vertex" or "edge"
    source: int        # k, index into the clockwise neighbor order
    hit: int           # i: hit vertex index, or left endpoint of hit edge
    mu: tuple          # (mu on u_k, mu on u_i, mu on u_{i+1}); sums to 1


@dataclass(frozen=True)
class RecoveryTrace:
    cw_order: dict     # internal vertex -> clockwise neighbor tuple
    hits: dict         # internal vertex -> tuple of RayHit, one per ray


def _recover_vertex(vp, pts):
    """Coefficient row for one internal vertex.

    vp is the vertex position, pts the neighbor positions in clockwise
    order.  Returns (row weights aligned with pts, hits).  Raises
    NonStarShaped when the neighbor polygon does not wind once clockwise
    around vp.
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
            hits.append(RayHit(kind="vertex", source=k, hit=i, mu=mu))
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
        hits.append(RayHit(kind="edge", source=k, hit=i, mu=mu))
        acc[k] += mu_k
        acc[i] += mu_i
        acc[j] += mu_j
    return acc / d, hits


def _tri2(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def recover_coefficients(d):
    """Recover a coefficient matrix whose drawing is exactly d.

    Expects a planar drawing (caller-verified).  Returns the matrix and
    a trace of every ray hit; the matrix row of v reproduces v as a
    convex combination of its neighbors by construction, so running the
    embedder on the result returns d up to solver error.
    """
    g = d.graph
    weights = {}
    cw_order = {}
    all_hits = {}
    for v in sorted(g.internal_vertices):
        cw = neighbors_cw(g, v)
        pts = d.coords[list(cw)]
        try:
            row, hits = _recover_vertex(d.coords[v], pts)
        except NonStarShaped as exc:
            raise NonStarShaped(f"vertex {v}: {exc}") from None
        weights[v] = {u: float(w) for u, w in zip(cw, row)}
        cw_order[v] = cw
        all_hits[v] = tuple(hits)
    return CoefficientMatrix(g, weights), RecoveryTrace(cw_order=cw_order, hits=all_hits)


# --- text format ---------------------------------------------------------
#
#   w <v> <u> <lambda>    one line per entry, rows sorted by v then u

def format_coefficients(m):
    lines = []
    for v in sorted(m.weights):
        for u in sorted(m.weights[v]):
            lines.append(f"w {v} {u} {m.weights[v][u]:.17g}")
    return "\n".join(lines) + "\n"


def parse_coefficients(text, graph):
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "w" or len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected 'w <v> <u> <lambda>'")
        try:
            v, u, w = int(tokens[1]), int(tokens[2]), float(tokens[3])
        except ValueError:
            raise ParseError(f"line {lineno}: bad entry {line!r}") from None
        if u in weights.setdefault(v, {}):
            raise ParseError(f"line {lineno}: duplicate entry ({v}, {u})")
        weights[v][u] = w
    matrix = CoefficientMatrix(graph, weights)
    assert_valid(graph, matrix)
    return matrix


def load_coefficients(path, graph):
    with open(path) as fh:
        return parse_coefficients(fh.read(), graph)


def save_coefficients(m, path):
    with open(path, "w") as fh:
        fh.write(format_coefficients(m))
