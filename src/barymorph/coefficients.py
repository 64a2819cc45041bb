"""Convex-combination coefficient matrices and their recovery.

A coefficient matrix assigns every internal vertex v a positive weight
on each of its neighbors, summing to 1, so that a drawing solves
v = sum_u lambda_vu * u for all internal v.  Recovery inverts this with
Floater's shape-preserving weights: given a planar drawing, shoot a ray
from each neighbor u_k through v into the star-shaped neighbor polygon,
read off barycentric weights in the triangle it hits, and average them
over the d rays.  One array pass pairs every ray of every vertex with
every neighbor of that vertex; the lowest-index match wins, a neighbor
on the ray before the first clockwise sector holding it.  The recovered
matrix reproduces the drawing exactly, and its smallest entry is
provably larger than resolution / n.
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
from .plane_graph import _neighbors_cw

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
class RecoveryTrace:
    """One row per ray: vertices in id order, each vertex's rays clockwise.
    The ray from u_k through v meets u_hit (vertex_hit) or edge u_hit u_hit+1."""

    cw_order: dict          # internal vertex -> clockwise neighbor tuple
    hit: np.ndarray         # (R,) index into the clockwise order
    vertex_hit: np.ndarray  # (R,) bool
    mu: np.ndarray          # (R, 3): v's weights on u_k, u_hit, u_hit+1; rows sum to 1


def _tri2(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _dots(x, y):
    """Row-wise dot products, rounded as the BLAS dot of each row pair."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def recover_coefficients(d):
    """Recover a coefficient matrix whose drawing is exactly d.

    Expects a planar drawing (caller-verified).  Returns the matrix and
    its RecoveryTrace; running the embedder on the matrix returns d up to
    solver error.  Raises NonStarShaped for the first vertex in id order
    whose neighbor polygon does not wind once clockwise around it, or
    which has a ray without a hit or a degenerate one.
    """
    g = d.graph
    cw_order = {v: _neighbors_cw(g, v) for v in sorted(g.internal_vertices)}
    deg = np.array([len(cw) for cw in cw_order.values()])
    starts = np.cumsum(deg) - deg
    owner = np.repeat(np.arange(len(deg)), deg)
    slots = np.arange(len(owner))
    k = slots - starts[owner]
    nxt = np.where(k + 1 == deg[owner], starts[owner], slots + 1)
    span = deg[owner]  # ray s is paired with every slot of its vertex, in order
    ray, pair0 = np.repeat(slots, span), np.cumsum(span) - span
    pairs = len(ray)
    cand = np.arange(pairs) - np.repeat(pair0 - starts[owner], span)
    with np.errstate(all="ignore"):  # degenerate input is flagged below
        rel = (d.coords[np.concatenate(list(cw_order.values()))]
               - d.coords[np.repeat(list(cw_order), deg)])
        norms = np.hypot(rel[:, 0], rel[:, 1])
        unit = rel / norms[:, None]
        cr = unit[:, 0] * unit[nxt, 1] - unit[:, 1] * unit[nxt, 0]
        turn = np.bincount(owner, np.arctan2(cr, _dots(unit, unit[nxt])), len(deg))
        q, c, cn = -unit[ray], unit[cand], unit[nxt[cand]]
        sin_to, cos_to = (q[:, 0] * c[:, 1] - q[:, 1] * c[:, 0],
                          c[:, 0] * q[:, 0] + c[:, 1] * q[:, 1])
        through = (np.abs(sin_to) <= ANGULAR_EPS) & (cos_to > 0.0)
        sector = ((c[:, 0] * q[:, 1] - c[:, 1] * q[:, 0] <= 0.0)
                  & (q[:, 0] * cn[:, 1] - q[:, 1] * cn[:, 0] <= 0.0)
                  & (cand != ray) & (nxt[cand] != ray))
        on_vertex, in_sector = np.minimum.reduceat(  # first matching pair, else pairs
            np.where([through, sector], np.arange(pairs), pairs), pair0, axis=1)
        vertex_hit = on_vertex < pairs
        i = cand[np.minimum(np.where(vertex_hit, on_vertex, in_sector), pairs - 1)]
        ri, rj = rel[i], rel[nxt[i]]
        # v on the chord u_k .. u_i: weight by arc position.
        chord = ri - rel
        chord2 = _dots(chord, chord)
        b = _dots(-rel, chord) / chord2
        # Otherwise barycentric in the hit triangle (u_k, u_i, u_j).
        o = np.zeros(2)
        area = _tri2(rel, ri, rj)
        mu_k = _tri2(o, ri, rj) / area
        mu_j = _tri2(rel, ri, o) / area
        s = mu_k + mu_j + _tri2(rel, o, rj) / area
        mu_k, mu_j = mu_k / s, mu_j / s
        mu = np.where(vertex_hit[:, None], np.stack([1.0 - b, b, np.zeros_like(b)], axis=1),
                      np.stack([mu_k, 1.0 - mu_k - mu_j, mu_j], axis=1))
        # bincount adds from 0.0 in ray order, like a per-vertex acc[k] += mu_k
        acc = np.bincount(np.stack([slots, i, nxt[i]], 1).ravel(), mu.ravel(), len(slots))
        weights = acc / deg[owner]

    no_hit = ~vertex_hit & (in_sector == pairs)
    stop = no_hit | vertex_hit & (chord2 == 0.0)  # a per-vertex loop stops here
    checks = np.logical_or.reduceat(np.stack([
        norms == 0.0, cr >= 0.0, np.repeat(np.abs(turn + 2.0 * math.pi) > 1e-6, deg), stop,
        ~np.all(np.isfinite(mu), axis=1) | ~np.isfinite(weights)]), starts, axis=1)
    for failing in (checks[:4].any(axis=0), checks[4]):  # non-finite weights last
        if failing.any():
            at = int(np.argmax(failing))
            check = int(np.argmax(checks[:, at]))
            if check == 3 and not no_hit[starts[at] + np.argmax(stop[starts[at]:])]:
                check = 4
            raise NonStarShaped(f"vertex {list(cw_order)[at]}: " + (
                "neighbor coincides with the vertex",
                "neighbor polygon does not turn clockwise",
                f"neighbor polygon winds {turn[at] / (2 * math.pi):.3f} turns",
                "ray through the vertex leaves no polygon sector",
                "ray through the vertex meets a degenerate triangle")[check])

    rows = weights.tolist()
    matrix = {v: dict(zip(cw, rows[s:s + len(cw)]))
              for (v, cw), s in zip(cw_order.items(), starts.tolist())}
    return CoefficientMatrix(g, matrix), RecoveryTrace(cw_order, k[i], vertex_hit, mu)


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
