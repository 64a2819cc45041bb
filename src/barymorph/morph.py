"""Coefficient-space morphs and their piecewise-linear discretization.

A morph interpolates two coefficient matrices on the same graph with the
outer triangle fixed; every intermediate drawing is the planar solution
of its own system, built from the weights (1 - t) w0 + t w1 exactly as
for f_drawing(interpolate(m0, m1, t)).  Discretization walks t forward
greedily: from checkpoint Psi_j with minimum separation delta_j, the
largest t' is found (by bisection) whose drawing moves every coordinate
by at most delta_j / 3.  Checkpoints are verified in full; each
straight-line step between them is proved planar by its face areas.
"""

from dataclasses import dataclass

import numpy as np

from .coefficients import assert_valid
from .embedder import _assembler, _drawing, _entries, _place, _solve
from .errors import (
    GraphMismatch,
    ParameterOutOfRange,
    ParseError,
    StepStalled,
    ValidationError,
)
from .geometry import (
    _cross,
    _doubled_areas,
    _require_planar,
    geometric_eps,
    parse_drawing,
    separated_object_extremes,
    triangle_resolution,
    verify_planar_straight_line,
)

MIN_STEP_DEFAULT = 1e-9
BISECT_TOL = 1e-12
SCHEDULE_TOL = 1e-12  # validate_schedule: coordinate and radius slack


@dataclass(frozen=True)
class FGMorph:
    graph: object
    m0: object
    m1: object
    outer: object  # Triangle


def fg_morph(graph, m0, m1, outer, validate=True):
    """Bundle two coefficient matrices into a morph after validation."""
    if m0.graph != graph or m1.graph != graph:
        raise GraphMismatch("coefficient matrices do not live on the given graph")
    if validate:
        assert_valid(graph, m0)
        assert_valid(graph, m1)
    return FGMorph(graph=graph, m0=m0, m1=m1, outer=outer)


def _weights(m):
    """The build function of m0's entry layout, and t -> the weights at t,
    (1 - t) w0 + t w1 as interpolate computes them, w1 in m0's order."""
    internal, rows, cols, w0 = _entries(m.graph, m.m0)
    w1 = np.array([m.m1.weights[v][u] for v in internal for u in m.m0.weights[v]], float)

    def at(t):
        if not 0.0 <= t <= 1.0:
            raise ParameterOutOfRange(f"t = {t} outside [0, 1]")
        return (1.0 - t) * w0 + t * w1

    return _assembler(m.graph, m.outer, internal, rows, cols), at


def morph_at(m, t, check=True):
    """Drawing of the morph at time t in [0, 1]."""
    build, at = _weights(m)
    return _drawing(build(at(t)), check)


def lambda_min_at(m, t):
    """Smallest coefficient entry of the interpolated matrix at time t."""
    return float(_weights(m)[1](t).min())


def morph_resolution_floor(m, ts):
    """Per-t smallest entry and guaranteed log resolution floor.

    The smallest entry of the interpolation is concave piecewise linear
    in t and never below min of the endpoint minima; the floor combines
    it with the outer triangle's resolution.
    """
    at = _weights(m)[1]
    lam_min = np.array([at(t).min() for t in np.atleast_1d(ts)])
    r = triangle_resolution(m.outer)
    n = m.graph.vertex_count
    floor = np.log(r / 2.0) + n * np.log(lam_min / 3.0)
    return lam_min, floor


@dataclass(frozen=True)
class MorphSchedule:
    """Piecewise-linear morph: checkpoints (t_i, drawing_i), t_0=0 < ... < t_k=1,
    plus the safe radius delta_j/3 recorded for each of the k steps."""

    checkpoints: tuple
    step_radii: tuple

    @property
    def k(self):
        return len(self.checkpoints) - 1


def _check_linear_step(graph, a, b, context):
    """Prove the straight-line motion a -> b planar at every fraction.

    On p(s) = (1 - s) a + s b a triangle's doubled signed area is a
    quadratic A + B s + C s^2, least on [0, 1] at s = 0, s = 1 or, where
    C > 0, at s* = clip(-B / 2C, 0, 1).  Its minimum alpha over the
    internal faces and the outer triangle must exceed c eps S^2, with
    eps = geometric_eps() and S = max(a.scale, b.scale) >= p(s).scale.
    Every p(s) is then planar with the given embedding (Floater, Math.
    Comp. 72, 2003), and c = sqrt(8) covers the verifier's face-bounded
    tests: vertex_on_edge fires at distance eps S, no separated distance
    is below a face height alpha / L (the face lemma of
    min_distance_internal_face_witness), and L <= sqrt(8) S, the diagonal
    of [-S, S]^2; outer_not_ccw and zero_angle within a face need c = 1.
    zero_angle across faces, edge_overlap and outside_outer_face need a
    separation delta <= sqrt(eps) S or delta A_out <= sqrt(8) eps S^3, so
    alpha > sqrt(8 eps) S^2 rules them out; the ends are verified in full.
    """
    faces = np.vstack([graph.face_array, graph.outer_cycle])
    pa, pb = a.coords[faces], b.coords[faces]
    ua, va = pa[:, 1] - pa[:, 0], pa[:, 2] - pa[:, 0]
    du, dv = pb[:, 1] - pb[:, 0] - ua, pb[:, 2] - pb[:, 0] - va
    C = _cross(du, dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(-(_cross(ua, dv) + _cross(du, va)) / (2.0 * C), 0.0, 1.0)
    s = np.stack([np.zeros_like(C), np.ones_like(C), np.where(C > 0.0, vertex, 0.0)])
    alpha = _doubled_areas((1.0 - s)[..., None, None] * pa + s[..., None, None] * pb)
    if not alpha.min() > np.sqrt(8.0) * geometric_eps() * max(a.scale, b.scale) ** 2:
        worst = faces[np.argmin(alpha.min(axis=0))].tolist()
        raise ValidationError(f"linear step {context}: face {tuple(worst)} reaches "
                              f"doubled area {alpha.min():.3g}")


def discretize_morph(m, min_step=MIN_STEP_DEFAULT):
    """Greedy safe discretization of a morph into straight-line steps.

    Every step moves each coordinate by at most a third of the previous
    checkpoint's minimum separation, which keeps the straight-line
    interpolation between checkpoints planar; _check_linear_step proves
    each step planar at every fraction.  Raises StepStalled when no
    admissible step of at least min_step exists.
    """
    if not 0.0 < min_step < 1.0:
        raise ParameterOutOfRange(f"min_step = {min_step} outside (0, 1)")
    build, at = _weights(m)
    psi = _drawing(build(at(0.0)))
    _require_planar(psi, "drawing at t=0")
    t = 0.0
    checkpoints = [(0.0, psi)]
    radii = []
    while t < 1.0:
        radius = separated_object_extremes(psi).min_dist / 3.0

        def within(tp):
            system = build(at(tp))
            coords = _place(system, *_solve(system))
            return float(np.abs(coords - psi.coords).max()) <= radius

        if within(1.0):
            t_next = 1.0
        else:
            lo, hi = t, 1.0
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if within(mid):
                    lo = mid
                else:
                    hi = mid
            t_next = lo
            if t_next < t + min_step:
                raise StepStalled(
                    f"safe step from t={t:.6g} is {t_next - t:.3g}, "
                    f"below min_step={min_step:.3g}")
        psi_next = _drawing(build(at(t_next)))
        _require_planar(psi_next, f"drawing at t={t_next:.6g}")
        _check_linear_step(m.graph, psi, psi_next, f"[{t:.6g}, {t_next:.6g}]")
        checkpoints.append((t_next, psi_next))
        radii.append(radius)
        psi, t = psi_next, t_next
    return MorphSchedule(checkpoints=tuple(checkpoints), step_radii=tuple(radii))


def validate_schedule(m, schedule):
    """Independent pass over a schedule; returns a list of violations.

    Recomputes every drawing from its t, the per-step safe radii from
    the checkpoint drawings, and the planarity of each checkpoint.
    """
    violations = []
    cps = schedule.checkpoints
    if not cps:
        return [("endpoints", (None, None))]
    if cps[0][0] != 0.0 or cps[-1][0] != 1.0:
        violations.append(("endpoints", (cps[0][0], cps[-1][0])))
    ts = [t for t, _ in cps]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        violations.append(("t_not_increasing", tuple(ts)))
    scale = max(d.scale for _, d in cps)
    build, at = _weights(m)
    for t, drawing in cps:
        expected = _drawing(build(at(t)), check=False)
        dev = float(np.abs(expected.coords - drawing.coords).max())
        if dev > SCHEDULE_TOL * scale:
            violations.append(("checkpoint_mismatch", (t, dev)))
        ok, vio = verify_planar_straight_line(drawing)
        if not ok:
            violations.append(("checkpoint_not_planar", (t, vio[:3])))
    for j, ((ta, da), (tb, db)) in enumerate(zip(cps, cps[1:])):
        radius = separated_object_extremes(da).min_dist / 3.0
        motion = float(np.abs(db.coords - da.coords).max())
        if motion > radius + SCHEDULE_TOL:
            violations.append(("step_too_large", (j, motion, radius)))
        if j < len(schedule.step_radii):
            rec = schedule.step_radii[j]
            if abs(rec - radius) > SCHEDULE_TOL * max(1.0, radius):
                violations.append(("radius_mismatch", (j, rec, radius)))
    return violations


# --- the morph as a curve ------------------------------------------------

@dataclass(frozen=True)
class FGCurvePoint:
    """Point (t, x(v_1), y(v_1), ..., x(v_N), y(v_N)) on the morph curve,
    internal vertices in increasing id order."""

    t: float
    point: np.ndarray


def fg_curve_point(m, t, _weights_of_m=None):
    build, at = _weights_of_m or _weights(m)
    x, y = _solve(build(at(t)))
    vec = np.empty(1 + 2 * len(x))
    vec[0] = t
    vec[1::2], vec[2::2] = x, y
    return FGCurvePoint(t=t, point=vec)


def fg_curve_length_estimate(m, samples):
    """Polyline length of the morph curve at samples uniform segments.

    samples counts segments (points at t = i/samples), so doubling it
    refines the partition in place and the estimate never decreases.
    """
    if samples < 2:
        raise ParameterOutOfRange(f"need samples >= 2, got {samples}")
    weights = _weights(m)
    pts = np.stack([fg_curve_point(m, i / samples, _weights_of_m=weights).point
                    for i in range(samples + 1)])
    seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    return float(np.sum(seg))


# --- schedule text format ------------------------------------------------
#
#   schedule k <k>
#   t <value>
#   v <id> <x> <y>     (n lines per checkpoint)
#   ...

def format_schedule(schedule):
    lines = [f"schedule k {schedule.k}"]
    for t, drawing in schedule.checkpoints:
        lines.append(f"t {t:.17g}")
        for i, (x, y) in enumerate(drawing.coords):
            lines.append(f"v {i} {x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def parse_schedule(text, graph):
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    lines = [l for l in lines if l]
    if not lines or not lines[0].startswith("schedule k "):
        raise ParseError("schedule must start with 'schedule k <count>'")
    try:
        k = int(lines[0].split()[2])
    except (IndexError, ValueError):
        raise ParseError("bad schedule header") from None
    if k < 1:
        raise ParseError(f"schedule needs k >= 1 steps, got {k}")
    n = graph.vertex_count
    body = lines[1:]
    if len(body) != (k + 1) * (n + 1):
        raise ParseError(f"expected {(k + 1) * (n + 1)} lines after header, "
                         f"got {len(body)}")
    checkpoints = []
    for c in range(k + 1):
        block = body[c * (n + 1):(c + 1) * (n + 1)]
        tokens = block[0].split()
        if tokens[0] != "t" or len(tokens) != 2:
            raise ParseError(f"checkpoint {c}: expected 't <value>'")
        try:
            t = float(tokens[1])
        except ValueError:
            raise ParseError(f"checkpoint {c}: bad time {tokens[1]!r}") from None
        if not 0.0 <= t <= 1.0:
            raise ParseError(f"checkpoint {c}: time {t} outside [0, 1]")
        try:
            drawing = parse_drawing("\n".join(block[1:]), graph)
        except ParseError as exc:
            raise ParseError(f"checkpoint {c}: {exc}") from None
        checkpoints.append((t, drawing))
    radii = tuple(separated_object_extremes(d).min_dist / 3.0
                  for _, d in checkpoints[:-1])
    return MorphSchedule(checkpoints=tuple(checkpoints), step_radii=radii)


def load_schedule(path, graph):
    with open(path) as fh:
        return parse_schedule(fh.read(), graph)


def save_schedule(schedule, path):
    with open(path, "w") as fh:
        fh.write(format_schedule(schedule))
