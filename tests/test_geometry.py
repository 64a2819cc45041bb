import math

import numpy as np
import pytest

from barymorph import (
    Drawing,
    Triangle,
    apply_rigid_transform,
    build_maximal_plane_graph,
    eades_garvan,
    f_drawing,
    emit_svg,
    fg_morph,
    format_drawing,
    min_distance_internal_face_witness,
    morph_at,
    nested_triangles,
    outer_triangle,
    parse_drawing,
    point_segment_distance,
    random_stacked_triangulation,
    recover_coefficients,
    separated_object_extremes,
    t_drawing,
    triangle_extent_check,
    triangle_resolution,
    verify_planar_straight_line,
)
from barymorph.geometry import _extremes_by_pairs, _verify_by_pairs
from barymorph.errors import (
    DegenerateDrawing,
    DegenerateTriangle,
    ParseError,
    ValidationError,
)

SQRT3_2 = math.sqrt(3.0) / 2.0


# --- distances -----------------------------------------------------------

def test_point_segment_foot_inside():
    assert point_segment_distance((0, 1), ((-1, 0), (1, 0))) == 1.0


def test_point_segment_nearest_endpoint():
    d = point_segment_distance((2, 1), ((-1, 0), (1, 0)))
    assert d == pytest.approx(math.sqrt(2), abs=1e-15)


def test_point_on_segment():
    assert point_segment_distance((0.25, 0), ((-1, 0), (1, 0))) == 0.0


# --- separated-object extremes ------------------------------------------

def test_k4_resolution_report(k4, equilateral):
    d = t_drawing(k4, equilateral)
    rep = separated_object_extremes(d)
    assert rep.min_dist == pytest.approx(math.sqrt(3) / 6, abs=1e-15)
    assert rep.max_dist == pytest.approx(1.0, abs=1e-15)
    assert rep.resolution == pytest.approx(math.sqrt(3) / 6, abs=1e-15)
    kind, _ = rep.min_witness[0]
    assert {rep.min_witness[0][0], rep.min_witness[1][0]} == {"vertex", "edge"}


def test_resolution_scale_invariance(k4, equilateral):
    d = t_drawing(k4, equilateral)
    scaled = Drawing(k4, 3.5 * d.coords)
    a = separated_object_extremes(d)
    b = separated_object_extremes(scaled)
    assert b.min_dist == pytest.approx(3.5 * a.min_dist, rel=1e-12)
    assert b.resolution == pytest.approx(a.resolution, rel=1e-12)


def test_coincident_vertices_rejected(k4):
    coords = np.array([[0, 0], [1, 0], [0.5, 1], [0, 0]], dtype=float)
    with pytest.raises(DegenerateDrawing):
        separated_object_extremes(Drawing(k4, coords))


def test_tiny_positive_separation_is_measured(k4):
    coords = np.array([[0, 0], [1, 0], [0.5, 1], [1e-13, 0]], dtype=float)
    rep = separated_object_extremes(Drawing(k4, coords))
    assert rep.min_dist == pytest.approx(1e-13, rel=1e-12)



def _extremes_by_loops(d):
    """Reference min and max over separated pairs, one pair at a time."""
    g, p = d.graph, d.coords
    n = g.vertex_count
    values = [float(np.hypot(*(p[i] - p[j])))
              for i in range(n) for j in range(i + 1, n)]
    to_edge = {e: [point_segment_distance(p[v], (p[e[0]], p[e[1]]))
                   for v in range(n)] for e in g.edges}
    values += [to_edge[e][v] for e in g.edges for v in range(n) if v not in e]
    for i, e in enumerate(g.edges):
        for f in g.edges[i + 1:]:
            if not set(e) & set(f):
                values.append(min(to_edge[f][e[0]], to_edge[f][e[1]],
                                  to_edge[e][f[0]], to_edge[e][f[1]]))
    return min(values), max(values)


def _reference_drawings(equilateral):
    inst = nested_triangles(9)
    yield "nested9_a", inst.gamma0
    yield "nested9_b", inst.gamma1
    for seed, n in enumerate((5, 8, 12, 20, 30)):
        yield f"stacked{n}", t_drawing(random_stacked_triangulation(n, seed=seed),
                                       equilateral)
    chain = eades_garvan(9, 0.25, SQRT3_2)
    yield "chain9", f_drawing(chain.graph, chain.matrix, chain.outer, validate=False)


def _ids(payload):
    """Vertex ids in a violation payload or witness, tuples flattened."""
    if isinstance(payload, tuple):
        return [i for part in payload for i in _ids(part)]
    return [] if isinstance(payload, str) else [payload]


def test_extremes_equal_pairwise_reference(equilateral):
    for name, d in _reference_drawings(equilateral):
        reference = _extremes_by_loops(d)
        for rep in (separated_object_extremes(d), _extremes_by_pairs(d)):
            assert (rep.min_dist, rep.max_dist) == reference, name
            witness_ids = _ids(rep.min_witness) + _ids(rep.max_witness)
            assert all(type(i) is int for i in witness_ids), name


def _nested_halfway(n):
    inst = nested_triangles(n)
    m0, _ = recover_coefficients(inst.gamma0)
    m1, _ = recover_coefficients(inst.gamma1)
    return morph_at(fg_morph(inst.graph, m0, m1, inst.outer, validate=False), 0.5)


def test_extremes_face_path_equals_brute_force(drawing_corpus, delaunay_drawing):
    """The face-local path reports exactly what the pairwise fallback
    does, witnesses included, on the corpus, eg rows to n=520, nested
    halfway drawings 6-117 and seeded Delaunay meshes."""
    cases = [(c.name, c.drawing) for c in drawing_corpus]
    for n in list(range(7, 521, 37)) + [520]:
        inst = eades_garvan(n, 0.25, SQRT3_2)
        cases.append((f"eg{n}", f_drawing(inst.graph, inst.matrix, inst.outer,
                                          validate=False)))
    cases += [(f"nested_half{n}", _nested_halfway(n)) for n in range(6, 118, 3)]
    cases += [(f"delaunay{seed}", delaunay_drawing(seed, n))
              for seed, n in enumerate((20, 60, 150, 300, 450))]
    for name, d in cases:
        assert separated_object_extremes(d) == _extremes_by_pairs(d), name


# The short edge (3, 4), of length 1e-9, borders two thin faces obtuse by
# about 1e-9 rad at 3 and at 4: two face pairs reach their minimum at an
# endpoint of the edge and two round to it, all equal to its length.
THIN_FACES = [(4, 3, 5), (3, 4, 6), (6, 0, 3), (3, 0, 1), (3, 1, 5),
              (5, 1, 2), (5, 2, 4), (4, 2, 6), (6, 2, 0)]
THIN_COORDS = [(-10, -10), (10, -10), (0, 10), (0, 0), (0, 1e-9),
               (1, -1e-9), (-1, 2e-9)]


def test_extremes_tie_rules():
    # equal outer sides (0, 1) and (0, 2): the lower pair is the witness
    k4 = build_maximal_plane_graph([(0, 1, 3), (1, 2, 3), (0, 3, 2)], (0, 1, 2))
    d = Drawing(k4, [(2, 10), (0, 0), (4, 0), (2, 3)])
    rep = separated_object_extremes(d)
    assert rep == _extremes_by_pairs(d)
    assert rep.max_witness == (("vertex", 0), ("vertex", 1))
    # vertex/vertex wins an exact tie with a vertex/edge pair
    d = Drawing(build_maximal_plane_graph(THIN_FACES, (0, 1, 2)), THIN_COORDS)
    rep = separated_object_extremes(d)
    assert rep == _extremes_by_pairs(d)
    assert rep.min_dist == 1e-9
    assert rep.min_witness == (("vertex", 3), ("vertex", 4))
    assert rep.max_witness == (("vertex", 0), ("vertex", 2))


# --- triangles -----------------------------------------------------------

def test_triangle_resolution_equilateral(equilateral):
    assert triangle_resolution(equilateral) == pytest.approx(SQRT3_2, abs=1e-15)


def test_triangle_resolution_right_isoceles():
    t = Triangle(points=np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
    assert triangle_resolution(t) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("r", [0.05, 0.25, 0.5, SQRT3_2])
def test_triangle_resolution_anchor_family(r):
    t = Triangle(points=np.array([[0, 0.5], [0, -0.5], [r, 0]]))
    assert triangle_resolution(t) == pytest.approx(r, rel=1e-12)


def test_triangle_orientation_guard():
    with pytest.raises(DegenerateTriangle, match="clockwise"):
        Triangle(points=np.array([[0, 0], [0, 1], [1, 0]], dtype=float))
    with pytest.raises(DegenerateTriangle, match="collinear"):
        Triangle(points=np.array([[0, 0], [1, 1], [2, 2]], dtype=float))
    for bad in (math.nan, math.inf):
        with pytest.raises(DegenerateTriangle, match="non-finite"):
            Triangle(points=np.array([[0, 0], [1, 0], [0.5, bad]]))


def test_triangle_extent_equilateral(equilateral):
    rep = triangle_extent_check(equilateral)
    assert rep.x_extent == pytest.approx(1.0)
    assert rep.y_extent == pytest.approx(SQRT3_2)


def test_triangle_extent_anchor():
    t = Triangle(points=np.array([[0, 0.5], [0, -0.5], [0.25, 0]]))
    rep = triangle_extent_check(t)
    assert rep.x_extent == pytest.approx(0.25)
    assert rep.y_extent == pytest.approx(1.0)
    assert rep.x_extent <= rep.y_extent / triangle_resolution(t) + 1e-12


# --- rigid transforms ----------------------------------------------------

def test_rigid_identity(k4, equilateral):
    d = t_drawing(k4, equilateral)
    same = apply_rigid_transform(d, 0.0, (0.0, 0.0))
    assert np.array_equal(same.coords, d.coords)


def test_rigid_half_turn_twice(k4, equilateral):
    d = t_drawing(k4, equilateral)
    once = apply_rigid_transform(d, math.pi, (0.0, 0.0))
    twice = apply_rigid_transform(once, math.pi, (0.0, 0.0))
    assert np.abs(twice.coords - d.coords).max() <= 1e-12


# --- planarity verification ---------------------------------------------

def test_verify_k4(k4, equilateral):
    ok, violations = verify_planar_straight_line(t_drawing(k4, equilateral))
    assert ok and violations == []


def test_verify_detects_vertex_outside(k4, equilateral):
    d = t_drawing(k4, equilateral)
    coords = d.coords.copy()
    coords[3] = (0.5, -0.4)  # push the internal vertex below the base
    ok, violations = verify_planar_straight_line(Drawing(k4, coords))
    assert not ok
    codes = {v[0] for v in violations}
    assert codes & {"edge_crossing", "outside_outer_face"}


def test_verify_detects_vertex_on_edge(k4, equilateral):
    d = t_drawing(k4, equilateral)
    coords = d.coords.copy()
    coords[3] = (0.5, 0.0)  # exactly on the bottom outer edge
    ok, violations = verify_planar_straight_line(Drawing(k4, coords))
    assert not ok
    assert "vertex_on_edge" in {v[0] for v in violations}


def test_verify_detects_mirrored_embedding(k4, equilateral):
    d = t_drawing(k4, equilateral)
    coords = d.coords.copy()
    coords[:, 0] = -coords[:, 0]
    ok, violations = verify_planar_straight_line(Drawing(k4, coords))
    assert not ok
    assert "outer_not_ccw" in {v[0] for v in violations}


def test_verify_nested_prescribed_drawings():
    from barymorph import nested_triangles
    inst = nested_triangles(12)
    for d in (inst.gamma0, inst.gamma1):
        ok, violations = verify_planar_straight_line(d)
        assert ok, violations



# K4 with vertex 4 stacked into face (0, 1, 3) and vertex 5 into face
# (1, 2, 3), drawn on integers so every orientation test is exact.
STACKED6_FACES = [(0, 1, 4), (1, 3, 4), (3, 0, 4), (1, 2, 5), (2, 3, 5),
                  (3, 1, 5), (0, 3, 2)]
STACKED6_COORDS = [[0, 0], [12, 0], [6, 12], [6, 4], [6, 1], [8, 5]]


@pytest.fixture(scope="module")
def stacked6():
    return build_maximal_plane_graph(STACKED6_FACES, (0, 1, 2))


def test_verify_stacked6_planar(stacked6):
    assert verify_planar_straight_line(Drawing(stacked6, STACKED6_COORDS)) == (True, [])


@pytest.mark.parametrize("vertex, position, expected", [
    (4, (0, 0), [  # onto an outer corner
        ("coincident_vertices", (0, 4)),
        ("vertex_on_edge", (0, (1, 4))),
        ("vertex_on_edge", (0, (3, 4))),
        ("vertex_on_edge", (4, (0, 1))),
        ("vertex_on_edge", (4, (0, 2))),
        ("vertex_on_edge", (4, (0, 3))),
        ("zero_angle", (1, 0, 4)),
        ("zero_angle", (3, 0, 4)),
        ("outside_outer_face", 4),
    ]),
    (4, (3, 2), [  # onto the midpoint of edge (0, 3)
        ("vertex_on_edge", (4, (0, 3))),
        ("zero_angle", (0, 3, 4)),
        ("zero_angle", (3, 0, 4)),
    ]),
    (3, (1, 1), [  # across edge (0, 4) into a neighboring face
        ("edge_crossing", ((0, 4), (1, 3))),
        ("rotation_mismatch", 1),
        ("rotation_mismatch", 3),
    ]),
    (5, (6, 2), [  # edge (2, 5) now runs along edge (3, 4)
        ("vertex_on_edge", (3, (2, 5))),
        ("vertex_on_edge", (5, (3, 4))),
        ("edge_overlap", ((2, 5), (3, 4))),
        ("zero_angle", (2, 3, 5)),
        ("zero_angle", (3, 4, 5)),
        ("zero_angle", (5, 2, 3)),
        ("rotation_mismatch", 1),
    ]),
    (5, (13, 6), [  # outside the outer triangle
        ("edge_crossing", ((1, 2), (3, 5))),
        ("rotation_mismatch", 1),
        ("rotation_mismatch", 2),
        ("outside_outer_face", 5),
    ]),
], ids=["coincident", "on_edge", "crossing", "overlap", "outside"])
def test_verify_violation_lists(stacked6, vertex, position, expected):
    coords = np.array(STACKED6_COORDS, dtype=float)
    coords[vertex] = position
    ok, violations = verify_planar_straight_line(Drawing(stacked6, coords))
    assert not ok
    assert violations == expected
    assert all(type(i) is int for _, payload in violations for i in _ids(payload))


def test_verify_violation_list_mirrored(stacked6):
    coords = np.array(STACKED6_COORDS, dtype=float)
    coords[:, 0] = 12 - coords[:, 0]
    ok, violations = verify_planar_straight_line(Drawing(stacked6, coords))
    assert not ok
    assert violations == [("rotation_mismatch", v) for v in range(6)] \
        + [("outer_not_ccw", (0, 1, 2))]


def _fuzzed(drawing_corpus, count, seed):
    """Near-degenerate copies of corpus drawings: one vertex jittered at
    eps scale, pulled next to a neighbour, next to or across an opposite
    edge, or two neighbours put on a line."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = drawing_corpus[int(rng.integers(len(drawing_corpus)))].drawing
        g, c = d.graph, d.coords.copy()
        v = int(rng.integers(g.vertex_count))
        tri = next(f for f in g.faces if v in f)
        a, b = (w for w in tri if w != v)
        step = 10.0 ** rng.uniform(-15, -4) * d.scale * rng.normal(size=2)
        kind = i % 5
        if kind == 0:
            c[v] += step
        elif kind == 1:
            c[v] = c[a] + step
        elif kind == 2:
            c[v] = c[a] + rng.uniform(-0.2, 1.2) * (c[b] - c[a]) + step
        elif kind == 3:  # reflect across the opposite edge, or short of it
            foot = c[a] + (c[b] - c[a]) * ((c[v] - c[a]) @ (c[b] - c[a])) \
                / ((c[b] - c[a]) @ (c[b] - c[a]))
            c[v] = foot + (foot - c[v]) * rng.uniform(-0.5, 1.0)
        else:
            c[a] = c[v] + rng.uniform(0.1, 0.9) * (c[b] - c[v]) + step
        yield f"fuzz{i}", Drawing(g, c)


@pytest.mark.parametrize("eps", [None, "1e-8"], ids=["default_eps", "eps_1e-8"])
def test_verify_certificate_never_accepts_what_pairs_reject(
        monkeypatch, drawing_corpus, eps):
    if eps is not None:
        monkeypatch.setenv("BARYMORPH_EPS", eps)
    cases = [(c.name, c.drawing) for c in drawing_corpus]
    cases += list(_fuzzed(drawing_corpus, 200, 31337))
    rejected = 0
    for name, d in cases:
        full = _verify_by_pairs(d)
        assert verify_planar_straight_line(d) == full, name
        rejected += not full[0]
    # with the fallback stubbed out, only the certificate can accept
    monkeypatch.setattr("barymorph.geometry._verify_by_pairs", lambda d: (False, []))
    certified = sum(verify_planar_straight_line(d)[0] for _, d in cases)
    assert certified > 0 and rejected > 0, (certified, rejected)


def _near_pair(r):
    """STACKED6's graph on the equilateral triangle with vertices 4 and 5
    at distance r from vertex 3, 1 rad apart, either side of edge (1, 3)."""
    coords = np.array([[0, 0], [1, 0], [0.5, SQRT3_2], [0.5, 0.3], [0, 0], [0, 0]])
    toward_1 = math.atan2(-0.3, 0.5)
    for v, angle in ((4, toward_1 - 0.5), (5, toward_1 + 0.5)):
        coords[v] = coords[3] + r * np.array([math.cos(angle), math.sin(angle)])
    return Drawing(build_maximal_plane_graph(STACKED6_FACES, (0, 1, 2)), coords)


def test_verify_certificate_near_pair(monkeypatch):
    # at r = 1e-6, |cross| = r^2 sin 1 is below eps: the certificate must
    # leave the drawing to the pairwise check, which reports zero_angle
    d = _near_pair(1e-6)
    ok, violations = verify_planar_straight_line(d)
    assert not ok and ("zero_angle", (3, 4, 5)) in violations
    assert (ok, violations) == _verify_by_pairs(d)
    # at r = 1e-5 the certificate itself accepts
    d = _near_pair(1e-5)
    assert _verify_by_pairs(d) == (True, [])
    monkeypatch.setattr("barymorph.geometry._verify_by_pairs", None)
    assert verify_planar_straight_line(d) == (True, [])


# --- fast witness path ---------------------------------------------------

def test_fast_witness_k4(k4, equilateral):
    d = t_drawing(k4, equilateral)
    w = min_distance_internal_face_witness(d)
    rep = _extremes_by_pairs(d)
    assert w.distance == rep.min_dist
    assert w.vertex == 3 or w.edge in {(0, 1), (1, 2), (0, 2)}


def test_fast_witness_chain_n7():
    from barymorph import eades_garvan, f_drawing
    inst = eades_garvan(7, 0.25, SQRT3_2)
    d = f_drawing(inst.graph, inst.matrix, inst.outer, validate=False)
    w = min_distance_internal_face_witness(d)
    rep = _extremes_by_pairs(d)
    assert w.distance == rep.min_dist
    # global min: last chain vertex against the edge between the two
    # off-axis anchors, at distance x(last)
    assert w.vertex == inst.chain[-1]
    assert tuple(sorted(w.edge)) == (0, 1)
    assert w.distance == pytest.approx(d.coords[inst.chain[-1], 0], rel=1e-15)


# --- outer triangle and formats ------------------------------------------

def test_outer_triangle_matches_corners(k4, equilateral):
    d = t_drawing(k4, equilateral)
    t = outer_triangle(d)
    assert np.array_equal(t.points, equilateral.points)


def test_drawing_round_trip(k4, equilateral):
    d = t_drawing(k4, equilateral)
    d2 = parse_drawing(format_drawing(d), k4)
    assert np.array_equal(d2.coords, d.coords)


def test_drawing_parse_errors(k4):
    with pytest.raises(ParseError):
        parse_drawing("v 0 0 0\n", k4)  # missing vertices
    with pytest.raises(ParseError):
        parse_drawing("v 0 0 0\nv 1 1 0\nv 2 0 1\nv 9 0.5 0.5\n", k4)
    with pytest.raises(ParseError):
        parse_drawing("v 0 0 0\nv 1 1 0\nv 2 0 1\nx 3 0.5 0.5\n", k4)


def test_drawing_rejects_non_finite(k4):
    coords = np.zeros((4, 2))
    coords[3, 0] = np.nan
    with pytest.raises(ValidationError):
        Drawing(k4, coords)


def test_svg_emission(tmp_path, k4, equilateral):
    d = t_drawing(k4, equilateral)
    text = emit_svg(d)
    assert "<svg" in text and "<line" in text and "<circle" in text
    path = tmp_path / "k4.svg"
    emit_svg(d, str(path))
    assert path.read_text().startswith("<svg")


def test_eps_env_override(monkeypatch):
    from barymorph.geometry import geometric_eps
    assert geometric_eps() == 1e-12
    monkeypatch.setenv("BARYMORPH_EPS", "1e-8")
    assert geometric_eps() == 1e-8
