import numpy as np
import pytest

from barymorph import (
    build_maximal_plane_graph,
    classify_vertices,
    enclosed_subgraph,
    format_graph,
    neighbors_cw,
    nested_triangles,
    parse_graph,
    verify_enclosed_subgraph,
)
from barymorph.errors import (
    EulerViolation,
    NonSimple,
    NotTriangulated,
    ParseError,
    UnknownVertex,
    ValidationError,
)

K4_FACES = [(0, 1, 3), (1, 2, 3), (0, 3, 2)]
K4_OUTER = (0, 1, 2)

OCTA_FACES = [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5),
              (4, 0, 5), (0, 4, 3), (0, 3, 2)]
OCTA_OUTER = (0, 1, 2)


def test_k4_counts(k4):
    assert k4.vertex_count == 4
    assert len(k4.edges) == 6
    assert len(k4.faces) == 3
    assert all(k4.degree(v) == 3 for v in range(4))


def test_k4_classification(k4):
    cls = classify_vertices(k4)
    assert sorted(cls.external) == [0, 1, 2]
    assert sorted(cls.internal) == [3]
    assert sorted(k4.internal_vertices) == [3]


def test_k4_clockwise_order(k4):
    # From each outer corner the internal vertex sits between the other
    # two corners; the full clockwise fan is pinned down by the faces.
    assert neighbors_cw(k4, 3) == (0, 2, 1)


def test_octahedron_builds():
    g = build_maximal_plane_graph(OCTA_FACES, OCTA_OUTER)
    assert g.vertex_count == 6
    assert len(g.edges) == 12
    assert len(g.faces) == 7
    assert sorted(g.internal_vertices) == [3, 4, 5]


def test_single_triangle_too_small():
    with pytest.raises(EulerViolation):
        build_maximal_plane_graph([(0, 1, 2)], (0, 1, 2))


def test_non_triangle_face_rejected():
    with pytest.raises(NotTriangulated):
        build_maximal_plane_graph([(0, 1, 2, 3)], (0, 1, 2))


def test_unknown_vertex_in_outer():
    with pytest.raises(UnknownVertex):
        build_maximal_plane_graph(K4_FACES, (0, 1, 9))


def test_missing_face_is_euler_violation():
    with pytest.raises(EulerViolation):
        build_maximal_plane_graph(K4_FACES[:2], K4_OUTER)


def test_flipped_face_is_non_simple():
    faces = [K4_FACES[0], K4_FACES[1], (0, 2, 3)]  # last face reversed
    with pytest.raises(NonSimple):
        build_maximal_plane_graph(faces, K4_OUTER)


def test_repeated_face_rejected():
    with pytest.raises(NonSimple):
        build_maximal_plane_graph([K4_FACES[0]] * 3, K4_OUTER)


def test_degenerate_face_rejected():
    with pytest.raises((NonSimple, NotTriangulated)):
        build_maximal_plane_graph([(0, 0, 1), K4_FACES[1], K4_FACES[2]], K4_OUTER)


def test_graph_equality_is_cyclic(k4):
    rotated = [(1, 3, 0), (2, 3, 1), (3, 2, 0)]
    g2 = build_maximal_plane_graph(rotated, (1, 2, 0))
    assert g2 == k4
    assert hash(g2) == hash(k4)


def test_enclosed_subgraph_inner_rings():
    inst = nested_triangles(9)
    ring2 = inst.rings[1]
    vertices, edges, inside = enclosed_subgraph(inst.graph, ring2)
    assert sorted(vertices) == [0, 1, 2, 3, 4, 5]
    assert len(edges) == 12
    assert len(inside) == 7  # matches a 6-vertex maximal plane graph
    v2, e2 = verify_enclosed_subgraph(inst.graph, ring2)
    assert v2 == vertices and e2 == edges


def test_enclosed_subgraph_outer_cycle_is_everything():
    inst = nested_triangles(9)
    vertices, edges, inside = enclosed_subgraph(inst.graph,
                                                inst.graph.outer_cycle)
    assert len(vertices) == 9
    assert len(edges) == len(inst.graph.edges)
    assert len(inside) == len(inst.graph.faces)


def test_enclosed_subgraph_matches_geometry():
    # faces inside a ring are those whose centroid gamma0 puts inside it
    inst = nested_triangles(15)
    g, coords = inst.graph, inst.gamma0.coords
    for ring in inst.rings:
        vertices, edges, inside = enclosed_subgraph(g, ring)
        corners = coords[list(ring)]
        sides = np.roll(corners, -1, axis=0) - corners

        def is_inside(face):
            r = coords[list(face)].mean(axis=0) - corners
            return bool(np.all(sides[:, 0] * r[:, 1] - sides[:, 1] * r[:, 0] > 0.0))

        want = tuple(f for f in g.faces if is_inside(f))
        assert inside == want
        assert vertices == frozenset(ring).union(*inside)
        assert edges == {(min(a, b), max(a, b)) for f in inside + (ring,)
                         for a, b in zip(f, f[1:] + f[:1])}


def test_enclosed_subgraph_rejects_non_edge():
    inst = nested_triangles(9)
    with pytest.raises(ValidationError, match=r"cycle step \(1,5\) is not an edge"):
        enclosed_subgraph(inst.graph, (0, 1, 5))


def test_index_arrays(k4):
    g = nested_triangles(12).graph
    for graph in (k4, g):
        assert graph.face_array.tolist() == [list(f) for f in graph.faces]
        assert graph.edge_array.tolist() == [list(e) for e in graph.edges]
        assert graph.face_array.dtype.kind == graph.edge_array.dtype.kind == "i"
        with pytest.raises(ValueError):
            graph.face_array[0, 0] = 1
        with pytest.raises(ValueError):
            graph.edge_array[0, 0] = 1


def test_format_parse_round_trip(k4):
    g2 = parse_graph(format_graph(k4))
    assert g2 == k4


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_graph("m 4\n")


def test_parse_rejects_wrong_header_count():
    text = format_graph(build_maximal_plane_graph(K4_FACES, K4_OUTER))
    with pytest.raises(ParseError):
        parse_graph(text.replace("n 4", "n 5"))


def test_parse_propagates_structural_errors():
    text = format_graph(build_maximal_plane_graph(K4_FACES, K4_OUTER))
    lines = text.strip().splitlines()
    with pytest.raises(EulerViolation):
        parse_graph("\n".join(lines[:-1]) + "\n")


def test_parse_rejects_garbage_tokens():
    with pytest.raises(ParseError):
        parse_graph("n 4\nouter 0 1 2\nf 0 1 x\nf 1 2 3\nf 0 3 2\n")
