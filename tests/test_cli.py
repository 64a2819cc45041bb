"""End-to-end runs of the command line interface, in process via main()."""

import math

import pytest

from barymorph import format_graph, nested_triangles, format_drawing
from barymorph.cli import main

SQRT3_6_REPR = "0.28867513459481287"


@pytest.fixture()
def k4_file(k4, tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(format_graph(k4))
    return str(path)


def test_draw_default_tutte(k4_file, capsys):
    assert main(["draw", k4_file]) == 0
    out = capsys.readouterr().out
    assert SQRT3_6_REPR in out
    assert " 0.5 " in out


def test_draw_deterministic_output(k4_file, tmp_path):
    a, b = tmp_path / "a.drawing", tmp_path / "b.drawing"
    assert main(["draw", k4_file, "-o", str(a)]) == 0
    assert main(["draw", k4_file, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_draw_custom_triangle(k4_file, capsys):
    assert main(["draw", k4_file, "--triangle",
                 "0", "0", "3", "0", "1.5", "2.598076211353316"]) == 0
    out = capsys.readouterr().out
    assert " 1.5 " in out  # barycenter x of the scaled triangle


def test_draw_svg(k4_file, tmp_path):
    svg = tmp_path / "k4.svg"
    out = tmp_path / "k4.drawing"
    assert main(["draw", k4_file, "-o", str(out), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_recover_roundtrip(k4_file, tmp_path):
    drawing = tmp_path / "k4.drawing"
    coeffs = tmp_path / "k4.coeffs"
    redraw = tmp_path / "k4b.drawing"
    assert main(["draw", k4_file, "-o", str(drawing)]) == 0
    assert main(["recover", k4_file, str(drawing), "-o", str(coeffs)]) == 0
    assert "3 " in coeffs.read_text()
    assert main(["draw", k4_file, "--coeffs", str(coeffs),
                 "-o", str(redraw)]) == 0
    # uniform weights recover exactly at the barycenter, so the files agree
    assert redraw.read_text() == drawing.read_text()


def test_missing_file_is_exit_2(tmp_path):
    assert main(["draw", str(tmp_path / "absent.graph")]) == 2


def test_garbage_graph_is_exit_2(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph at all\n")
    assert main(["draw", str(bad)]) == 2


def test_bad_coefficients_are_exit_3(k4_file, tmp_path, capsys):
    drawing = tmp_path / "k4.drawing"
    coeffs = tmp_path / "k4.coeffs"
    assert main(["draw", k4_file, "-o", str(drawing)]) == 0
    assert main(["recover", k4_file, str(drawing), "-o", str(coeffs)]) == 0
    text = coeffs.read_text().replace(SQRT3_6_REPR, "0.5")  # not this file
    text = text.replace("0.33333333333333331", "0.5", 1)
    coeffs.write_text(text)
    assert main(["draw", k4_file, "--coeffs", str(coeffs)]) == 3
    capsys.readouterr()


def test_morph_constant_schedule(k4_file, tmp_path):
    drawing = tmp_path / "k4.drawing"
    schedule = tmp_path / "k4.schedule"
    assert main(["draw", k4_file, "-o", str(drawing)]) == 0
    assert main(["morph", k4_file, str(drawing), str(drawing),
                 "--discretize", "-o", str(schedule)]) == 0
    assert schedule.read_text().startswith("schedule k 1\n")


def test_morph_outer_mismatch_is_exit_3(k4_file, tmp_path, capsys):
    d0 = tmp_path / "a.drawing"
    d1 = tmp_path / "b.drawing"
    assert main(["draw", k4_file, "-o", str(d0)]) == 0
    assert main(["draw", k4_file, "--triangle",
                 "0", "0", "2", "0", "1", "1.7", "-o", str(d1)]) == 0
    assert main(["morph", k4_file, str(d0), str(d1)]) == 3
    assert "mismatch" in capsys.readouterr().err.lower()


def test_morph_negative_samples_is_exit_2(k4_file, tmp_path, capsys):
    drawing = tmp_path / "k4.drawing"
    assert main(["draw", k4_file, "-o", str(drawing)]) == 0
    assert main(["morph", k4_file, str(drawing), str(drawing),
                 "--samples", "-5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_draw_non_finite_triangle_is_exit_3(k4_file, capsys):
    assert main(["draw", k4_file, "--triangle",
                 "0", "0", "1", "0", "0.5", "nan"]) == 3
    assert "DegenerateTriangle" in capsys.readouterr().err


def test_morph_midpoint_drawing(tmp_path, capsys):
    inst = nested_triangles(9)
    graph = tmp_path / "nested.graph"
    d0 = tmp_path / "g0.drawing"
    d1 = tmp_path / "g1.drawing"
    graph.write_text(format_graph(inst.graph))
    d0.write_text(format_drawing(inst.gamma0))
    d1.write_text(format_drawing(inst.gamma1))
    out = tmp_path / "mid.drawing"
    assert main(["morph", str(graph), str(d0), str(d1),
                 "-t", "0.5", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "bound_holds=True" in err
    assert out.exists()


def test_decay_chain_sweep(tmp_path):
    out = tmp_path / "eg.csv"
    assert main(["decay", "--family", "eg", "--n-range", "7:10",
                 "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,lambda_min,triangle_res,measured_log,floor_log,ceiling_log"
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["7", "8", "9", "10"]


def test_decay_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["decay", "--family", "eg", "--n-range", "7:12", "-o", str(a),
                 "--jobs", "4"]) == 0
    assert main(["decay", "--family", "eg", "--n-range", "7:12", "-o", str(b),
                 "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decay_nested_na_ceiling(tmp_path):
    out = tmp_path / "nested.csv"
    assert main(["decay", "--family", "nested", "--n-range", "6:12:3",
                 "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["6", "9", "12"]
    assert rows[0].split(",")[5] == "NA"    # two rings leave nothing between
    assert rows[2].split(",")[5] != "NA"


def test_decay_bad_range_is_exit_2(capsys):
    assert main(["decay", "--family", "eg", "--n-range", "7"]) == 2
    assert main(["decay", "--family", "eg", "--n-range", "a:b"]) == 2
    capsys.readouterr()


def test_decay_negative_jobs_is_exit_2(capsys):
    assert main(["decay", "--family", "eg", "--n-range", "7:9",
                 "--jobs", "-1"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, row", [
    (["--family", "nested", "--n-range", "129:138:3"], "n=132: "),
    (["--family", "eg", "--n-range", "398:404:3", "--lambda", "0.15"], "n=401: "),
], ids=["nested", "eg"])
def test_decay_failing_row_is_named(capsys, argv, row):
    # both rows reach the float64 floor: a face of the drawing flips
    assert main(["decay", *argv, "--jobs", "2"]) == 4
    err = capsys.readouterr().err
    assert f"solver error (SolverError): {row}internal face" in err


def test_decay_lambda_out_of_range_is_exit_3(capsys):
    assert main(["decay", "--family", "eg", "--n-range", "7:9",
                 "--lambda", "0.4"]) == 3
    capsys.readouterr()


def test_validate_graph_file(k4_file, capsys):
    assert main(["validate", k4_file]) == 0
    assert "graph ok" in capsys.readouterr().out


def test_validate_drawing_and_coeffs(k4_file, tmp_path, capsys):
    drawing = tmp_path / "k4.drawing"
    coeffs = tmp_path / "k4.coeffs"
    assert main(["draw", k4_file, "-o", str(drawing)]) == 0
    assert main(["recover", k4_file, str(drawing), "-o", str(coeffs)]) == 0
    assert main(["validate", k4_file, "--drawing", str(drawing),
                 "--coeffs", str(coeffs)]) == 0
    capsys.readouterr()


def test_validate_self_check(capsys):
    assert main(["validate", "--random-stacked", "12", "--seed", "5",
                 "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "self-check ok: 3 stacked triangulations" in out


def test_validate_negative_count_is_exit_2(capsys):
    assert main(["validate", "--random-stacked", "10", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err
    assert "self-check ok" not in captured.out
