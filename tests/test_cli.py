import json
import os
import time

import pytest

from ebrmaps.cli import build_parser, main
from conftest import FIXTURE_DIR

TORUS_FIXTURE = os.path.join(FIXTURE_DIR, "torus_not_colourable.json")
SPHERE_FIXTURE = os.path.join(FIXTURE_DIR, "sphere_two_squares.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_torus_rect(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "torus-rect",
                       "--params", "a=4,c=3")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == 0
    assert data["order"] == 48
    assert list(data) == ["order", "k", "l", "V", "F", "edges_shaded",
                          "edges_unshaded", "chi", "orientable", "genus",
                          "fully_regular", "proper", "distinct_generators",
                          "degeneracy_class"]
    assert data["edges_shaded"] == {"count": 12, "kind": "proper"}


def test_analyze_dihedral_row3(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "dihedral",
                       "--params", "m=4,row=3")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == -1
    assert data["fully_regular"] is False


def test_analyze_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "analyze", "--family", "klein", "--params", "a=3,b=2")
    _, second, _ = run(capsys, "analyze", "--family", "klein", "--params", "a=3,b=2")
    assert first == second


def test_analyze_presentation_with_slots(capsys, tmp_path):
    text = ("< r0, r2, p0, p2 | r0^2, r2^2, p0^2, p2^2, (r0 r2)^2, (p0 p2)^2,"
            " (r0 p0)^2, (r2 p2)^2, (r0 p2)^2, (r2 p0)^2 >")
    path = tmp_path / "rect22.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "analyze", "--presentation", str(path),
                       "--slots", "r0,r2,p0,p2")
    assert code == 0
    assert json.loads(out)["order"] == 16


def test_analyze_presentation_boundary_slots(capsys):
    text = "< a, b, c | a^2, b^2, c^2, (a b)^2, (a c)^3, (b c)^4 >"
    code, out, _ = run(capsys, "analyze", "--presentation", text,
                       "--slots", "a,b,c,-")
    assert code == 0
    data = json.loads(out)
    assert data["degeneracy_class"] == "boundary"
    assert data["boundary_type"] == "a"
    assert data["l"] == 6


def test_analyze_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "analyze", "--family", "moebius", "--params", "m=1")
    assert code == 1
    assert "unknown family" in err


def test_analyze_reports_missing_parameters(capsys):
    code, _, err = run(capsys, "analyze", "--family", "torus-rect", "--params", "a=2")
    assert code == 1
    assert "needs parameters c" in err


def test_analyze_budget_exit_code(capsys):
    text = "< a, b | a^2, b^2 >"  # infinite: free product C2 * C2
    code, _, err = run(capsys, "analyze", "--presentation", text,
                       "--slots", "a,b,a,b", "--max-cosets", "50")
    assert code == 2
    assert "max_cosets" in err


def test_family_above_the_coset_budget_exits_2_at_once(capsys):
    code, out, err = run(capsys, "analyze", "--family", "torus-rect",
                         "--params", "a=1000,c=1000")
    assert code == 2 and out == ""
    assert err == "error: order 4000000 is above max_cosets=1000000\n"


def test_enumerate_dih8(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "dih:8", "--proper",
                       "--distinct", "--chi-max", "-1")
    assert code == 0
    payload = json.loads(out)
    assert sorted(c["table_row"] for c in payload) == [1, 3]
    assert all(set(c) == {"class_size", "type", "chi", "V", "F", "orientable",
                          "fully_regular", "table_row"} for c in payload)


def test_enumerate_from_presentation_file(capsys, tmp_path):
    path = tmp_path / "d12.txt"
    path.write_text("< a, b | a^2, b^2, (a b)^6 >")
    code, out, _ = run(capsys, "enumerate", "--group", str(path), "--proper",
                       "--distinct", "--chi-max", "-1")
    assert code == 0
    assert sorted(c["table_row"] for c in json.loads(out)) == [1, 2, 3, 4]


def test_catalog_name_is_not_shadowed_by_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dih:8").write_text("< a | a^3 >")
    code, out, _ = run(capsys, "enumerate", "--group", "dih:8", "--proper",
                       "--distinct", "--chi-max", "-1")
    assert code == 0
    assert sorted(c["table_row"] for c in json.loads(out)) == [1, 3]


def test_enumerate_unknown_group_name(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "teapot")
    assert code == 1 and out == ""
    assert err == "error: unknown catalog group 'teapot'\n"


@pytest.mark.parametrize("name", ["dih:4000000", "dihxc2:600000"])
def test_enumerate_refuses_a_dihedral_group_above_the_order_budget(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--group", name)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: group too large: order ") and "above max_order=" in err


def test_construct_cube_construction3(capsys):
    code, out, _ = run(capsys, "construct", "--catalog", "cube",
                       "--construction", "3")
    assert code == 0
    data = json.loads(out)
    assert (data["k"], data["l"]) == (6, 8)
    assert data["chi"] == 2
    assert data["edges_unshaded"] == {"count": 24, "kind": "semi"}


def test_construct_boundary_report(capsys):
    code, out, _ = run(capsys, "construct", "--catalog", "tetrahedron",
                       "--construction", "1")
    assert code == 0
    data = json.loads(out)
    assert data["degeneracy_class"] == "boundary"
    assert data["boundary_type"] == "a"


def test_colourable_torus_fixture(capsys):
    code, out, _ = run(capsys, "colourable", "--flagmap", TORUS_FIXTURE)
    assert code == 0
    assert json.loads(out) == {"colourable": False}


def test_colourable_sphere_fixture(capsys):
    code, out, _ = run(capsys, "colourable", "--flagmap", SPHERE_FIXTURE)
    assert code == 0
    data = json.loads(out)
    assert data["colourable"] is True
    assert sorted(set(data["witness"])) == [0, 1]
    assert len(data["witness"]) == 12


def test_colourable_missing_file(capsys):
    code, _, err = run(capsys, "colourable", "--flagmap", "no_such_file.json")
    assert code == 1
    assert err


def test_export_corners_dot(capsys, tmp_path):
    out_path = tmp_path / "corners.dot"
    code, _, _ = run(capsys, "export", "--family", "torus-rect",
                     "--params", "a=2,c=2", "--dot", "corners",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("graph corners {")
    for colour in ("red", "green", "blue", "yellow"):
        assert f"[color={colour}]" in text
    # 16 corners, 4 generator matchings of 8 edges each
    assert text.count(" -- ") == 32


def test_export_underlying_dot(capsys, tmp_path):
    out_path = tmp_path / "map.dot"
    code, _, _ = run(capsys, "export", "--family", "cycle", "--params", "m=2",
                     "--dot", "underlying", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("graph underlying {")
    assert text.count("style=solid") == 2      # shaded edges of the 4-cycle
    assert text.count("style=dashed") == 2


def test_export_underlying_semistar_free_ends(capsys, tmp_path):
    out_path = tmp_path / "semistar.dot"
    code, _, _ = run(capsys, "export", "--family", "semistar", "--params", "m=2",
                     "--dot", "underlying", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().count("shape=point") == 4


def test_missing_subcommand_is_input_error(capsys):
    assert main([]) == 1


def test_deeply_nested_presentation_is_input_error(capsys):
    text = "< a | " + "(" * 5000 + "a" + ")" * 5000 + " >"
    code, out, err = run(capsys, "analyze", "--presentation", text,
                         "--slots", "a,a,a,a")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "nested deeper than" in err and "Traceback" not in err


def test_over_budget_relator_exits_1_with_one_line(capsys):
    code, out, err = run(capsys, "analyze", "--presentation",
                         "< a, b | a^2, b^2, (a b)^1000000000000 >", "--slots", "a,b,a,b")
    assert code == 1 and out == ""
    assert err.startswith("error: relator longer than") and err.count("\n") == 1


def test_one_parser_serves_every_call(capsys, tmp_path):
    calls = [
        ["analyze", "--family", "torus-rect", "--params", "a=3,c=2"],
        ["enumerate", "--group", "dih:8", "--proper"],
        ["analyze", "--family", "torus-rect", "--params", "a=3"],
        ["construct", "--catalog", "cube", "--construction", "2"],
        ["enumerate"],
        ["export", "--family", "klein", "--params", "a=3,b=1", "--dot", "corners",
         "--out", str(tmp_path / "k.dot")],
        ["colourable", "--flagmap", SPHERE_FIXTURE],
        ["analyze", "--family", "klein", "--params", "a=3,b=1"],
        ["construct", "--catalog", "cube", "--construction", "5"],
        ["enumerate", "--group", "dih:8", "--chi-max", "-1"],
        [],
    ]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        return code, out, err.splitlines()[-1:]

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    parser = build_parser()
    for _ in range(2):
        assert [outcome(argv) for argv in calls] == fresh
    assert build_parser() is parser
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1]
