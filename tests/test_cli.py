import contextlib
import hashlib
import io
import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

import ebrmaps.families as families
from ebrmaps import (PresentationSyntaxError, catalog_names, dihedral_presentation,
                     parse_presentation, rotation_system_to_flagmap)
from ebrmaps.cli import build_parser, main
from conftest import FIXTURE_DIR, flag_involutions, rotation_systems

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


def test_literal_presentation_is_read_even_when_a_file_has_its_name(capsys, tmp_path,
                                                                  monkeypatch):
    text = "< a, b | a^2, b^2, (a b)^2 >"
    monkeypatch.chdir(tmp_path)
    (tmp_path / text).write_text("not a presentation\n")
    code, out, err = run(capsys, "analyze", "--presentation", text, "--slots", "a,b,-,-")
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == 4
    # A source that does not start with '<' is a path, even a missing one.
    code, out, err = run(capsys, "analyze", "--presentation", "a, b | a^2 >", "--slots", "a,b,-,-")
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize("text, line, column", [
    ("< \u00e9, b | \u00e9^2, b^2, (\u00e9 b)^2 >", 1, 3),
    ("< a | a^\u0661\u0662 >", 1, 9),
    ("< a | a^\u00b2 >", 1, 9),
    ("< a |\n\u00a0a^2 >", 2, 1),
], ids=["non-ascii-letter", "arabic-indic-digits", "superscript-two", "no-break-space"])
def test_presentation_outside_ascii_is_a_syntax_error_at_the_character(capsys, text, line,
                                                                         column):
    with pytest.raises(PresentationSyntaxError, match="unexpected character") as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (line, column)
    code, out, err = run(capsys, "analyze", "--presentation", text, "--slots", "a,a,-,-")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(f"(line {line}, column {column})\n")
    assert err.count("\n") == 1


def test_analyze_slots_naming_no_generator_exits_1(capsys):
    code, out, err = run(capsys, "analyze", "--presentation", "< a, b | a^2, b^2, (a b)^3 >",
                         "--slots", "a,b,c,-")
    assert (code, out, err) == (1, "", "error: no generator named 'c'\n")


def test_analyze_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "analyze", "--family", "moebius", "--params", "m=1")
    assert code == 1
    assert "unknown family" in err


def test_analyze_reports_missing_parameters(capsys):
    code, _, err = run(capsys, "analyze", "--family", "torus-rect", "--params", "a=2")
    assert code == 1
    assert "needs parameters c" in err


@pytest.mark.parametrize("family,params,message", [
    ("cycle", "m=true", "parameter 'm' must be an integer"),
    ("torus-rect", "a=true,c=true", "parameter 'a' must be an integer"),
    ("dipole", "m=2,rpp=1", "parameter 'rpp' must be true or false"),
])
def test_family_parameters_are_typed_by_name(capsys, family, params, message):
    code, out, err = run(capsys, "analyze", "--family", family, "--params", params)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_projective_dipole_takes_rpp_true(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "dipole", "--params", "m=2,rpp=true")
    assert code == 0
    assert json.loads(out)["chi"] == 1


def test_analyze_budget_exit_code(capsys):
    text = "< a, b | a^2, b^2 >"  # infinite: free product C2 * C2
    code, _, err = run(capsys, "analyze", "--presentation", text,
                       "--slots", "a,b,a,b", "--max-cosets", "50")
    assert code == 2
    assert "max_cosets" in err


def test_family_above_the_order_budget_exits_2_at_once(capsys):
    code, out, err = run(capsys, "analyze", "--family", "torus-rect",
                         "--params", "a=1000,c=1000")
    assert code == 2 and out == ""
    assert err == "error: group too large: order 4000000 is above max_order=1000000\n"


def test_enumerate_dih8(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "dih:8", "--proper",
                       "--distinct", "--chi-max", "-1")
    assert code == 0
    payload = json.loads(out)
    assert sorted(c["table_row"] for c in payload) == [1, 3]
    assert all(set(c) == {"class_size", "type", "chi", "V", "F", "orientable",
                          "fully_regular", "table_row"} for c in payload)


def test_enumerate_negative_budget_exits_1(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "dih:8", "--max-candidates", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("command,name,message", [
    *(("enumerate", name, f"unknown catalog group {name!r}")
      for name in ("dih:8:junk", "dih:8_0", "dihxc2:6:1", "dih: 8", "dih:+8", "dih:8 ",
                   "dih:-2", "dih:", "c2^ 2", "c2^\u0662", "dihxc2:1e3")),
    *(("construct", name, f"unknown catalog name {name!r}")
      for name in ("torus44:1_0:2-rect", "torus44:2:+2-rect", "torus44:2:2:2-rect",
                   "hosohedron:+3", "dihedron:3 ", "hosohedron:\u00b3", "dihedron:")),
    ("enumerate", "dih:0", "dihedral order must be even and at least 2"),
    ("enumerate", "dihxc2:7", "dihedral order must be even and at least 2"),
    ("enumerate", "c2^4", "c2^k supports k in 1..3"),
    ("construct", "hosohedron:0", "catalog parameter must be positive in 'hosohedron:0'"),
    ("construct", "dihedron:1", "triangle group parameters must be at least 2"),
    ("construct", "torus44:2:0-rect", "catalog parameter must be positive in 'torus44:2:0-rect'"),
])
def test_built_in_names_take_ascii_digits_only(capsys, command, name, message):
    option = ("--group", name) if command == "enumerate" else (
        "--catalog", name, "--construction", "3")
    code, out, err = run(capsys, command, *option)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["dih:4000000", "dihxc2:600000"])
def test_enumerate_refuses_a_dihedral_group_above_the_order_budget(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--group", name)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: group too large: order ") and "above max_order=" in err


SWEEP_FLAGS = (["--proper"], ["--proper", "--distinct", "--chi-max", "-1"], [])
PRESENTATION_ORDERS = (26, 30, 36, 40)


def test_enumerate_output_matches_the_recorded_digests(capsys, tmp_path, monkeypatch):
    """Every catalog group and four dihedral presentation files, under three
    flag sets: stdout (by sha256) and exit code as recorded before the sweep
    learned to break on an automorphism, so the representatives stay the
    same lex-least quadruples."""
    with open(os.path.join(FIXTURE_DIR, "enumerate_digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    monkeypatch.chdir(tmp_path)
    for m in PRESENTATION_ORDERS:
        (tmp_path / f"dihedral-{m}.txt").write_text(str(dihedral_presentation(m)) + "\n")
    groups = catalog_names() + [f"dihedral-{m}.txt" for m in PRESENTATION_ORDERS]
    argvs = [["enumerate", "--group", g] + flags for g in groups for flags in SWEEP_FLAGS]
    assert sorted(" ".join(argv) for argv in argvs) == sorted(recorded)
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == \
            recorded[" ".join(argv)], argv


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=8)


@st.composite
def flagmap_documents(draw):
    """Flag-map JSON of every kind: any JSON value; objects whose arrays are
    of the wrong type, out of range or not involutions, with keys dropped;
    and the flag systems of random rotation systems, often disconnected."""
    kind = draw(st.sampled_from(["any", "arrays", "rotations"]))
    if kind == "any":
        return draw(JSON_VALUES)
    if kind == "rotations":
        perms = flag_involutions(rotation_system_to_flagmap, *draw(rotation_systems()))
        doc = {key: list(p.images) for key, p in zip(("s0", "s1", "s2"), perms)}
        return dict(flag_count=len(perms[0].images), **doc)
    n = draw(st.integers(0, 8))
    arrays = st.lists(st.integers(-1, n + 1), min_size=n, max_size=n)
    doc = {"flag_count": draw(st.just(n) | JSON_VALUES)}
    doc.update({key: draw(arrays | st.permutations(range(n)) | JSON_VALUES)
                for key in ("s0", "s1", "s2")})
    return {key: value for key, value in doc.items() if draw(st.integers(0, 7))}


@settings(max_examples=300)
@given(flagmap_documents())
def test_colourable_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["colourable", "--flagmap", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and "colourable" in json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_colourable_deeply_nested_file_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "colourable", "--flagmap", str(path))
    assert code == 1 and out == "" and err.startswith("error: ")


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


def test_internal_error_exits_1_with_one_line(capsys, monkeypatch):
    def broken(name):
        raise RuntimeError("coset table\nlost its place")

    monkeypatch.setattr(families, "regular_catalog", broken)
    code, out, err = run(capsys, "construct", "--catalog", "cube", "--construction", "1")
    assert (code, out) == (1, "")
    assert err == "error: internal error: RuntimeError: coset table lost its place\n"
    assert "Traceback" not in err


def test_keyboard_interrupt_is_not_swallowed(monkeypatch):
    def interrupted(name):
        raise KeyboardInterrupt

    monkeypatch.setattr(families, "regular_catalog", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["construct", "--catalog", "cube", "--construction", "1"])

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


SMALL = st.integers(0, 13).map(str)
# Junk for one place in five.
JUNK = st.sampled_from(["_0", "+", " ", ":1", "-", "x", "\u0663"] + [""] * 28)
OTHER_NAMES = ["cube", "tetrahedron", "teapot", ""]


@st.composite
def built_in_names(draw, prefixes):
    """Names of a built-in catalog with small parameters, sometimes with junk
    around a parameter, and now and then a name of no catalog."""
    prefix = draw(st.sampled_from(prefixes * 4 + OTHER_NAMES))
    if prefix in OTHER_NAMES:
        return prefix + draw(JUNK)
    param = draw(JUNK) + draw(SMALL) + draw(JUNK)
    if prefix == "torus44:":
        param += ":" + draw(SMALL) + draw(st.sampled_from(["-rect"] * 4 + [""]))
    return prefix + param


@st.composite
def family_params(draw):
    """``--params`` text over keys of every family, with small values."""
    keys = draw(st.lists(st.sampled_from(["a", "b", "c", "m", "row", "rpp", "k", ""]),
                         max_size=3, unique=True))
    values = st.integers(0, 9).map(str) | st.sampled_from(["-1", "true", "x", "", "1_0"])
    return ",".join(key + draw(st.sampled_from(["=", "=", ""])) + draw(values) for key in keys)


FAMILY_PARAMS = {"torus-rect": ("a", "c"), "torus-rhombic": ("b", "c"), "klein": ("a", "b"),
                 "dihedral": ("m", "row"), "cycle": ("m",), "dipole": ("m", "rpp"),
                 "semistar": ("m",), "moebius": ("m",)}
PRESENTATIONS = st.sampled_from([
    "< a, b | a^2, b^2, (a b)^3 >", "< a, b | a^2, b^2 >",
    "< a, b, c | a^2, b^2, c^2, (a b)^2, (a c)^3, (b c)^4 >",
    "< r0, r2, p0, p2 | r0^2, r2^2, p0^2, p2^2, (r0 r2)^2, (p0 p2)^2,"
    " (r0 p0)^2, (r2 p2)^2, (r0 p2)^2, (r2 p0)^2 >",
    "< a, b | (a b >", "", "< | >"])


@st.composite
def cli_arguments(draw):
    """Arguments to ``analyze``, ``enumerate`` and ``construct``, valid and
    not, with small parameters so that every run is quick."""
    command = draw(st.sampled_from(["analyze", "enumerate", "construct"]))
    if command == "construct":
        name = draw(built_in_names(["hosohedron:", "dihedron:", "torus44:", "dih:"]))
        number = draw(st.sampled_from(["1", "2", "3", "4"] * 3 + ["0", "x"]))
        return [command, "--catalog", name, "--construction", number]
    if command == "enumerate":
        flags = st.sampled_from(["--proper", "--distinct", "--chi-max=-1", "--chi-max=0"] * 3
                                + ["--chi-max=x", "--max-candidates=50"])
        name = draw(built_in_names(["dih:", "dihxc2:", "c2^", "hosohedron:"]))
        return [command, "--group", name] + draw(st.lists(flags, max_size=3))
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
        valid = ",".join(f"{key}={draw(st.integers(1, 6))}" for key in FAMILY_PARAMS[family])
        return [command, "--family", family, "--params", draw(st.just(valid) | family_params())]
    slots = st.lists(st.sampled_from(["a", "b", "c", "r0", "r2", "p0", "p2", "-"]),
                     min_size=3, max_size=5).map(",".join)
    argv = [command, "--presentation", draw(PRESENTATIONS), "--max-cosets", "200"]
    return argv + draw(st.just([]) | slots.map(lambda text: ["--slots=" + text]))


@settings(max_examples=300)
@given(cli_arguments())
def test_cli_fuzz_exits_0_1_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue()) is not None
    else:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
