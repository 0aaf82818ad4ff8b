import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from ebrmaps import (
    EdgeBiregularMap,
    FlagMap,
    Permutation,
    catalog_group,
    closure,
    construction1,
    construction3,
    dihedral_map,
    ebr_to_flagmap,
    is_alternate_edge_colourable,
    klein,
    load_flagmap,
    regular_catalog,
    regular_to_flagmap,
    rotation_system_to_flagmap,
    sphere_family,
    torus_rect,
)
from conftest import (FIXTURE_DIR, all_valid_quadruples, colouring_by_flag_scan,
                      flag_involutions, flagmap_error_reference, orbits_by_walk,
                      rotation_systems)

TORUS_FIXTURE = os.path.join(FIXTURE_DIR, "torus_not_colourable.json")
SPHERE_FIXTURE = os.path.join(FIXTURE_DIR, "sphere_two_squares.json")


# -- fixture provenance --------------------------------------------------------

def test_torus_fixture_matches_rotation_system(torus_flagmap):
    shipped = load_flagmap(TORUS_FIXTURE)
    assert shipped.to_json_dict() == torus_flagmap.to_json_dict()


def test_sphere_fixture_matches_rotation_system(sphere_flagmap):
    shipped = load_flagmap(SPHERE_FIXTURE)
    assert shipped.to_json_dict() == sphere_flagmap.to_json_dict()


def test_fixture_files_carry_comments():
    for path in (TORUS_FIXTURE, SPHERE_FIXTURE):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert "comment" in data and data["comment"]


# -- the torus counterexample ----------------------------------------------------

def test_torus_fixture_is_even_but_not_colourable(torus_flagmap):
    m = torus_flagmap
    assert m.chi() == 0
    assert all(v % 2 == 0 for v in m.vertex_valencies())
    assert all(f % 2 == 0 for f in m.face_lengths())
    assert is_alternate_edge_colourable(m) is None


def test_torus_fixture_counts(torus_flagmap):
    m = torus_flagmap
    assert len(m.vertex_orbits()) == 11
    assert len(m.edge_orbits()) == 20
    assert len(m.face_orbits()) == 9


# -- positive examples -----------------------------------------------------------

def test_sphere_fixture_is_colourable(sphere_flagmap):
    m = sphere_flagmap
    assert m.chi() == 2
    colouring = is_alternate_edge_colourable(m)
    assert colouring is not None
    # The witness classes are the drawn ones: even edge ids versus odd.
    classes = {}
    for rep, colour in colouring.items():
        classes.setdefault(colour, set()).add(rep // 4)
    assert sorted(sorted(c) for c in classes.values()) == [
        [0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11]]


def test_four_cycle_on_sphere_is_colourable():
    m = ebr_to_flagmap(sphere_family("cycle", 2))
    assert is_alternate_edge_colourable(m) is not None


def test_odd_valency_is_never_colourable(cube_flagmap):
    assert min(cube_flagmap.vertex_valencies()) == 3
    assert is_alternate_edge_colourable(cube_flagmap) is None
    tetra = regular_to_flagmap(regular_catalog("tetrahedron"))
    assert is_alternate_edge_colourable(tetra) is None


def test_cube_rotation_system_flag_count_and_chi(cube_flagmap):
    m = cube_flagmap
    assert m.flag_count == 48
    assert m.chi() == 2
    assert sorted(set(m.face_lengths())) == [4]
    assert closure([m.s0, m.s1, m.s2]).order == 48


# -- conversion from edge-biregular maps ------------------------------------------

def test_flag_counts_are_twice_the_group_order():
    assert ebr_to_flagmap(torus_rect(2, 2)).flag_count == 32
    assert ebr_to_flagmap(dihedral_map(4, 1)).flag_count == 16


@pytest.mark.parametrize("m", [
    torus_rect(2, 2),
    torus_rect(3, 2),
    klein(3, 1),
    klein(2, 2),
    dihedral_map(4, 1),
    dihedral_map(4, 3),
    dihedral_map(6, 2),
    sphere_family("cycle", 3),
    sphere_family("dipole", 3),
], ids=lambda m: f"order{m.group.order}-{m.degeneracy_class}-"
                  f"{(m.invariants().k, m.invariants().l)}")
def test_ebr_flag_system_round_trip(m):
    fm = ebr_to_flagmap(m)
    inv = m.invariants()
    assert fm.flag_count == 2 * inv.order
    assert fm.chi() == inv.chi
    assert len(fm.vertex_orbits()) == inv.V
    assert len(fm.face_orbits()) == inv.F
    colouring = is_alternate_edge_colourable(fm)
    assert colouring is not None
    sizes = {}
    for rep, colour in colouring.items():
        sizes[colour] = sizes.get(colour, 0) + 1
    assert sorted(sizes.values()) == sorted(
        [inv.edges_shaded.count, inv.edges_unshaded.count])


def test_witness_classes_match_construction_colouring():
    m = torus_rect(2, 3)
    fm = ebr_to_flagmap(m)
    colouring = is_alternate_edge_colourable(fm)
    # flags 2c are shaded, 2c+1 unshaded; each edge orbit is single-coloured
    by_parity = {0: set(), 1: set()}
    for orbit in fm.edge_orbits():
        parities = {f % 2 for f in orbit}
        assert len(parities) == 1
        by_parity[parities.pop()].add(min(orbit))
    assert {colouring[r] for r in by_parity[0]} != {colouring[r] for r in by_parity[1]}


def test_ebr_to_flagmap_rejects_semi_edge_and_boundary_maps():
    with pytest.raises(ValueError):
        ebr_to_flagmap(sphere_family("semistar", 3))
    with pytest.raises(ValueError):
        ebr_to_flagmap(construction3(regular_catalog("cube")))
    with pytest.raises(ValueError):
        ebr_to_flagmap(construction1(regular_catalog("cube")))


# -- validation ---------------------------------------------------------------

def test_flagmap_validation():
    swap = Permutation((1, 0, 3, 2))
    three_cycle = Permutation((1, 2, 0, 3))
    with pytest.raises(ValueError, match="involution"):
        FlagMap(three_cycle, swap, swap)
    # s0 == s2 makes s0*s2 the identity, which has fixed points
    with pytest.raises(ValueError, match="fixed points"):
        FlagMap(swap, swap, swap)
    with pytest.raises(ValueError, match="disconnected"):
        FlagMap(Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
                Permutation.identity(8),
                Permutation.from_cycles(8, [(0, 3), (1, 2), (4, 7), (5, 6)]))


def test_rotation_system_validation():
    with pytest.raises(ValueError, match="cover"):
        rotation_system_to_flagmap([[0, 1], [1]], [1, 0])
    with pytest.raises(ValueError, match="fixed-point-free"):
        rotation_system_to_flagmap([[0], [1]], [0, 1])


def test_save_load_round_trip(tmp_path, sphere_flagmap):
    from ebrmaps import save_flagmap

    path = tmp_path / "roundtrip.json"
    save_flagmap(sphere_flagmap, str(path), comment="round trip")
    loaded = load_flagmap(str(path))
    assert loaded.to_json_dict() == sphere_flagmap.to_json_dict()


def test_empty_flag_map_is_refused():
    empty = Permutation(())
    with pytest.raises(ValueError, match="^flag system is disconnected$"):
        FlagMap(empty, empty, empty)


@pytest.mark.parametrize("text, message", [
    ("[1, 2, 3]", "must hold a JSON object"),
    ('{"flag_count": 4, "s0": [1, 0, 3, 2], "s1": [1, 0, 3, 2], "s2": 5}', "'s2'"),
    ('{"flag_count": 4, "s0": [1, 0, 3, 2], "s1": [1, 0, 3, 2], "s2": [1.0, 0, 3, 2]}',
     "'s2'"),
    ('{"flag_count": 4, "s0": [1, 0, 3, 2], "s1": [null, 0, 3, 2], "s2": [1, 0, 3, 2]}',
     "'s1'"),
    ('{"flag_count": 2, "s0": [true, false], "s1": [1, 0], "s2": [1, 0]}', "'s0'"),
])
def test_load_rejects_non_integer_arrays(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_flagmap(str(path))


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"flag_count": 4, "s0": [1, 0, 3, 2]}))
    with pytest.raises(ValueError, match="missing key"):
        load_flagmap(str(path))
    path.write_text(json.dumps({
        "flag_count": 6, "s0": [1, 0, 3, 2], "s1": [1, 0, 3, 2],
        "s2": [1, 0, 3, 2]}))
    with pytest.raises(ValueError, match="flag_count"):
        load_flagmap(str(path))


def test_colouring_matches_flag_scan_oracle(torus_flagmap, sphere_flagmap, cube_flagmap):
    maps = [torus_flagmap, sphere_flagmap, cube_flagmap,
            ebr_to_flagmap(torus_rect(3, 2)), ebr_to_flagmap(klein(3, 1)),
            ebr_to_flagmap(dihedral_map(6, 2)),
            regular_to_flagmap(regular_catalog("cube")),
            regular_to_flagmap(regular_catalog("torus44:2:2-rect"))]
    for m in maps:
        fast = is_alternate_edge_colourable(m)
        slow = colouring_by_flag_scan(m)
        assert fast == slow
        assert fast is None or list(fast.items()) == list(slow.items())
    assert any(is_alternate_edge_colourable(m) is None for m in maps)


# -- the constructor's one-pass checks against composed permutations -----------

@st.composite
def rotation_system_flags(draw):
    rotations, pairing = draw(rotation_systems())
    if draw(st.booleans()):  # a disjoint union with a second system
        more_rotations, more_pairing = draw(rotation_systems())
        shift = len(pairing)
        rotations += [[d + shift for d in rot] for rot in more_rotations]
        pairing += [d + shift for d in more_pairing]
    return flag_involutions(rotation_system_to_flagmap, rotations, pairing)


@st.composite
def arbitrary_flags(draw):
    """Three permutations, mostly involutions, of degrees that mostly agree:
    they reach every refusal of the constructor, the empty map included."""
    n = draw(st.integers(0, 8))

    def perm():
        degree = draw(st.sampled_from([n] * 5 + [n + 1]))
        points = draw(st.permutations(range(degree)))
        if draw(st.integers(0, 5)) == 0:
            return Permutation(points)
        images = list(range(degree))
        pairs = draw(st.integers(0, degree // 2))
        for a, b in zip(points[:2 * pairs:2], points[1:2 * pairs:2]):
            images[a], images[b] = b, a
        return Permutation(images)

    return perm(), perm(), perm()


FLAG_GROUPS = [catalog_group(name) for name in ("c2^3", "dih:8", "dih:12", "dihxc2:6")]
FLAG_QUADS = [all_valid_quadruples(group, require_proper=True) for group in FLAG_GROUPS]
SOLIDS = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
          "hosohedron:3", "dihedron:4", "torus44:2:2-rect"]


@st.composite
def ebr_flags(draw):
    k = draw(st.integers(0, len(FLAG_GROUPS) - 1))
    quad = draw(st.sampled_from(FLAG_QUADS[k]))
    return flag_involutions(ebr_to_flagmap, EdgeBiregularMap(FLAG_GROUPS[k], *quad))


@st.composite
def solid_flags(draw):
    return flag_involutions(regular_to_flagmap, regular_catalog(draw(st.sampled_from(SOLIDS))))


FLAG_INPUTS = st.one_of(arbitrary_flags(), rotation_system_flags(), ebr_flags(), solid_flags())


@settings(max_examples=400)
@given(FLAG_INPUTS)
def test_flagmap_agrees_with_composed_permutations(perms):
    expected = flagmap_error_reference(*perms)
    try:
        m = FlagMap(*perms)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    n = m.flag_count
    assert m.edge_orbits() == orbits_by_walk(n, (m.s0, m.s2))
    assert m.vertex_orbits() == orbits_by_walk(n, (m.s1, m.s2))
    assert m.face_orbits() == orbits_by_walk(n, (m.s0, m.s1))
    fast = is_alternate_edge_colourable(m)
    slow = colouring_by_flag_scan(m)
    assert fast == slow
    assert fast is None or list(fast.items()) == list(slow.items())


def test_flagmap_property_inputs_reach_every_verdict():
    """The strategies above are not vacuous: every refusal, and both
    colourability verdicts, occur among examples drawn the same way."""
    verdicts = set()

    @settings(max_examples=400, database=None)
    @given(FLAG_INPUTS)
    def collect(perms):
        expected = flagmap_error_reference(*perms)
        if expected is None:
            expected = is_alternate_edge_colourable(FlagMap(*perms)) is not None
        verdicts.add(expected)

    collect()
    assert verdicts == {True, False, "flag permutations must share one degree",
                        "s0 is not an involution", "s1 is not an involution",
                        "s2 is not an involution", "s0*s2 is not an involution",
                        "s0*s2 has fixed points (semi-edge or boundary)",
                        "flag system is disconnected"}
