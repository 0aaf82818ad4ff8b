import io
import json
import os
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ebrmaps.flag_maps as flag_maps
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
    save_flagmap,
    sphere_family,
    torus_rect,
)
from ebrmaps.cli import main
from conftest import (FIXTURE_DIR, all_valid_quadruples, colouring_by_flag_scan,
                      edge_orbits_by_listing, flag_involutions, flagmap_documents, flagmap_error_reference,
                      flagmap_refusal_reference, load_flagmap_reference, orbits_by_walk,
                      outcome, rotation_system_reference, rotation_systems)

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
    assert closure([Permutation(m.s0), Permutation(m.s1), Permutation(m.s2)]).order == 48


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
    swap = (1, 0, 3, 2)
    three_cycle = (1, 2, 0, 3)
    with pytest.raises(ValueError, match="involution"):
        FlagMap(three_cycle, swap, swap)
    # s0 == s2 makes s0*s2 the identity, which has fixed points
    with pytest.raises(ValueError, match="fixed points"):
        FlagMap(swap, swap, swap)
    with pytest.raises(ValueError, match="disconnected"):
        FlagMap(Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)]).images,
                tuple(range(8)),
                Permutation.from_cycles(8, [(0, 3), (1, 2), (4, 7), (5, 6)]).images)


@pytest.mark.parametrize("entry", [-1, 4, -4, 2 ** 70])
def test_flagmap_refuses_an_entry_out_of_range(entry):
    """An entry of -1 would index the last flag, so it is refused, as n is;
    so are -4, which wraps to flag 0, and an entry too large for an index."""
    swap = (1, 0, 3, 2)
    with pytest.raises(ValueError, match=r"^flag map key 's2' has an entry outside 0\.\.3$"):
        FlagMap(swap, swap, (2, 3, entry, 1))


def test_flagmap_refuses_an_in_range_float_with_type_error():
    swap = (1, 0, 3, 2)
    with pytest.raises(TypeError):
        FlagMap((1.0, 0, 3, 2), swap, (2, 3, 0, 1))


def test_rotation_system_validation():
    with pytest.raises(ValueError, match="cover"):
        rotation_system_to_flagmap([[0, 1], [1]], [1, 0])
    with pytest.raises(ValueError, match="fixed-point-free"):
        rotation_system_to_flagmap([[0], [1]], [0, 1])
    for pairing in ([2, 0], [5, 0], [1, -1], [-1, 0]):
        with pytest.raises(ValueError, match=r"edge_pairing entries must lie in 0\.\.1"):
            rotation_system_to_flagmap([[0, 1]], pairing)


def test_save_load_round_trip(tmp_path, sphere_flagmap):
    path = tmp_path / "roundtrip.json"
    save_flagmap(sphere_flagmap, str(path), comment="round trip")
    loaded = load_flagmap(str(path))
    assert loaded.to_json_dict() == sphere_flagmap.to_json_dict()


def test_empty_flag_map_is_refused():
    with pytest.raises(ValueError, match="^flag system is disconnected$"):
        FlagMap((), (), ())


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


FOUR_FLAGS = {"flag_count": 4, "s0": [1, 0, 3, 2], "s1": [1, 0, 3, 2], "s2": [2, 3, 0, 1]}
RANGE_S2 = r"^flag map key 's2' has an entry outside 0\.\.3$"


@pytest.mark.parametrize("key, row, message", [
    ("s0", [True, False, 3, 2], "^flag map key 's0' must be a list of integers$"),
    ("s2", [2, 3, -4, 1], RANGE_S2),
    ("s2", [2, 3, 2 ** 70, 1], RANGE_S2),
    ("s1", [1, 2, 3, 0], "^s1 is not an involution$"),
], ids=["booleans-pass-the-involution-test", "wraps-to-flag-0", "too-large-to-index",
        "in-range-non-involution"])
def test_load_names_the_one_fault_of_a_four_flag_file(tmp_path, key, row, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(FOUR_FLAGS))
    assert load_flagmap(str(path)).to_json_dict() == FOUR_FLAGS
    path.write_text(json.dumps({**FOUR_FLAGS, key: row}))
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
        assert fast is None or list(fast.items()) == sorted(slow.items())
    assert any(is_alternate_edge_colourable(m) is None for m in maps)


def torus_grid(p, q, diagonal):
    """The p x q square grid on the torus as a rotation system: vertex (i, j)
    holds darts 4v, 4v + 1, 4v + 2, 4v + 3 pointing east, north, west and
    south.  With ``diagonal`` the face north-east of (p // 2, q // 2) is
    split by one more edge, whose two ends then have valency 5."""
    def dart(i, j, d):
        return 4 * ((i % p) * q + j % q) + d

    pairing = [0] * (4 * p * q)
    for i in range(p):
        for j in range(q):
            for a, b in ((dart(i, j, 0), dart(i + 1, j, 2)),
                         (dart(i, j, 1), dart(i, j + 1, 3))):
                pairing[a], pairing[b] = b, a
    rotations = [list(range(4 * v, 4 * v + 4)) for v in range(p * q)]
    if diagonal:
        a, b = len(pairing), len(pairing) + 1
        i, j = p // 2, q // 2
        rotations[dart(i, j, 0) // 4].insert(1, a)
        rotations[dart(i + 1, j + 1, 0) // 4].insert(3, b)
        pairing += [b, a]
    return rotations, pairing


@pytest.mark.parametrize("p, q", [(6, 8), (8, 12)])
@pytest.mark.parametrize("diagonal", [False, True], ids=["grid", "split"])
def test_colouring_matches_flag_scan_oracle_on_torus_grids(tmp_path, p, q, diagonal):
    m = rotation_system_to_flagmap(*torus_grid(p, q, diagonal))
    assert m.flag_count == 8 * p * q + 4 * diagonal
    assert m.chi() == 0
    path = tmp_path / "grid.json"
    save_flagmap(m, str(path))
    loaded = load_flagmap(str(path))
    assert loaded.to_json_dict() == m.to_json_dict()
    slow = colouring_by_flag_scan(m)
    assert (slow is None) == diagonal
    for fm in (m, loaded):
        fast = is_alternate_edge_colourable(fm)
        assert fast == slow
        assert fast is None or list(fast.items()) == sorted(slow.items())
        assert fm.edge_orbits() == orbits_by_walk(fm.flag_count, (fm.s0, fm.s2))


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
    """The image arrays of three permutations, mostly involutions, of
    degrees that mostly agree: they reach every refusal of the constructor,
    the empty map included."""
    n = draw(st.integers(0, 8))

    def perm():
        degree = draw(st.sampled_from([n] * 5 + [n + 1]))
        points = draw(st.permutations(range(degree)))
        if draw(st.integers(0, 5)) == 0:
            return tuple(points)
        images = list(range(degree))
        pairs = draw(st.integers(0, degree // 2))
        for a, b in zip(points[:2 * pairs:2], points[1:2 * pairs:2]):
            images[a], images[b] = b, a
        return tuple(images)

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
    assert fast is None or list(fast.items()) == sorted(slow.items())


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


# -- the loader and the constructor against their range-first references -------

@st.composite
def mutated_grids(draw):
    """The files of small torus grids, valid or with faults: booleans on the
    entries 0 and 1 of an array; entries moved to ``p[i] - n`` (a wrapped
    index), ``n``, ``2**70``, a float, null or any int in -n-1..n+1; a wrong
    count; a key dropped."""
    p, q, diagonal = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans())
    perms = flag_involutions(rotation_system_to_flagmap, *torus_grid(p, q, diagonal))
    n = len(perms[0])
    doc = {key: list(perm) for key, perm in zip(("s0", "s1", "s2"), perms)}
    if draw(st.booleans()):  # booleans where the values 0 and 1 sit in one array
        row = doc[draw(st.sampled_from(["s0", "s1", "s2"]))]
        for value in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            row[row.index(value)] = bool(value)
    for _ in range(draw(st.integers(0, 2))):
        row = doc[draw(st.sampled_from(["s0", "s1", "s2"]))]
        i = draw(st.sampled_from([j for j, x in enumerate(row) if type(x) is int]))
        fault = draw(st.sampled_from(["int"] * 4 + ["wrap", "n", "huge", "float", "null"]))
        row[i] = {"int": draw(st.integers(-n - 1, n + 1)), "wrap": row[i] - n, "n": n,
                  "huge": 2 ** 70, "float": float(row[i]), "null": None}[fault]
    doc["flag_count"] = draw(st.sampled_from([n] * 12 + [n + 1, float(n), None, True]))
    return {key: value for key, value in doc.items() if draw(st.sampled_from([1] * 15 + [0]))}


@settings(max_examples=300)
@given(st.one_of(flagmap_documents(), mutated_grids()))
def test_load_agrees_with_the_range_first_reference(tmp_path_factory, doc):
    path = str(tmp_path_factory.getbasetemp() / "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert outcome(load_flagmap, path) == outcome(load_flagmap_reference, path)


def test_mutated_grids_reach_every_verdict_of_the_loader(tmp_path_factory):
    """The grid strategy is not vacuous: valid files, every fault the loader
    names, and booleans in arrays that the constructor accepts all occur
    among examples drawn the same way."""
    verdicts = set()
    path = str(tmp_path_factory.getbasetemp() / "verdict.json")

    @settings(max_examples=300, database=None)
    @given(mutated_grids())
    def collect(doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        result = outcome(load_flagmap_reference, path)
        verdicts.add(re.sub(r"\d+", "N", result[1]) if result[0] is ValueError else "accepted")
        arrays = [doc.get(key) for key in ("s0", "s1", "s2")]
        if (all(isinstance(row, list) for row in arrays) and bool in map(type, sum(arrays, []))
                and flagmap_refusal_reference(*arrays) is None):
            verdicts.add("booleans in a flag map")

    collect()
    assert {"accepted", "booleans in a flag map",
            "flag map key 'sN' must be a list of integers",
            "flag map key 'sN' has an entry outside N..N", "sN is not an involution",
            "flag map file missing key 'sN'", "flag map file missing key 'flag_count'",
            "flag_count does not match the permutation arrays"} <= verdicts


@st.composite
def entry_mutated_flags(draw):
    """Constructor arguments: ``FLAG_INPUTS`` with a few entries replaced by
    ints in -n-1..n+1, booleans, floats or None, or booleans put on the
    entries 0 and 1; or three sequences of such entries."""
    perms = [list(perm) for perm in draw(FLAG_INPUTS)]
    n = len(perms[0])
    entry = st.integers(-n - 1, n + 1) | st.booleans() | st.floats(-n - 1, n + 1) | st.none()
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(3))
    if kind == 1:
        return tuple([bool(x) if x in (0, 1) else x for x in row] for row in perms)
    for _ in range(draw(st.integers(0, 3))):
        row = perms[draw(st.integers(0, 2))]
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(entry)
    return tuple(perms)


@settings(max_examples=400)
@given(entry_mutated_flags())
def test_flagmap_agrees_with_the_range_first_reference(perms):
    refusal = flagmap_refusal_reference(*perms)
    expected = tuple(map(tuple, perms)) if refusal is None else (type(refusal), str(refusal))
    assert outcome(FlagMap, *perms) == expected


def test_a_valid_file_is_accepted_without_the_scans_that_name_faults(tmp_path, monkeypatch):
    """Loading a valid 8,272-flag grid calls neither the range scan (``min``,
    ``max``) nor the per-entry type scan (``_flag_array``); a file with one
    entry out of range calls them to name its fault."""
    m = rotation_system_to_flagmap(*torus_grid(22, 47, False))
    assert m.flag_count == 8272
    path = tmp_path / "grid.json"
    save_flagmap(m, str(path))
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(flag_maps, "min", counted("min", min), raising=False)
    monkeypatch.setattr(flag_maps, "max", counted("max", max), raising=False)
    monkeypatch.setattr(flag_maps, "_flag_array", counted("_flag_array", flag_maps._flag_array))
    assert load_flagmap(str(path)).to_json_dict() == m.to_json_dict()
    assert calls == Counter()
    data = m.to_json_dict()
    data["s1"][5] = m.flag_count
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"^flag map key 's1' has an entry outside 0\.\.8271$"):
        load_flagmap(str(path))
    assert calls["min"] > 0 and calls["max"] > 0 and calls["_flag_array"] == 3


def test_the_walk_sorts_nothing_and_the_colouring_comes_back_ascending(tmp_path, monkeypatch):
    """Building the 8,272-flag grid, from its arrays and from its file, calls
    ``sorted``, ``min`` and ``max`` zero times; the colouring's keys then
    strictly increase, with 1,034 edges of each colour."""
    m = rotation_system_to_flagmap(*torus_grid(22, 47, False))
    assert m.flag_count == 8272
    path = tmp_path / "grid.json"
    save_flagmap(m, str(path))
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name, function in (("sorted", sorted), ("min", min), ("max", max)):
        monkeypatch.setattr(flag_maps, name, counted(name, function), raising=False)
    built = [FlagMap(m.s0, m.s1, m.s2), load_flagmap(str(path))]
    assert calls == Counter()
    colourings = [is_alternate_edge_colourable(fm) for fm in built]
    for colouring in colourings:
        keys = list(colouring)
        assert len(keys) == 2068 and all(map(int.__lt__, keys, keys[1:]))
        assert Counter(colouring.values()) == Counter({0: 1034, 1: 1034})
    assert colourings[0] == colourings[1]


def test_edge_orbits_keep_their_listing(torus_flagmap, sphere_flagmap, cube_flagmap):
    """Edges come out of the shared orbit walk as the constructor once listed
    them: from each least flag, then along, across, and along-then-across."""
    family = [torus_rect(3, 4), klein(3, 2), dihedral_map(12, 3),
              sphere_family("dipole", 4), sphere_family("dipole", 4, rpp=True)]
    flagmaps = [torus_flagmap, sphere_flagmap, cube_flagmap]
    flagmaps += [ebr_to_flagmap(m) for m in family]
    flagmaps += [load_flagmap(path) for path in (TORUS_FIXTURE, SPHERE_FIXTURE)]
    for fm in flagmaps:
        assert fm.edge_orbits() == edge_orbits_by_listing(fm)


# -- writing flag maps -----------------------------------------------------------

@pytest.mark.parametrize("path", [TORUS_FIXTURE, SPHERE_FIXTURE], ids=["torus", "sphere"])
def test_saving_a_fixture_map_with_its_comment_reproduces_the_file(tmp_path, path):
    with open(path, encoding="utf-8") as fh:
        comment = json.load(fh)["comment"]
    saved = tmp_path / "saved.json"
    save_flagmap(load_flagmap(path), str(saved), comment=comment)
    with open(path, "rb") as fh:
        assert saved.read_bytes() == fh.read()


COMMENTS = (st.none() | st.text(st.sampled_from('a "\\\n\t/\x7fé€\u2028😀'), max_size=8)
            | st.text(max_size=8))


@settings(max_examples=200)
@given(rotation_systems(), COMMENTS)
def test_save_writes_what_json_dump_writes(tmp_path_factory, system, comment):
    rotations, pairing = system
    try:
        m = rotation_system_to_flagmap(rotations, pairing)
    except ValueError:  # disconnected; one vertex holding every dart is connected
        m = rotation_system_to_flagmap([sum(rotations, [])], pairing)
    data = m.to_json_dict() if comment is None else {"comment": comment, **m.to_json_dict()}
    path = tmp_path_factory.getbasetemp() / "saved.json"
    save_flagmap(m, str(path), comment=comment)
    dumped = io.StringIO()
    json.dump(data, dumped, indent=1)
    assert path.read_bytes() == (dumped.getvalue() + "\n").encode("utf-8")


def test_a_map_with_boolean_entries_saves_a_file_that_loads_back(tmp_path):
    """The constructor accepts booleans where an array holds 0 and 1; the
    file holds them as ints, so the loader accepts it."""
    m = FlagMap((True, False, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    path = tmp_path / "booleans.json"
    save_flagmap(m, str(path))
    assert json.loads(path.read_text())["s0"] == [1, 0, 3, 2]
    loaded = load_flagmap(str(path))
    assert loaded.s0 == (1, 0, 3, 2) and {type(x) for x in loaded.s0} == {int}
    assert loaded.to_json_dict() == m.to_json_dict()


def test_saving_an_8272_flag_grid_peaks_below_256_kib(tmp_path):
    """The arrays go out in runs, byte for byte as ``json.dumps`` lays them
    out, and no string of a whole array is ever built."""
    m = rotation_system_to_flagmap(*torus_grid(22, 47, False))
    assert m.flag_count == 8272  # over eight runs per array
    tracemalloc.start()
    try:
        save_flagmap(m, str(tmp_path / "grid.json"), comment="22 x 47 grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    data = {"comment": "22 x 47 grid", **m.to_json_dict()}
    assert (tmp_path / "grid.json").read_text() == json.dumps(data, indent=1) + "\n"


@pytest.mark.parametrize("source", ["torus", "sphere", "grid", "split"])
def test_colourable_prints_what_json_dumps_prints(tmp_path, capsys, source):
    if source in ("torus", "sphere"):
        path = TORUS_FIXTURE if source == "torus" else SPHERE_FIXTURE
        m = load_flagmap(path)
    else:
        m = rotation_system_to_flagmap(*torus_grid(22, 47, source == "split"))
        path = str(tmp_path / "grid.json")
        save_flagmap(m, path)
    colouring = is_alternate_edge_colourable(m)
    report = {"colourable": colouring is not None}
    if colouring is not None:
        report["witness"] = [colouring[e] for e in sorted(colouring)]
    assert (colouring is None) == (source in ("torus", "split"))
    assert main(["colourable", "--flagmap", path]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


# -- the rotation-system converter against its per-flag reference -----------------

@st.composite
def faulty_rotation_systems(draw):
    """Random rotation systems, some rotations given as tuples, with at most
    one fault: a dart dropped from, repeated in or replaced in a rotation, a
    pairing entry replaced by any int in -2..n+1, or an extra pairing entry."""
    rotations, pairing = draw(rotation_systems(max_edges=4))
    rotations = [list(rot) for rot in rotations]
    n = len(pairing)
    rot = draw(st.sampled_from(rotations))
    fault = draw(st.sampled_from(["none"] * 3 + ["drop", "repeat", "dart", "pairing", "extra"]))
    if fault == "drop":
        rot.pop()
    elif fault == "repeat":
        rot.append(draw(st.integers(0, n - 1)))
    elif fault == "dart":
        rot[draw(st.integers(0, len(rot) - 1))] = draw(st.integers(-2, n + 1))
    elif fault == "pairing":
        pairing[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n + 1))
    elif fault == "extra":
        pairing.append(draw(st.integers(-1, n + 1)))
    return [tuple(r) if draw(st.booleans()) else r for r in rotations], pairing


def converted(convert, rotations, pairing):
    """The arrays ``convert`` hands to ``FlagMap``, or the message it raises."""
    try:
        return flag_involutions(convert, rotations, pairing)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400)
@given(faulty_rotation_systems())
def test_converter_matches_the_per_flag_reference(system):
    assert converted(rotation_system_to_flagmap, *system) == \
        converted(rotation_system_reference, *system)


@pytest.mark.parametrize("p, q, diagonal", [(1, 1, False), (3, 5, True), (22, 47, False)])
def test_converter_matches_the_per_flag_reference_on_torus_grids(p, q, diagonal):
    system = torus_grid(p, q, diagonal)
    assert converted(rotation_system_to_flagmap, *system) == \
        converted(rotation_system_reference, *system)


def test_faulty_rotation_systems_reach_every_verdict():
    """The strategy is not vacuous: every message of the converter, valid
    arrays and the constructor's refusal of a disconnected system occur."""
    verdicts = set()

    @settings(max_examples=400, database=None)
    @given(faulty_rotation_systems())
    def collect(system):
        result = outcome(rotation_system_reference, *system)
        verdicts.add(re.sub(r"\d+", "N", result[1]) if result[0] is ValueError else "accepted")

    collect()
    assert verdicts == {"accepted", "flag system is disconnected",
                        "rotations must cover each dart exactly once",
                        "edge_pairing entries must lie in N..N",
                        "edge_pairing must be a fixed-point-free involution"}
