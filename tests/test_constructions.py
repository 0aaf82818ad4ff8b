import pytest

from ebrmaps import (
    EdgeBiregularMap,
    RegularMap,
    catalog_group,
    construction1,
    construction2,
    construction3,
    construction4,
    enumerate_ebr,
    regular_catalog,
    sphere_family,
    torus_rect,
    underlying_regular,
)
from ebrmaps.perm_group import Permutation
from conftest import automorphism_by_full_table, regular_counts, regular_isomorphic_reference

PLATONIC = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]

# Whether construction 3 output is fully regular, per catalog entry.  The
# values were computed by the full-multiplication-table automorphism oracle
# (see test_construction3_regularity_fixture): the slot swap would have to
# identify the two distinct generators r0 and r2, so none of these are.
CONSTRUCTION3_FULLY_REGULAR = {
    "tetrahedron": False,
    "cube": False,
    "octahedron": False,
    "dodecahedron": False,
    "icosahedron": False,
    "hosohedron:3": False,
    "hosohedron:4": False,
    "dihedron:3": False,
    "dihedron:4": False,
    "torus44:2:2-rect": False,
}


def test_regular_map_validation():
    g = catalog_group("dih:8")
    a, b = g.generator("a"), g.generator("b")
    z = g.element(g.mul(g.mul(g.index(a), g.index(b)),
                        g.mul(g.index(a), g.index(b))))
    with pytest.raises(ValueError, match="commute"):
        RegularMap(g, a, b, a)        # (a b)^2 != 1
    with pytest.raises(ValueError, match="generate"):
        RegularMap(g, a, z, a)
    with pytest.raises(ValueError, match="involution"):
        RegularMap(g, Permutation.identity(g.degree), b, a)
    with pytest.raises(ValueError, match="rho0 is not an involution"):
        RegularMap(g, a, b, Permutation.identity(g.degree))


def test_construction1_cube():
    m = construction1(regular_catalog("cube"))
    report = m.boundary_report()
    assert report["order"] == 48
    assert report["absent_slots"] == ["rho2"]
    assert report["boundary_type"] == "a"
    assert report["l"] == 8  # faces opened up to twice the original length


def test_construction1_tetrahedron():
    report = construction1(regular_catalog("tetrahedron")).boundary_report()
    assert report["l"] == 6


def test_construction2_cube():
    m = construction2(regular_catalog("cube"))
    report = m.boundary_report()
    assert report["order"] == 48
    assert report["absent_slots"] == ["rho0"]
    assert report["boundary_type"] == "d"
    assert m.slot_indices[3] == m.group.index(regular_catalog("cube").r1)


def test_construction2_is_twin_partner_shape_of_construction1():
    r = regular_catalog("tetrahedron")
    # boundary letters: absent rho2 is type a; its twin has absent r2, type b
    assert construction1(r).twin().boundary_type == "b"
    assert construction2(r).twin().boundary_type == "c"


@pytest.mark.parametrize("name", PLATONIC)
def test_round_trips_on_platonic_maps(name):
    r = regular_catalog(name)
    for build in (construction1, construction2, construction3):
        back = underlying_regular(build(r))
        assert regular_isomorphic_reference(back, r)


@pytest.mark.parametrize("name,expected", [
    ("cube", (6, 8)),
    ("icosahedron", (10, 6)),
    ("tetrahedron", (6, 6)),
    ("octahedron", (8, 6)),
    ("dodecahedron", (6, 10)),
    ("hosohedron:3", (6, 4)),
    ("hosohedron:5", (10, 4)),
    ("dihedron:4", (4, 8)),
    ("torus44:2:2-rect", (8, 8)),
])
def test_construction3_doubles_the_type(name, expected):
    r = regular_catalog(name)
    inv = construction3(r).invariants()
    counts = regular_counts(r)
    assert (inv.k, inv.l) == expected == (2 * counts.k, 2 * counts.l)


@pytest.mark.parametrize("name", PLATONIC + ["hosohedron:4", "dihedron:3",
                                             "torus44:2:2-rect"])
def test_construction3_preserves_chi_v_f(name):
    r = regular_catalog(name)
    inv = construction3(r).invariants()
    counts = regular_counts(r)
    assert inv.chi == counts.chi
    assert inv.V == counts.V
    assert inv.F == counts.F
    assert inv.edges_shaded.count == counts.E


def test_construction3_regularity_fixture():
    for name, expected in CONSTRUCTION3_FULLY_REGULAR.items():
        m = construction3(regular_catalog(name))
        assert m.invariants().fully_regular == expected
        idx = list(m.slot_indices)
        oracle = automorphism_by_full_table(
            m.group, idx, [idx[2], idx[3], idx[0], idx[1]]) is not None
        assert oracle == expected


def test_construction4_on_hosohedron():
    r = regular_catalog("hosohedron:3")
    m = construction4(r)
    inv = m.invariants()
    assert inv.chi == 2
    assert inv.l == 2
    assert inv.fully_regular
    assert m.slot_indices[0] == m.slot_indices[2]  # r0 == rho0


def test_construction4_round_trip_through_projective_dipole():
    # underlying_regular of the projective single-vertex digonal map is a
    # digonal regular map with chi 1; construction 4 rebuilds the same map.
    m = sphere_family("dipole", 4, rpp=True)
    r = underlying_regular(m)
    assert regular_counts(r).l == 2
    assert regular_counts(r).chi == 1
    rebuilt = construction4(r)
    assert rebuilt.slot_indices == m.slot_indices
    assert rebuilt.invariants().chi == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_construction4_outputs_are_digonal_and_fully_regular(m):
    out = construction4(regular_catalog(f"hosohedron:{m}"))
    inv = out.invariants()
    assert inv.l == 2
    assert inv.fully_regular
    assert are_isomorphic_to_dipole(out, m)


def are_isomorphic_to_dipole(m_out, m):
    from ebrmaps import are_isomorphic
    return are_isomorphic(m_out, sphere_family("dipole", m))


def test_construction4_rejects_non_digonal_faces():
    with pytest.raises(ValueError, match="digonal"):
        construction4(regular_catalog("cube"))


def test_underlying_regular_rejects_generic_maps():
    with pytest.raises(ValueError, match="construction shape"):
        underlying_regular(torus_rect(4, 3))
    # Fully regular, but its four slots are distinct and none is absent.
    with pytest.raises(ValueError, match="construction shape"):
        underlying_regular(torus_rect(2, 2))
    with pytest.raises(ValueError, match="construction shape"):
        underlying_regular(sphere_family("semistar", 3))
    # Two absent slots, and an absent r0.
    group = catalog_group("c2^2")
    t0, t1 = group.generator("t0"), group.generator("t1")
    for slots in ((t0, t1, None, None), (None, t1, t0, t1)):
        with pytest.raises(ValueError, match="construction shape"):
            underlying_regular(EdgeBiregularMap(group, *slots))


def test_loop_edge_coincidence_forces_torus_or_klein():
    # Maps with r0 == rho2 (the shaded edges are loops) of type (4,4) live on
    # chi 0 and are orientable exactly when r0 lies outside <r2, rho0>.
    found_orientable = found_nonorientable = False
    for name in ("dih:8", "dih:16", "dihxc2:8", "dihxc2:12"):
        g = catalog_group(name)
        for m in enumerate_ebr(g, require_proper=True):
            r0, r2, rho0, rho2 = m.slot_indices
            inv = m.invariants()
            if r0 != rho2 or (inv.k, inv.l) != (4, 4):
                continue
            assert inv.chi == 0
            inside = r0 in g.subgroup_indices([r2, rho0])
            assert inv.orientable == (not inside)
            found_orientable |= inv.orientable
            found_nonorientable |= not inv.orientable
    assert found_orientable and found_nonorientable
