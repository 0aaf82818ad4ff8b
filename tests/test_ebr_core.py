from fractions import Fraction

import pytest

from ebrmaps import (
    BoundaryMapError,
    EdgeBiregularMap,
    InvalidMapError,
    Permutation,
    are_isomorphic,
    closure,
    construction1,
    construction3,
    dihedral_map,
    klein,
    regular_catalog,
    sphere_family,
    torus_rect,
)
from conftest import automorphism_by_full_table, euler_formula, orientable_by_even_subgroup


def klein_four():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    return closure([a, b], names=["x", "y"]), a, b


def dihedral_eight():
    s = Permutation((0, 3, 2, 1))
    t = Permutation((1, 0, 3, 2))
    return closure([s, t], names=["s", "t"]), s, t


def sample_maps():
    return [
        torus_rect(1, 1),
        torus_rect(2, 3),
        torus_rect(3, 3),
        klein(3, 1),
        klein(2, 2),
        dihedral_map(4, 1),
        dihedral_map(4, 3),
        dihedral_map(6, 2),
        dihedral_map(6, 4),
        sphere_family("cycle", 3),
        sphere_family("dipole", 2),
        sphere_family("dipole", 2, rpp=True),
        sphere_family("semistar", 3),
        construction3(regular_catalog("tetrahedron")),
    ]


# -- validation -------------------------------------------------------------

def test_klein_four_digonal_map():
    g, x, y = klein_four()
    m = EdgeBiregularMap(g, x, y, x, y)
    # r0 = rho0 forces digonal faces; here the vertex stabiliser collapses too
    assert m.face_length() == 2
    assert m.vertex_valency() == 2
    inv = m.invariants()
    assert (inv.V, inv.F, inv.chi) == (2, 2, 2)
    assert inv.fully_regular


def test_dihedral_row_one_is_valid_proper_map():
    m = dihedral_map(4, 1)
    assert m.is_proper
    assert m.has_distinct_generators()


def test_non_involution_slot_rejected():
    g, s, t = dihedral_eight()
    rot = s * t  # order 4
    with pytest.raises(InvalidMapError, match="involution"):
        EdgeBiregularMap(g, rot, t, s, t)


def test_identity_slot_rejected():
    g, s, t = dihedral_eight()
    with pytest.raises(InvalidMapError, match="involution"):
        EdgeBiregularMap(g, Permutation.identity(4), t, s, t)


def test_non_commuting_pair_rejected():
    g, s, t = dihedral_eight()
    with pytest.raises(InvalidMapError, match="commute"):
        EdgeBiregularMap(g, s, t, s, t)  # (s t)^2 != 1


def test_non_generating_slots_rejected():
    g, s, t = dihedral_eight()
    z = (s * t) * (s * t)
    with pytest.raises(InvalidMapError, match="generate"):
        EdgeBiregularMap(g, s, s * z, s, s * z)


def test_fewer_than_two_slots_rejected():
    g, x, y = klein_four()
    with pytest.raises(InvalidMapError, match="fewer than two"):
        EdgeBiregularMap(g, x, None, None, None)


def test_foreign_element_rejected():
    g, x, y = klein_four()
    with pytest.raises(InvalidMapError):
        EdgeBiregularMap(g, Permutation((2, 3, 0, 1)), x, y, x)
    with pytest.raises(InvalidMapError):
        EdgeBiregularMap(g, g.order, x, y, x)  # index out of range


def test_degeneracy_classification():
    g, x, y = klein_four()
    assert EdgeBiregularMap(g, x, y, x, y).degeneracy_class == "proper"
    by_index = EdgeBiregularMap(g, g.index(x), g.index(y), g.index(x), g.index(y))
    assert by_index == EdgeBiregularMap(g, x, y, x, y) and by_index.slots == (x, y, x, y)
    assert sphere_family("semistar", 3).degeneracy_class == "semistar"
    c3 = construction3(regular_catalog("tetrahedron"))
    assert c3.degeneracy_class == "unshaded_semi"
    assert c3.twin().degeneracy_class == "shaded_semi"
    assert construction1(regular_catalog("tetrahedron")).degeneracy_class == "boundary"


# -- invariants ---------------------------------------------------------------

def test_dihedral_row_one_m4_invariants():
    inv = dihedral_map(4, 1).invariants()
    assert (inv.k, inv.l) == (8, 8)
    assert (inv.V, inv.F, inv.chi) == (1, 1, -2)
    assert inv.fully_regular and inv.orientable
    assert inv.genus == 2


def test_construction3_cube_invariants():
    inv = construction3(regular_catalog("cube")).invariants()
    assert (inv.k, inv.l) == (6, 8)
    assert (inv.V, inv.F) == (8, 6)
    assert inv.shaded_edges.count == 12 and inv.shaded_edges.kind == "proper"
    assert inv.unshaded_edges.count == 24 and inv.unshaded_edges.kind == "semi"
    assert inv.chi == 2 and inv.orientable


def test_semistar_invariants():
    inv = sphere_family("semistar", 3).invariants()
    assert (inv.V, inv.F, inv.chi) == (1, 1, 2)
    assert inv.shaded_edges.kind == "semi" and inv.unshaded_edges.kind == "semi"
    assert not inv.proper and not inv.distinct_generators


def test_euler_identity_for_proper_maps():
    for m in sample_maps():
        inv = m.invariants()
        if inv.proper and inv.distinct_generators:
            assert Fraction(inv.chi) == euler_formula(inv.order, inv.k, inv.l)


def test_boundary_maps_have_no_invariants():
    b = construction1(regular_catalog("tetrahedron"))
    with pytest.raises(BoundaryMapError):
        b.invariants()
    report = b.boundary_report()
    assert report["order"] == 24
    assert report["boundary_type"] == "a"
    assert report["absent_slots"] == ["rho2"]
    assert report["l"] == 6 and report["k"] is None


def test_orientability_matches_even_subgroup_oracle():
    for m in sample_maps():
        assert m.is_orientable() == orientable_by_even_subgroup(m)


def test_klein_maps_are_non_orientable():
    assert not klein(3, 1).is_orientable()
    assert not klein(3, 2).is_orientable()


# -- twin and dual ------------------------------------------------------------

def test_twin_is_an_involution():
    for m in sample_maps():
        assert m.twin().twin() == m


def test_twin_swaps_colour_roles():
    m = construction3(regular_catalog("cube"))
    t = m.twin()
    inv = t.invariants()
    assert inv.shaded_edges == m.invariants().unshaded_edges
    assert inv.unshaded_edges == m.invariants().shaded_edges
    assert inv.chi == m.invariants().chi


def test_dual_is_an_involution_and_preserves_chi():
    for m in sample_maps():
        d = m.dual()
        assert d.dual() == m
        assert d.invariants().chi == m.invariants().chi
        assert d.map_type() == m.map_type()[::-1]


def test_twin_and_dual_commute():
    for m in sample_maps():
        assert m.twin().dual() == m.dual().twin()


# -- full regularity and isomorphism -------------------------------------------

def test_fully_regular_square_lattice_only():
    assert torus_rect(3, 3).is_fully_regular()
    assert not torus_rect(4, 3).is_fully_regular()
    assert not klein(5, 1).is_fully_regular()


def test_fully_regular_agrees_with_full_table_oracle():
    for m in sample_maps():
        idx = list(m.slot_indices)
        swapped = [idx[2], idx[3], idx[0], idx[1]]
        oracle = automorphism_by_full_table(m.group, idx, swapped) is not None
        assert m.is_fully_regular() == oracle


def test_isomorphic_to_itself():
    m = torus_rect(2, 3)
    assert are_isomorphic(m, m)


def test_twin_isomorphism_iff_fully_regular():
    for m in sample_maps():
        assert are_isomorphic(m, m.twin()) == m.is_fully_regular()


def test_rect_maps_isomorphic_after_dual_only():
    a = torus_rect(4, 3)
    b = torus_rect(3, 4)
    assert not are_isomorphic(a, b)
    assert are_isomorphic(a, b.dual())


def test_conjugate_maps_are_isomorphic():
    # Relabelling the distinguished corner conjugates every slot element and
    # must never change the isomorphism class.
    for m in (torus_rect(3, 2), dihedral_map(6, 3), klein(2, 2)):
        g = m.group
        for by in (1, g.order // 2, g.order - 1):
            conj = [g.element(g.mul(g.mul(g.inv(by), s), by))
                    for s in m.slot_indices]
            assert are_isomorphic(m, EdgeBiregularMap(g, *conj))


def test_mismatched_slot_patterns_rejected():
    closed = torus_rect(2, 2)
    boundary = construction1(regular_catalog("tetrahedron"))
    with pytest.raises(ValueError, match="slot patterns"):
        are_isomorphic(closed, boundary)


def test_digon_degeneracy_is_fully_regular():
    for m in (sphere_family("dipole", 2), sphere_family("dipole", 3),
              sphere_family("dipole", 4, rpp=True)):
        assert m.face_length() == 2
        assert m.is_fully_regular()


# -- monodromy -----------------------------------------------------------------

def test_monodromy_generators_are_involutions():
    m = torus_rect(2, 2)
    for p in m.monodromy():
        assert not p.is_identity() and (p * p).is_identity()


def test_monodromy_commutes_with_left_action():
    for m in (torus_rect(2, 2), dihedral_map(4, 3), sphere_family("cycle", 2)):
        right = m.monodromy()
        left = m.left_action()
        for lam in left:
            for rho in right:
                assert lam * rho == rho * lam


def test_monodromy_group_is_regular_of_order_h():
    for m in (torus_rect(2, 3), dihedral_map(6, 2)):
        right_group = closure(list(set(m.monodromy())))
        assert right_group.order == m.group.order
        # transitivity: the orbit of corner 0 covers all corners
        seen = {0}
        frontier = [0]
        while frontier:
            c = frontier.pop()
            for p in right_group.generators:
                if p(c) not in seen:
                    seen.add(p(c))
                    frontier.append(p(c))
        assert len(seen) == m.group.order


def test_chi_parity_and_genus_consistency():
    for m in sample_maps():
        inv = m.invariants()
        if inv.orientable:
            assert inv.chi % 2 == 0
            assert inv.chi == 2 - 2 * inv.genus
        else:
            assert inv.chi == 2 - inv.genus
            assert inv.genus >= 1


def test_semi_edge_chi_invariant_under_twin():
    for m in (construction3(regular_catalog("cube")),
              construction3(regular_catalog("hosohedron:4"))):
        assert m.twin().chi() == m.chi()
