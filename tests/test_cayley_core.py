"""Oracle cross-checks for the index core of FiniteGroup: every product,
order and inverse read off the generator columns must agree with composing
the elements as permutations, and coset enumeration must hand over exactly
the group that closure of its generator permutations builds."""

import gc
import weakref

import pytest

from ebrmaps import (
    GroupPresentation,
    catalog_group,
    catalog_names,
    classify_report,
    closure,
    coset_enumerate,
    dihedral_map,
    dihedral_presentation,
    ebr_type_presentation,
    enumerate_ebr,
    klein,
    sphere_family,
    torus_rect,
    torus_rhombic,
    triangle_group,
)
from ebrmaps import enumeration


def assert_matches_permutations(group):
    els = group.elements
    index = {p: i for i, p in enumerate(els)}
    assert len(index) == group.order and els[0].is_identity()
    for i, p in enumerate(els):
        assert [group.mul(i, j) for j in range(group.order)] == [index[p * q] for q in els]
        assert group.element_order(i) == p.order()
        assert group.inv(i) == index[p.inverse()]
        assert group.index(p) == i


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_group_products_match_permutations(name):
    assert_matches_permutations(catalog_group(name))


FAMILY_MAPS = {
    "torus_rect(2,3)": lambda: torus_rect(2, 3),
    "torus_rect(8,8)": lambda: torus_rect(8, 8),
    "torus_rhombic(1,2)": lambda: torus_rhombic(1, 2),
    "torus_rhombic(2,4)": lambda: torus_rhombic(2, 4),
    "klein(3,1)": lambda: klein(3, 1),
    "klein(32,2)": lambda: klein(32, 2),
    "dihedral_map(6,2)": lambda: dihedral_map(6, 2),
    "dihedral_map(10,4)": lambda: dihedral_map(10, 4),
    "dihedral_map(128,3)": lambda: dihedral_map(128, 3),
    "cycle(5)": lambda: sphere_family("cycle", 5),
    "dipole(1)": lambda: sphere_family("dipole", 1),
    "dipole(4,rpp)": lambda: sphere_family("dipole", 4, rpp=True),
    "semistar(7)": lambda: sphere_family("semistar", 7),
    "semistar(128)": lambda: sphere_family("semistar", 128),
}


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
def test_family_group_products_match_permutations(name):
    m = FAMILY_MAPS[name]()
    assert m.group.order <= 256
    assert_matches_permutations(m.group)
    assert m.slots == tuple(m.group.element(i) for i in m.slot_indices)


def torus_quotient(a, c):
    base = ebr_type_presentation(4, 4)
    extra = (tuple([(0, 1), (3, 1)] * a), tuple([(1, 1), (2, 1)] * c))
    return GroupPresentation(base.generator_names, base.relators + extra)


PRESENTATIONS = {
    "dihedral(1)": dihedral_presentation(1),
    "dihedral(9)": dihedral_presentation(9),
    "dihedral(40)": dihedral_presentation(40),
    "triangle(3,5)": triangle_group(3, 5),
    "torus(3,4)": torus_quotient(3, 4),
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_coset_enumeration_hands_over_the_closure_group(name):
    g = coset_enumerate(PRESENTATIONS[name], max_cosets=5000)
    reference = closure(list(g.generators), names=g.generator_names)
    assert g.order == g.degree == reference.order
    # element(i) walks the tree without listing every element first.
    assert [g.element(i) for i in range(g.order)] == list(reference.elements)
    assert g.elements == reference.elements
    assert g.columns == reference.columns
    assert_matches_permutations(g)


def test_automorphisms_are_listed_once_per_group(monkeypatch):
    calls = []
    original = enumeration.extend_generator_map

    def counting(group, src, dst):
        calls.append(len(src))
        return original(group, src, dst)

    monkeypatch.setattr(enumeration, "extend_generator_map", counting)
    group = catalog_group("dihxc2:12")
    maps = enumerate_ebr(group, require_proper=True)
    listed = len(calls)
    assert listed > 0
    classify_report(maps)
    assert len(calls) == listed

    # The cache holds its groups weakly: a dropped group is collected.
    ref = weakref.ref(group)
    del group, maps
    gc.collect()
    assert ref() is None


def test_order_ten_thousand_torus_is_analysed_from_the_columns():
    m = torus_rect(50, 50)
    inv = m.invariants()
    assert (inv.order, inv.k, inv.l, inv.chi, inv.fully_regular) == (10000, 4, 4, 0, True)
    assert m.slots == tuple(m.group.generators)
