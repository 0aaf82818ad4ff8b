"""Oracle cross-checks for the index core of FiniteGroup: every product,
order and inverse read off the generator columns must agree with composing
the elements as permutations, coset enumeration must hand over exactly the
group that closure of its generator permutations builds, and Cayley forms
must agree with the word-translation reference for isomorphism."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ebrmaps import (
    EdgeBiregularMap,
    GroupPresentation,
    are_isomorphic,
    catalog_group,
    catalog_names,
    classify_report,
    closure,
    coset_enumerate,
    dihedral_map,
    dihedral_presentation,
    ebr_type_presentation,
    enumerate_ebr,
    extend_generator_map,
    klein,
    sphere_family,
    torus_rect,
    torus_rhombic,
    triangle_group,
)
from ebrmaps.perm_group import cayley_form
from conftest import (all_valid_quadruples, pairwise_class_sizes, random_quotients,
                      subgroup_reference, translate_reference)


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


def _element_groups():
    """Closure-built groups (one regular, two not), coset-enumerated groups
    (random quotients of the (3, 4) triangle group and one with generators of
    order 4) and written-down groups."""
    from ebrmaps import Permutation, parse_presentation

    groups = [closure([Permutation((1, 2, 0, 3)), Permutation((1, 0, 2, 3))]),  # S3 on 4 points
              closure([Permutation((1, 2, 3, 0)), Permutation((1, 0, 2, 3))]),  # S4 on 4 points
              closure(list(catalog_group("dih:10").generators))]
    groups += [coset_enumerate(pres, max_cosets=2000) for pres in random_quotients(6)]
    groups.append(coset_enumerate(parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")))
    groups += [catalog_group("dihxc2:12"), torus_rect(3, 4).group, klein(3, 2).group]
    return groups


ELEMENT_GROUPS = _element_groups()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_elements_products_and_generators_agree_with_the_columns(data):
    group = data.draw(st.sampled_from(ELEMENT_GROUPS))
    i, j = (data.draw(st.integers(0, group.order - 1)) for _ in range(2))
    assert group.element(i) * group.element(j) == group.element(group.mul(i, j))
    assert group.index(group.element(i)) == i
    g = data.draw(st.integers(0, len(group.columns) - 1))
    assert group.generators[g] == group.element(group.columns[g][0])


def test_written_down_and_enumerated_groups_build_no_permutation(monkeypatch):
    from ebrmaps import Permutation, regular_catalog

    def refuse(self, images):
        raise AssertionError("a Permutation was built")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    assert torus_rect(8, 8).group.order == 256
    assert catalog_group("dihxc2:12").order == 24
    assert regular_catalog("torus44:3:3-rect").group.order == 72
    assert coset_enumerate(triangle_group(3, 4)).order == 48


CLASSIFIED = {
    "dihxc2:12 sweep": lambda: enumerate_ebr(catalog_group("dihxc2:12"), require_proper=True),
    "dihedral_map(100,1)": lambda: [dihedral_map(100, 1)],
    "torus_rect(6,6)": lambda: [torus_rect(6, 6)],
}


@pytest.mark.parametrize("name", sorted(CLASSIFIED))
def test_classification_lists_no_automorphisms(name):
    maps = CLASSIFIED[name]()
    report = classify_report(maps)
    assert [c.class_size for c in report.classes] == pairwise_class_sizes(maps)

    # Nothing holds on to the group once the caller drops it.
    ref = weakref.ref(maps[0].group)
    del maps, report
    gc.collect()
    assert ref() is None


def quads_against_representatives(group):
    """Every valid quadruple paired, in both directions, with the least
    quadruple of each automorphism class."""
    quads = all_valid_quadruples(group)
    reps = [m.slot_indices for m in enumerate_ebr(group)]
    return [(a, b) for rep in reps for q in quads for a, b in ((rep, q), (q, rep))]


@pytest.mark.parametrize("name", ["c2^3", "dih:12", "dihxc2:6"])
def test_extension_matches_word_translation_reference(name):
    group = catalog_group(name)
    outcomes = set()
    for src, dst in quads_against_representatives(group):
        images = extend_generator_map(group, src, dst)
        assert images == translate_reference(group, src, group, dst)
        outcomes.add(images is None)
    assert outcomes == {True, False}


def test_extension_matches_reference_on_sampled_torus_quads():
    m = torus_rect(4, 4)
    group = m.group
    rng = random.Random(4)
    invs = group.involution_indices()
    quads = [m.slot_indices]
    while len(quads) < 40:
        r0, r2, p0, p2 = (rng.choice(invs) for _ in range(4))
        if (group.mul(r0, r2) == group.mul(r2, r0) and group.mul(p0, p2) == group.mul(p2, p0)
                and group.subgroup_order([r0, r2, p0, p2]) == group.order):
            quads.append((r0, r2, p0, p2))
    outcomes = set()
    for src in quads:
        x = rng.randrange(group.order)
        conjugate = tuple(group.mul(group.mul(group.inv(x), s), x) for s in src)
        for dst in [conjugate] + rng.sample(quads, 10):
            images = extend_generator_map(group, src, dst)
            assert images == translate_reference(group, src, group, dst)
            outcomes.add(images is None)
    assert outcomes == {True, False}


# Dihedral of order 12 three ways: D12 by closure, D6 x C2 by closure, and
# coset-enumerated; and a non-isomorphic group of order 8.
FORM_GROUPS = {
    "dih:12": catalog_group("dih:12"),
    "dihxc2:6": catalog_group("dihxc2:6"),
    "presented": coset_enumerate(dihedral_presentation(6)),
    "c2^3": catalog_group("c2^3"),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equal_cayley_forms_iff_the_reference_finds_an_isomorphism(data):
    names = sorted(FORM_GROUPS)
    src_group = FORM_GROUPS[data.draw(st.sampled_from(names))]
    dst_group = FORM_GROUPS[data.draw(st.sampled_from(names))]
    elements = st.integers(0, src_group.order - 1)
    gens = [col[0] for col in src_group.columns]
    src = data.draw(st.permutations(gens + data.draw(st.lists(elements, max_size=2))))
    if dst_group is src_group and data.draw(st.booleans()):
        x = data.draw(elements)  # conjugation: an automorphism
        dst = [src_group.mul(src_group.mul(src_group.inv(x), s), x) for s in src]
    else:
        dst = data.draw(st.lists(st.integers(0, dst_group.order - 1),
                                 min_size=len(src), max_size=len(src)))
    reference = (src_group.order == dst_group.order
                 and translate_reference(src_group, src, dst_group, dst) is not None)
    assert cayley_form(src_group, src)[0] == subgroup_reference(src_group, src)
    assert (cayley_form(src_group, src)[1] == cayley_form(dst_group, dst)[1]) == reference


# The dihedral group of order 12 built twice, written down and coset-enumerated;
# each copy's valid quadruples; and an isomorphism from each copy to each,
# generator to generator, found by the word-translation reference.
DIHEDRAL_COPIES = (catalog_group("dih:12"), coset_enumerate(dihedral_presentation(6)))
COPY_QUADS = [all_valid_quadruples(group) for group in DIHEDRAL_COPIES]
COPY_ISOMORPHISMS = [[translate_reference(g, [col[0] for col in g.columns],
                                          h, [col[0] for col in h.columns])
                      for h in DIHEDRAL_COPIES] for g in DIHEDRAL_COPIES]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_are_isomorphic_matches_the_reference_across_copies_of_a_group(data):
    i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    src_group, dst_group = DIHEDRAL_COPIES[i], DIHEDRAL_COPIES[j]
    src = data.draw(st.sampled_from(COPY_QUADS[i]))
    if data.draw(st.booleans()):
        # The image under the isomorphism, then conjugation: isomorphic maps.
        x = data.draw(st.integers(0, dst_group.order - 1))
        dst = tuple(dst_group.mul(dst_group.mul(dst_group.inv(x), COPY_ISOMORPHISMS[i][j][s]), x)
                    for s in src)
    else:
        dst = data.draw(st.sampled_from(COPY_QUADS[j]))
    reference = translate_reference(src_group, src, dst_group, dst) is not None
    assert are_isomorphic(EdgeBiregularMap(src_group, *src),
                          EdgeBiregularMap(dst_group, *dst)) == reference


def test_order_ten_thousand_torus_is_analysed_from_the_columns():
    m = torus_rect(50, 50)
    inv = m.invariants()
    assert (inv.order, inv.k, inv.l, inv.chi, inv.fully_regular) == (10000, 4, 4, 0, True)
    assert m.slots == tuple(m.group.generators)
