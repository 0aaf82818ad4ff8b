import pytest
from hypothesis import given, strategies as st

from ebrmaps import (
    FiniteGroup,
    GroupTooLargeError,
    Permutation,
    catalog_group,
    catalog_names,
    closure,
    enumerate_ebr,
    extend_generator_map,
    is_dihedral,
)
from ebrmaps import enumeration
from ebrmaps.perm_group import orbits
from conftest import (SURVEY_GROUPS, commuting_pairs_by_right_rows, dihedral_by_rotation,
                      involutions_by_scan, orbits_by_union_find, orbits_by_walk,
                      right_translations_by_tree, subgroup_reference)


def square_symmetries():
    """Dihedral group of order 8 as symmetries of a square, generated by two
    reflections whose product is a quarter turn."""
    s = Permutation((0, 3, 2, 1))   # diagonal through vertices 0, 2
    t = Permutation((1, 0, 3, 2))   # edge midline between 0 and 1
    return closure([s, t], names=["s", "t"])


def test_identity_closure_is_trivial():
    g = closure([Permutation.identity(4)])
    assert g.order == 1
    assert g.elements[0].is_identity()
    assert repr(g.elements[0]) == "Permutation(identity, degree=4)"
    assert repr(g) == "FiniteGroup(order=1, degree=4, generators=[g0])"


def test_commuting_involutions_give_klein_four():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    g = closure([a, b])
    assert g.order == 4


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_two_reflections_generate_dihedral(m):
    s = Permutation((-i) % m for i in range(m))
    t = Permutation((1 - i) % m for i in range(m))
    assert (s * t).order() == m
    assert closure([s, t]).order == 2 * m


def test_closure_is_idempotent():
    g = square_symmetries()
    again = closure(list(g.elements))
    assert set(again.elements) == set(g.elements)


def test_closure_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        closure([Permutation((1, 0)), Permutation((0, 1, 2))])
    with pytest.raises(ValueError, match="^degree mismatch$"):
        Permutation((1, 0)) * Permutation((0, 1, 2))


def test_closure_and_columns_refuse_what_is_no_group():
    with pytest.raises(ValueError, match="^closure needs at least one generator$"):
        closure([])
    with pytest.raises(ValueError, match="^one name per generator required$"):
        closure([Permutation((1, 0))], names=["a", "b"])
    with pytest.raises(ValueError, match="^the generators do not reach every element$"):
        FiniteGroup(("a",), [[0, 0]])


def test_closure_respects_element_bound():
    g = square_symmetries()
    with pytest.raises(GroupTooLargeError):
        closure(list(g.generators), max_order=4)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("images", [[1.0, 0.0, 3.0, 2.0], [0.0], ["1", "0"], ["a"], [0, "1"]])
def test_permutation_refuses_images_that_are_not_ints(images):
    # sorted would take 1.0 for 1, and a float tuple hashes as the int one.
    with pytest.raises(ValueError, match="images do not form a bijection of 0..degree-1"):
        Permutation(images)


def test_permutation_stores_boolean_images_as_plain_ints():
    p = Permutation([True, False])
    assert p.images == (1, 0) and all(type(i) is int for i in p.images)
    assert repr(p) == "Permutation((0 1))"
    with pytest.raises(ValueError, match="images do not form a bijection of 0..degree-1"):
        Permutation([1.0, 0.0])


def test_products_and_inverses_equal_the_validated_constructor():
    # Products and inverses skip the bijection check; the constructor keeps it.
    elements = catalog_group("dihxc2:24").elements
    for p in elements:
        inverse = Permutation([p.images.index(i) for i in range(p.degree)])
        assert p.inverse() == inverse and hash(p.inverse()) == hash(inverse)
        for q in elements:
            product = Permutation([q(p(i)) for i in range(p.degree)])
            assert p * q == product and hash(p * q) == hash(product)


def test_involutions_trivial_group():
    assert closure([Permutation.identity(3)]).involution_indices() == []


def test_involutions_klein_four():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    assert len(closure([a, b]).involution_indices()) == 3


def test_involutions_dihedral_eight_match_scan():
    g = square_symmetries()
    fast = [g.element(i) for i in g.involution_indices()]
    assert len(fast) == 5
    assert fast == involutions_by_scan(g)


def test_element_order_is_deterministic_and_identity_first():
    g = square_symmetries()
    assert g.index(Permutation.identity(4)) == 0
    again = closure(list(g.generators), names=["s", "t"])
    assert g.elements == again.elements


def test_subgroup_order_edge_cases():
    g = square_symmetries()
    assert g.subgroup_order([]) == 1
    s = g.generator("s")
    assert g.subgroup_order([g.index(s)]) == 2


def test_subgroup_order_two_reflections_product_order_three():
    s = Permutation((0, 2, 1))
    t = Permutation((1, 0, 2))
    g = closure([s, t])
    assert g.order == 6
    assert g.subgroup_order([g.index(s), g.index(t)]) == 6


def test_subgroup_order_is_twice_product_order():
    g = closure([
        Permutation((-i) % 6 for i in range(6)),
        Permutation((1 - i) % 6 for i in range(6)),
    ])
    invs = [g.element(i) for i in g.involution_indices()]
    for x in invs:
        for y in invs:
            assert g.subgroup_order([g.index(x), g.index(y)]) == 2 * (x * y).order()


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_group(n).order <= 24])
def test_subgroup_indices_matches_the_set_based_reference(name):
    """The visiting order of the Cayley-form walk is the breadth-first
    discovery order, element for element."""
    g = catalog_group(name)
    invs = g.involution_indices()
    tuples = [[], [col[0] for col in g.columns]] + [[x, y] for x in invs for y in invs]
    for gens in tuples:
        assert g.subgroup_indices(gens) == subgroup_reference(g, gens), gens


def test_extend_identity_map():
    g = square_symmetries()
    gens = [g.index(p) for p in g.generators]
    phi = extend_generator_map(g, gens, gens)
    assert phi == list(range(g.order))


def test_extend_klein_four_swap():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    g = closure([a, b])
    phi = extend_generator_map(g, [g.index(a), g.index(b)], [g.index(b), g.index(a)])
    assert phi is not None
    assert phi[g.index(a)] == g.index(b) and phi[g.index(b)] == g.index(a)


def test_extend_to_non_generating_image_fails():
    g = square_symmetries()
    s, t = g.generator("s"), g.generator("t")
    central = (s * t) * (s * t)
    assert central.order() == 2
    s, t, central = g.index(s), g.index(t), g.index(central)
    assert g.subgroup_order([s, central]) == 4  # proper subgroup
    assert extend_generator_map(g, [s, t], [s, central]) is None


def test_extend_inverse_round_trip():
    g = square_symmetries()
    s, t = g.generator("s"), g.generator("t")
    z = (s * t) * (s * t)
    for dst in [(t * s * t, t), (s, t * s * t * z)]:
        dst = [g.index(p) for p in dst]
        phi = extend_generator_map(g, [g.index(s), g.index(t)], dst)
        if phi is None:
            continue
        back = extend_generator_map(g, dst, [g.index(s), g.index(t)])
        assert back is not None
        assert all(back[phi[i]] == i for i in range(g.order))


def test_extend_requires_generating_src():
    g = square_symmetries()
    s = g.generator("s")
    with pytest.raises(ValueError):
        extend_generator_map(g, [g.index(s)], [g.index(s)])


def test_extend_requires_equal_lengths():
    g = square_symmetries()
    s, t = g.index(g.generator("s")), g.index(g.generator("t"))
    with pytest.raises(ValueError, match="equal length"):
        extend_generator_map(g, [s, t], [s])


def test_is_dihedral():
    assert is_dihedral(closure([Permutation((1, 0))]))          # C2
    assert is_dihedral(closure([Permutation((1, 0, 2, 3)),
                                Permutation((0, 1, 3, 2))]))    # V4
    assert is_dihedral(square_symmetries())
    c4 = closure([Permutation((1, 2, 3, 0))])
    assert not is_dihedral(c4)
    c2cubed = closure([Permutation.from_cycles(6, [(0, 1)]),
                       Permutation.from_cycles(6, [(2, 3)]),
                       Permutation.from_cycles(6, [(4, 5)])])
    assert not is_dihedral(c2cubed)
    from ebrmaps import coset_enumerate, parse_presentation
    assert is_dihedral(coset_enumerate(parse_presentation("< a | a >")))        # trivial
    assert not is_dihedral(coset_enumerate(parse_presentation("< a | a^3 >")))  # C3


def dihedral_oracle_groups():
    """Every catalog group, every family group of order at most 256, and
    presented groups, among them generalised dihedral groups Dih(C3 x C3) and
    Dih(C6 x C3), which have as many involutions as a dihedral group of their
    order and are not dihedral."""
    from ebrmaps import (catalog_group, catalog_names, coset_enumerate, dihedral_map,
                         dihedral_presentation, klein, parse_presentation, sphere_family,
                         torus_rect, torus_rhombic)

    groups = [catalog_group(name) for name in catalog_names()]
    maps = [torus_rect(a, c) for a in range(1, 65) for c in range(1, 64 // a + 1)]
    maps += [torus_rhombic(b, c) for b in range(1, 33) for c in range(1, 32 // b + 1)]
    maps += [klein(a, b) for b in (1, 2) for a in range(1, 64 // b + 1)]
    maps += [dihedral_map(m, row) for m in range(4, 129, 2) for row in (1, 2, 3, 4)
             if row in (1, 3) or m % 4 == 2]
    maps += [sphere_family(kind, m) for kind in ("cycle", "dipole") for m in range(1, 65)]
    maps += [sphere_family("semistar", m) for m in range(1, 129)]
    maps += [sphere_family("dipole", m, rpp=True) for m in range(2, 129, 2)]
    groups += [m.group for m in maps]
    texts = ["< a, b | a^4, a^2 b^-2, b^-1 a b a >", "< a, b | a^2, b^3, (a b)^4 >",
             "< a, b, c | a^2, b^3, c^3, b c b^-1 c^-1, (a b)^2, (a c)^2 >",
             "< a, b, c | a^2, b^6, c^3, b c b^-1 c^-1, (a b)^2, (a c)^2 >"]
    groups += [coset_enumerate(parse_presentation(text)) for text in texts]
    groups += [coset_enumerate(dihedral_presentation(m)) for m in (1, 2, 3, 8, 15)]
    assert all(g.order <= 256 for g in groups)
    return groups


def test_is_dihedral_agrees_with_the_rotation_oracle():
    groups = dihedral_oracle_groups()
    verdicts = [is_dihedral(g) for g in groups]
    assert verdicts == [dihedral_by_rotation(g) for g in groups]
    assert {True, False} == set(verdicts)
    # The generalised dihedral groups pass the involution count.
    for g in groups[-7:-5]:
        assert len(g.involution_indices()) in (g.order // 2, g.order // 2 + 1)
    assert [(g.order, is_dihedral(g)) for g in groups[-7:-5]] == [(18, False), (36, False)]


def test_is_dihedral_walks_few_rows_on_a_generalised_dihedral_group(monkeypatch):
    """Dih(C31 x C31) passes the involution count; two cyclic subgroups of
    order 31 rule it out, where an involution-pair loop makes 1,924 calls."""
    from ebrmaps import coset_enumerate, parse_presentation
    g = coset_enumerate(parse_presentation(
        "< a, b, c | a^2, b^31, c^31, b c b^-1 c^-1, (a b)^2, (a c)^2 >"))
    assert len(g.involution_indices()) == g.order // 2 == 961  # builds the inverse array
    calls = []

    def counted(method):
        def call(self, j):
            calls.append(j)
            return method(self, j)
        return call
    for name in ("left_translation", "right_translation"):
        monkeypatch.setattr(FiniteGroup, name, counted(getattr(FiniteGroup, name)))
    assert not is_dihedral(g)
    assert len(calls) <= 4


def membership_groups():
    """Catalog groups written as affine quotients, coset-enumerated groups
    (regular on their points), and a closure-built group of order 6 on 6
    points that is not regular."""
    from ebrmaps import catalog_group, coset_enumerate, dihedral_presentation
    from ebrmaps import triangle_group

    s3 = closure([Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
                  Permutation.from_cycles(6, [(0, 1), (3, 4)])])
    assert s3.order == s3.degree == 6
    return [catalog_group("dih:12"), catalog_group("c2^3"),
            coset_enumerate(dihedral_presentation(5)), coset_enumerate(triangle_group(3, 4)),
            s3]


def test_membership_agrees_with_the_element_list():
    import random

    rng = random.Random(7)
    for g in membership_groups():
        # The element list comes from a separate closure, so that ``g`` is
        # asked about membership before it lists its own elements.
        listed = closure(list(g.generators)).elements
        strangers = [Permutation(rng.sample(range(g.degree), g.degree)) for _ in range(50)]
        strangers.append(Permutation.from_cycles(g.degree, [(0, 1)]))
        for p in list(listed) + strangers:
            assert (p in g) == (p in listed)
            if p in listed:
                assert g.index(p) == listed.index(p)
            else:
                with pytest.raises(ValueError):
                    g.index(p)
        for p in (Permutation.identity(g.degree + 1), Permutation(()), listed[-1].images):
            assert p not in g
        with pytest.raises(ValueError):
            g.index(Permutation.identity(g.degree + 1))
        assert [g.index(p) for p in g.elements] == list(range(g.order))


@pytest.mark.parametrize("name", catalog_names())
def test_membership_reads_one_row_and_lists_no_elements(monkeypatch, name):
    """A permutation is an element of a column-built group exactly when it is
    the right translation of its image of 0, which is then its index."""
    g = catalog_group(name)
    listed = closure(list(g.generators)).elements  # the same breadth-first numbering

    def unlisted(group):
        raise AssertionError("membership listed the elements")

    monkeypatch.setattr(FiniteGroup, "elements", property(unlisted))
    assert [g.index(p) for p in listed] == list(range(g.order))
    row = list(g.right_translation(g.order - 1))
    strangers = [Permutation.identity(g.order + 1)]
    if g.order > 2:  # a row with two entries swapped is a bijection but no element
        row[1], row[2] = row[2], row[1]
        strangers.append(Permutation(row))
    for p in strangers:
        assert p not in g and p not in listed
        with pytest.raises(ValueError):
            g.index(p)


def test_right_translations_are_products_of_elements():
    # A generator's translation is its column; every other one is a left
    # translation read through the inverses.  Both must read x -> x*j off
    # the permutations.
    for g in membership_groups():
        elements = g.elements
        for j in range(g.order):
            assert g.right_translation(j) == [g.index(x * elements[j]) for x in elements], j


def oracle_groups():
    """The catalog, the membership groups, and two groups whose breadth-first
    trees are deep: the reflections of dih:400 lie up to 200 steps from 1."""
    from ebrmaps.families import klein

    groups = {name: catalog_group(name) for name in catalog_names()}
    groups.update((f"membership-{i}", g) for i, g in enumerate(membership_groups()))
    groups["dih:400"] = catalog_group("dih:400")
    groups["klein(25,1)"] = klein(25, 1).group
    return groups


ORACLE_GROUPS = oracle_groups()


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_rows_inverses_and_elements_match_the_tree_oracle(name):
    g = ORACLE_GROUPS[name]
    rows = right_translations_by_tree(g)
    assert g.involution_indices() == [j for j in range(1, g.order) if rows[j][j] == 0]
    for j, row in enumerate(rows):
        assert g.inv(j) == row.index(0), j
        if g._index is None:  # a column-built group reads element j as its row
            assert g.element(j) == Permutation(row), j
        assert g.right_translation(j) == row, j


@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("name", [*ORACLE_GROUPS, *SURVEY_GROUPS])
def test_pair_survey_matches_the_right_row_oracle(name, proper):
    g = ORACLE_GROUPS[name] if name in ORACLE_GROUPS else SURVEY_GROUPS[name]()
    assert (enumeration._commuting_involution_pairs(g, proper, enumeration._conjugations(g))
            == commuting_pairs_by_right_rows(g, proper))


def test_a_group_keeps_the_generator_columns_and_the_rows_asked_for():
    g = catalog_group("dihxc2:12")  # a column group: none of its generators is 0
    columns = {col[0]: col for col in g.columns}

    def kept():
        return {j for j, row in enumerate(g._right) if row is not None}

    assert kept() == set(columns) and all(g._right[j] is col for j, col in columns.items())
    # Elements, membership, left translations and inverses leave no row behind.
    for j in range(g.order):
        assert g.element(j) in g and g.index(g.element(j)) == j
        g.left_translation(j)
        g.inv(j)
    assert len(g.elements) == g.order and g.involution_indices()
    assert kept() == set(columns)
    identity = g.right_translation(0)
    assert identity == list(range(g.order)) and g._right[0] is identity
    assert g.right_translation(g.order - 1) is g.right_translation(g.order - 1)
    assert kept() == set(columns) | {0, g.order - 1}
    assert [g.mul(i, 0) for i in range(g.order)] == identity
    assert (g.inv(0), g.element_order(0)) == (0, 1)
    assert Permutation.identity(g.order) in g
    assert g.index(Permutation.identity(g.order)) == 0
    assert kept() == set(columns) | {0, g.order - 1}


def test_elements_of_a_cayley_group_are_kept_nowhere():
    import tracemalloc

    from ebrmaps import torus_rect

    # Listing the 1,024 elements kept 8.1 MB of permutations on the group.
    g = torus_rect(16, 16).group
    tracemalloc.start()
    try:
        elements = g.elements
        assert elements == tuple(map(g.element, range(g.order)))
        del elements
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert g.elements is not g.elements


def test_a_closure_group_lists_the_permutations_it_was_closed_under():
    g = square_symmetries()
    assert g.elements is g.elements and len(g.elements) == g.order == 8
    assert all(p.degree == 4 for p in g.elements)
    assert all(g.element(i) is p for i, p in enumerate(g.elements))


def test_the_dihedral_sweep_keeps_no_row_per_element():
    import tracemalloc

    # The tree ancestors of dih:2000's reflections are all of its rotations:
    # memoising a row for each of them peaked at 32.5 MiB.
    g = catalog_group("dih:2000")
    tracemalloc.start()
    try:
        maps = enumerate_ebr(g, require_proper=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 9
    assert peak < 8 * 2**20


@st.composite
def orbit_rows(draw):
    """Image arrays on 0..n-1, n >= 1: permutations with and without fixed
    points, and identity rows among them."""
    n = draw(st.integers(1, 24))
    perm = st.permutations(range(n)).map(list)
    rows = draw(st.lists(st.one_of(perm, st.just(list(range(n)))), max_size=3))
    return n, rows


@given(orbit_rows())
def test_orbits_match_union_find(case):
    n, rows = case
    out = orbits(n, rows)
    assert [sorted(orbit) for orbit in out] == orbits_by_union_find(n, rows)
    assert out == orbits_by_walk(n, rows)  # breadth-first from the least point


def test_orbits_of_no_rows_and_of_one_point():
    assert orbits(1, []) == orbits(1, [[0]]) == [[0]]
    assert orbits(3, []) == orbits(3, [[0, 1, 2]]) == [[0], [1], [2]]
    assert orbits(5, [[1, 0, 2, 4, 3], [0, 3, 2, 1, 4]]) == [[0, 1, 3, 4], [2]]
