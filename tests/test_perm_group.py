import pytest

from ebrmaps import (
    GroupTooLargeError,
    Permutation,
    closure,
    extend_generator_map,
    is_dihedral,
)
from conftest import involutions_by_scan


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


def test_closure_respects_element_bound():
    g = square_symmetries()
    with pytest.raises(GroupTooLargeError):
        closure(list(g.generators), max_order=4)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_involutions_trivial_group():
    assert closure([Permutation.identity(3)]).involutions() == []


def test_involutions_klein_four():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    assert len(closure([a, b]).involutions()) == 3


def test_involutions_dihedral_eight_match_scan():
    g = square_symmetries()
    fast = g.involutions()
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
    assert g.subgroup_order([s]) == 2


def test_subgroup_order_two_reflections_product_order_three():
    s = Permutation((0, 2, 1))
    t = Permutation((1, 0, 2))
    g = closure([s, t])
    assert g.order == 6
    assert g.subgroup_order([s, t]) == 6


def test_subgroup_order_is_twice_product_order():
    g = closure([
        Permutation((-i) % 6 for i in range(6)),
        Permutation((1 - i) % 6 for i in range(6)),
    ])
    invs = g.involutions()
    for x in invs:
        for y in invs:
            assert g.subgroup_order([x, y]) == 2 * (x * y).order()


def test_extend_identity_map():
    g = square_symmetries()
    phi = extend_generator_map(g, list(g.generators), list(g.generators))
    assert phi == list(range(g.order))


def test_extend_klein_four_swap():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    g = closure([a, b])
    phi = extend_generator_map(g, [a, b], [b, a])
    assert phi is not None
    assert phi[g.index(a)] == g.index(b) and phi[g.index(b)] == g.index(a)


def test_extend_to_non_generating_image_fails():
    g = square_symmetries()
    s, t = g.generator("s"), g.generator("t")
    central = (s * t) * (s * t)
    assert central.order() == 2
    assert g.subgroup_order([s, central]) == 4  # proper subgroup
    assert extend_generator_map(g, [s, t], [s, central]) is None


def test_extend_inverse_round_trip():
    g = square_symmetries()
    s, t = g.generator("s"), g.generator("t")
    z = (s * t) * (s * t)
    for dst in [(t * s * t, t), (s, t * s * t * z)]:
        phi = extend_generator_map(g, [s, t], list(dst))
        if phi is None:
            continue
        back = extend_generator_map(g, list(dst), [s, t])
        assert back is not None
        assert all(back[phi[i]] == i for i in range(g.order))


def test_extend_requires_generating_src():
    g = square_symmetries()
    s = g.generator("s")
    with pytest.raises(ValueError):
        extend_generator_map(g, [s], [s])


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


def membership_groups():
    """Catalog groups (one written as an affine quotient, one closure-built),
    coset-enumerated groups (regular on their points), and a group of order 6
    on 6 points that is not regular, held without its element list."""
    from ebrmaps import FiniteGroup, catalog_group, coset_enumerate, dihedral_presentation
    from ebrmaps import triangle_group

    s3 = closure([Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
                  Permutation.from_cycles(6, [(0, 1), (3, 4)])])
    assert s3.order == s3.degree == 6
    return [catalog_group("dih:12"), catalog_group("c2^3"),
            coset_enumerate(dihedral_presentation(5)), coset_enumerate(triangle_group(3, 4)),
            FiniteGroup(s3.degree, s3.generator_names, s3.generators, s3.columns)]


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
