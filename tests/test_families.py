from fractions import Fraction
from math import gcd

import pytest

from ebrmaps import (
    are_isomorphic,
    coset_enumerate,
    dihedral_map,
    dihedral_rows,
    dihedral_table_row,
    is_dihedral,
    klein,
    regular_catalog,
    sphere_family,
    torus_rect,
    torus_rhombic,
    triangle_group,
)
from conftest import (dihedral_map_by_closure, euler_formula, family_presentation,
                      regular_counts, sphere_family_by_closure, torus44_presentation)


# -- torus -----------------------------------------------------------------

def test_torus_rect_4_3():
    inv = torus_rect(4, 3).invariants()
    assert inv.order == 48
    assert (inv.V, inv.F, inv.chi) == (12, 12, 0)
    assert (inv.k, inv.l) == (4, 4)
    assert inv.orientable


def test_torus_rect_square_lattice_is_fully_regular():
    assert torus_rect(3, 3).invariants().fully_regular
    assert not torus_rect(4, 3).invariants().fully_regular


def test_torus_rect_1_1_degenerate():
    inv = torus_rect(1, 1).invariants()
    assert inv.order == 4
    assert not inv.distinct_generators
    assert inv.chi == 0


@pytest.mark.parametrize("a,c", [(1, 2), (2, 2), (3, 2), (4, 4), (5, 3)])
def test_torus_rect_orders_and_regularity(a, c):
    inv = torus_rect(a, c).invariants()
    assert inv.order == 4 * a * c
    assert inv.chi == 0 and inv.orientable
    assert inv.fully_regular == (a == c)


def test_torus_rhombic_2_3():
    assert torus_rhombic(2, 3).group.order == 48


def test_torus_rhombic_1_1():
    assert torus_rhombic(1, 1).group.order == 8


@pytest.mark.parametrize("b,c", [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])
def test_torus_rhombic_orders_and_regularity(b, c):
    inv = torus_rhombic(b, c).invariants()
    assert inv.order == 8 * b * c
    assert inv.chi == 0 and inv.orientable
    assert inv.fully_regular == (b == c)


@pytest.mark.parametrize("b", [63, 64, 500])
def test_torus_rhombic_with_a_long_first_side(b):
    # The relator (r0 rho2)^2b once needed more than 16 * order cosets.
    inv = torus_rhombic(b, 1).invariants()
    assert inv.order == 8 * b
    assert inv.chi == 0 and inv.orientable
    assert not inv.fully_regular


def test_rect_iso_to_swapped_parameters_after_dual():
    assert are_isomorphic(torus_rect(4, 2), torus_rect(2, 4).dual())


# -- the affine writer against coset enumeration of the family relators -------

FAMILIES = {"torus_rect": (torus_rect, 4), "torus_rhombic": (torus_rhombic, 8),
            "klein": (klein, 4)}


def family_parameters(max_order):
    """Every (family, x, y) whose map has order at most ``max_order``."""
    cases = []
    for family, (_, scale) in FAMILIES.items():
        seconds = (1, 2) if family == "klein" else range(1, max_order // scale + 1)
        cases += [(family, x, y) for y in seconds for x in range(1, max_order // (scale * y) + 1)]
    return cases


def assert_matches_enumeration(family, x, y):
    group = FAMILIES[family][0](x, y).group
    oracle = coset_enumerate(family_presentation(family, x, y), max_cosets=16 * group.order)
    assert group.columns == oracle.columns, (family, x, y)


def test_family_columns_match_coset_enumeration_to_order_160():
    cases = family_parameters(160)
    assert len(cases) == 284
    for case in cases:
        assert_matches_enumeration(*case)


@pytest.mark.parametrize("family,x,y", [("torus_rect", 20, 25), ("torus_rhombic", 10, 25),
                                        ("klein", 64, 2)])
def test_large_family_columns_match_coset_enumeration(family, x, y):
    assert_matches_enumeration(family, x, y)


def test_torus44_columns_match_coset_enumeration():
    oracle = {g: coset_enumerate(torus44_presentation(g), max_cosets=128 * g * g).columns
              for g in range(1, 13)}
    for a in range(1, 13):
        for b in range(1, 13):
            assert regular_catalog(f"torus44:{a}:{b}-rect").group.columns == oracle[gcd(a, b)]


# -- Klein bottle -------------------------------------------------------------

def test_klein_5_1():
    m = klein(5, 1)
    inv = m.invariants()
    assert inv.order == 20
    assert not inv.orientable
    assert inv.chi == 0 and inv.genus == 2
    assert m.slot_indices[0] == m.slot_indices[3]  # r0 == rho2


def test_klein_5_2():
    assert klein(5, 2).group.order == 40


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", (1, 2))
def test_klein_never_fully_regular(a, b):
    inv = klein(a, b).invariants()
    assert inv.order == 4 * a * b
    assert inv.chi == 0
    assert not inv.orientable
    assert not inv.fully_regular


def test_klein_invalid_parameters():
    with pytest.raises(ValueError):
        klein(3, 3)
    with pytest.raises(ValueError):
        klein(0, 1)


def test_klein_never_isomorphic_to_torus():
    # same order 40: klein(5,2) versus torus_rect(5,2); orientability differs
    assert not are_isomorphic(klein(5, 2), torus_rect(5, 2))


# -- dihedral families ----------------------------------------------------------

def test_dihedral_row1_m4():
    inv = dihedral_map(4, 1).invariants()
    assert (inv.k, inv.l, inv.V, inv.F, inv.chi) == (8, 8, 1, 1, -2)
    assert inv.fully_regular


def test_dihedral_row3_m4():
    inv = dihedral_map(4, 3).invariants()
    assert (inv.k, inv.l, inv.V, inv.F, inv.chi) == (8, 4, 1, 2, -1)
    assert not inv.fully_regular
    assert not inv.orientable


def test_dihedral_row2_m6():
    inv = dihedral_map(6, 2).invariants()
    assert (inv.k, inv.l, inv.V, inv.F, inv.chi) == (6, 6, 2, 2, -2)
    assert inv.fully_regular


def test_dihedral_row4_m6():
    inv = dihedral_map(6, 4).invariants()
    assert (inv.k, inv.l, inv.V, inv.F, inv.chi) == (6, 4, 2, 3, -1)
    assert not inv.fully_regular


def test_dihedral_parameter_validation():
    with pytest.raises(ValueError):
        dihedral_map(5, 1)
    with pytest.raises(ValueError):
        dihedral_map(2, 1)
    with pytest.raises(ValueError):
        dihedral_map(8, 2)  # m/2 even
    with pytest.raises(ValueError):
        dihedral_map(4, 5)


def test_dihedral_map_and_report_read_one_table():
    """dihedral_map admits exactly the rows of dihedral_rows and builds their
    data, and the report's matcher finds each row as it is and dual."""
    for m in range(4, 101, 2):
        rows = dihedral_rows(m)
        for row in (1, 2, 3, 4):
            if row not in rows:
                with pytest.raises(ValueError):
                    dihedral_map(m, row)
                continue
            inv = dihedral_map(m, row).invariants()
            k, l, chi, V, F, fully_regular = rows[row]
            assert (inv.k, inv.l, inv.chi, inv.V, inv.F, inv.fully_regular) == rows[row]
            assert dihedral_table_row(2 * m, k, l, V, F, chi, fully_regular) == row
            assert dihedral_table_row(2 * m, l, k, F, V, chi, fully_regular) == row
            # (2m + 1) // 2 is m, but an odd order matches no row.
            assert dihedral_table_row(2 * m + 1, k, l, V, F, chi, fully_regular) is None
    assert dihedral_rows(2) == dihedral_rows(5) == {}


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_dihedral_groups_are_dihedral_of_order_2m(m):
    rows = [1, 3] if (m // 2) % 2 == 0 else [1, 2, 3, 4]
    for row in rows:
        M = dihedral_map(m, row)
        assert M.group.order == 2 * m
        assert is_dihedral(M.group)


def test_dihedral_table_values_match_euler_formula():
    for m in (4, 6, 10):
        rows = [1, 3] if (m // 2) % 2 == 0 else [1, 2, 3, 4]
        for row in rows:
            inv = dihedral_map(m, row).invariants()
            assert Fraction(inv.chi) == euler_formula(inv.order, inv.k, inv.l)


def test_every_closed_surface_supports_a_map():
    # Orientable surfaces have even chi <= 2, non-orientable have chi <= 1;
    # some family realizes each one.
    def orientable_example(chi):
        if chi == 2:
            return sphere_family("cycle", 2)
        if chi == 0:
            return torus_rect(2, 2)
        return dihedral_map(2 - chi, 1)

    def non_orientable_example(chi):
        if chi == 1:
            return sphere_family("dipole", 2, rpp=True)
        if chi == 0:
            return klein(2, 1)
        return dihedral_map(2 * (1 - chi), 3)

    for chi in range(2, -9, -2):
        inv = orientable_example(chi).invariants()
        assert inv.chi == chi and inv.orientable
    for chi in range(1, -9, -1):
        inv = non_orientable_example(chi).invariants()
        assert inv.chi == chi and not inv.orientable


def test_every_negative_chi_is_realized():
    # row 3 with m = 2(1 - chi) realizes every chi < 0 (non-orientably);
    # row 1 with m = 2 - chi realizes every even chi < 0 orientably.
    for chi in range(-1, -7, -1):
        inv = dihedral_map(2 * (1 - chi), 3).invariants()
        assert inv.chi == chi
        assert not inv.orientable
        assert (inv.k, inv.l) == (4 * (1 - chi), 4)
    for chi in range(-2, -9, -2):
        inv = dihedral_map(2 - chi, 1).invariants()
        assert inv.chi == chi
        assert inv.orientable
        assert (inv.k, inv.l) == (2 * (2 - chi), 2 * (2 - chi))


def assert_same_slot_group(m, reference):
    assert m.group.columns == reference.columns
    assert m.slot_indices == tuple(reference.columns[i][0] for i in range(4))


@pytest.mark.parametrize("m", range(4, 41, 2))
def test_dihedral_columns_match_permutation_closure(m):
    for row in ((1, 3) if (m // 2) % 2 == 0 else (1, 2, 3, 4)):
        assert_same_slot_group(dihedral_map(m, row), dihedral_map_by_closure(m, row))


# -- sphere families --------------------------------------------------------------

def test_cycle_m2_is_the_square_on_the_sphere():
    inv = sphere_family("cycle", 2).invariants()
    assert (inv.k, inv.l) == (2, 4)
    assert (inv.V, inv.F, inv.chi) == (4, 2, 2)
    assert inv.edges_shaded.count + inv.edges_unshaded.count == 4


def test_dipole_is_dual_of_cycle():
    assert are_isomorphic(sphere_family("dipole", 3),
                          sphere_family("cycle", 3).dual())


def test_semistar_dihedral_eight():
    inv = sphere_family("semistar", 4).invariants()
    assert inv.order == 8
    assert (inv.V, inv.F, inv.chi) == (1, 1, 2)
    assert inv.degeneracy_class == "semistar"


@pytest.mark.parametrize("m", range(1, 7))
def test_semistars_are_fully_regular(m):
    inv = sphere_family("semistar", m).invariants()
    assert inv.fully_regular
    assert inv.chi == 2 and inv.orientable


def test_projective_dipole_needs_4_divides_valency():
    with pytest.raises(ValueError):
        sphere_family("dipole", 3, rpp=True)
    inv = sphere_family("dipole", 4, rpp=True).invariants()
    assert inv.chi == 1 and not inv.orientable and inv.genus == 1


@pytest.mark.parametrize("kind,rpp", [("cycle", False), ("dipole", False), ("dipole", True),
                                      ("semistar", False)])
def test_sphere_columns_match_permutation_closure(kind, rpp):
    for m in range(2 if rpp else 1, 25, 2 if rpp else 1):
        assert_same_slot_group(sphere_family(kind, m, rpp=rpp),
                               sphere_family_by_closure(kind, m, rpp=rpp))


def test_sphere_family_validation():
    with pytest.raises(ValueError):
        sphere_family("cycle", 0)
    with pytest.raises(ValueError):
        sphere_family("pillow", 2)
    with pytest.raises(ValueError):
        sphere_family("cycle", 2, rpp=True)


# -- regular catalog ---------------------------------------------------------------

@pytest.mark.parametrize("name,order,map_type", [
    ("tetrahedron", 24, (3, 3)),
    ("cube", 48, (3, 4)),
    ("octahedron", 48, (4, 3)),
    ("dodecahedron", 120, (3, 5)),
    ("icosahedron", 120, (5, 3)),
])
def test_platonic_catalog(name, order, map_type):
    r = regular_catalog(name)
    counts = regular_counts(r)
    assert r.group.order == order
    assert (counts.k, counts.l) == map_type
    assert counts.chi == 2


def test_hosohedron_and_dihedron():
    h = regular_catalog("hosohedron:3")
    assert h.group.order == 12 and (regular_counts(h).k, regular_counts(h).l) == (3, 2)
    d = regular_catalog("dihedron:3")
    assert d.group.order == 12 and (regular_counts(d).k, regular_counts(d).l) == (2, 3)
    assert repr(h) == "RegularMap('hosohedron:3', order=12, type=(3, 2))"


def test_hosohedron_and_dihedron_columns_match_coset_enumeration():
    for m in range(2, 61):
        for name, pres in (("hosohedron", triangle_group(m, 2)),
                           ("dihedron", triangle_group(2, m))):
            group = regular_catalog(f"{name}:{m}").group
            assert group.generator_names == pres.generator_names
            assert group.columns == coset_enumerate(pres).columns, (name, m)


def test_torus44_catalog():
    r = regular_catalog("torus44:3:3-rect")
    counts = regular_counts(r)
    assert r.group.order == 72
    assert (counts.k, counts.l) == (4, 4)
    assert counts.chi == 0
    # mismatched translation lengths collapse to the gcd lattice
    assert regular_catalog("torus44:4:2-rect").group.order == 32


def _translation_power(group, letters, n):
    """The element reached from the identity by the word ``letters`` (column
    indices of the triangle-group generators R0, R2, R1) repeated n times."""
    x = 0
    for _ in range(n):
        for col in letters:
            x = group.columns[col][x]
    return x


def test_torus44_builds_on_the_gcd_lattice():
    r0, r2, r1 = 0, 1, 2  # column order of triangle_group's generators
    translation_x, translation_y = (r1, r2, r1, r0), (r2, r1, r0, r1)
    for a in range(1, 13):
        for b in range(1, 13):
            g = gcd(a, b)
            group = regular_catalog(f"torus44:{a}:{b}-rect").group
            assert group.columns == regular_catalog(f"torus44:{g}:{g}-rect").group.columns
            # The name's own relators hold, in a group of the order they define.
            assert group.order == 8 * g * g
            assert _translation_power(group, translation_x, a) == 0
            assert _translation_power(group, translation_y, b) == 0


def test_torus44_with_a_long_side_and_gcd_one_has_order_8():
    assert regular_catalog("torus44:1000000:1-rect").group.order == 8


def test_unknown_catalog_name():
    with pytest.raises(ValueError, match="unknown catalog"):
        regular_catalog("teapot")
    with pytest.raises(ValueError, match="unknown catalog"):
        regular_catalog("hosohedron:x")


def test_constructors_refuse_orders_above_the_order_budget(monkeypatch):
    import tracemalloc

    import ebrmaps.families as families
    from ebrmaps import GroupTooLargeError
    from ebrmaps.perm_group import DEFAULT_MAX_ORDER

    def unreachable(*args, **kwargs):
        raise AssertionError("group construction called")

    # The affine writer builds every family and every parametrised catalog
    # entry, and refuses an order above the budget before it writes a column.
    monkeypatch.setattr(families, "FiniteGroup", unreachable)
    monkeypatch.setattr(families, "coset_enumerate", unreachable)
    written = [lambda: torus_rect(1000, 1000), lambda: torus_rhombic(500, 251),
               lambda: klein(250001, 1), lambda: dihedral_map(500002, 1),
               lambda: sphere_family("semistar", 600000),
               lambda: regular_catalog("torus44:354:708-rect"),  # 8 * 354**2
               lambda: regular_catalog("hosohedron:250001"),
               lambda: regular_catalog("dihedron:250001")]
    tracemalloc.start()
    try:
        for build in written:
            with pytest.raises(GroupTooLargeError,
                               match=f"^group too large: order \\d+ is above "
                                     f"max_order={DEFAULT_MAX_ORDER}$"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before anything of that size is built
    # An order at the budget itself goes on to build the group.
    with pytest.raises(AssertionError, match="group construction called"):
        torus_rect(500, 500)


@pytest.mark.parametrize("build", [lambda: torus_rect(160, 160), lambda: klein(25600, 1),
                                   lambda: dihedral_map(51200, 1)],
                         ids=["torus_rect(160, 160)", "klein(25600, 1)", "dihedral_map(51200, 1)"])
def test_a_family_of_order_102400_holds_one_int_per_element(build):
    import tracemalloc

    # Every column entry refers to the one int the affine writer, then the
    # breadth-first numbering, made for its element: building one of these
    # peaked at 29-33 MiB and kept 10-11.4 MiB when each entry was a sum of
    # its own.
    tracemalloc.start()
    try:
        m = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.group.order == 102_400
    assert peak < 24 * 2**20
    assert kept < 9.5 * 2**20
