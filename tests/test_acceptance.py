"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are exact: every compared quantity is an integer or a
rational evaluated with fractions.Fraction.
"""

from fractions import Fraction

import pytest

from ebrmaps import (
    are_isomorphic,
    catalog_group,
    catalog_names,
    classify_report,
    closure,
    construction1,
    construction2,
    construction3,
    dihedral_map,
    ebr_to_flagmap,
    enumerate_ebr,
    is_alternate_edge_colourable,
    klein,
    regular_catalog,
    sphere_family,
    torus_rect,
    torus_rhombic,
    underlying_regular,
)
from conftest import (all_valid_quadruples, pairwise_representatives, regular_counts,
                      regular_isomorphic_reference, twin_dual_least_form)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] {text}: PASS")


@pytest.fixture(scope="module")
def family_maps():
    maps = []
    for a in range(1, 7):
        for c in range(1, 7):
            maps.append((f"torus_rect({a},{c})", torus_rect(a, c)))
    for b in range(1, 5):
        for c in range(1, 5):
            maps.append((f"torus_rhombic({b},{c})", torus_rhombic(b, c)))
    for a in range(1, 9):
        for b in (1, 2):
            maps.append((f"klein({a},{b})", klein(a, b)))
    for m in range(4, 21, 2):
        rows = (1, 2, 3, 4) if (m // 2) % 2 == 1 else (1, 3)
        for row in rows:
            maps.append((f"dihedral_map({m},{row})", dihedral_map(m, row)))
    for m in range(1, 11):
        for kind in ("cycle", "dipole", "semistar"):
            maps.append((f"sphere_family({kind},{m})", sphere_family(kind, m)))
        if m % 2 == 0:
            maps.append((f"sphere_family(dipole,{m},rpp)",
                         sphere_family("dipole", m, rpp=True)))
    return maps


@pytest.fixture(scope="module")
def construction3_outputs():
    names = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
             "hosohedron:3", "hosohedron:4", "hosohedron:5", "hosohedron:6",
             "dihedron:3", "dihedron:4", "dihedron:5", "dihedron:6",
             "torus44:2:2-rect", "torus44:3:3-rect"]
    return [(name, regular_catalog(name)) for name in names]


def test_criterion_01_euler_identity(family_maps, construction3_outputs):
    for label, m in family_maps:
        inv = m.invariants()
        if inv.proper:
            expected = inv.order * (Fraction(1, inv.k) - Fraction(1, 2)
                                    + Fraction(1, inv.l))
            assert Fraction(inv.chi) == expected, label
    for name, regular in construction3_outputs:
        child = construction3(regular)
        assert child.invariants().chi == regular_counts(regular).chi, name
    _report(1, "Euler identity and the semi-edge convention hold exactly")


def test_criterion_02_dihedral_table_reproduction():
    expected_rows = {4: [1, 3], 6: [1, 2, 3, 4], 10: [1, 2, 3, 4], 14: [1, 2, 3, 4]}
    for m, rows in expected_rows.items():
        group = catalog_group(f"dih:{2 * m}")
        maps = enumerate_ebr(group, require_proper=True, require_distinct=True,
                             chi_max=-1)
        report = classify_report(maps)
        found = sorted(c.table_row if c.table_row is not None else 0
                       for c in report.classes)
        assert found == rows, f"m={m}: classes {found} != rows {rows}"
        assert not report.discrepancies
        # exact per-row data, type and counts normalized up to duality
        table = {
            1: (2 * m, 2 * m, 1, 1, 2 - m, True),
            2: (m, m, 2, 2, 4 - m, True),
            3: (2 * m, 4, 1, m // 2, (2 - m) // 2, False),
            4: (m, 4, 2, m // 2, (4 - m) // 2, False),
        }
        for cls in report.classes:
            k, l = cls.map_type
            if k >= l:
                normalized = (k, l, cls.V, cls.F, cls.chi, cls.fully_regular)
            else:
                normalized = (l, k, cls.F, cls.V, cls.chi, cls.fully_regular)
            assert normalized == table[cls.table_row], (m, cls)
    _report(2, "dihedral classification reproduced for m in {4, 6, 10, 14}")


def test_criterion_03_torus_classification():
    for a in range(1, 7):
        for c in range(1, 7):
            inv = torus_rect(a, c).invariants()
            assert inv.order == 4 * a * c
            assert inv.chi == 0 and inv.orientable
            assert inv.fully_regular == (a == c)
    for b in range(1, 5):
        for c in range(1, 5):
            inv = torus_rhombic(b, c).invariants()
            assert inv.order == 8 * b * c
            assert inv.chi == 0 and inv.orientable
            assert inv.fully_regular == (b == c)
    _report(3, "toroidal orders, orientability and square-lattice regularity")


def test_criterion_04_klein_classification():
    for a in range(1, 9):
        for b in (1, 2):
            inv = klein(a, b).invariants()
            assert inv.order == 4 * a * b
            assert inv.chi == 0
            assert not inv.orientable
            assert not inv.fully_regular
    _report(4, "Klein-bottle orders, non-orientability, never fully regular")


def test_criterion_05_non_distinct_generators_bound_chi():
    # Coincident slot elements in a proper map force chi into {0, 1, 2}.
    # (Properness matters: with semi-edges allowed, attaching one per corner
    # of a hyperbolic regular map gives chi < 0 with coincident rho-slots.)
    checked = 0
    for name in catalog_names():
        group = catalog_group(name)
        for m in enumerate_ebr(group, require_proper=True):
            if len(set(m.slot_indices)) < 4:
                chi = m.invariants().chi
                assert chi in (0, 1, 2), (name, m.slot_indices, chi)
                checked += 1
    assert checked > 100
    _report(5, f"chi in {{0,1,2}} for all {checked} proper coincident-slot maps")


def test_criterion_06_construction_round_trips():
    platonic = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]
    for name in platonic:
        regular = regular_catalog(name)
        for build in (construction1, construction2, construction3):
            assert regular_isomorphic_reference(underlying_regular(build(regular)),
                                                regular), (name, build.__name__)
    type_map = {
        "tetrahedron": (6, 6), "cube": (6, 8), "octahedron": (8, 6),
        "dodecahedron": (6, 10), "icosahedron": (10, 6),
        "hosohedron:3": (6, 4), "hosohedron:4": (8, 4), "hosohedron:5": (10, 4),
        "dihedron:3": (4, 6), "dihedron:4": (4, 8),
    }
    for name, expected in type_map.items():
        inv = construction3(regular_catalog(name)).invariants()
        assert (inv.k, inv.l) == expected, name
    _report(6, "construction round trips and doubled type lists")


def test_criterion_07_colourability(family_maps, torus_flagmap, cube_flagmap):
    assert is_alternate_edge_colourable(torus_flagmap) is None
    assert is_alternate_edge_colourable(cube_flagmap) is None  # odd valency
    checked = 0
    for label, m in family_maps:
        if not m.is_proper:
            continue
        inv = m.invariants()
        flags = ebr_to_flagmap(m)
        assert flags.chi() == inv.chi, label
        assert len(flags.vertex_orbits()) == inv.V, label
        assert len(flags.face_orbits()) == inv.F, label
        colouring = is_alternate_edge_colourable(flags)
        assert colouring is not None, label
        sizes = {}
        for rep, colour in colouring.items():
            sizes[colour] = sizes.get(colour, 0) + 1
        assert sorted(sizes.values()) == sorted(
            [inv.edges_shaded.count, inv.edges_unshaded.count]), label
        checked += 1
    assert checked >= 80
    _report(7, f"colourability verdicts and witness counts on {checked} maps")


def test_criterion_08_monodromy_centralizer(family_maps):
    checked = 0
    for label, m in family_maps:
        if m.group.order > 64:
            continue
        right = m.monodromy()
        left = m.left_action()
        for lam in left:
            for rho in right:
                assert lam * rho == rho * lam, label
        assert closure(list(set(right))).order == m.group.order, label
        assert closure(list(set(left))).order == m.group.order, label
        checked += 1
    assert checked >= 50
    _report(8, f"left/right regular actions commute on {checked} maps")


def test_criterion_09_fully_regular_iff_twin_isomorphic(family_maps):
    checked = 0
    for label, m in family_maps:
        if m.group.order > 64:
            continue
        assert m.invariants().fully_regular == are_isomorphic(m, m.twin()), label
        checked += 1
    for name in ("dih:8", "dih:12", "dih:16", "dihxc2:8", "c2^3"):
        group = catalog_group(name)
        for m in enumerate_ebr(group):
            assert m.invariants().fully_regular == are_isomorphic(m, m.twin()), name
            checked += 1
    assert checked >= 100
    _report(9, f"fully regular iff twin-isomorphic on {checked} maps")


def test_criterion_10_enumeration_matches_quadratic_oracle():
    small = [name for name in catalog_names()
             if catalog_group(name).order <= 16]
    assert len(small) >= 10
    for name in small:
        group = catalog_group(name)
        fast = [m.slot_indices for m in enumerate_ebr(group)]
        slow = pairwise_representatives(group, all_valid_quadruples(group))
        assert fast == slow, name
    _report(10, f"representatives equal the pairwise oracle on {len(small)} groups")


def test_criterion_11_dihedral_table_for_every_even_m_to_100():
    for m in range(4, 101, 2):
        group = catalog_group(f"dih:{2 * m}")
        maps = enumerate_ebr(group, require_proper=True, require_distinct=True,
                             chi_max=-1)
        report = classify_report(maps)
        assert not report.discrepancies, m
        rows = [1, 2, 3, 4] if (m // 2) % 2 == 1 else [1, 3]
        assert sorted(c.table_row for c in report.classes) == rows, m
    _report(11, "each dihedral table row is one class for every even m from 4 to 100")


def test_criterion_12_chi_zero_maps_of_order_to_128_are_family_maps():
    groups = ([torus_rect(a, c) for a in range(1, 33) for c in range(1, 33) if a * c <= 32]
              + [torus_rhombic(b, c) for b in range(1, 17) for c in range(1, 17) if b * c <= 16]
              + [klein(a, b) for b in (1, 2) for a in range(1, 128 // (4 * b) + 1)])
    assert len(groups) == 217
    family_forms, found, unmatched = {}, {}, []
    for family in groups:
        family_forms.setdefault(family.group.order, set()).add(twin_dual_least_form(family))
    for family in groups:
        for m in enumerate_ebr(family.group, require_proper=True):
            if m.invariants().chi != 0:
                continue
            form = twin_dual_least_form(m)
            found.setdefault(m.group.order, []).append(form)
            if form not in family_forms[m.group.order]:
                unmatched.append(m)
    assert unmatched == []
    assert sum(map(len, found.values())) == 1231
    # The converse: every family map up to order 128 turns up in the sweep.
    assert {order: set(forms) for order, forms in found.items()} == family_forms
    _report(12, "every closed chi = 0 map up to order 128 is a torus or Klein-bottle "
                f"family map ({sum(map(len, family_forms.values()))} classes up to twin and dual)")


def test_criterion_13_positive_chi_maps_of_order_to_256_are_sphere_family_maps():
    families = ([sphere_family(kind, m) for kind in ("cycle", "dipole") for m in range(1, 65)]
                + [sphere_family("dipole", m, rpp=True) for m in range(2, 129, 2)]
                + [sphere_family("semistar", m) for m in range(1, 129)])
    groups = [family.group for family in families] + [catalog_group(n) for n in catalog_names()]
    assert len(groups) == 359 and max(g.order for g in groups) == 256
    family_forms, found, unmatched, swept = {}, {}, [], 0
    for family in families:
        if family.is_proper:
            family_forms.setdefault(family.group.order, set()).add(twin_dual_least_form(family))
    for group in groups:
        for m in enumerate_ebr(group, require_proper=True):
            if m.invariants().chi <= 0:
                continue
            form, swept = twin_dual_least_form(m), swept + 1
            found.setdefault(group.order, set()).add(form)
            if form not in family_forms.get(group.order, ()):
                unmatched.append(m)
    assert unmatched == []
    assert swept == 839
    # The converse: every proper family map turns up in the sweep.  The
    # semistars are not proper, so the proper sweep cannot find them.
    assert found == family_forms
    _report(13, "every closed proper chi > 0 map up to order 256 is a cycle or dipole "
                f"sphere-family map ({sum(map(len, family_forms.values()))} classes up to "
                "twin and dual)")
