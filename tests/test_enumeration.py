import pytest

import ebrmaps.enumeration as enumeration
from ebrmaps import (
    BoundaryMapError,
    CandidateBudgetExceeded,
    catalog_group,
    catalog_names,
    classify_report,
    construction1,
    dihedral_map,
    dihedral_table_row,
    enumerate_ebr,
    is_dihedral,
    klein,
    regular_catalog,
    torus_rect,
    torus_rhombic,
)
from conftest import (_automorphisms, _least_under_conjugation, all_valid_quadruples,
                      aut_orbit_representatives, dihedral_by_closure, pair_generation_memo,
                      pairwise_class_sizes, pairwise_representatives)


def test_klein_four_has_no_proper_distinct_structure():
    g = catalog_group("dih:4")
    assert enumerate_ebr(g, require_proper=True, require_distinct=True) == []


def test_dihedral8_negative_chi_classes():
    g = catalog_group("dih:8")
    maps = enumerate_ebr(g, require_proper=True, require_distinct=True, chi_max=-1)
    report = classify_report(maps)
    rows = sorted(c.table_row for c in report.classes)
    assert rows == [1, 3]
    assert report.discrepancies == []
    by_row = {c.table_row: c for c in report.classes}
    assert by_row[1].chi == -2 and (by_row[1].V, by_row[1].F) == (1, 1)
    assert by_row[1].fully_regular
    assert by_row[3].chi == -1 and not by_row[3].fully_regular


def test_dihedral12_all_four_rows():
    g = catalog_group("dih:12")
    maps = enumerate_ebr(g, require_proper=True, require_distinct=True, chi_max=-1)
    report = classify_report(maps)
    assert sorted(c.table_row for c in report.classes) == [1, 2, 3, 4]


def test_enumeration_returns_lex_least_representatives():
    g = catalog_group("dih:8")
    maps = enumerate_ebr(g)
    quads = [m.slot_indices for m in maps]
    assert quads == sorted(quads)
    # each representative is minimal in its class: no earlier quadruple maps to it
    from ebrmaps import extend_generator_map
    for i, q in enumerate(quads):
        for other in quads[:i]:
            assert extend_generator_map(g, list(other), list(q)) is None


@pytest.mark.parametrize("name", ["dih:4", "dih:6", "dih:8", "dih:10", "dih:12",
                                  "dih:14", "dih:16", "dihxc2:4", "dihxc2:6",
                                  "dihxc2:8", "c2^1", "c2^2", "c2^3",
                                  "dih:20", "dih:24", "dihxc2:10"])
def test_deduplication_matches_pairwise_oracle(name):
    g = catalog_group(name)
    fast = [m.slot_indices for m in enumerate_ebr(g)]
    assert fast == pairwise_representatives(g, all_valid_quadruples(g))


FLAG_SETS = {
    "none": {},
    "proper": {"require_proper": True},
    "proper-distinct-chi-1": {"require_proper": True, "require_distinct": True, "chi_max": -1},
}
SWEEP_GROUPS = {name: (lambda name=name: catalog_group(name)) for name in catalog_names()}
SWEEP_GROUPS["torus_rect(4,4)"] = lambda: torus_rect(4, 4).group
SWEEP_CASES = [(name, flags) for name in SWEEP_GROUPS for flags in FLAG_SETS]
# One flag set at order 144: the reference sweep takes about 5 s there.
SWEEP_GROUPS["torus_rect(6,6)"] = lambda: torus_rect(6, 6).group
SWEEP_CASES.append(("torus_rect(6,6)", "proper"))


@pytest.mark.parametrize("name, flags", SWEEP_CASES)
def test_sweep_matches_aut_orbit_reference(name, flags):
    group = SWEEP_GROUPS[name]()
    found = [m.slot_indices for m in enumerate_ebr(group, **FLAG_SETS[flags])]
    assert found == aut_orbit_representatives(group, **FLAG_SETS[flags])


@pytest.mark.parametrize("name, flags, forms", [
    ("c2^3", "none", 17), ("dihxc2:20", "proper", 56), ("torus_rect(4,4)", "none", 32)])
def test_sweep_keys_one_form_on_a_first_pair_an_automorphism_reaches(
        monkeypatch, name, flags, forms):
    """A first pair that is least in its Aut(H)-orbit gets a form for each
    second pair not yet shown to be the image of an earlier one under an
    automorphism fixing it; any other first pair gets at most one form, the
    one that shows an earlier pair maps to it."""
    group = SWEEP_GROUPS[name]()
    form, formed = enumeration.cayley_form, {}

    def counted(group, quad):
        formed.setdefault(quad[:2], []).append(quad[2:])
        return form(group, quad)

    monkeypatch.setattr(enumeration, "cayley_form", counted)
    maps = enumerate_ebr(group, **FLAG_SETS[flags])
    assert sum(map(len, formed.values())) == forms
    auts = _automorphisms(group, maps[0].slot_indices)
    pairs = enumeration._commuting_involution_pairs(group, flags == "proper")
    generates = pair_generation_memo(group)
    for r in pairs:
        partners = [p for p in pairs if generates(r, p)]
        seconds = formed.get(r, [])
        least = r == min((aut[r[0]], aut[r[1]]) for aut in auts)
        if not partners:
            assert not seconds
            continue
        # A first pair with no form of its own is the image of an earlier pair.
        assert seconds or not least, r
        if not least:
            assert len(seconds) <= 1, r
        # A second pair skipped under r is the image of an earlier second pair
        # under an automorphism fixing r; a pair that is not least stops at its form.
        stabiliser = [aut for aut in auts if (aut[r[0]], aut[r[1]]) == r]
        for p in partners:
            if p not in seconds and (least or seconds and p < seconds[0]):
                assert any((aut[p[0]], aut[p[1]]) < p for aut in stabiliser), (r, p)


@pytest.mark.parametrize("name, flags", [case for case in SWEEP_CASES
                                         if case[0] != "torus_rect(6,6)"])
def test_first_pair_roots_after_seeding_are_least_under_conjugation(name, flags):
    group = SWEEP_GROUPS[name]()
    pairs = enumeration._commuting_involution_pairs(
        group, FLAG_SETS[flags].get("require_proper", False))
    index = {pair: i for i, pair in enumerate(pairs)}
    parent = enumeration._seeded_firsts(group, pairs, index)
    roots = [pair for i, pair in enumerate(pairs) if parent[i] == i]
    assert roots == _least_under_conjugation(group, pairs)


SPAN_GROUPS = {**SWEEP_GROUPS, "torus_rhombic(2,3)": lambda: torus_rhombic(2, 3).group,
               "klein(3,2)": lambda: klein(3, 2).group}


@pytest.mark.parametrize("name", SPAN_GROUPS)
def test_a_commuting_involution_pair_spans_one_x_y_and_xy(name):
    """The sweep reads each pair's subgroup off the pair as {1, x, y, xy}."""
    group = SPAN_GROUPS[name]()
    invs = group.involution_indices()
    pairs = [(x, y) for x in invs for y in invs if group.mul(x, y) == group.mul(y, x)]
    assert pairs
    for x, y in pairs:
        assert {0, x, y, group.mul(x, y)} == set(group.subgroup_indices((x, y))), (x, y)


def test_enumerated_quadruples_are_valid():
    g = catalog_group("dih:12")
    valid = set(all_valid_quadruples(g))
    for m in enumerate_ebr(g):
        assert m.slot_indices in valid
        assert m.group is g


def test_filters():
    g = catalog_group("dih:8")
    everything = enumerate_ebr(g)
    proper = enumerate_ebr(g, require_proper=True)
    distinct = enumerate_ebr(g, require_distinct=True)
    assert {m.slot_indices for m in proper} <= {m.slot_indices for m in everything}
    for m in proper:
        assert m.slot_indices[0] != m.slot_indices[1]
        assert m.slot_indices[2] != m.slot_indices[3]
    for m in distinct:
        assert len(set(m.slot_indices)) == 4
    capped = enumerate_ebr(g, chi_max=0)
    assert all(m.invariants().chi <= 0 for m in capped)


def test_enumeration_is_deterministic():
    g = catalog_group("dih:12")
    once = [m.slot_indices for m in enumerate_ebr(g)]
    again = [m.slot_indices for m in enumerate_ebr(g)]
    assert once == again


def test_candidate_budget():
    g = catalog_group("dih:12")
    with pytest.raises(CandidateBudgetExceeded):
        enumerate_ebr(g, max_candidates=10)


def test_negative_candidate_budget_is_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_ebr(catalog_group("dih:8"), max_candidates=-1)


def test_candidate_budget_counts_first_pairs_least_under_conjugation():
    g = catalog_group("dihxc2:24")
    pairs = enumeration._commuting_involution_pairs(g, False)
    joined = len(_least_under_conjugation(g, pairs)) * len(pairs)
    assert joined == 12201
    with pytest.raises(CandidateBudgetExceeded, match=f"^{joined} candidate quadruples"):
        enumerate_ebr(g, max_candidates=1)


def test_family_rows_appear_among_enumerated_maps():
    # The explicit-permutation constructions and the enumeration route are
    # independent code paths; every family map must land in some class.
    for m in (4, 6):
        group = catalog_group(f"dih:{2 * m}")
        enumerated = enumerate_ebr(group, require_proper=True,
                                   require_distinct=True, chi_max=-1)
        rows = (1, 3) if (m // 2) % 2 == 0 else (1, 2, 3, 4)
        for row in rows:
            family = dihedral_map(m, row)
            hits = [e for e in enumerated if _iso_cross_group(family, e)]
            assert len(hits) == 1, (m, row, len(hits))


def _iso_cross_group(a, b):
    from ebrmaps import are_isomorphic
    return are_isomorphic(a, b)


# -- classification report ------------------------------------------------------

def test_non_dihedral_groups_are_not_flagged():
    # D12 x C2 is not dihedral (12/2 is even) yet supports chi < 0 maps;
    # the classification table does not apply, so nothing is a discrepancy.
    g = catalog_group("dihxc2:12")
    assert not is_dihedral(g)
    maps = enumerate_ebr(g, require_proper=True, require_distinct=True, chi_max=-1)
    report = classify_report(maps)
    assert len(report.classes) > 0
    assert all(c.table_row is None for c in report.classes)
    assert not report.group_is_dihedral
    assert report.discrepancies == []


def test_dihedral_report_records_group_kind():
    report = classify_report([dihedral_map(4, 1)])
    assert report.group_is_dihedral


def test_report_handles_semi_edge_maps():
    g = catalog_group("dih:8")
    report = classify_report(enumerate_ebr(g))
    assert any(c.chi == 2 for c in report.classes)      # semistars and digons
    assert all(c.table_row is None for c in report.classes if c.chi >= 0)
    assert sum(c.class_size for c in report.classes) == len(enumerate_ebr(g))


@pytest.mark.parametrize("name", ["dih:12", "dih:24", "dihxc2:12", "c2^3"])
@pytest.mark.parametrize("flags", [
    {"require_proper": True},
    {"require_proper": True, "require_distinct": True, "chi_max": -1},
    {},
])
def test_classification_matches_pairwise_oracle(name, flags):
    maps = enumerate_ebr(catalog_group(name), **flags)
    sizes = [c.class_size for c in classify_report(maps).classes]
    assert sizes == pairwise_class_sizes(maps)


def test_classification_of_non_representatives_matches_pairwise_oracle():
    m = dihedral_map(4, 3)
    sizes = [c.class_size for c in classify_report([m, m.twin()]).classes]
    assert sizes == pairwise_class_sizes([m, m.twin()]) == [2]


def test_twin_pair_forms_one_class():
    m = dihedral_map(4, 3)
    assert not m.invariants().fully_regular
    report = classify_report([m, m.twin()])
    assert len(report.classes) == 1
    assert report.classes[0].class_size == 2


def test_report_rejects_mixed_groups():
    with pytest.raises(ValueError, match="one group"):
        classify_report([dihedral_map(4, 1), dihedral_map(6, 1)])


def test_report_compares_groups_by_columns_not_elements(monkeypatch):
    from ebrmaps import EdgeBiregularMap, FiniteGroup

    def unlisted(self):
        raise AssertionError("elements listed")

    monkeypatch.setattr(FiniteGroup, "elements", property(unlisted))
    shared = enumerate_ebr(torus_rect(3, 3).group, require_proper=True)
    copy = torus_rect(3, 3).group
    mixed = [m if i % 2 else EdgeBiregularMap(copy, *m.slot_indices)
             for i, m in enumerate(shared)]
    assert classify_report(mixed) == classify_report(shared)
    with pytest.raises(ValueError, match="maps must share one group"):
        classify_report([torus_rect(3, 4), torus_rect(4, 3)])


def test_report_rejects_boundary_maps():
    with pytest.raises(BoundaryMapError):
        classify_report([construction1(regular_catalog("tetrahedron"))])


def test_report_json_shape():
    report = classify_report([dihedral_map(4, 1)])
    payload = report.to_json()
    assert payload == [{
        "class_size": 1,
        "type": [8, 8],
        "chi": -2,
        "V": 1,
        "F": 1,
        "orientable": True,
        "fully_regular": True,
        "table_row": 1,
    }]


def test_table_row_matcher_accepts_duals():
    # row 3 for m = 4 in both orientations
    assert dihedral_table_row(8, 8, 4, 1, 2, -1, False) == 3
    assert dihedral_table_row(8, 4, 8, 2, 1, -1, False) == 3


def test_table_row_matcher_flags_corrupted_data():
    # corrupted fixtures: right shape, one wrong entry each
    assert dihedral_table_row(8, 8, 8, 1, 1, -2, True) == 1
    assert dihedral_table_row(8, 8, 8, 2, 1, -2, True) is None     # V corrupted
    assert dihedral_table_row(8, 8, 8, 1, 1, -3, True) is None     # chi corrupted
    assert dihedral_table_row(8, 8, 8, 1, 1, -2, False) is None    # regularity flipped
    assert dihedral_table_row(12, 6, 6, 2, 2, -2, True) == 2
    assert dihedral_table_row(16, 8, 8, 2, 2, -4, True) is None    # m/2 even: no row 2


# -- built-in catalog --------------------------------------------------------------

def test_catalog_names_cover_spec_families():
    names = catalog_names()
    assert "dih:48" in names and "dih:2" in names
    assert "dihxc2:24" in names
    assert "c2^3" in names


@pytest.mark.parametrize("name", [n for n in catalog_names() if n.startswith("dih")])
def test_dihedral_catalog_columns_match_closure(name):
    kind, _, n = name.partition(":")
    reference = dihedral_by_closure(int(n), times_c2=kind == "dihxc2")
    group = catalog_group(name)
    assert group.generator_names == reference.generator_names
    assert group.columns == reference.columns


@pytest.mark.parametrize("k", [1, 2, 3])
def test_elementary_abelian_catalog_columns_match_closure(k):
    from ebrmaps import Permutation, closure
    transpositions = [Permutation.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)]
    reference = closure(transpositions, names=[f"t{i}" for i in range(k)])
    group = catalog_group(f"c2^{k}")
    assert group.generator_names == reference.generator_names
    assert group.columns == reference.columns


def test_catalog_group_orders():
    assert catalog_group("dih:14").order == 14
    assert catalog_group("dihxc2:10").order == 20
    assert catalog_group("c2^3").order == 8
    assert is_dihedral(catalog_group("dih:30"))
    with pytest.raises(ValueError):
        catalog_group("sporadic:1")
    with pytest.raises(ValueError):
        catalog_group("dih:7")
