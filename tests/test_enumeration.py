import json

import pytest

import ebrmaps.ebr_core as ebr_core
import ebrmaps.enumeration as enumeration
from ebrmaps import (
    BoundaryMapError,
    CandidateBudgetExceeded,
    EdgeBiregularMap,
    FiniteGroup,
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
    sphere_family,
    torus_rect,
    torus_rhombic,
)
from ebrmaps.ebr_core import _type_and_chi
from ebrmaps.perm_group import cayley_form
from conftest import (SURVEY_GROUPS, _automorphisms, _least_under_conjugation,
                      all_valid_quadruples, aut_orbit_representatives,
                      classify_report_by_all_images, commuting_pairs_by_products,
                      conjugations_by_products, dihedral_by_closure, merge_every_pair,
                      pair_generation_memo, pairwise_class_sizes, pairwise_representatives,
                      subgroup_reference)


def test_klein_four_has_no_proper_distinct_structure():
    g = catalog_group("dih:4")
    assert enumerate_ebr(g, require_proper=True, require_distinct=True) == []


def test_dihedral8_negative_chi_classes():
    g = catalog_group("dih:8")
    maps = enumerate_ebr(g, require_proper=True, require_distinct=True, chi_max=-1)
    report = classify_report(maps)
    rows = sorted(c.table_row for c in report.classes)
    assert rows == [1, 3]
    assert all(c.table_row is not None for c in report.classes if c.chi < 0)
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


def survey(group, proper):
    """The sweep's pair list, surveyed through the sweep's conjugation table."""
    return enumeration._commuting_involution_pairs(group, proper, enumeration._conjugations(group))


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
        order, key = form(group, quad)
        if len(order) == group.order:
            formed.setdefault(quad[:2], []).append(quad[2:])
        return order, key

    monkeypatch.setattr(enumeration, "cayley_form", counted)
    maps = enumerate_ebr(group, **FLAG_SETS[flags])
    assert sum(map(len, formed.values())) == forms
    auts = _automorphisms(group, maps[0].slot_indices)
    pairs = survey(group, flags == "proper")
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
    conjugations = conjugations_by_products(group)
    pairs = enumeration._commuting_involution_pairs(
        group, FLAG_SETS[flags].get("require_proper", False), conjugations)
    index = {pair: i for i, pair in enumerate(pairs)}
    parent = enumeration._seeded_firsts(pairs, index, conjugations)
    roots = [pair for i, pair in enumerate(pairs) if parent[i] == i]
    assert roots == _least_under_conjugation(group, pairs)


SPAN_GROUPS = {**SWEEP_GROUPS, "torus_rhombic(2,3)": lambda: torus_rhombic(2, 3).group,
               "klein(3,2)": lambda: klein(3, 2).group, **SURVEY_GROUPS}


@pytest.mark.parametrize("name", SPAN_GROUPS)
def test_a_commuting_involution_pair_spans_one_x_y_and_xy(name):
    """A commuting pair of involutions generates exactly {1, x, y, xy}."""
    group = SPAN_GROUPS[name]()
    pairs = commuting_pairs_by_products(group, False)
    assert pairs
    for x, y in pairs:
        assert {0, x, y, group.mul(x, y)} == set(group.subgroup_indices((x, y))), (x, y)


@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("name", SPAN_GROUPS)
def test_commuting_pairs_match_the_product_reference(name, proper):
    group = SPAN_GROUPS[name]()
    conjugations = conjugations_by_products(group)
    assert enumeration._conjugations(group) == conjugations
    assert (enumeration._commuting_involution_pairs(group, proper, conjugations)
            == commuting_pairs_by_products(group, proper))


@pytest.mark.parametrize("name, classes, involutions", [
    ("dih:48", 3, 25), ("dihxc2:12", 7, 15), ("torus_rect(8,8)", 15, 99)])
def test_the_survey_reads_one_left_translation_per_involution_class(monkeypatch, name,
                                                                    classes, involutions):
    """The conjugation table reads one left translation per generator, and
    the survey one more for the least involution of each conjugacy class, the
    classes walked here as orbits of the oracle's conjugation arrays."""
    group = SPAN_GROUPS[name]()
    conjugations = conjugations_by_products(group)  # builds the inverse array too
    invs = group.involution_indices()
    unseen, leaders = set(invs), []
    for u in invs:
        if u in unseen:
            leaders.append(u)
            orbit = [u]
            unseen.discard(u)
            for x in orbit:  # grows while it is walked
                for conjugation in conjugations:
                    if conjugation[x] in unseen:
                        unseen.discard(conjugation[x])
                        orbit.append(conjugation[x])
    assert (len(leaders), len(invs)) == (classes, involutions)
    calls = []
    left_translation = FiniteGroup.left_translation

    def counted(self, j):
        calls.append(j)
        return left_translation(self, j)

    monkeypatch.setattr(FiniteGroup, "left_translation", counted)
    pairs = survey(group, False)
    assert calls[len(group.columns):] == leaders
    assert len(calls) == len(group.columns) + classes
    assert pairs == commuting_pairs_by_products(group, False)


def _merged_automorphisms(monkeypatch, group, **flags):
    """Every automorphism the sweep merges, conjugations by the generators
    first, whether it glues first-pair roots or merges second pairs."""
    auts, merge = [], enumeration._merge_images

    def recording(parent, pairs, index, aut, among):
        auts.append(aut)
        merge(parent, pairs, index, aut, among)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_merge_images", recording)
        enumerate_ebr(group, **flags)
    return auts


@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("name", catalog_names())
def test_a_merge_from_start_keeps_every_root_from_start_on(monkeypatch, name, proper):
    """Merging only the pairs from ``start`` on leaves each of them a root
    exactly when merging every pair would, through all the automorphisms the
    sweep merges, one after another."""
    group = catalog_group(name)
    pairs = survey(group, proper)
    index = {pair: i for i, pair in enumerate(pairs)}
    auts = _merged_automorphisms(monkeypatch, group, require_proper=proper)
    assert auts
    for start in range(0, len(pairs) + 1, max(1, len(pairs) // 20)):
        whole, short = list(range(len(pairs))), list(range(len(pairs)))
        for aut in auts:
            merge_every_pair(whole, pairs, index, aut)
            enumeration._merge_images(short, pairs, index, aut, range(start, len(pairs)))
            assert ([whole[i] == i for i in range(start, len(pairs))]
                    == [short[i] == i for i in range(start, len(pairs))]), start


@pytest.mark.parametrize("name, flags", [case for case in SWEEP_CASES
                                         if case[0] != "torus_rect(6,6)"])
def test_sweep_forms_the_quads_it_forms_with_whole_merges(monkeypatch, name, flags):
    group = SWEEP_GROUPS[name]()

    def formed_quads(merge):
        quads, form = [], enumeration.cayley_form

        def counted(group, quad):
            order, key = form(group, quad)
            if len(order) == group.order:
                quads.append(quad)
            return order, key

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "cayley_form", counted)
            patch.setattr(enumeration, "_merge_images", merge)
            enumerate_ebr(group, **FLAG_SETS[flags])
        return quads

    def whole(parent, pairs, index, aut, among):
        merge_every_pair(parent, pairs, index, aut)

    assert formed_quads(enumeration._merge_images) == formed_quads(whole)


def _swept_pairs(group, flags):
    return survey(group, FLAG_SETS[flags].get("require_proper", False))


@pytest.mark.parametrize("name, flags", [case for case in SWEEP_CASES
                                         if case[0] != "torus_rect(6,6)"])
def test_first_pairs_visited_are_the_roots_whole_merges_leave(monkeypatch, name, flags):
    """The sweep glues only first pairs least under conjugation, yet the
    first pairs it forms quadruples under are exactly the pairs that generate
    with some second pair and are still roots once every pair is merged with
    its image under each automorphism found before the sweep reached it."""
    group = SWEEP_GROUPS[name]()
    events, firsts = [], []  # formed first pairs and first-pair automorphisms, in order
    form, merge = enumeration.cayley_form, enumeration._merge_images

    def counted(group, quad):
        order, key = form(group, quad)
        if len(order) == group.order:
            events.append(quad[:2])
        return order, key

    def recording(parent, pairs, index, aut, among):
        if not firsts:  # the seeding is the first merge, into the first-pair union-find
            firsts.append(parent)
        if parent is firsts[0]:
            events.append(aut)
        merge(parent, pairs, index, aut, among)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "cayley_form", counted)
        patch.setattr(enumeration, "_merge_images", recording)
        enumerate_ebr(group, **FLAG_SETS[flags])

    tagged, current = [], ()  # (first pair the automorphism was found under, automorphism)
    for event in events:
        if isinstance(event, tuple):
            current = event
        else:
            tagged.append((current, event))
    pairs = _swept_pairs(group, flags)
    index = {pair: i for i, pair in enumerate(pairs)}
    generates = pair_generation_memo(group)
    distinct = FLAG_SETS[flags].get("require_distinct", False)
    whole, merged, expected = list(range(len(pairs))), 0, []
    for i, r in enumerate(pairs):
        while merged < len(tagged) and tagged[merged][0] < r:
            merge_every_pair(whole, pairs, index, tagged[merged][1])
            merged += 1
        if whole[i] == i and any(generates(r, p) for p in pairs
                                 if not (distinct and len(set(r + p)) < 4)):
            expected.append(r)
    assert list(dict.fromkeys(e for e in events if isinstance(e, tuple))) == expected


@pytest.mark.parametrize("name, flags", [case for case in SWEEP_CASES
                                         if case[0] != "torus_rect(6,6)"])
def test_second_pairs_inside_a_kept_subgroup_do_not_generate(monkeypatch, name, flags):
    """Each walk that ends in a proper subgroup K is kept, and the sweep then
    rejects every quadruple inside a kept K with no walk.  Every second pair
    inside K generates a proper subgroup with each visited first pair inside
    K, and the sweep walks the same generating quadruples keeping nothing."""
    group = SWEEP_GROUPS[name]()
    form = enumeration.cayley_form

    def swept(keep):
        kept, quads = [], []

        def walked(group, quad):
            order, key = form(group, quad)
            if len(order) == group.order:
                quads.append(quad)
                return order, key
            kept.append(set(order))
            return (order if keep else []), key  # an empty visiting order marks nothing

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "cayley_form", walked)
            enumerate_ebr(group, **FLAG_SETS[flags])
        return kept, quads

    kept, quads = swept(True)
    assert quads == swept(False)[1]
    visited = {quad[:2] for quad in quads}
    for subgroup in kept:
        inside = [p for p in _swept_pairs(group, flags) if set(p) <= subgroup]
        for r in visited.intersection(inside):
            for p in inside:
                assert len(subgroup_reference(group, r + p)) < group.order, (r, p)


@pytest.mark.parametrize("name", ["dih:12", "dihxc2:8", "c2^3", "torus_rect(4,4)"])
def test_sweep_builds_its_representatives_without_revalidating(monkeypatch, name):
    group = SWEEP_GROUPS[name]()

    def refuse(*args):
        raise AssertionError("the sweep validated a representative again")

    with monkeypatch.context() as patch:
        patch.setattr(EdgeBiregularMap, "__init__", refuse)
        maps = enumerate_ebr(group)
    assert maps
    for m in maps:
        checked = EdgeBiregularMap(group, *m.slot_indices)
        assert (m.group, m.degeneracy_class, m.boundary_type) == (
            checked.group, checked.degeneracy_class, checked.boundary_type)
        assert m.invariants() == checked.invariants()
        assert m._form == cayley_form(group, m.slot_indices)[1]


# The output of the sweep before kept subgroups and glued roots, which ran
# 12,319 closures here.
TORUS_16_PROPER = [
    (1, 2, 3, 4), (1, 2, 3, 11), (1, 2, 4, 3), (1, 2, 4, 11), (1, 2, 11, 3), (1, 2, 11, 4),
    (1, 5, 3, 4), (1, 5, 3, 11), (1, 5, 4, 3), (1, 5, 4, 11), (1, 5, 11, 3), (1, 5, 11, 4),
    (5, 1, 3, 4), (5, 1, 3, 11), (5, 1, 4, 3), (5, 1, 4, 11), (5, 1, 11, 3), (5, 1, 11, 4)]


def test_sweep_of_an_order_1024_torus_runs_few_closures(monkeypatch):
    """Each quadruple the sweep walks either keys a form or ends in a proper
    subgroup; only 39 walks end short, against 12,319 closures once."""
    group = torus_rect(16, 16).group
    short, full, form = [], [], enumeration.cayley_form

    def counted(group, quad):
        order, key = form(group, quad)
        (full if len(order) == group.order else short).append(quad)
        return order, key

    monkeypatch.setattr(enumeration, "cayley_form", counted)
    maps = enumerate_ebr(group, require_proper=True)
    assert [m.slot_indices for m in maps] == TORUS_16_PROPER
    assert (len(short), len(full)) == (39, 38)


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


def test_candidate_budget_counts_the_quadruples_joined(monkeypatch):
    """The budget counts quadruples as they reach the generation test, so a
    sweep is refused after it has joined one more than the budget."""
    g = catalog_group("dihxc2:24")
    joined, form, forms = 1871, enumeration.cayley_form, []

    def counted(group, quad):
        order, key = form(group, quad)
        if len(order) == group.order:
            forms.append(quad)
        return order, key

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "cayley_form", counted)
        maps = enumerate_ebr(g, max_candidates=joined)
    assert [m.slot_indices for m in maps] == [m.slot_indices for m in enumerate_ebr(g)]
    pairs = survey(g, False)
    # Each form was joined first; the bound counted before the sweep was 12,201.
    assert len(forms) < joined < len(_least_under_conjugation(g, pairs)) * len(pairs) == 12201
    with pytest.raises(CandidateBudgetExceeded,
                       match=f"^{joined} candidate quadruples exceed the budget {joined - 1}$"):
        enumerate_ebr(g, max_candidates=joined - 1)
    with pytest.raises(CandidateBudgetExceeded,
                       match="^2 candidate quadruples exceed the budget 1$"):
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


def test_dihedral_report_records_group_kind():
    m = dihedral_map(4, 1)
    assert is_dihedral(m.group)
    assert [c.table_row for c in classify_report([m]).classes] == [1]


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


@pytest.mark.parametrize("name, flags, walks", [
    ("dihxc2:20", "proper", 34), ("dih:24", "none", 13), ("c2^3", "none", 9),
    ("torus_rect(4,4)", "proper", 14)])
def test_report_walks_the_images_it_cannot_infer_and_none_of_a_swept_map(
        monkeypatch, name, flags, walks):
    """The sweep keeps each map's own form.  Of the first map of each class
    the report walks the twin quad unless the map is fully regular, then the
    dual quad, then the twin-of-dual quad only when the own, twin and dual
    forms are pairwise distinct; it walks no other quad.  Three walks per
    class would be 48, 21, 15 and 24 here."""
    group = SWEEP_GROUPS[name]()
    maps = enumerate_ebr(group, **FLAG_SETS[flags])
    form, formed = enumeration.cayley_form, []

    def counted(group, quad):
        order, key = form(group, quad)
        if len(order) == group.order:
            formed.append(tuple(quad))
        return order, key

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "cayley_form", counted)
        report = classify_report(maps)
    expected, known, openers = [], set(), []
    for m in sorted(maps, key=lambda m: m.slot_indices):
        if m._form in known:
            continue
        openers.append(m.slot_indices)
        r0, r2, p0, p2 = m.slot_indices
        twin, dual, twin_of_dual = (p0, p2, r0, r2), (r2, r0, p2, p0), (p2, p0, r2, r0)
        own, twin_form, dual_form, twin_of_dual_form = (
            form(group, quad)[1] for quad in (m.slot_indices, twin, dual, twin_of_dual))
        if not m.invariants().fully_regular:
            expected.append(twin)
        expected.append(dual)
        if len({own, twin_form, dual_form}) == 3:
            expected.append(twin_of_dual)
        known |= {own, twin_form, dual_form, twin_of_dual_form}
    assert len(openers) == len(report.classes) > 1
    assert formed == expected
    assert len(formed) == walks


ORACLE_GROUPS = dict(SWEEP_GROUPS)
ORACLE_CASES = [(name, flags) for name in catalog_names() for flags in FLAG_SETS]
for a in range(1, 17):
    for c in range(1, 16 // a + 1):
        ORACLE_GROUPS[f"torus_rect({a},{c})"] = lambda a=a, c=c: torus_rect(a, c).group
        ORACLE_CASES.append((f"torus_rect({a},{c})", "proper"))
for b in (1, 2):
    for a in range(1, 16 // b + 1):
        ORACLE_GROUPS[f"klein({a},{b})"] = lambda a=a, b=b: klein(a, b).group
        ORACLE_CASES.append((f"klein({a},{b})", "proper"))


def _chi_by_counting(m):
    """``(k, l, chi)`` of a closed map from the orders of ``r2 rho2`` and
    ``r0 rho0`` and V - E + F, with no shared helper."""
    group, (r0, r2, p0, p2) = m.group, m.slot_indices
    n = group.order
    k = 2 * group.element_order(group.mul(r2, p2))
    l = 2 * group.element_order(group.mul(r0, p0))
    edges = (n // 4 if r0 != r2 else 0) + (n // 4 if p0 != p2 else 0)
    return k, l, n // k - edges + n // l


@pytest.mark.parametrize("name, flags", ORACLE_CASES)
def test_report_matches_the_reference_that_walks_every_image(name, flags):
    """The inferred images give the report that walking all three images of
    every class opener gives; full regularity is the twin form being the map's
    own; and the sweep's chi filter reads the chi ``invariants()`` reports."""
    group = ORACLE_GROUPS[name]()
    maps = enumerate_ebr(group, **FLAG_SETS[flags])
    report, reference = classify_report(maps), classify_report_by_all_images(maps)
    assert json.dumps(report.to_json()) == json.dumps(reference.to_json())
    for m in maps:
        r0, r2, p0, p2 = m.slot_indices
        inv = m.invariants()
        assert inv.fully_regular == (cayley_form(group, (p0, p2, r0, r2))[1] == m._form)
        assert _type_and_chi(group, m.slot_indices) == (inv.k, inv.l, inv.chi)
        assert _chi_by_counting(m) == (inv.k, inv.l, inv.chi)


def _family_maps_to_order_160():
    yield from (torus_rect(a, c) for a in range(1, 41) for c in range(1, 40 // a + 1))
    yield from (torus_rhombic(b, c) for b in range(1, 21) for c in range(1, 20 // b + 1))
    yield from (klein(a, b) for b in (1, 2) for a in range(1, 40 // b + 1))
    for m in range(4, 81, 2):
        yield from (dihedral_map(m, row) for row in ((1, 2, 3, 4) if m // 2 % 2 else (1, 3)))
    for m in range(1, 41):
        yield from (sphere_family(kind, m) for kind in ("cycle", "dipole"))
    for m in range(1, 81):
        yield sphere_family("semistar", m)
        if m % 2 == 0:
            yield sphere_family("dipole", m, rpp=True)


def test_chi_helper_matches_invariants_on_every_family_map_to_order_160():
    checked = 0
    for m in _family_maps_to_order_160():
        assert m.group.order <= 160, m
        inv = m.invariants()
        assert _type_and_chi(m.group, m.slot_indices) == (inv.k, inv.l, inv.chi), m
        assert _chi_by_counting(m) == (inv.k, inv.l, inv.chi), m
        checked += 1
    assert checked > 500


def test_chi_filter_runs_no_corner_walk(monkeypatch):
    """The sweep's chi filter reads k, l and chi off two product orders: it
    walks no corners and builds no ``MapInvariants``."""
    walks, walk = [], ebr_core._corner_walk

    def counted(group, slot_indices):
        walks.append(tuple(slot_indices))
        return walk(group, slot_indices)

    monkeypatch.setattr(ebr_core, "_corner_walk", counted)
    maps = enumerate_ebr(catalog_group("dihxc2:24"), require_proper=True,
                         require_distinct=True, chi_max=-1)
    assert maps and walks == []
    assert all(m._invariants is None for m in maps)
    assert all(m.invariants().chi <= -1 for m in maps) and len(walks) == len(maps)


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
