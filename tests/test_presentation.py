import pytest
from hypothesis import given, settings, strategies as st

from ebrmaps import (
    CosetLimitExceeded,
    GroupPresentation,
    Permutation,
    PresentationSyntaxError,
    closure,
    coset_enumerate,
    dihedral_presentation,
    ebr_type_presentation,
    parse_presentation,
    square_grid_group,
    triangle_group,
)
from conftest import cube_rotation_system, evaluate_word, felsch_reference, random_quotients
from ebrmaps import rotation_system_to_flagmap

# The universal corner-gluing group: two commuting pairs of involutions with
# no mixed relations (a free product of two Klein four-groups).
CORNER_MONODROMY = GroupPresentation(
    ("r0", "r2", "p0", "p2"),
    (((0, 2),), ((1, 2),), ((2, 2),), ((3, 2),), ((0, 1), (1, 1)) * 2, ((2, 1), (3, 1)) * 2))


def test_parse_single_generator():
    pres = parse_presentation("< a | a^2 >")
    assert pres.generator_names == ("a",)
    assert len(pres.relators) == 1


def test_parse_corner_monodromy_text_matches_constructor():
    text = "< r0, r2, p0, p2 | r0^2, r2^2, p0^2, p2^2, (r0 r2)^2, (p0 p2)^2 >"
    assert parse_presentation(text) == CORNER_MONODROMY


def test_parse_syntax_error_reports_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("< a, b | a^2, b^3 (")
    assert err.value.line == 1
    assert err.value.column >= 19


@pytest.mark.parametrize("text, message, column", [
    ("< a, b | a^2 > x", "trailing input 'x'", 16),
    ("< a, b | a^b >", "expected integer exponent, found 'b'", 12),
    ("< a, b, a | a^2 >", "duplicate generator name 'a'", 9),
])
def test_parse_error_points_at_its_token(text, message, column):
    with pytest.raises(PresentationSyntaxError, match=message) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_parse_unknown_generator():
    with pytest.raises(PresentationSyntaxError, match="unknown generator"):
        parse_presentation("< a | b^2 >")


def test_parse_zero_exponent():
    with pytest.raises(PresentationSyntaxError, match="zero exponent"):
        parse_presentation("< a | a^0 >")


def test_parse_round_trips_through_str():
    for pres in (triangle_group(3, 4), square_grid_group(), dihedral_presentation(5),
                 parse_presentation("< a, b | a^4, a^2 b^-2, b^-1 a b a >")):
        assert parse_presentation(str(pres)) == pres


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True)


@st.composite
def _presentations(draw):
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    term = st.tuples(st.integers(0, len(names) - 1), st.integers(-10**5, 10**5).filter(bool))
    relators = draw(st.lists(st.lists(term, min_size=1, max_size=6).map(tuple),
                             min_size=1, max_size=4))
    return GroupPresentation(tuple(names), tuple(relators))


@given(_presentations())
def test_parse_round_trips_through_str_on_random_presentations(pres):
    assert parse_presentation(str(pres)) == pres


def test_negative_exponents_track_formal_inverses():
    pres = parse_presentation("< a, b | a^3, b^2, (a b)^-2 >")
    g = coset_enumerate(pres, max_cosets=100)
    assert g.order == 6


def test_enumerate_small_dihedral():
    pres = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
    assert coset_enumerate(pres, max_cosets=100).order == 6


@pytest.mark.parametrize("m", range(2, 33))
def test_dihedral_presentations_enumerate_to_2m(m):
    assert coset_enumerate(dihedral_presentation(m), max_cosets=2000).order == 2 * m


def test_triangle_group_parameter_validation():
    with pytest.raises(ValueError):
        triangle_group(1, 4)


def test_triangle_3_3_is_tetrahedral():
    assert coset_enumerate(triangle_group(3, 3), max_cosets=1000).order == 24


def test_triangle_3_4_matches_cube_flag_closure():
    # Independent oracle: the closure of the cube's explicit flag
    # permutations has the same order as the (3,4) triangle group.
    cube = rotation_system_to_flagmap(*cube_rotation_system())
    flag_group = closure([Permutation(cube.s0), Permutation(cube.s1), Permutation(cube.s2)])
    enumerated = coset_enumerate(triangle_group(3, 4), max_cosets=1000)
    assert flag_group.order == 48
    assert enumerated.order == 48


def test_triangle_4_4_exceeds_any_bound():
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(triangle_group(4, 4), max_cosets=3000)


def test_corner_monodromy_is_infinite_up_to_bound():
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(CORNER_MONODROMY, max_cosets=10**4)


def test_type_presentation_spherical_cases_are_the_cycle_groups():
    from ebrmaps import EdgeBiregularMap, are_isomorphic, ebr_type_presentation, sphere_family

    def universal_map(k, l):
        group = coset_enumerate(ebr_type_presentation(k, l), max_cosets=500)
        return EdgeBiregularMap(group, *(group.generator_index(n)
                                         for n in ("r0", "r2", "rho0", "rho2")))

    universal = universal_map(2, 6)
    assert universal.group.order == 12
    assert are_isomorphic(universal, sphere_family("cycle", 3))
    assert are_isomorphic(universal_map(6, 2), sphere_family("dipole", 3))


def test_type_presentation_euclidean_and_hyperbolic_are_infinite():
    from ebrmaps import ebr_type_presentation, square_grid_group

    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(square_grid_group(), max_cosets=2000)
    with pytest.raises(CosetLimitExceeded):
        coset_enumerate(ebr_type_presentation(6, 6), max_cosets=2000)
    with pytest.raises(ValueError):
        ebr_type_presentation(3, 4)


def test_enumerate_rejects_empty_generators():
    with pytest.raises(ValueError):
        coset_enumerate(GroupPresentation((), ()))


def test_enumerate_refuses_a_coset_limit_below_one():
    with pytest.raises(ValueError, match="max_cosets must be at least 1"):
        coset_enumerate(dihedral_presentation(3), max_cosets=0)


def test_trivializing_relator():
    assert coset_enumerate(parse_presentation("< a | a >"), max_cosets=10).order == 1


@pytest.mark.parametrize("pres", [
    triangle_group(3, 4),
    triangle_group(2, 6),
    dihedral_presentation(7),
    parse_presentation("< a, b | a^4, b^2, (a b)^2 >"),
])
def test_relators_hold_in_enumerated_group(pres):
    g = coset_enumerate(pres, max_cosets=2000)
    for word in pres.relators:
        assert evaluate_word(word, list(g.generators)).is_identity()


def test_enumeration_is_deterministic():
    pres = triangle_group(3, 5)
    g1 = coset_enumerate(pres, max_cosets=2000)
    g2 = coset_enumerate(pres, max_cosets=2000)
    assert g1.order == 120
    assert [p.images for p in g1.generators] == [p.images for p in g2.generators]
    assert g1.elements == g2.elements


def test_generator_names_flow_through():
    g = coset_enumerate(triangle_group(3, 3), max_cosets=1000)
    assert g.generator_names == ("R0", "R2", "R1")
    assert g.generator("R1") in g


@pytest.mark.parametrize("text,order", [
    ("< a, b | a^4, a^2 b^-2, b^-1 a b a >", 8),        # quaternion group
    ("< a, b | a^2, b^3, (a b)^4 >", 24),               # (2,3,4) rotation group
    ("< a, b | a^2, b^3, a b a^-1 b^-1 >", 6),          # abelianized: C6
    ("< a, b | a^3, b^3, (a b)^3, (a b^-1)^3 >", 27),   # Heisenberg mod 3
    ("< a | a^7 >", 7),
    ("< a, b | a^2, b^2, a b a b a b >", 6),            # relator written flat
])
def test_enumeration_handles_formal_inverses(text, order):
    g = coset_enumerate(parse_presentation(text), max_cosets=5000)
    assert g.order == order
    pres = parse_presentation(text)
    for word in pres.relators:
        assert evaluate_word(word, list(g.generators)).is_identity()


def test_enumeration_with_heavy_coincidences():
    # Redundant relators force early collapses; orders must be unaffected.
    text = "< a, b | a^2, b^2, (a b)^5, (b a)^5, (a b)^10, a b a b a b a b a b >"
    assert coset_enumerate(parse_presentation(text), max_cosets=500).order == 10


def test_random_quotients_stay_consistent():
    # Append random extra relators to a finite presentation: the quotient
    # order must divide the original order and every relator must hold in
    # the result.  Exercises coincidence cascades from many directions.
    import random

    rng = random.Random(271828)
    base = triangle_group(3, 4)
    for _ in range(40):
        extra = []
        for _ in range(rng.randint(1, 2)):
            word = tuple((rng.randrange(3), rng.choice((1, -1, 2)))
                         for _ in range(rng.randint(1, 6)))
            extra.append(word)
        pres = GroupPresentation(base.generator_names,
                                 base.relators + tuple(extra))
        g = coset_enumerate(pres, max_cosets=2000)
        assert 48 % g.order == 0
        for word in pres.relators:
            assert evaluate_word(word, list(g.generators)).is_identity()
        again = coset_enumerate(pres, max_cosets=2000)
        assert g.elements == again.elements


def test_presentation_validates_indices_and_exponents():
    with pytest.raises(ValueError):
        GroupPresentation(("a",), (((1, 2),),))
    with pytest.raises(ValueError):
        GroupPresentation(("a",), (((0, 0),),))


def test_nesting_depth_is_bounded_at_the_offending_parenthesis():
    from ebrmaps.presentation import MAX_NESTING

    ok = "< a | " + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING + " >"
    assert parse_presentation(ok).relators == (((0, 1),),)
    deep = "< a | " + "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1) + " >"
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation(deep)
    assert (info.value.line, info.value.column) == (1, 7 + MAX_NESTING)


@pytest.mark.parametrize("text, column", [
    ("< a | a^1000000000000 >", 9),
    ("< a, b | a^2, (a b)^1000000000000 >", 21),
    ("< a, b | (a (a b)^100000)^1000000 >", 27),
    ("< a, b | (a (a b)^1000000)^1000000 >", 19),
    ("< a | a^" + "9" * 5000 + " >", 9),
])
def test_relator_length_is_budgeted_before_expansion(text, column):
    from ebrmaps.presentation import MAX_ROTATION_LETTERS

    with pytest.raises(PresentationSyntaxError, match=f"longer than {MAX_ROTATION_LETTERS}") as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text, column", [
    ("< a, b | a^99 a a >", 17),
    ("< a, b | a^99 b a >", 15),
    ("< a, b | a^99 (a b) >", 18),
    ("< a, b | (a (a b)^50)^2 >", 19),
    ("< a, b | (a (a b)^24)^2 >", 23),
])
def test_relator_length_error_points_at_the_token_over_budget(monkeypatch, text, column):
    import ebrmaps.presentation as presentation

    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 100)
    with pytest.raises(PresentationSyntaxError, match="longer than 100 letters") as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)
    # Each relator fits alone; the budget is the presentation's, so together
    # they are refused at the exponent that takes it past 100.
    alone = [parse_presentation(f"< a, b | a^2, b^2, {w} >").relators[2]
             for w in ("(a b)^25", "a^100")]
    assert [sum(abs(exp) for _, exp in word) for word in alone] == [50, 100]
    with pytest.raises(PresentationSyntaxError, match="longer than 100 letters") as info:
        parse_presentation("< a, b | a^2, b^2, (a b)^25, a^100 >")
    assert (info.value.line, info.value.column) == (1, 32)


@pytest.mark.parametrize("text, column", [
    ("< a, b | (a b)^26 >", 16),
    ("< a, b | a^49 (a b) >", 18),
    ("< a, b | b (a)^50 >", 16),
    ("< a, b | ((a b)^13)^2 >", 21),
    ("< a, b | (a)^50 b >", 17),
])
def test_a_power_that_makes_a_relator_mixed_is_held_to_half_the_budget(
        monkeypatch, text, column):
    """Coset enumeration stores at least two full-length rotations of a
    relator over two or more generators, so the parser refuses such a power
    once twice the relator's letters exceed the budget, as enumeration would."""
    import ebrmaps.presentation as presentation

    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 100)
    with pytest.raises(PresentationSyntaxError,
                       match="longer than 100 letters in its rotations") as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)
    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 200)
    pres = parse_presentation(text)
    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 100)
    with pytest.raises(ValueError, match="more than 100 letters"):
        coset_enumerate(pres)


@pytest.mark.parametrize("text, column", [
    ("< a, b | a^2, b^2, (a b)^1000000 >", 26),
    ("< a, b | a^2, b^2, (a)^1999999 b >", 32),
])
def test_a_mixed_power_over_budget_is_refused_before_it_is_expanded(text, column):
    import tracemalloc

    # Each relator is 2,000,000 letters, within the budget for one rotation,
    # but enumeration would store two.  A power of one generator stays one
    # term, so (a)^1999999 is not expanded before its b makes it mixed.
    tracemalloc.start()
    try:
        with pytest.raises(PresentationSyntaxError, match="in its rotations") as info:
            parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.line, info.value.column) == (1, column)
    assert peak < 2**20


def test_nested_parentheses_hold_one_budget_of_terms_together():
    import tracemalloc

    # Each level expands (a b)^499999, within the budget alone; an inner
    # level is charged with the prefix of the levels that enclose it, so
    # the second expansion is refused at its exponent, however deep.
    peaks = []
    for depth in (1, 3, 6):
        text = "< a, b | " + "(a b)^499999 (" * depth + "(a b)^499999" + ")" * depth + " >"
        tracemalloc.start()
        try:
            with pytest.raises(PresentationSyntaxError, match="in its rotations") as info:
                parse_presentation(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (info.value.line, info.value.column) == (1, 30)
    assert max(peaks) < peaks[0] + 4 * 2**20


def test_the_budget_is_the_presentations_not_each_relators():
    import tracemalloc

    # Each copy is charged twice its 200,000 letters, so five fill the budget
    # and the sixth is refused at its first letter, before it is expanded;
    # the squares are involution columns and are charged nothing.
    text = "< a, b | a^2, b^2, " + ", ".join(["(a b)^100000"] * 64) + " >"
    tracemalloc.start()
    try:
        with pytest.raises(PresentationSyntaxError, match="in its rotations") as info:
            parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.line, info.value.column) == (1, 91)
    assert peak < 16 * 2**20


def test_a_power_of_one_term_is_one_term():
    pres = parse_presentation("< a, b | (a)^5 b, (a^-2)^-3, ((b))^-2, (a b)^2 >")
    assert pres.relators == (((0, 5), (1, 1)), ((0, 6),), ((1, -2),), ((0, 1), (1, 1)) * 2)


def test_coset_enumeration_budgets_the_rotation_letters(monkeypatch):
    import ebrmaps.presentation as presentation

    # (a b)^m stores its two rotations, and its inverse (b a)^m is one of
    # them: 4m letters.
    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 4 * 50)
    assert coset_enumerate(dihedral_presentation(50)).order == 100
    with pytest.raises(ValueError, match="more than 200 letters"):
        coset_enumerate(dihedral_presentation(51))
    # (a b)^7 a is no proper power and is its own inverse: 15 rotations of
    # 15 letters.
    pres = parse_presentation("< a, b | a^2, b^2, (a b)^7 a >")
    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 15 * 15)
    assert coset_enumerate(pres).order == 2
    monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", 15 * 15 - 1)
    with pytest.raises(ValueError, match="more than 224 letters"):
        coset_enumerate(pres)
    # Every word of 3 to 6 letters over a, b and their inverses, as the one
    # relator: each generator has two columns, and the word may be a proper
    # power or not, and its inverse a rotation of it or not.  The store holds
    # each distinct rotation of the word and of its inverse once.
    from itertools import product

    letters = [(0, 1), (1, 1), (0, -1), (1, -1)]
    for n in range(3, 7):
        for word in product(letters, repeat=n):
            inverse = tuple((idx, -exp) for idx, exp in reversed(word))
            rotations = {w[s:] + w[:s] for w in (word, inverse) for s in range(n)}
            pres = GroupPresentation(("a", "b"), (word,))
            monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", len(rotations) * n)
            with pytest.raises(CosetLimitExceeded):
                coset_enumerate(pres, max_cosets=1)
            monkeypatch.setattr(presentation, "MAX_ROTATION_LETTERS", len(rotations) * n - 1)
            with pytest.raises(ValueError, match="relator rotations take more than"):
                coset_enumerate(pres, max_cosets=1)


def test_coset_enumeration_rejects_an_over_budget_relator():
    pres = GroupPresentation(("a", "b"), (((0, 2),), ((1, 2),), ((0, 1), (1, 10**12))))
    with pytest.raises(ValueError, match="more than"):
        coset_enumerate(pres)


def test_dihedral_relators_up_to_the_coset_limit_stay_within_budget():
    from ebrmaps.presentation import DEFAULT_MAX_COSETS, MAX_ROTATION_LETTERS

    # The largest dihedral group the default coset limit admits, of order
    # 2m, stores 4m letters of rotations.
    assert 4 * (DEFAULT_MAX_COSETS // 2) <= MAX_ROTATION_LETTERS
    pres = parse_presentation(f"< a, b | a^2, b^2, (a b)^{DEFAULT_MAX_COSETS // 2} >")
    assert pres.relators[2] == dihedral_presentation(DEFAULT_MAX_COSETS // 2).relators[2]


def test_rotation_table_holds_relator_letters_once():
    import tracemalloc

    # (a b)^100000 stores two rotations of 200,000 letters, 3.2 MB of tuples.
    pres = parse_presentation("< a, b | a^2, b^2, (a b)^100000 >")
    tracemalloc.start()
    try:
        with pytest.raises(CosetLimitExceeded):
            coset_enumerate(pres, max_cosets=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_an_over_budget_relator_is_refused_before_it_is_expanded():
    import tracemalloc

    # 1,200,000 letters over two generators: at least two rotations of that
    # length, 2,400,000 letters in all, above the budget.
    pres = GroupPresentation(("a", "b"), (((0, 600_000), (1, 600_000)),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than"):
            coset_enumerate(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_power_of_one_generator_over_budget_is_refused_before_it_is_expanded():
    import tracemalloc

    # A relator built in the library, not parsed: 10^12 letters of one generator.
    pres = GroupPresentation(("a",), (((0, 10**12),),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than"):
            coset_enumerate(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_coset_table_memory_per_coset():
    import tracemalloc

    # One list per column: the square grid's four involution columns, the
    # union-find parents and one int per coset, which the entries share:
    # about 70 bytes a coset.
    tracemalloc.start()
    try:
        with pytest.raises(CosetLimitExceeded):
            coset_enumerate(square_grid_group(), max_cosets=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cyclic_period_counts_the_distinct_rotations():
    from itertools import product

    from ebrmaps.presentation import _cyclic_period

    assert _cyclic_period(()) == 0
    for n in range(1, 9):
        for word in product(range(3), repeat=n):
            rotations = {word[s:] + word[:s] for s in range(n)}
            assert _cyclic_period(word) == len(rotations)


def test_empty_relator_is_trivial():
    assert coset_enumerate(GroupPresentation(("a",), ((), ((0, 3),)))).order == 3


# ---------------------------------------------------------------------------
# The Felsch loop against the reference that queues both ends of each entry
# ---------------------------------------------------------------------------


def _check_against_reference(pres, max_cosets):
    import ebrmaps.presentation as presentation

    # A definition c --x--> d writes the entry and its mirror, then appends
    # the new coset d to the union-find parents: row d then holds the mirror
    # alone, columns[y][d] == c, and the definition is (c, inv_col[y]).
    definitions, tables = [], []

    class Parents(list):
        def append(self, d):
            table = tables[-1]
            (c, y), = [(col[d], y) for y, col in enumerate(table.columns) if col[d] is not None]
            definitions.append((c, table.inv_col[y]))
            super().append(d)

    class RecordingTable(presentation._CosetTable):
        def __init__(self, *args):
            super().__init__(*args)
            self.parent = Parents(self.parent)
            tables.append(self)

    # The columns coset_enumerate hands to FiniteGroup, in live-coset numbering.
    finite_group, handed = presentation.FiniteGroup, []

    def capturing(names, columns):
        handed.extend(list(col) for col in columns)
        return finite_group(names, columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presentation, "_CosetTable", RecordingTable)
        patch.setattr(presentation, "FiniteGroup", capturing)
        try:
            group = coset_enumerate(pres, max_cosets=max_cosets)
        except CosetLimitExceeded:
            group = None
    if group is None:
        # The refused definition: the first empty slot of the lowest live coset.
        table, = tables
        definitions.append(next((c, x) for c, root in enumerate(table.parent) if root == c
                                for x, col in enumerate(table.columns) if col[c] is None))
    outcome = CosetLimitExceeded if group is None else handed
    assert (definitions, outcome) == felsch_reference(pres, max_cosets)
    for word in pres.relators if group else ():
        assert evaluate_word(word, list(group.generators)).is_identity()


ORACLE_CASES = {
    **{f"dihedral({m})": dihedral_presentation(m) for m in (1, 2, 3, 7, 40)},
    **{f"triangle({k},{l})": triangle_group(k, l)
       for k, l in ((2, 3), (3, 3), (3, 5), (3, 7), (4, 4), (4, 5))},
    **{f"ebr_type({k},{l})": ebr_type_presentation(k, l) for k, l in ((2, 6), (4, 4), (4, 6))},
    **{text: parse_presentation(text) for text in (
        "< a, b | a^2, b^2, (a b)^5, (b a)^5, (a b)^10, a b a b a b a b a b >",
        "< a, b | a^4, a^2 b^-2, b^-1 a b a >",
        "< a, b | a^2, b^3, (a b)^4 >",
        "< a, b | a^2, b^3, a b a^-1 b^-1 >",
        "< a, b | a^3, b^3, (a b)^3, (a b^-1)^3 >",
        "< a | a >",
        # a long relator that is no proper power, with a a adjacent
        "< a, b | a^2, b^2, (a b)^7 a >",
        # a relator that is not freely reduced, with rotations that start
        # with the same letter next to each other
        "< a, b | b^-3 a a^-1 a^-2 b^-3 >",
        # relators that are rotations of others or of their inverses
        "< a, b | a^4, a^2 b^-2, b^2 a^-2, b^-1 a b a, a b a b^-1 >",
        "< a, b | a^3, b^3, (a b)^3, (b a)^3, (a b^-1)^3, (a^-1 b)^3 >",
    )},
    **{f"quotient{i}": pres for i, pres in enumerate(random_quotients(12))},
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_felsch_loop_defines_as_the_reference(name):
    _check_against_reference(ORACLE_CASES[name], max_cosets=1500)


# The table's columns grow by blocks of 1,024 slots.  Two infinite groups are
# refused at 1,023, 1,024 and 1,025 cosets, either side of the first block's
# end, and at 2,049, just past the second; two finite groups of order 1,200
# end with columns read past the first block.
@pytest.mark.parametrize("pres, max_cosets", [
    *[pytest.param(pres, limit, id=f"{name}-{limit}")
      for name, pres in (("square_grid", square_grid_group()), ("triangle(3,7)", triangle_group(3, 7)))
      for limit in (1023, 1024, 1025, 2049)],
    pytest.param(dihedral_presentation(600), 1500, id="dihedral(600)"),
    pytest.param(triangle_group(2, 300), 1500, id="triangle(2,300)"),
])
def test_felsch_loop_defines_as_the_reference_across_column_blocks(pres, max_cosets):
    _check_against_reference(pres, max_cosets)


_words = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool)),
                  min_size=1, max_size=6)


@settings(max_examples=150)
@given(ngens=st.integers(1, 3), relators=st.lists(_words, min_size=1, max_size=4),
       max_cosets=st.integers(1, 60))
def test_felsch_loop_defines_as_the_reference_on_random_presentations(
        ngens, relators, max_cosets):
    pres = GroupPresentation(
        tuple("abc"[:ngens]),
        tuple(tuple((idx % ngens, exp) for idx, exp in word) for word in relators))
    _check_against_reference(pres, max_cosets)


@settings(max_examples=100)
@given(ngens=st.integers(1, 3), relators=st.lists(_words, min_size=1, max_size=4))
def test_closure_of_the_enumerated_generators_reaches_the_enumerated_order(ngens, relators):
    pres = GroupPresentation(
        tuple("abc"[:ngens]),
        tuple(tuple((idx % ngens, exp) for idx, exp in word) for word in relators))
    try:
        group = coset_enumerate(pres, max_cosets=200)
    except CosetLimitExceeded:
        return
    assert closure(list(group.generators)).order == group.order
