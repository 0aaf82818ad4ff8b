"""Exhaustive enumeration of edge-biregular structures over a finite group.

Candidates are ordered pairs of commuting involutions for (r0, r2) and
(rho0, rho2) joined into quadruples, surveyed once per conjugacy class of
involutions through the conjugation arrays that also seed the first-pair
orbits below.  Two generating quadruples describe
isomorphic maps exactly when they have the same Cayley form
(``perm_group.cayley_form``), so the sweep keys candidates by their form and
keeps the first quadruple of each key in lexicographic order; that is the
least quadruple of its automorphism class (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Equal forms are an automorphism, which
pairs off the two visiting orders, and the sweep prunes with every one it
finds, as nauty does (McKay and Piperno, "Practical graph isomorphism II",
2014).  Two union-finds over the sorted pairs, each rooted at its least
index, hold the orbits seen so far: one over first pairs, seeded with
conjugation by the generators, and one over second pairs, reset for each
first pair and fed the automorphisms from forms repeated under it, which fix
it.  Inn(H) is normal in Aut(H), so an automorphism permutes the conjugacy
classes of pairs, and each one found glues only the roots of the classes the
sweep has not reached; a second-pair merge walks only the pairs not reached.
A pair that is not a root is skipped, as it is the image of an earlier one,
and so is the rest of a first pair once a form keyed under an earlier first
pair shows it to be that pair's image.  The least quadruple of a class is
never skipped: its first pair is least in its Aut(H)-orbit, and its second
pair is least in its orbit under that pair's stabiliser.  Each proper
subgroup a Cayley-form walk ends in is kept, and a quadruple inside one is
rejected with no walk.  The ``chi_max`` filter reads the Euler
characteristic off two product orders, with no corner walk.  The
classification report looks each map's own form up among the forms of the
classes found so far; a map that opens a class adds the forms of its twin,
dual and twin-of-dual quadruples, and walks only those it cannot infer: a
fully regular map's twin form is its own, and when two of the own, twin and
dual forms agree, the twin-of-dual form is the third.  The groups to sweep
come from ``families.catalog_group`` or a presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .ebr_core import EdgeBiregularMap, _type_and_chi
from .families import dihedral_rows
from .perm_group import FiniteGroup, _find, cayley_form, is_dihedral

DEFAULT_CANDIDATE_BUDGET = 10**7


class CandidateBudgetExceeded(RuntimeError):
    """The candidate quadruple count exceeded the configured budget."""


def _conjugations(group: FiniteGroup) -> list[list[int]]:
    """Conjugation by each generator g, the array x -> g^-1 x g; a generator's
    right translation is its column."""
    return [[col[x] for x in group.left_translation(group.inv(col[0]))] for col in group.columns]


def _commuting_involution_pairs(group: FiniteGroup, proper: bool,
                                conjugations: list[list[int]]) -> list[tuple[int, int]]:
    """The ordered pairs of commuting involutions, sorted.  Involutions x and
    y commute exactly when x*y is 1 or an involution z, that is when y = x*z,
    so the least involution of each conjugacy class reads its left translation
    at 1 and the involutions; ``conjugations`` carry its sorted partners through
    the class breadth-first, as those of g^-1 x g are the images of x's."""
    invs = group.involution_indices()
    inv_set, one_or_inv = set(invs), itemgetter(0, *invs)
    partners: list[Optional[list[int]]] = [None] * group.order
    for u in invs:
        if partners[u] is None:
            partners[u] = sorted(inv_set.intersection(one_or_inv(group.left_translation(u))))
            queue = [u]
            for x in queue:  # grows while it is walked
                for conjugation in conjugations:
                    y = conjugation[x]
                    if partners[y] is None:
                        partners[y] = sorted(map(conjugation.__getitem__, partners[x]))
                        queue.append(y)
    return [(x, y) for x in invs for y in partners[x] if not (proper and x == y)]


def _merge_images(parent: list[int], pairs: list[tuple[int, int]],
                  index: dict[tuple[int, int], int], aut: Sequence[int],
                  among: Iterable[int]) -> None:
    """Merge each pair index of ``among`` with its image under the
    automorphism ``aut``.  With ``among`` the pairs from ``start`` on, each of
    them is then a root exactly when it would be had every pair been merged:
    a cycle of ``aut`` that reaches below ``start`` joins each of its pairs
    from ``start`` on to one below it."""
    for i in among:
        x, y = pairs[i]
        j = index[aut[x], aut[y]]
        if i != j:
            a, b = _find(parent, i), _find(parent, j)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b


def _seeded_firsts(pairs: list[tuple[int, int]], index: dict[tuple[int, int], int],
                   conjugations: list[list[int]]) -> list[int]:
    """The first-pair union-find merged under conjugation by each generator:
    its roots are the pairs least under conjugation by the group."""
    parent = list(range(len(pairs)))
    for conjugation in conjugations:
        _merge_images(parent, pairs, index, conjugation, range(len(pairs)))
    return parent


def enumerate_ebr(group: FiniteGroup, require_proper: bool = False,
                  require_distinct: bool = False, chi_max: Optional[int] = None,
                  max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[EdgeBiregularMap]:
    """All edge-biregular structures on ``group`` up to automorphism.

    Returns maps, valid by construction, for the lexicographically least
    quadruple of each automorphism class, sorted by slot indices.
    ``chi_max`` keeps only maps with Euler characteristic at most that value,
    read off the orders of ``r2 rho2`` and ``r0 rho0``: only the quadruples
    it keeps become maps, and none gets a ``MapInvariants`` record.
    ``max_candidates`` bounds the quadruples tested for generation (by kept
    subgroups, then by ``cayley_form``), counted as the sweep reaches them.

    Two union-finds over indices into the sorted pair list skip every pair
    that is not the root (least index) of its set.  The first-pair one starts
    from conjugation by the generators; the second-pair one starts afresh for
    each first pair.  A form met again gives the automorphism taking the
    quadruple first keyed under it to the current one, and each conjugacy
    class after the current first pair is glued to its image in the
    first-pair union-find.  If the form was keyed under an earlier first
    pair, the current first pair is that pair's image and is done; otherwise
    the automorphism fixes it, and the pairs after the current second pair
    are merged in the second-pair union-find too.  The filters are
    Aut(H)-invariant and forms are keyed before ``chi_max`` applies, so the
    output is that of the full sweep.
    """
    if max_candidates < 0:
        raise ValueError(f"the candidate budget must be non-negative, not {max_candidates}")
    conjugations = _conjugations(group)
    pairs = _commuting_involution_pairs(group, require_proper, conjugations)
    index = {pair: i for i, pair in enumerate(pairs)}
    firsts = _seeded_firsts(pairs, index, conjugations)
    roots = [i for i, root in enumerate(firsts) if root == i]  # one per conjugacy class
    maps = []
    keyed: dict[tuple, tuple[int, list[int]]] = {}  # form -> first pair, visiting order
    # Bit b of inside[e]: e is in the b-th proper subgroup a walk ended in.
    inside, bit, joined = [0] * group.order, 1, 0
    # Quadruples come in lex order and the first of each Cayley form is the
    # least of its class; chi is constant on a class.
    for k, ri in enumerate(roots):
        if firsts[ri] != ri:
            continue
        r_pair = pairs[ri]
        seconds = list(range(len(pairs)))
        around = inside[r_pair[0]] & inside[r_pair[1]]  # the kept subgroups holding r_pair
        for pi, p_pair in enumerate(pairs):
            quad = r_pair + p_pair
            if seconds[pi] != pi or require_distinct and len(set(quad)) < 4:
                continue
            joined += 1
            if joined > max_candidates:
                raise CandidateBudgetExceeded(
                    f"{joined} candidate quadruples exceed the budget {max_candidates}")
            if around & inside[p_pair[0]] & inside[p_pair[1]]:
                continue
            order, key = cayley_form(group, quad)
            if len(order) < group.order:  # quad generates a proper subgroup: keep it
                for e in order:
                    inside[e] |= bit
                around |= bit
                bit <<= 1
                continue
            if key not in keyed:
                keyed[key] = ri, order
                if chi_max is None or _type_and_chi(group, quad)[2] <= chi_max:
                    maps.append(EdgeBiregularMap._trusted(group, quad, key))
                continue
            rj, earlier = keyed[key]
            aut = [0] * group.order
            for x, y in zip(earlier, order):
                aut[x] = y
            _merge_images(firsts, pairs, index, aut, roots[k + 1:])
            if rj != ri:
                break  # an automorphism takes an earlier pair to r_pair
            _merge_images(seconds, pairs, index, aut, range(pi + 1, len(pairs)))
    return maps


# ---------------------------------------------------------------------------
# Classification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapClass:
    class_size: int
    map_type: tuple[int, int]
    chi: int
    V: int
    F: int
    orientable: bool
    fully_regular: bool
    table_row: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "class_size": self.class_size,
            "type": list(self.map_type),
            "chi": self.chi,
            "V": self.V,
            "F": self.F,
            "orientable": self.orientable,
            "fully_regular": self.fully_regular,
            "table_row": self.table_row,
        }


@dataclass(frozen=True)
class ClassReport:
    classes: tuple[MapClass, ...]

    def to_json(self) -> list[dict]:
        return [c.to_json_dict() for c in self.classes]


def dihedral_table_row(order: int, k: int, l: int, V: int, F: int, chi: int,
                       fully_regular: bool) -> Optional[int]:
    """The first row of ``families.dihedral_rows(order // 2)`` that class data
    over a dihedral group of the given order matches, as it is or dual (k
    with l and V with F swapped); None for an odd order or no match."""
    if order % 2 != 0:
        return None
    data = ((k, l, chi, V, F, fully_regular), (l, k, chi, F, V, fully_regular))
    return next((row for row, entry in dihedral_rows(order // 2).items() if entry in data), None)


def classify_report(maps: Sequence[EdgeBiregularMap]) -> ClassReport:
    """Partition closed-surface maps over one group into classes under
    identity, twin, dual and twin-of-dual, then report per-class data and the
    classification row matched by each dihedral class with chi < 0.

    Each map's own form is kept from the sweep or walked once.  The first
    map of a class reads its ``invariants()``, which the report prints, and
    walks its dual quad; it walks its twin quad only when it is not fully
    regular, and its twin-of-dual quad only when the own, twin and dual forms
    are pairwise distinct."""
    maps = sorted(maps, key=lambda m: m.slot_indices)
    if not maps:
        return ClassReport(())
    group = maps[0].group
    for m in maps:
        if m.group is not group and m.group.columns != group.columns:
            raise ValueError("maps must share one group")
        m._require_closed()

    # Classes are orbits of Aut(H) x {identity, twin, dual, twin-of-dual} on
    # quads, and equal forms are one Aut(H)-orbit: a map joins the class that
    # holds its own form, or opens one under all four forms of its quad.
    # A fully regular map's twin is an automorphic image, so its twin form is
    # its own.  If two of the own, twin and dual forms agree, the automorphism
    # behind them takes the twin-of-dual quad to the third quad, so only three
    # distinct forms leave a fourth to walk.
    members: list[list[EdgeBiregularMap]] = []
    by_form: dict[tuple, list[EdgeBiregularMap]] = {}  # any of the four forms -> class
    for m in maps:
        if m._form is None:  # a map the sweep did not key
            m._form = cayley_form(m.group, m.slot_indices)[1]
        if m._form not in by_form:
            members.append([])
            r0, r2, p0, p2 = m.slot_indices
            twin = (m._form if m.invariants().fully_regular
                    else cayley_form(m.group, (p0, p2, r0, r2))[1])
            forms = {m._form, twin, cayley_form(m.group, (r2, r0, p2, p0))[1]}
            if len(forms) == 3:
                forms.add(cayley_form(m.group, (p2, p0, r2, r0))[1])
            for form in forms:
                by_form[form] = members[-1]
        by_form[m._form].append(m)

    dihedral = is_dihedral(group)
    classes = []
    for cls in members:
        inv = cls[0].invariants()
        row = (dihedral_table_row(inv.order, inv.k, inv.l, inv.V, inv.F, inv.chi,
                                  inv.fully_regular) if dihedral and inv.chi < 0 else None)
        classes.append(MapClass(
            class_size=len(cls), map_type=(inv.k, inv.l), chi=inv.chi,
            V=inv.V, F=inv.F, orientable=inv.orientable,
            fully_regular=inv.fully_regular, table_row=row))
    return ClassReport(tuple(classes))
