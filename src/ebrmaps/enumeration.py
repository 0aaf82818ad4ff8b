"""Exhaustive enumeration of edge-biregular structures over a finite group.

Candidates are ordered pairs of commuting involutions for (r0, r2) and
(rho0, rho2) joined into quadruples.  Two generating quadruples describe
isomorphic maps exactly when they have the same Cayley form
(``perm_group.cayley_form``), so the sweep keys candidates by their form and
keeps the first quadruple of each key in lexicographic order; that is the
least quadruple of its automorphism class (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Equal forms are an automorphism, which
pairs off the two visiting orders, and the sweep prunes with every one it
finds, as nauty does (McKay and Piperno, "Practical graph isomorphism II",
2014).  Two union-finds over the sorted pairs, each rooted at its least
index, hold the orbits seen so far: one over first pairs, seeded with
conjugation by the generators and fed every automorphism found, and one over
second pairs, reset for each first pair and fed the automorphisms from forms
repeated under it, which fix it.  A pair that is not a root is skipped, as
it is the image of an earlier one, and so is the rest of a first pair once a
form keyed under an earlier first pair shows it to be that pair's image.  The
least quadruple of a class is never skipped: its first pair is least in its
Aut(H)-orbit, and its second pair is least in its orbit under that pair's
stabiliser.  The classification report keys each map by the least Cayley
form of its quadruple under the twin and dual slot permutations.
The groups to sweep come from ``families.catalog_group`` or a presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ebr_core import EdgeBiregularMap
from .perm_group import FiniteGroup, cayley_form, is_dihedral

DEFAULT_CANDIDATE_BUDGET = 10**7


class CandidateBudgetExceeded(RuntimeError):
    """The candidate quadruple count exceeded the configured budget."""


def _commuting_involution_pairs(group: FiniteGroup, proper: bool) -> list[tuple[int, int]]:
    invs = group.involution_indices()
    pairs = []
    for x in invs:
        for y in invs:
            if proper and x == y:
                continue
            if group.mul(x, y) == group.mul(y, x):
                pairs.append((x, y))
    return pairs


def _find(parent: list[int], i: int) -> int:
    """The root of ``i``, the least index of its set; halves the path walked."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _merge_images(parent: list[int], pairs: list[tuple[int, int]],
                  index: dict[tuple[int, int], int], aut: Sequence[int]) -> None:
    """Merge every pair with its image under the automorphism ``aut``."""
    for i, j in enumerate([index[aut[x], aut[y]] for x, y in pairs]):
        if i != j:
            a, b = _find(parent, i), _find(parent, j)
            parent[max(a, b)] = min(a, b)


def _seeded_firsts(group: FiniteGroup, pairs: list[tuple[int, int]],
                   index: dict[tuple[int, int], int]) -> list[int]:
    """The first-pair union-find merged under conjugation by each generator:
    its roots are the pairs least under conjugation by the group."""
    parent = list(range(len(pairs)))
    for col in group.columns:
        right = group.right_translation(col[0])
        conjugation = [right[x] for x in group.left_translation(group.inv(col[0]))]
        _merge_images(parent, pairs, index, conjugation)
    return parent


def enumerate_ebr(group: FiniteGroup, require_proper: bool = False,
                  require_distinct: bool = False, chi_max: Optional[int] = None,
                  max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[EdgeBiregularMap]:
    """All edge-biregular structures on ``group`` up to automorphism.

    Returns validated maps for the lexicographically least quadruple of each
    automorphism class, sorted by slot indices.  ``chi_max`` keeps only maps
    with Euler characteristic at most that value.  ``max_candidates`` bounds
    the quadruples joined: first pairs least under conjugation times all pairs.

    Two union-finds over indices into the sorted pair list skip every pair
    that is not the root (least index) of its set.  The first-pair one starts
    from conjugation by the generators; the second-pair one starts afresh for
    each first pair.  A form met again gives the automorphism taking the
    quadruple first keyed under it to the current one, and every pair is
    merged with its image in the first-pair union-find.  If the form was keyed
    under an earlier first pair, the current first pair is that pair's image
    and is done; otherwise the automorphism fixes it, and the second pairs
    are merged too.  The filters are Aut(H)-invariant and forms are keyed
    before ``chi_max`` applies, so the output is that of the full sweep.
    """
    if max_candidates < 0:
        raise ValueError(f"the candidate budget must be non-negative, not {max_candidates}")
    pairs = _commuting_involution_pairs(group, require_proper)
    index = {pair: i for i, pair in enumerate(pairs)}
    firsts = _seeded_firsts(group, pairs, index)
    joined = sum(root == i for i, root in enumerate(firsts)) * len(pairs)
    if joined > max_candidates:
        raise CandidateBudgetExceeded(
            f"{joined} candidate quadruples exceed the budget {max_candidates}")
    # A commuting pair (x, y) spans {1, x, y, xy}, so whether a quadruple
    # generates depends only on its two spans; a span joined with itself is itself.
    spans = [frozenset((0, x, y, group.mul(x, y))) for x, y in pairs]
    joins = {frozenset((s,)): len(s) == group.order for s in spans}  # {span, span} -> generates
    maps = []
    keyed: dict[tuple, tuple[int, list[int]]] = {}  # form -> first pair, visiting order
    # Quadruples come in lex order and the first of each Cayley form is the
    # least of its class; chi is constant on a class.
    for ri, r_pair in enumerate(pairs):
        if firsts[ri] != ri:
            continue
        seconds = list(range(len(pairs)))
        for pi, p_pair in enumerate(pairs):
            quad = r_pair + p_pair
            if seconds[pi] != pi or require_distinct and len(set(quad)) < 4:
                continue
            join = frozenset((spans[ri], spans[pi]))
            if join not in joins:
                joins[join] = group.subgroup_order(set(quad)) == group.order
            if not joins[join]:
                continue
            order, key = cayley_form(group, quad)
            if key not in keyed:
                keyed[key] = ri, order
                m = EdgeBiregularMap(group, *quad)
                if chi_max is None or m.invariants().chi <= chi_max:
                    maps.append(m)
                continue
            rj, earlier = keyed[key]
            aut = [0] * group.order
            for x, y in zip(earlier, order):
                aut[x] = y
            _merge_images(firsts, pairs, index, aut)
            if rj != ri:
                break  # an automorphism takes an earlier pair to r_pair
            _merge_images(seconds, pairs, index, aut)
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
    group_is_dihedral: bool = False

    def to_json(self) -> list[dict]:
        return [c.to_json_dict() for c in self.classes]

    @property
    def discrepancies(self) -> list[MapClass]:
        """Classes of negative Euler characteristic over a dihedral group
        that match no classification row.  (Over non-dihedral groups the
        table does not apply, so nothing is flagged.)"""
        if not self.group_is_dihedral:
            return []
        return [c for c in self.classes if c.table_row is None and c.chi < 0]


def dihedral_table_row(order: int, k: int, l: int, V: int, F: int, chi: int,
                       fully_regular: bool) -> Optional[int]:
    """Match class data over a dihedral group of the given order against the
    classification of dihedral maps with chi < 0 (up to duality):

    row 1: (2m, 2m), chi 2-m, V = F = 1, regular;
    row 2: (m, m), chi 4-m, V = F = 2, regular, m/2 odd;
    row 3: (2m, 4), chi (2-m)/2, V = 1, F = m/2, not regular;
    row 4: (m, 4), chi (4-m)/2, V = 2, F = m/2, not regular, m/2 odd.
    """
    if order % 2 != 0:
        return None
    m = order // 2
    if m < 4 or m % 2 != 0:
        return None
    half_odd = (m // 2) % 2 == 1
    rows = [
        (1, (2 * m, 2 * m), 2 - m, (1, 1), True, True),
        (2, (m, m), 4 - m, (2, 2), True, half_odd),
        (3, (2 * m, 4), (2 - m) // 2, (1, m // 2), False, True),
        (4, (m, 4), (4 - m) // 2, (2, m // 2), False, half_odd),
    ]
    for row, (tk, tl), tchi, (tv, tf), treg, allowed in rows:
        if not allowed:
            continue
        matches = ((k, l) == (tk, tl) and (V, F) == (tv, tf)) or \
                  ((k, l) == (tl, tk) and (V, F) == (tf, tv))
        if matches and chi == tchi and fully_regular == treg:
            return row
    return None


def classify_report(maps: Sequence[EdgeBiregularMap]) -> ClassReport:
    """Partition closed-surface maps over one group into classes under
    identity, twin, dual and twin-of-dual, then report per-class data and the
    classification row matched by each dihedral class with chi < 0."""
    maps = sorted(maps, key=lambda m: m.slot_indices)
    if not maps:
        return ClassReport(())
    group = maps[0].group
    for m in maps:
        if m.group is not group and m.group.columns != group.columns:
            raise ValueError("maps must share one group")
        m._require_closed()

    # Classes are orbits of Aut(H) x {identity, twin, dual, twin-of-dual} on
    # quads; the form tells Aut(H)-orbits apart, so the least form keys each.
    members: dict[tuple, list[EdgeBiregularMap]] = {}
    for m in maps:
        r0, r2, p0, p2 = m.slot_indices
        key = min(cayley_form(m.group, quad)[1]
                  for quad in ((r0, r2, p0, p2), (p0, p2, r0, r2),
                               (r2, r0, p2, p0), (p2, p0, r2, r0)))
        members.setdefault(key, []).append(m)

    dihedral = is_dihedral(group)
    classes = []
    for cls in members.values():
        rep = cls[0]
        inv = rep.invariants()
        row = None
        if dihedral and inv.chi < 0:
            row = dihedral_table_row(inv.order, inv.k, inv.l, inv.V, inv.F,
                                     inv.chi, inv.fully_regular)
        classes.append(MapClass(
            class_size=len(cls), map_type=(inv.k, inv.l), chi=inv.chi,
            V=inv.V, F=inv.F, orientable=inv.orientable,
            fully_regular=inv.fully_regular, table_row=row))
    return ClassReport(tuple(classes), group_is_dihedral=dihedral)
