"""Edge-biregular maps as groups with four involutory generator slots.

A map is a finite group ``H`` together with four slots ``r0, r2, rho0, rho2``,
each holding an involution of ``H`` or absent.  ``r0``/``r2`` act along/across
the distinguished shaded edge, ``rho0``/``rho2`` along/across the unshaded
one.  Corners of the map are identified with the elements of ``H``; the
colour-preserving automorphisms act on corners by left multiplication and
the corner-gluing (monodromy) instructions by right multiplication.

Slot coincidences encode degeneracies: ``r0 == r2`` makes the shaded orbit
consist of semi-edges (likewise unshaded), both coincidences give a semistar,
and an absent slot puts the corresponding edge orbit on a surface boundary.
Surface facts are defined only for a closed map, one with all four slots
present, and come from ``invariants()`` alone: one ``MapInvariants`` record of
type ``(k, l)``, ``V``, ``F``, edge counts, ``chi``, genus, orientability and
full regularity, which serialises itself as the CLI's JSON report.  ``k`` and
``l`` are read off two product orders (two involutions generate a dihedral
group); one walk of the corners decides orientability and full regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Optional

from .perm_group import ElementLike, FiniteGroup, Permutation, _walk

SLOT_NAMES = ("r0", "r2", "rho0", "rho2")

# Boundary classification by which slot is absent: an absent "along" slot
# means semi-edges running to the boundary, an absent "across" slot means
# edges lying along the boundary.
_BOUNDARY_LETTER = {"r0": "c", "r2": "b", "rho0": "d", "rho2": "a"}


class InvalidMapError(ValueError):
    """The slot data does not define an edge-biregular map."""


class BoundaryMapError(ValueError):
    """Boundary maps carry no closed-surface invariants."""


@dataclass(frozen=True)
class EdgeCount:
    count: int
    kind: str  # "proper" or "semi"


@dataclass(frozen=True)
class MapInvariants:
    """Type, counts and symmetry flags of a map with all slots present; the
    field names are the JSON keys."""

    order: int
    k: int
    l: int
    V: int
    F: int
    edges_shaded: EdgeCount
    edges_unshaded: EdgeCount
    chi: int
    orientable: bool
    genus: int
    fully_regular: bool
    proper: bool
    distinct_generators: bool
    degeneracy_class: str

    def to_json_dict(self) -> dict:
        """The fields in declaration order, each ``EdgeCount`` as a dict."""
        return {name: dict(vars(value)) if isinstance(value, EdgeCount) else value
                for name, value in vars(self).items()}


class EdgeBiregularMap:
    """Validated map ``(H; r0, r2, rho0, rho2)``: each slot is an element
    index or a permutation of ``H``, or None when absent.  A closed map's
    facts come from ``invariants()``; a boundary map's from
    ``boundary_report()``."""

    def __init__(self, group: FiniteGroup,
                 r0: Optional[ElementLike], r2: Optional[ElementLike],
                 rho0: Optional[ElementLike], rho2: Optional[ElementLike]):
        self.group = group
        self._invariants: Optional[MapInvariants] = None
        self._form: Optional[tuple] = None  # the Cayley form of the slots, once known
        self.slot_indices: tuple[Optional[int], ...] = tuple(
            None if s is None else self._checked_index(s) for s in (r0, r2, rho0, rho2))

        present = [i for i in self.slot_indices if i is not None]
        if len(present) < 2:
            raise InvalidMapError("fewer than two slots are present")
        for name, idx in zip(SLOT_NAMES, self.slot_indices):
            if idx is not None and group.element_order(idx) != 2:
                raise InvalidMapError(f"slot {name} is not an involution")
        self._check_commuting(0, 1)
        self._check_commuting(2, 3)
        # Slots holding every generator generate the group; others walk their subgroup.
        if (any(col[0] not in present for col in group.columns)
                and group.subgroup_order(present) != group.order):
            raise InvalidMapError("present slots do not generate the group")

    @classmethod
    def _trusted(cls, group: FiniteGroup, quad: tuple[int, int, int, int],
                 form: tuple) -> "EdgeBiregularMap":
        """The closed map on ``quad``, two commuting involution pairs known to
        generate ``group``, with ``form`` its Cayley form: nothing is checked."""
        m = cls.__new__(cls)
        m.group, m.slot_indices, m._invariants, m._form = group, quad, None, form
        return m

    @property
    def degeneracy_class(self) -> str:
        """``boundary`` if a slot is absent, else which colours are semi-edges."""
        if None in self.slot_indices:
            return "boundary"
        r0, r2, rho0, rho2 = self.slot_indices
        if r0 == r2:
            return "semistar" if rho0 == rho2 else "shaded_semi"
        return "unshaded_semi" if rho0 == rho2 else "proper"

    @property
    def boundary_type(self) -> Optional[str]:
        """The letters of the absent slots, None for a closed map."""
        absent = [n for n, i in zip(SLOT_NAMES, self.slot_indices) if i is None]
        return "".join(sorted(_BOUNDARY_LETTER[n] for n in absent)) if absent else None

    def _checked_index(self, p: ElementLike) -> int:
        try:
            return self.group.index(p)
        except ValueError as exc:
            raise InvalidMapError(str(exc)) from None

    def _check_commuting(self, i: int, j: int) -> None:
        a, b = self.slot_indices[i], self.slot_indices[j]
        if a is None or b is None:
            return
        if self.group.mul(a, b) != self.group.mul(b, a):
            raise InvalidMapError(
                f"slots {SLOT_NAMES[i]} and {SLOT_NAMES[j]} do not commute")

    # -- basic structure ---------------------------------------------------

    @property
    def slots(self) -> tuple[Optional[Permutation], ...]:
        """The slot elements as permutations (None for an absent slot)."""
        return tuple(None if i is None else self.group.element(i)
                     for i in self.slot_indices)

    @property
    def has_boundary(self) -> bool:
        return self.degeneracy_class == "boundary"

    @property
    def is_proper(self) -> bool:
        return self.degeneracy_class == "proper"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EdgeBiregularMap)
                and other.group is self.group
                and other.slot_indices == self.slot_indices)

    def __hash__(self) -> int:
        return hash((id(self.group), self.slot_indices))

    def __repr__(self) -> str:
        slots = ", ".join(
            f"{n}={'-' if i is None else i}"
            for n, i in zip(SLOT_NAMES, self.slot_indices))
        return f"EdgeBiregularMap(order={self.group.order}, {slots})"

    def _require_closed(self) -> None:
        if self.has_boundary:
            raise BoundaryMapError("boundary maps carry no closed-surface invariants")

    # -- invariants ----------------------------------------------------------

    def invariants(self) -> MapInvariants:
        """Every closed-surface fact of the map, computed once and cached:
        ``k`` and ``l`` from the orders of ``r2 rho2`` and ``r0 rho0``, and
        orientability and full regularity from one walk of the corners."""
        self._require_closed()
        if self._invariants is not None:
            return self._invariants
        group, idx = self.group, self.slot_indices
        n = group.order
        k, l, chi = _type_and_chi(group, idx)
        shaded, unshaded = (EdgeCount(n // 2, "semi") if idx[i] == idx[i + 1]
                            else EdgeCount(n // 4, "proper") for i in (0, 2))
        orientable, fully_regular = _corner_walk(group, idx)
        self._invariants = MapInvariants(
            order=n, k=k, l=l, V=n // k, F=n // l,
            edges_shaded=shaded, edges_unshaded=unshaded,
            chi=chi, orientable=orientable,
            genus=(2 - chi) // 2 if orientable else 2 - chi,
            fully_regular=fully_regular,
            proper=self.is_proper,
            distinct_generators=len(set(idx)) == 4,
            degeneracy_class=self.degeneracy_class,
        )
        return self._invariants

    def boundary_report(self) -> dict:
        """Group-level data for a boundary map.  No Euler characteristic is
        reported: the subject matter defines none for surfaces with boundary."""
        if not self.has_boundary:
            raise InvalidMapError("not a boundary map")
        idx = self.slot_indices
        k = (_dihedral_order(self.group, idx[1], idx[3])
             if idx[1] is not None and idx[3] is not None else None)
        l = (_dihedral_order(self.group, idx[0], idx[2])
             if idx[0] is not None and idx[2] is not None else None)
        return {
            "order": self.group.order,
            "k": k,
            "l": l,
            "absent_slots": [n for n, i in zip(SLOT_NAMES, idx) if i is None],
            "boundary_type": self.boundary_type,
            "degeneracy_class": "boundary",
        }

    # -- derived maps --------------------------------------------------------

    def twin(self) -> "EdgeBiregularMap":
        """The same map with the two edge colours exchanged."""
        r0, r2, rho0, rho2 = self.slot_indices
        return EdgeBiregularMap(self.group, rho0, rho2, r0, r2)

    def dual(self) -> "EdgeBiregularMap":
        """Vertex and face roles exchanged; the type (k, l) becomes (l, k)."""
        r0, r2, rho0, rho2 = self.slot_indices
        return EdgeBiregularMap(self.group, r2, r0, rho2, rho0)

    # -- actions on the corner set --------------------------------------------

    def monodromy(self) -> tuple[Permutation, Permutation, Permutation, Permutation]:
        """Right-regular actions of the four slot elements on the corners.

        These are the corner-gluing instructions; they generate a group of
        order |H| acting regularly, and commute with every left action.
        """
        self._require_closed()
        return tuple(Permutation(self.group.right_translation(s))
                     for s in self.slot_indices)

    def left_action(self) -> tuple[Permutation, Permutation, Permutation, Permutation]:
        """Left-regular actions of the four slot elements on the corners."""
        self._require_closed()
        return tuple(Permutation(self.group.left_translation(s)) for s in self.slot_indices)


def _dihedral_order(group: FiniteGroup, a: int, b: int) -> int:
    """``|<a, b>|`` for involutions ``a`` and ``b``: the dihedral group of order
    twice the order of ``a b`` (2 when ``a == b``), stepped off from 1."""
    right_a, right_b = group.right_translation(a), group.right_translation(b)
    x, steps = right_b[a], 1
    while x:
        x, steps = right_b[right_a[x]], steps + 1
    return 2 * steps


def _type_and_chi(group: FiniteGroup, idx) -> tuple[int, int, int]:
    """``k``, ``l`` and the Euler characteristic of the closed map on the
    slot indices ``idx``.  A colour class with coincident slots is |H|/2
    semi-edges, which add nothing to the Euler characteristic; a proper class
    is |H|/4 edges."""
    n = group.order
    k = _dihedral_order(group, idx[1], idx[3])
    l = _dihedral_order(group, idx[0], idx[2])
    edges = sum(n // 4 for i in (0, 2) if idx[i] != idx[i + 1])
    return k, l, n // k - edges + n // l


def _corner_walk(group: FiniteGroup, slot_indices) -> tuple[bool, bool]:
    """Orientability and full regularity, from one breadth-first walk of the
    corners that colours each corner off its tree parent and maps it to the
    corner the twin quad ``(rho0, rho2, r0, r2)`` reaches by the same word.
    Orientable: each slot flips the colour (no odd word is the identity).
    Fully regular: the twin map commutes with the slots, so it is an
    automorphism and the twin's Cayley form equals this one."""
    rights = [group.right_translation(g) for g in slot_indices]
    pairs = list(zip(rights, rights[2:] + rights[:2]))  # each slot with its twin's
    n = group.order
    twin, colour = [-1] * n, [0] * n
    twin[0] = 0
    order = [0]
    for x in order:  # grows while it is walked
        for right, twin_right in pairs:
            y = right[x]
            if twin[y] < 0:
                twin[y] = twin_right[twin[x]]
                colour[y] = 1 - colour[x]
                order.append(y)
    through = [itemgetter(*right) for right in rights]  # n >= 2: tuples out
    flipped = tuple([1 - c for c in colour])
    orientable = all(get(colour) == flipped for get in through)
    regular = all(get(twin) == itemgetter(*twin)(twin_right)
                  for get, (_, twin_right) in zip(through, pairs))
    return orientable, regular


def are_isomorphic(m1: EdgeBiregularMap, m2: EdgeBiregularMap) -> bool:
    """Whether the slot-wise correspondence extends to a group isomorphism:
    whether the present slots' Cayley forms agree, walked in step to the first
    difference (while entries agree, both walks have listed equally many elements)."""
    if [i is None for i in m1.slot_indices] != [i is None for i in m2.slot_indices]:
        raise ValueError("mismatched slot patterns")
    return all(map(eq, *(_walk(m.group, [i for i in m.slot_indices if i is not None], [0])
                         for m in (m1, m2))))
