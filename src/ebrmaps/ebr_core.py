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
full regularity, which serialises itself as the CLI's JSON report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .perm_group import (
    ElementLike,
    FiniteGroup,
    Permutation,
    extend_generator_map,
    groups_isomorphic_on,
)

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
        return asdict(self)


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
        if group.subgroup_order(present) != group.order:
            raise InvalidMapError("present slots do not generate the group")

        absent = [name for name, idx in zip(SLOT_NAMES, self.slot_indices)
                  if idx is None]
        if absent:
            self.degeneracy_class = "boundary"
            self.boundary_type = "".join(sorted(_BOUNDARY_LETTER[n] for n in absent))
        else:
            self.boundary_type = None
            shaded_semi = self.slot_indices[0] == self.slot_indices[1]
            unshaded_semi = self.slot_indices[2] == self.slot_indices[3]
            if shaded_semi and unshaded_semi:
                self.degeneracy_class = "semistar"
            elif shaded_semi:
                self.degeneracy_class = "shaded_semi"
            elif unshaded_semi:
                self.degeneracy_class = "unshaded_semi"
            else:
                self.degeneracy_class = "proper"

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
        """Every closed-surface fact of the map, computed once and cached."""
        self._require_closed()
        if self._invariants is not None:
            return self._invariants
        group, idx = self.group, self.slot_indices
        n = group.order
        k = group.subgroup_order([idx[1], idx[3]])
        l = group.subgroup_order([idx[0], idx[2]])
        # A colour class with coincident slots is |H|/2 semi-edges, which add
        # nothing to the Euler characteristic; a proper class is |H|/4 edges.
        shaded, unshaded = (EdgeCount(n // 2, "semi") if idx[i] == idx[i + 1]
                            else EdgeCount(n // 4, "proper") for i in (0, 2))
        proper_edges = sum(e.count for e in (shaded, unshaded) if e.kind == "proper")
        chi = n // k - proper_edges + n // l
        orientable = _bipartite_corners(group, idx)
        self._invariants = MapInvariants(
            order=n, k=k, l=l, V=n // k, F=n // l,
            edges_shaded=shaded, edges_unshaded=unshaded,
            chi=chi, orientable=orientable,
            genus=(2 - chi) // 2 if orientable else 2 - chi,
            # Fully regular: swapping each r-slot with its rho-partner extends
            # to a group automorphism, i.e. the map is isomorphic to its twin.
            fully_regular=extend_generator_map(
                group, list(idx), [idx[2], idx[3], idx[0], idx[1]]) is not None,
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
        k = (self.group.subgroup_order([idx[1], idx[3]])
             if idx[1] is not None and idx[3] is not None else None)
        l = (self.group.subgroup_order([idx[0], idx[2]])
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


def _bipartite_corners(group: FiniteGroup, slot_indices) -> bool:
    """Orientability: whether the corner graph on the distinct slot elements
    is bipartite, i.e. no odd word in the slot elements is the identity."""
    rights = [group.right_translation(g) for g in sorted(set(slot_indices))]
    colour: list[Optional[int]] = [None] * group.order
    colour[0] = 0
    queue = [0]
    pos = 0
    while pos < len(queue):
        e = queue[pos]
        pos += 1
        for right in rights:
            f = right[e]
            if colour[f] is None:
                colour[f] = 1 - colour[e]
                queue.append(f)
            elif colour[f] == colour[e]:
                return False
    return True


def are_isomorphic(m1: EdgeBiregularMap, m2: EdgeBiregularMap) -> bool:
    """Whether the slot-wise correspondence extends to a group isomorphism."""
    pattern1 = tuple(i is None for i in m1.slot_indices)
    pattern2 = tuple(i is None for i in m2.slot_indices)
    if pattern1 != pattern2:
        raise ValueError("mismatched slot patterns")
    src = [i for i in m1.slot_indices if i is not None]
    dst = [i for i in m2.slot_indices if i is not None]
    return groups_isomorphic_on(m1.group, src, m2.group, dst)
