"""Fully regular maps and the constructions linking them to edge-biregular maps.

A fully regular map is a group generated by three involutions ``r0, r2, r1``
with ``r0`` and ``r2`` commuting; its flags are the group elements.  The four
constructions below identify generators rather than performing any surface
surgery:

1. cut a disc around every vertex: the corner reflections become the
   along-unshaded-edge generator of a boundary map (rho0 = r1, rho2 absent);
2. cut a disc out of every face interior: rho2 = r1, rho0 absent;
3. attach one unshaded semi-edge in every corner: rho0 = rho2 = r1, a closed
   map of doubled type and unchanged Euler characteristic;
4. split each digonal face of a digonal regular map with an unshaded edge:
   r0 = rho0, rho2 = r1 (input faces must be digons).
"""

from __future__ import annotations

from .ebr_core import EdgeBiregularMap
from .perm_group import ElementLike, FiniteGroup


class RegularMap:
    """A fully regular map ``(G; r0, r2, r1)``, each reflection given as an
    element index or a permutation of ``G``; the map keeps the indices.

    The map is held as its construction-3 map ``semi = (G; r0, r2, r1, r1)``,
    whose checks are exactly a regular map's: each slot is an involution, r0
    and r2 commute, and the slots generate.  An error about r1 names it
    ``rho0``.  The facts come from ``semi.invariants()``: V, F and chi are the
    regular map's, E is ``edges_shaded.count``, and the type (k, l) is halved.
    """

    def __init__(self, group: FiniteGroup, r0: ElementLike, r2: ElementLike,
                 r1: ElementLike, name: str = ""):
        self.group = group
        self.name = name
        self.semi = EdgeBiregularMap(group, r0, r2, r1, r1)
        self.indices = self.semi.slot_indices[:3]

    r0 = property(lambda self: self.group.element(self.indices[0]))
    r2 = property(lambda self: self.group.element(self.indices[1]))
    r1 = property(lambda self: self.group.element(self.indices[2]))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        inv = self.semi.invariants()
        return (f"RegularMap({label and label[1:] or 'unnamed'}, order={self.group.order}, "
                f"type={(inv.k // 2, inv.l // 2)})")


def construction1(r: RegularMap) -> EdgeBiregularMap:
    """Cut a disc neighbourhood out around every vertex and run unshaded
    edges along the new boundary: (H; r0, r2, rho0, -) with rho0 = r1."""
    return EdgeBiregularMap(r.group, *r.indices, None)


def construction2(r: RegularMap) -> EdgeBiregularMap:
    """Cut a disc out of every face interior and run unshaded semi-edges to
    the boundary: (H; r0, r2, -, rho2) with rho2 = r1."""
    r0, r2, r1 = r.indices
    return EdgeBiregularMap(r.group, r0, r2, None, r1)


def construction3(r: RegularMap) -> EdgeBiregularMap:
    """Attach an unshaded semi-edge in every corner: (H; r0, r2, rho, rho)
    with rho = r1.  Type doubles in both entries; chi is unchanged."""
    return r.semi


def construction4(r: RegularMap) -> EdgeBiregularMap:
    """Split each digonal face into two oppositely coloured digons:
    (H; rho, r2, rho, rho2) with rho = r0 and rho2 = r1."""
    if construction3(r).invariants().l != 4:
        raise ValueError("input faces are not digonal")
    r0, r2, r1 = r.indices
    return EdgeBiregularMap(r.group, r0, r2, r0, r1)


def underlying_regular(m: EdgeBiregularMap) -> RegularMap:
    """Recover the regular map behind a construction-shaped map.

    Recognized shapes: exactly one absent rho-slot (constructions 1 and 2),
    coincident rho-slots (construction 3), or r0 = rho0 (construction 4, the
    regular map embeds the shaded edges).
    """
    r0, r2, rho0, rho2 = m.slot_indices
    group = m.group
    absent = [i for i in (r0, r2, rho0, rho2) if i is None]
    if absent:
        if r0 is None or r2 is None or len(absent) > 1:
            raise ValueError("map is not in a recognized construction shape")
        middle = rho0 if rho2 is None else rho2
        return RegularMap(group, r0, r2, middle)
    if rho0 == rho2 and r0 != r2:
        return RegularMap(group, r0, r2, rho0)
    if r0 == rho0 and r2 != rho2:
        return RegularMap(group, r0, r2, rho2)
    raise ValueError("map is not in a recognized construction shape")
