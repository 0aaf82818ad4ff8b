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
from .perm_group import ElementLike, FiniteGroup, groups_isomorphic_on


class RegularMap:
    """A fully regular map ``(G; r0, r2, r1)``, each reflection given as an
    element index or a permutation of ``G``; the map keeps the indices."""

    def __init__(self, group: FiniteGroup, r0: ElementLike, r2: ElementLike,
                 r1: ElementLike, name: str = ""):
        self.group = group
        self.name = name
        idx = [group.index(p) for p in (r0, r2, r1)]
        self.indices = tuple(idx)
        for label, i in zip(("r0", "r2", "r1"), idx):
            if group.element_order(i) != 2:
                raise ValueError(f"{label} is not an involution")
        prod = group.mul(idx[0], idx[1])
        if group.mul(prod, prod) != 0:
            raise ValueError("r0 and r2 do not commute")
        if group.subgroup_order(idx) != group.order:
            raise ValueError("r0, r2, r1 do not generate the group")

    r0 = property(lambda self: self.group.element(self.indices[0]))
    r2 = property(lambda self: self.group.element(self.indices[1]))
    r1 = property(lambda self: self.group.element(self.indices[2]))

    @property
    def k(self) -> int:
        """Vertex valency: the order of r1*r2."""
        r0, r2, r1 = self.indices
        return self.group.element_order(self.group.mul(r1, r2))

    @property
    def l(self) -> int:
        """Face length: the order of r0*r1."""
        r0, r2, r1 = self.indices
        return self.group.element_order(self.group.mul(r0, r1))

    def map_type(self) -> tuple[int, int]:
        return (self.k, self.l)

    @property
    def vertex_count(self) -> int:
        return self.group.order // (2 * self.k)

    @property
    def edge_count(self) -> int:
        return self.group.order // 4

    @property
    def face_count(self) -> int:
        return self.group.order // (2 * self.l)

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"RegularMap({label and label[1:] or 'unnamed'}, order={self.group.order}, "
                f"type={self.map_type()})")


def are_regular_isomorphic(a: RegularMap, b: RegularMap) -> bool:
    """Whether (r0, r2, r1) -> (r0', r2', r1') extends to a group isomorphism."""
    return groups_isomorphic_on(a.group, a.indices, b.group, b.indices)


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
    return EdgeBiregularMap(r.group, *r.indices, r.indices[2])


def construction4(r: RegularMap) -> EdgeBiregularMap:
    """Split each digonal face into two oppositely coloured digons:
    (H; rho, r2, rho, rho2) with rho = r0 and rho2 = r1."""
    if r.l != 2:
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
