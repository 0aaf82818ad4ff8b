"""Arbitrary maps on closed surfaces as flag systems.

A map is encoded by three involutions on its flag set: ``s0`` moves a flag
along its edge (other vertex, same edge and face), ``s1`` within its corner
(other edge, same vertex and face), ``s2`` across its edge (other face).
``s0*s2`` must be a fixed-point-free involution (closed surface, no
semi-edges) and the three together must act transitively (connected map).

An alternate-edge-colouring assigns two colours to the edges so that
consecutive edges around every vertex and every face alternate.  It exists
exactly when the medial graph, whose vertices are the map's edges with
adjacency given by corner transitions, is bipartite.  The constructor walks
that graph breadth-first once, to prove connectivity; the test below then
compares the parity of the edges' depths across every corner transition.
"""

from __future__ import annotations

import json
from operator import eq
from typing import Optional, Sequence

from .perm_group import Permutation

__all__ = [
    "FlagMap",
    "is_alternate_edge_colourable",
    "ebr_to_flagmap",
    "regular_to_flagmap",
    "rotation_system_to_flagmap",
    "load_flagmap",
    "save_flagmap",
]


class FlagMap:
    """A connected map on a closed surface, given by flag involutions."""

    def __init__(self, s0: Permutation, s1: Permutation, s2: Permutation):
        n = s0.degree
        if s1.degree != n or s2.degree != n:
            raise ValueError("flag permutations must share one degree")
        flags = list(range(n))
        along, corner, across = s0.images, s1.images, s2.images
        for name, p in (("s0", along), ("s1", corner), ("s2", across)):
            if list(map(p.__getitem__, p)) != flags:
                raise ValueError(f"{name} is not an involution")
        cross = list(map(across.__getitem__, along))  # s0*s2
        if list(map(cross.__getitem__, cross)) != flags:
            raise ValueError("s0*s2 is not an involution")
        if any(map(eq, cross, flags)):
            raise ValueError("s0*s2 has fixed points (semi-edge or boundary)")
        # <s0, s2> is now a Klein four-group: key each flag's edge by the least
        # of its four images.  One breadth-first walk over the edges through
        # s1, each edge's flags in increasing order, gives each edge's depth;
        # the map is connected when the walk reaches every edge.
        self._edge = edge = list(map(min, flags, along, across, cross))
        self._depth = depth = {0: 0}
        queue = [0] if n else []
        for e in queue:
            d = depth[e] + 1
            for f in sorted((e, along[e], across[e], cross[e])):
                g = edge[corner[f]]
                if g not in depth:
                    depth[g] = d
                    queue.append(g)
        if not n or len(queue) != sum(map(eq, edge, flags)):
            raise ValueError("flag system is disconnected")
        self.flag_count, self.s0, self.s1, self.s2 = n, s0, s1, s2

    def vertex_orbits(self) -> list[list[int]]:
        return _orbits(self.flag_count, (self.s1.images, self.s2.images))

    def edge_orbits(self) -> list[list[int]]:
        along, across = self.s0.images, self.s2.images
        return [list(dict.fromkeys((e, along[e], across[e], across[along[e]])))
                for e, least in enumerate(self._edge) if e == least]

    def face_orbits(self) -> list[list[int]]:
        return _orbits(self.flag_count, (self.s0.images, self.s1.images))

    def chi(self) -> int:
        return len(self.vertex_orbits()) - len(self.edge_orbits()) + len(self.face_orbits())

    def vertex_valencies(self) -> list[int]:
        """Valency per vertex: half the flag count of each vertex orbit."""
        return [len(orbit) // 2 for orbit in self.vertex_orbits()]

    def face_lengths(self) -> list[int]:
        return [len(orbit) // 2 for orbit in self.face_orbits()]

    def to_json_dict(self) -> dict:
        return {
            "flag_count": self.flag_count,
            "s0": list(self.s0.images),
            "s1": list(self.s1.images),
            "s2": list(self.s2.images),
        }


def _orbits(n: int, images: Sequence[Sequence[int]]) -> list[list[int]]:
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        for f in orbit:
            for p in images:
                g = p[f]
                if not seen[g]:
                    seen[g] = True
                    orbit.append(g)
        orbits.append(orbit)
    return orbits


def is_alternate_edge_colourable(m: FlagMap) -> Optional[dict[int, int]]:
    """Two-colour the edges so that colours alternate around every vertex and
    every face, or return None when impossible.

    The returned dict maps each edge orbit (keyed by its least flag) to 0 or
    1, in the order the constructor's walk reached them.  Adjacency in the
    medial graph is realized by corner transitions: the edges of flags ``f``
    and ``f*s1`` are consecutive around both the common vertex and the common
    face.
    """
    colour = {e: d & 1 for e, d in m._depth.items()}
    side = list(map(colour.__getitem__, m._edge))
    if any(map(eq, side, map(side.__getitem__, m.s1.images))):
        return None
    return colour


def ebr_to_flagmap(m) -> FlagMap:
    """Split each corner of a proper closed edge-biregular map into its
    shaded and unshaded flag: flag ``2*c`` is the shaded flag of corner ``c``
    and ``2*c + 1`` the unshaded one.  The induced edge colouring is a valid
    alternate-edge-colouring by construction."""
    if m.has_boundary:
        raise ValueError("boundary maps have no closed flag system")
    if not m.is_proper:
        raise ValueError("semi-edge maps have no closed flag system")
    group = m.group
    n = group.order
    r0, r2, p0, p2 = m.slot_indices
    # Indexed by the colour bit: right multiplication by r0 or rho0 (along)
    # and by r2 or rho2 (across).
    along = (group.right_translation(r0), group.right_translation(p0))
    across = (group.right_translation(r2), group.right_translation(p2))
    s0 = Permutation(2 * along[f % 2][f // 2] + f % 2 for f in range(2 * n))
    s1 = Permutation(f ^ 1 for f in range(2 * n))
    s2 = Permutation(2 * across[f % 2][f // 2] + f % 2 for f in range(2 * n))
    return FlagMap(s0, s1, s2)


def regular_to_flagmap(r) -> FlagMap:
    """Flags of a fully regular map are its group elements; the three flag
    involutions are right multiplication by the distinguished reflections."""
    s0, s2, s1 = (Permutation(r.group.right_translation(i)) for i in r.indices)
    return FlagMap(s0, s1, s2)


def rotation_system_to_flagmap(rotations: Sequence[Sequence[int]],
                               edge_pairing: Sequence[int]) -> FlagMap:
    """Build the flag system of an embedded graph on an orientable surface.

    ``rotations`` lists, per vertex, its darts in counterclockwise cyclic
    order; ``edge_pairing`` is the involution matching the two darts of each
    edge.  Each dart ``d`` carries two flags ``2*d`` and ``2*d + 1``, one per
    side of the dart.
    """
    n_darts = len(edge_pairing)
    seen = sorted(d for rot in rotations for d in rot)
    if seen != list(range(n_darts)):
        raise ValueError("rotations must cover each dart exactly once")
    for d in range(n_darts):
        e = edge_pairing[d]
        if e == d or edge_pairing[e] != d:
            raise ValueError("edge_pairing must be a fixed-point-free involution")

    succ = [0] * n_darts  # next dart counterclockwise at the same vertex
    pred = [0] * n_darts
    for rot in rotations:
        for a, b in zip(rot, list(rot[1:]) + list(rot[:1])):
            succ[a] = b
            pred[b] = a

    s0 = Permutation(2 * edge_pairing[f // 2] + (1 - f % 2) for f in range(2 * n_darts))
    s1 = Permutation((2 * succ[f // 2] + 1) if f % 2 == 0 else 2 * pred[f // 2]
                     for f in range(2 * n_darts))
    s2 = Permutation(f ^ 1 for f in range(2 * n_darts))
    return FlagMap(s0, s1, s2)


def load_flagmap(path: str) -> FlagMap:
    """Read a flag map from JSON ({flag_count, s0, s1, s2}; extra keys such
    as a comment are ignored)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("flag map file must hold a JSON object")
    try:
        count = data["flag_count"]
        s0, s1, s2 = (Permutation(_int_list(data, key)) for key in ("s0", "s1", "s2"))
    except KeyError as exc:
        raise ValueError(f"flag map file missing key {exc}") from None
    if s0.degree != count:
        raise ValueError("flag_count does not match the permutation arrays")
    return FlagMap(s0, s1, s2)


def _int_list(data: dict, key: str) -> list:
    row = data[key]
    if not isinstance(row, list) or set(map(type, row)) - {int}:
        raise ValueError(f"flag map key {key!r} must be a list of integers")
    return row


def save_flagmap(m: FlagMap, path: str, comment: Optional[str] = None) -> None:
    data = m.to_json_dict()
    if comment is not None:
        data = {"comment": comment, **data}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
