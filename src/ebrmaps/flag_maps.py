"""Arbitrary maps on closed surfaces as flag systems.

A map is encoded by three involutions on its flag set: ``s0`` moves a flag
along its edge (other vertex, same edge and face), ``s1`` within its corner
(other edge, same vertex and face), ``s2`` across its edge (other face).
``s0*s2`` must be a fixed-point-free involution, neither ``s0`` (semi-edge) nor
``s2`` (boundary) may fix a flag, so every edge has four flags, and the three
together must act transitively (connected map).

An alternate-edge-colouring assigns two colours to the edges so that
consecutive edges around every vertex and every face alternate.  It exists
exactly when the medial graph, whose vertices are the map's edges with
adjacency given by corner transitions, is bipartite.  The constructor walks
that graph breadth-first once and keeps only one side byte per flag; the walk
proves connectivity and decides colourability, and the witness is read off
the side bytes in flag order, at each edge's least flag.
"""

from __future__ import annotations

import json
from operator import eq, itemgetter
from typing import Optional, Sequence

from .perm_group import orbits

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
    """A connected map on a closed surface: flag involutions as image tuples, whose
    involution test proves their range (scanned only to name a fault), and a side per flag."""

    def __init__(self, s0: Sequence[int], s1: Sequence[int], s2: Sequence[int]):
        along, corner, across = tuple(s0), tuple(s1), tuple(s2)
        n = len(along)
        if len(corner) != n or len(across) != n:
            raise ValueError("flag permutations must share one degree")
        named = (("s0", along), ("s1", corner), ("s2", across))
        flags = tuple(range(n))
        # Passing proves every entry in 0..n-1: one >= n or < -n raises IndexError,
        # and a wrapped p[i] = -k needs p[n - k] == i, so p[p[n - k]] == -k != n - k.
        # The range scan runs only to name a fault; its message still comes first.
        try:
            involutions = all(_compose(p, p) == flags for _, p in named)
        except (IndexError, TypeError):
            involutions = False
        if not involutions:
            for name, p in named:
                if p and not (0 <= min(p) and max(p) < n):
                    raise ValueError(f"flag map key {name!r} has an entry outside 0..{n - 1}")
            for name, p in named:
                if _compose(p, p) != flags:
                    raise ValueError(f"{name} is not an involution")
        cross = _compose(along, across)  # s0*s2
        if _compose(cross, cross) != flags:
            raise ValueError("s0*s2 is not an involution")
        if any(map(eq, cross, flags)):
            raise ValueError("s0*s2 has fixed points (semi-edge or boundary)")
        # s0*s2 is now a fixed-point-free involution, so the edge of flag h is
        # h, s0 h, s2 h and s0s2 h: four flags, or two if s0 or s2 fixes h.  A
        # breadth-first walk through s1 first reaches each edge by some flag h,
        # queues h and gives all its flags the side opposite the finder's (2 =
        # not reached yet); a transition within one side closes an odd medial cycle.
        self._side = side = bytearray(b"\2") * n
        queue = [0] if n else []
        if n:  # the walk starts at the edge of flag 0, on side 0
            side[0] = side[along[0]] = side[across[0]] = side[cross[0]] = 0
        clash = False
        for h in queue:
            s = side[h] ^ 1
            for f in (corner[h], corner[along[h]], corner[across[h]], corner[cross[h]]):
                if (t := side[f]) == 2:
                    side[f] = side[along[f]] = side[across[f]] = side[cross[f]] = s
                    queue.append(f)
                elif t != s:
                    clash = True
        if not n or 2 in side:
            raise ValueError("flag system is disconnected")
        if 4 * len(queue) != n:  # the queue holds one flag per edge
            if any(map(eq, along, flags)):
                raise ValueError("s0 has fixed points (semi-edge)")
            raise ValueError("s2 has fixed points (boundary)")
        self._colourable = not clash
        self.flag_count, self.s0, self.s1, self.s2 = n, along, corner, across

    def vertex_orbits(self) -> list[list[int]]:
        return orbits(self.flag_count, (self.s1, self.s2))

    def edge_orbits(self) -> list[list[int]]:
        return orbits(self.flag_count, (self.s0, self.s2))

    def face_orbits(self) -> list[list[int]]:
        return orbits(self.flag_count, (self.s0, self.s1))

    def chi(self) -> int:
        return len(self.vertex_orbits()) - len(self.edge_orbits()) + len(self.face_orbits())

    def to_json_dict(self) -> dict:
        return dict(flag_count=self.flag_count, s0=list(self.s0),
                    s1=list(self.s1), s2=list(self.s2))


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple:
    """The images ``q[p[f]]`` of every point ``f``, as a tuple."""
    return itemgetter(*p)(q) if len(p) > 1 else tuple(map(q.__getitem__, p))


def is_alternate_edge_colourable(m: FlagMap) -> Optional[dict[int, int]]:
    """Two-colour the edges so that colours alternate around every vertex and
    every face, or return None when impossible.

    The returned dict maps each edge orbit (keyed by its least flag) to 0 or
    1, in ascending order of that flag.  Adjacency in the medial graph is
    realized by corner transitions: the edges of flags ``f`` and ``f*s1`` are
    consecutive around both the common vertex and the common face.  This reads
    the walk's sides in flag order at each edge's least flag ``f``: ``f < s0 f``,
    ``f < s2 f`` and ``f < s2 s0 f``, as none of the three fixes ``f``.
    """
    if not m._colourable:
        return None
    along, across, side = m.s0, m.s2, m._side
    return {f: side[f] for f in range(m.flag_count)
            if f < along[f] and f < across[f] and f < across[along[f]]}


def ebr_to_flagmap(m) -> FlagMap:
    """Split each corner of a proper closed edge-biregular map into its
    shaded and unshaded flag: flag ``2*c`` is the shaded flag of corner ``c``
    and ``2*c + 1`` the unshaded one.  The induced edge colouring is a valid
    alternate-edge-colouring by construction."""
    if m.has_boundary:
        raise ValueError("boundary maps have no closed flag system")
    if not m.is_proper:
        raise ValueError("semi-edge maps have no closed flag system")
    group, n = m.group, m.group.order
    r0, r2, p0, p2 = m.slot_indices
    # Indexed by the colour bit: right multiplication by r0 or rho0 (along)
    # and by r2 or rho2 (across).
    along = (group.right_translation(r0), group.right_translation(p0))
    across = (group.right_translation(r2), group.right_translation(p2))
    s0 = [2 * along[f % 2][f // 2] + f % 2 for f in range(2 * n)]
    s1 = [f ^ 1 for f in range(2 * n)]
    s2 = [2 * across[f % 2][f // 2] + f % 2 for f in range(2 * n)]
    return FlagMap(s0, s1, s2)


def regular_to_flagmap(r) -> FlagMap:
    """Flags of a fully regular map are its group elements; the three flag
    involutions are right multiplication by the distinguished reflections."""
    s0, s2, s1 = (r.group.right_translation(i) for i in r.indices)
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
    order = [d for rot in rotations for d in rot]
    if sorted(order) != list(range(n_darts)):
        raise ValueError("rotations must cover each dart exactly once")
    if any(not 0 <= e < n_darts for e in edge_pairing):
        raise ValueError(f"edge_pairing entries must lie in 0..{n_darts - 1}")
    if any(e == d or edge_pairing[e] != d for d, e in enumerate(edge_pairing)):
        raise ValueError("edge_pairing must be a fixed-point-free involution")

    succ, pred = [0] * n_darts, [0] * n_darts  # next and previous dart counterclockwise
    for a, b in zip(order, [d for rot in rotations for d in [*rot[1:], *rot[:1]]]):
        succ[a] = b
        pred[b] = a
    s0, s1, s2 = [0] * 2 * n_darts, [0] * 2 * n_darts, [0] * 2 * n_darts
    s0[0::2], s0[1::2] = [2 * e + 1 for e in edge_pairing], [2 * e for e in edge_pairing]
    s1[0::2], s1[1::2] = [2 * b + 1 for b in succ], [2 * a for a in pred]
    s2[0::2], s2[1::2] = range(1, 2 * n_darts, 2), range(0, 2 * n_darts, 2)
    return FlagMap(s0, s1, s2)


def load_flagmap(path: str) -> FlagMap:
    """Read a flag map from JSON ({flag_count, s0, s1, s2}; extra keys such
    as a comment are ignored).  A valid file needs only ``FlagMap`` and the
    count: a non-int entry fails the involution test unless it is a boolean,
    which equals 0 or 1 and so sits at ``p[p[0]]`` or ``p[p[1]]``.  Any other
    file goes through the checks in order, which name its first fault."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and all(isinstance(data.get(k), list) for k in ("s0", "s1", "s2")):
        try:
            m = FlagMap(data["s0"], data["s1"], data["s2"])
        except (ValueError, TypeError):
            m = None
        if m and data.get("flag_count") == m.flag_count and all(
                type(p[p[f]]) is int for p in (m.s0, m.s1, m.s2) for f in (0, 1)):
            return m
    if not isinstance(data, dict):
        raise ValueError("flag map file must hold a JSON object")
    try:
        count = data["flag_count"]
        s0, s1, s2 = (_flag_array(data, key) for key in ("s0", "s1", "s2"))
    except KeyError as exc:
        raise ValueError(f"flag map file missing key {exc}") from None
    if len(s0) != count:
        raise ValueError("flag_count does not match the permutation arrays")
    return FlagMap(s0, s1, s2)


def _flag_array(data: dict, key: str) -> list[int]:
    """The array under ``key`` if its entries are integers; only a refused file is scanned."""
    row = data[key]
    if not isinstance(row, list) or set(map(type, row)) - {int}:
        raise ValueError(f"flag map key {key!r} must be a list of integers")
    return row


def save_flagmap(m: FlagMap, path: str, comment: Optional[str] = None) -> None:
    """Write ``m`` byte for byte as ``json.dump(..., indent=1)`` lays out its
    ``to_json_dict()`` plus a newline, ``comment`` first if given; entries are written as ints."""
    head = {} if comment is None else {"comment": comment}
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(dict(head, flag_count=m.flag_count, s0=m.s0, s1=m.s1, s2=m.s2), fh, 1)


def _write_json(obj: dict, fh, indent: int) -> None:
    """Write a non-empty flat object of scalars and int arrays exactly as ``json.dump(obj, fh,
    indent=indent)`` lays it out, then a newline; arrays go out in joined runs of 1,024 ints."""
    pad, sep = " " * indent, ",\n" + " " * 2 * indent
    for i, (key, value) in enumerate(obj.items()):
        fh.write(("," if i else "{") + "\n" + pad + json.dumps(key) + ": ")
        if isinstance(value, (list, tuple)) and value:
            fh.write("[" + sep[1:])
            for k in range(0, len(value), 1024):
                fh.write((sep if k else "") + sep.join(map(int.__repr__, value[k:k + 1024])))
            fh.write("\n" + pad + "]")
        else:
            fh.write(json.dumps(value))
    fh.write("\n}\n")
