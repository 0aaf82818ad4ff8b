"""Finite permutation groups with deterministic element enumeration.

Elements are permutations of the point set ``{0, ..., degree-1}``.  Products
are composed left-to-right: ``(p * q)(i) == q(p(i))``, so a word evaluates by
applying its letters in reading order.  Groups enumerate their elements by
breadth-first closure from the identity, expanding generators in declared
order; every downstream "first representative" tie-break inherits this order.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence, Union

DEFAULT_MAX_ORDER = 10**6

# Dense Cayley tables are only built below this order; larger groups fall
# back to composing permutations and looking the product up.
_TABLE_LIMIT = 2048


class GroupTooLargeError(RuntimeError):
    """Raised when a closure exceeds the configured element bound."""


class Permutation:
    """An immutable bijection of ``{0, ..., degree-1}``."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("images do not form a bijection of 0..degree-1")
        object.__setattr__(self, "images", imgs)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        imgs = list(range(degree))
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a] = b
        return Permutation(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        oth = other.images
        return Permutation(oth[i] for i in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def order(self) -> int:
        n = 1
        for cyc in self.cycles(include_fixed=False):
            n = lcm(n, len(cyc))
        return n

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(identity, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation({text})"


# Elements may be passed to group methods either as Permutation objects or as
# indices into the element list.
ElementLike = Union[Permutation, int]


class FiniteGroup:
    """A finite group realized as permutations of an indexed point set.

    ``elements`` lists every group element exactly once, identity first, in
    breadth-first discovery order over the declared generators.  The order is
    reproducible across runs, which keeps reports and canonical forms stable.
    """

    def __init__(self, degree: int, generator_names: Sequence[str],
                 generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.degree = degree
        self.generator_names = tuple(generator_names)
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element list must start with the identity")
        self._index = {p: i for i, p in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._mul_table: Optional[list[list[int]]] = None
        self._inv_table: Optional[list[int]] = None
        self._orders: list[Optional[int]] = [None] * len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def generator(self, name: str) -> Permutation:
        try:
            return self.generators[self.generator_names.index(name)]
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None

    def element(self, i: int) -> Permutation:
        return self.elements[i]

    def index(self, p: ElementLike) -> int:
        if isinstance(p, int):
            if not 0 <= p < len(self.elements):
                raise ValueError(f"element index {p} out of range")
            return p
        try:
            return self._index[p]
        except KeyError:
            raise ValueError("permutation is not an element of this group") from None

    def __contains__(self, p: object) -> bool:
        return p in self._index

    def _table(self) -> Optional[list[list[int]]]:
        if self._mul_table is None and self.order <= _TABLE_LIMIT:
            idx = self._index
            els = self.elements
            self._mul_table = [
                [idx[p * q] for q in els] for p in els
            ]
        return self._mul_table

    def mul(self, i: int, j: int) -> int:
        table = self._table()
        if table is not None:
            return table[i][j]
        return self._index[self.elements[i] * self.elements[j]]

    def inv(self, i: int) -> int:
        if self._inv_table is None:
            self._inv_table = [self._index[p.inverse()] for p in self.elements]
        return self._inv_table[i]

    def element_order(self, i: int) -> int:
        order = self._orders[i]
        if order is None:
            order = self._orders[i] = self.elements[i].order()
        return order

    def involution_indices(self) -> list[int]:
        return [i for i in range(1, self.order) if self.element_order(i) == 2]

    def involutions(self) -> list[Permutation]:
        """All elements of order exactly 2, in element order."""
        return [self.elements[i] for i in self.involution_indices()]

    def subgroup_indices(self, gens: Sequence[ElementLike]) -> list[int]:
        """Elements of the generated subgroup, in BFS discovery order."""
        gen_idx = [self.index(g) for g in gens]
        seen = {0}
        out = [0]
        pos = 0
        while pos < len(out):
            e = out[pos]
            pos += 1
            for g in gen_idx:
                f = self.mul(e, g)
                if f not in seen:
                    seen.add(f)
                    out.append(f)
        return out

    def subgroup_order(self, gens: Sequence[ElementLike]) -> int:
        """Order of the subgroup generated by ``gens`` (1 for no generators)."""
        return len(self.subgroup_indices(gens))

    def __repr__(self) -> str:
        names = ",".join(self.generator_names)
        return f"FiniteGroup(order={self.order}, degree={self.degree}, generators=[{names}])"


def closure(generators: Sequence[Permutation], names: Optional[Sequence[str]] = None,
            max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Generate the group closed under the given permutations.

    Raises GroupTooLargeError once more than ``max_order`` elements appear.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch among generators")
    if names is None:
        names = [f"g{i}" for i in range(len(gens))]
    elif len(names) != len(gens):
        raise ValueError("one name per generator required")

    ident = Permutation.identity(degree)
    seen = {ident}
    elements = [ident]
    pos = 0
    while pos < len(elements):
        e = elements[pos]
        pos += 1
        for g in gens:
            f = e * g
            if f not in seen:
                if len(elements) >= max_order:
                    raise GroupTooLargeError(
                        f"group too large: closure exceeded {max_order} elements")
                seen.add(f)
                elements.append(f)
    return FiniteGroup(degree, names, gens, elements)


class GroupMap:
    """A bijective homomorphism recorded as an index map on ``group.elements``."""

    def __init__(self, group: FiniteGroup, images: Sequence[int]):
        self.group = group
        self.images = tuple(images)

    def __call__(self, p: ElementLike) -> Permutation:
        return self.group.elements[self.images[self.group.index(p)]]

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def inverse(self) -> "GroupMap":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return GroupMap(self.group, inv)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupMap) and other.group is self.group
                and other.images == self.images)

    def __repr__(self) -> str:
        return f"GroupMap(order={len(self.images)}, identity={self.is_identity()})"


def _translate(src_group: FiniteGroup, src: Sequence[int],
               dst_group: FiniteGroup, dst: Sequence[int]) -> Optional[list[int]]:
    """Word-translation fill-in of ``src[i] -> dst[i]`` over the Cayley graph.

    Returns the full element-index map, or None on a conflicting assignment.
    Raises ValueError when ``src`` does not generate ``src_group``.
    """
    n = src_group.order
    images: list[Optional[int]] = [None] * n
    images[0] = 0
    queue = [0]
    pos = 0
    while pos < len(queue):
        a = queue[pos]
        pos += 1
        fa = images[a]
        for s, d in zip(src, dst):
            b = src_group.mul(a, s)
            fb = dst_group.mul(fa, d)
            if images[b] is None:
                images[b] = fb
                queue.append(b)
            elif images[b] != fb:
                return None
    if any(v is None for v in images):
        raise ValueError("src does not generate the group")
    return images  # type: ignore[return-value]


def extend_generator_map(group: FiniteGroup, src: Sequence[ElementLike],
                         dst: Sequence[ElementLike]) -> Optional[GroupMap]:
    """Extend ``src[i] -> dst[i]`` to an automorphism of ``group``, if one exists.

    The extension is built by breadth-first traversal of the Cayley graph on
    ``src``, assigning images by word translation; any conflicting assignment
    or failure of bijectivity yields None.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    src_idx = [group.index(x) for x in src]
    dst_idx = [group.index(x) for x in dst]
    images = _translate(group, src_idx, group, dst_idx)
    if images is None or len(set(images)) != group.order:
        return None
    return GroupMap(group, images)


def groups_isomorphic_on(src_group: FiniteGroup, src: Sequence[ElementLike],
                         dst_group: FiniteGroup, dst: Sequence[ElementLike]) -> bool:
    """Whether ``src[i] -> dst[i]`` extends to an isomorphism between the groups."""
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    if src_group.order != dst_group.order:
        return False
    src_idx = [src_group.index(x) for x in src]
    dst_idx = [dst_group.index(x) for x in dst]
    images = _translate(src_group, src_idx, dst_group, dst_idx)
    return images is not None and len(set(images)) == dst_group.order


def is_dihedral(group: FiniteGroup) -> bool:
    """Whether the group is dihedral of its order: some element of order n/2
    is inverted by an involution, and the two of them generate."""
    n = group.order
    if n % 2 != 0:
        return n == 1
    half = n // 2
    rotations = [i for i in range(n) if group.element_order(i) == half or half == 1]
    invs = group.involution_indices()
    for x in rotations:
        xinv = group.inv(x)
        for y in invs:
            if group.mul(group.mul(y, x), y) == xinv:
                if group.subgroup_order([x, y]) == n:
                    return True
    return False
