"""Permutations and finite groups held as their right Cayley graphs.

Permutations act on the point set ``{0, ..., degree-1}`` and compose left to
right: ``(p * q)(i) == q(p(i))``, so a word evaluates by applying its letters
in reading order; they are the input and output form of group elements.
A ``FiniteGroup`` is its right Cayley graph, and an element is an index,
numbered breadth-first from the identity over the generators in declared
order; every downstream "first representative" tie-break inherits this order.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from math import lcm
from operator import eq
from typing import Iterable, Optional, Sequence, Union

DEFAULT_MAX_ORDER = 10**6


class GroupTooLargeError(RuntimeError):
    """Raised when a closure exceeds the configured element bound."""


class Permutation:
    """An immutable bijection of ``{0, ..., degree-1}``."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        # sorted would take 1.0 for 1, so each image must be an int; a bool is stored as int
        if not all(isinstance(i, int) for i in imgs) or sorted(imgs) != list(range(len(imgs))):
            raise ValueError("images do not form a bijection of 0..degree-1")
        object.__setattr__(self, "images", tuple(map(int, imgs)))

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from images already known to form a bijection."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

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
        return Permutation._trusted(tuple([oth[i] for i in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def order(self) -> int:
        n = 1
        for cyc in self.cycles():
            n = lcm(n, len(cyc))
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of length two or more, each from its least point."""
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
            if len(cyc) > 1:
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


# An element given from outside the library: a permutation or an index.
ElementLike = Union[Permutation, int]


class FiniteGroup:
    """A finite group as its right Cayley graph on element indices.

    ``columns[g][i]`` is the index of element ``i`` times generator ``g``.
    Elements are numbered 0 (the identity) upward in breadth-first order over
    the declared generators, which keeps reports and canonical forms stable;
    the constructor renumbers columns (and ``elements``) given in any order
    with the identity at 0.  A generator's row ``x -> x*j`` is its column; any
    other is one left translation read through the inverse array, memoised
    only for the ``j`` asked.  Permutations are derived on request only:
    element ``i`` reads as its right translation ``x -> x*i``, unless
    ``closure`` passed the ``elements`` it was closed under.  The columns and
    the breadth-first tree share one int object per element.
    """

    def __init__(self, generator_names: Sequence[str], columns: Sequence[Sequence[int]],
                 elements: Optional[Sequence[Permutation]] = None):
        self.generator_names = tuple(generator_names)
        # Breadth-first tree: f was first reached as parent[f] * via[f], and
        # found[f] is its index in the input.
        n = len(columns[0])
        found, number = [0], [0] + [-1] * (n - 1)
        self._parent, self._via = [0], [0]
        numbered = list(enumerate(columns))  # one list, not an enumerate per element
        for x in found:
            e = number[x]
            for g, col in numbered:
                y = col[x]
                if number[y] < 0:
                    number[y] = len(found)
                    found.append(y)
                    self._parent.append(e)
                    self._via.append(g)
        if len(found) != n:
            raise ValueError("the generators do not reach every element")
        self.columns = tuple([number[col[x]] for x in found] for col in columns)
        # The rows asked for, memoised; a generator's right translation is its column.
        self._right: list[Optional[list[int]]] = [None] * n
        for col in self.columns:
            self._right[col[0]] = col
        self._inverse: Optional[list[int]] = None
        self._elements = None if elements is None else tuple(elements[x] for x in found)
        self.degree = n if elements is None else elements[0].degree
        # A closure's permutations are looked up; any other element is its
        # right translation, which moves 0 to its index.
        self._index = None if elements is None else {q: i for i, q in enumerate(self._elements)}

    @property
    def order(self) -> int:
        return len(self._parent)

    def generator(self, name: str) -> Permutation:
        return self.element(self.generator_index(name))

    def generator_index(self, name: str) -> int:
        try:
            return self.columns[self.generator_names.index(name)][0]
        except ValueError:
            raise ValueError(f"no generator named {name!r}") from None

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """Each generator as a permutation: its column, unless built by ``closure``."""
        return tuple(self.element(col[0]) for col in self.columns)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element as a permutation, in element order: a fresh tuple,
        unless ``closure`` passed the permutations it was closed under."""
        return self._elements or tuple(map(self.element, range(self.order)))

    def element(self, i: int) -> Permutation:
        if self._elements is not None:
            return self._elements[i]
        return Permutation._trusted(tuple(self._row(i)))

    def index(self, p: ElementLike) -> int:
        if isinstance(p, int):
            if not 0 <= p < self.order:
                raise ValueError(f"element index {p} out of range")
            return p
        if p not in self:
            raise ValueError("permutation is not an element of this group")
        return p(0) if self._index is None else self._index[p]

    def __contains__(self, p: object) -> bool:
        if self._index is not None:
            return p in self._index
        return (isinstance(p, Permutation) and p.degree == self.order
                and self._row(p(0)) == list(p.images))

    def _inverses(self) -> list[int]:
        """Every element's inverse, built once: (p*g)^-1 is g^-1 * p^-1."""
        if self._inverse is None:
            undo = [self.left_translation(col.index(0)) for col in self.columns]
            self._inverse = inverse = [0]
            for p, g in zip(islice(self._parent, 1, None), islice(self._via, 1, None)):
                inverse.append(undo[g][inverse[p]])
        return self._inverse

    def _row(self, j: int) -> list[int]:
        """``x -> x*j``, not memoised: a generator's column, else ``(j^-1 * x^-1)^-1``,
        one left translation read through the inverse array."""
        row = self._right[j]
        if row is None:
            inverse = self._inverses()
            left = self.left_translation(inverse[j])
            row = [inverse[left[y]] for y in inverse]
        return row

    def right_translation(self, j: int) -> list[int]:
        """The array ``x -> x*j`` (do not modify), memoised for ``j`` alone."""
        self._right[j] = row = self._row(j)
        return row

    def left_translation(self, j: int) -> list[int]:
        """The array ``x -> j*x``, not memoised: j*f is (j*parent[f]) * via[f]."""
        columns, left = self.columns, [j]
        append = left.append
        for p, g in zip(islice(self._parent, 1, None), islice(self._via, 1, None)):
            append(columns[g][left[p]])
        return left

    def mul(self, i: int, j: int) -> int:
        return (self._right[j] or self.right_translation(j))[i]

    def inv(self, i: int) -> int:
        return self._inverses()[i]

    def element_order(self, i: int) -> int:
        """The least k >= 1 with i^k the identity: the steps 0 -> i -> i^2 ... back to 0."""
        translation = self.right_translation(i)
        x, order = translation[0], 1
        while x:
            x, order = translation[x], order + 1
        return order

    def involution_indices(self) -> list[int]:
        """The elements of order 2: those after the identity that are their own inverses."""
        return [f for f, g in enumerate(self._inverses()) if f == g][1:]

    def subgroup_indices(self, gens: Sequence[int]) -> list[int]:
        """Elements of the generated subgroup: the visiting order of its Cayley form."""
        order = [0]
        deque(_walk(self, gens, order), 0)
        return order

    def subgroup_order(self, gens: Sequence[int]) -> int:
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
    index = {ident: 0}
    elements = [ident]
    columns: list[list[int]] = [[] for _ in gens]
    pos = 0
    while pos < len(elements):
        e = elements[pos]
        pos += 1
        for g, col in zip(gens, columns):
            f = e * g
            j = index.get(f)
            if j is None:
                if len(elements) >= max_order:
                    raise GroupTooLargeError(
                        f"group too large: closure exceeded {max_order} elements")
                j = index[f] = len(elements)
                elements.append(f)
            col.append(j)
    return FiniteGroup(names, columns, elements)


def orbits(n: int, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The orbits of the permutations ``rows`` (image arrays on 0..n-1), each
    walked breadth-first from its least point, listed in order of that point."""
    seen = bytearray(n)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = 1
        for f in orbit:  # grows while it is walked
            for row in rows:
                g = row[f]
                if not seen[g]:
                    seen[g] = 1
                    orbit.append(g)
        out.append(orbit)
    return out


def _walk(group: FiniteGroup, gens: Sequence[int], order: list[int]) -> Iterable[int]:
    """Yield the Cayley form of ``gens`` entry by entry, extending ``order == [0]``."""
    rights = [group.right_translation(g) for g in gens]
    position = [-1] * group.order
    position[0] = 0
    for x in order:
        for right in rights:
            y = right[x]
            p = position[y]
            if p < 0:
                p = position[y] = len(order)
                order.append(y)
            yield p


def cayley_form(group: FiniteGroup, gens: Sequence[int]) -> tuple[list[int], tuple]:
    """The visiting order of ``<gens>`` breadth-first from the identity, and the
    position of ``order[k] * gens[j]`` at entry ``k * len(gens) + j`` (Sims'
    standardised coset table).  Equal forms mean ``gens[i] -> gens'[i]``
    extends to an isomorphism, which pairs off the visiting orders."""
    order = [0]
    return order, tuple(_walk(group, gens, order))


def extend_generator_map(group: FiniteGroup, src: Sequence[int],
                         dst: Sequence[int]) -> Optional[list[int]]:
    """Extend ``src[i] -> dst[i]`` to an automorphism of ``group``, if one exists.

    The Cayley forms of ``src`` and ``dst`` are walked in step up to the first
    difference; if they are equal, the automorphism pairs off their visiting
    orders.  Returns it as its image list on element indices, or None.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    src_order, dst_order = [0], [0]
    if not all(map(eq, _walk(group, src, src_order), _walk(group, dst, dst_order))):
        return None
    if len(src_order) != group.order:
        raise ValueError("src does not generate the group")
    images = [0] * group.order
    for x, y in zip(src_order, dst_order):
        images[x] = y
    return images


def _find(parent: list[int], i: int) -> int:
    """The root of ``i`` in a union-find forest, the least index of its set;
    halves the path walked."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def is_dihedral(group: FiniteGroup) -> bool:
    """Whether the group is dihedral of its order 2h: whether it has h + [h even]
    involutions and an element w of order h (then every element outside <w>
    is an involution, and inverts w).  The count alone settles h <= 2.  In D_h
    every non-involution lies in the rotations, which have one cyclic subgroup
    of each order, so a second cyclic subgroup of an order met rules it out."""
    n = group.order
    if n % 2 != 0:
        return n == 1
    half = n // 2
    if len(group.involution_indices()) != half + 1 - half % 2:
        return False
    if half <= 2:
        return True
    seen, orders = set(), set()
    for w, w_inv in enumerate(group._inverses()):
        if w == w_inv or w in seen:  # the identity is its own inverse
            continue
        cyclic = group.subgroup_indices([w])
        if len(cyclic) == half or len(cyclic) in orders:
            return len(cyclic) == half
        orders.add(len(cyclic))
        seen.update(cyclic)
    return False
