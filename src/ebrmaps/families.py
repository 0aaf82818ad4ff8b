"""Constructors for every classified family of edge-biregular maps.

Each family group is written down as the right Cayley graph of a quotient
(Z²/L) ⋊ P of affine maps, in O(order), by ``affine_quotient``.  For type
(4,4) the four slot involutions generate D∞ × D∞ = Z² ⋊ C2², the
reflections in the sides of a rectangle, so the torus and Klein-bottle maps
are quotients (Z²/L) ⋊ C2² and the square-grid catalog map is
(Z²/gZ²) ⋊ D4.  The dihedral and sphere families are quotients of
Z ⋊ C2, some times C2.  The other catalog maps are built by coset
enumeration of triangle-group quotients.  The tests check the columns
against coset enumeration of the defining relators and against closure of
explicit permutations.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .constructions import RegularMap
from .ebr_core import EdgeBiregularMap
from .perm_group import FiniteGroup, Permutation, within_max_order
from .presentation import (
    DEFAULT_MAX_COSETS,
    CosetLimitExceeded,
    GroupPresentation,
    coset_enumerate,
    triangle_group,
)

_SLOT_NAMES = ("r0", "r2", "rho0", "rho2")

# An affine map (x, y) -> (a x + b y + s, c x + d y + t) of Z², held as
# ((a, b, c, d), (s, t)).
Affine = tuple[tuple[int, int, int, int], tuple[int, int]]
_IDENTITY, _FLIP_X, _FLIP_Y, _SWAP = (1, 0, 0, 1), (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0)

# r0, r2, rho0, rho2: the reflections in the sides x = 0, y = 0, y = 1/2 and
# x = 1/2 of a rectangle, so r0 rho2 and r2 rho0 are the unit translations.
_RECTANGLE = ((_FLIP_X, (0, 0)), (_FLIP_Y, (0, 0)), (_FLIP_Y, (0, 1)), (_FLIP_X, (1, 0)))


def _matmul(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, int, int, int]:
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def affine_quotient(names: Sequence[str], generators: Sequence[Affine],
                    lattice: tuple[int, int, int],
                    central: Optional[Affine] = None) -> FiniteGroup:
    """The group generated by the affine maps ``generators`` of Z² modulo the
    translations in a lattice L, as its right Cayley graph.

    Each generator's matrix is a signed permutation matrix that preserves L.
    ``lattice`` is L in Hermite normal form (p, q, r): the rows (p, 0) and
    (q, r), with 0 <= q < p.  The element with the m-th linear part of the
    point group P and translation (x, y) reduced mod L, 0 <= x < p and
    0 <= y < r, is numbered m*p*r + y*p + x.  ``central``, an involution
    central in the group with a linear part other than the identity, is
    identified with the identity: of the pair h, hz the element kept is the
    one whose linear part comes first in P, and m counts the kept ones.
    """
    p, q, r = lattice
    size = p * r

    def moved(mat: tuple[int, ...], vec: tuple[int, int]) -> list[int]:
        """Each translation's number after the affine map (mat, vec)."""
        a, b, c, d = mat
        s, t = vec
        return [((y2 := c * x + d * y + t) % r) * p + (a * x + b * y + s - y2 // r * q) % p
                for y in range(r) for x in range(p)]

    linear = [_IDENTITY]
    for m in linear:  # grows while it is walked
        for mat, _ in generators:
            image = _matmul(mat, m)
            if image not in linear:
                linear.append(image)
    kept = [_IDENTITY]  # P, or a transversal of P mod the central linear part
    for m in linear[1:]:
        if central is None or _matmul(central[0], m) not in kept:
            kept.append(m)

    through_central = None if central is None else moved(*central)
    columns = []
    for mat, vec in generators:
        shift = moved(mat, vec)  # h*g = (mat M, mat v + vec) for h = (M, v)
        column: list[int] = []
        for m in kept:
            image = _matmul(mat, m)
            if image in kept:
                column += [kept.index(image) * size + x for x in shift]
            else:  # h*g*z is kept instead of h*g
                base = kept.index(_matmul(central[0], image)) * size
                column += [base + through_central[x] for x in shift]
        columns.append(column)
    return FiniteGroup(len(column), names, [Permutation(col) for col in columns], columns)


def _enumerate(pres: GroupPresentation, expected_order: int) -> FiniteGroup:
    group = coset_enumerate(pres, max_cosets=16 * expected_order)
    if group.order != expected_order:
        raise RuntimeError(
            f"internal error: expected order {expected_order}, got {group.order}")
    return group


def _slot_map(group: FiniteGroup) -> EdgeBiregularMap:
    return EdgeBiregularMap(group, *(group.generator_index(name) for name in _SLOT_NAMES))


def torus_rect(a: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rectangular lattice, the quotient by the
    relators (r0 rho2)^a and (r2 rho0)^c: L = <(a, 0), (0, c)>.  Type (4,4),
    chi 0, order 4ac; fully regular exactly when the lattice is square
    (a == c)."""
    if a < 1 or c < 1:
        raise ValueError("torus_rect parameters must be positive")
    within_max_order(4 * a * c)
    return _slot_map(affine_quotient(_SLOT_NAMES, _RECTANGLE, (a, 0, c)))


def torus_rhombic(b: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rhombic lattice, the quotient by the relators
    (r0 rho2)^2b and (r0 rho2)^b (r2 rho0)^c: L = <(2b, 0), (b, c)>.  Order
    8bc; fully regular when b == c."""
    if b < 1 or c < 1:
        raise ValueError("torus_rhombic parameters must be positive")
    within_max_order(8 * b * c)
    return _slot_map(affine_quotient(_SLOT_NAMES, _RECTANGLE, (2 * b, b, c)))


def klein(a: int, b: int) -> EdgeBiregularMap:
    """Klein-bottle map, the quotient by the relators (r2 rho0)^a r0 (a glide
    reflection, odd length, hence non-orientable) and (r0 rho2)^b with b in
    {1, 2}: L = <(b, 0), (0, 2a)>, and the glide (x, y) -> (-x, y + a),
    central when b <= 2, identified with the identity.  Order 4ab; never
    fully regular."""
    if a < 1:
        raise ValueError("klein parameter a must be positive")
    if b not in (1, 2):
        raise ValueError("klein parameter b must be 1 or 2")
    within_max_order(4 * a * b)
    glide = (_FLIP_X, (0, a))
    return _slot_map(affine_quotient(_SLOT_NAMES, _RECTANGLE, (b, 0, 2 * a), glide))


# ---------------------------------------------------------------------------
# Dihedral and sphere families: reflections x -> -x and x -> 1 - x of Z/n,
# with a second coordinate mod 2 for a layer or pole swap
# ---------------------------------------------------------------------------

_REFLECT_0, _REFLECT_1 = (_FLIP_X, (0, 0)), (_FLIP_X, (1, 0))
_SWAP_LAYERS = (_IDENTITY, (0, 1))


def dihedral_map(m: int, row: int) -> EdgeBiregularMap:
    """The four families with a dihedral colour-preserving group of order 2m
    on surfaces of negative Euler characteristic (m even, m >= 4):

    row 1: type (2m, 2m), chi 2-m, one vertex and one face, fully regular;
    row 2: type (m, m), chi 4-m, two of each, fully regular (m/2 odd);
    row 3: type (2m, 4), chi (2-m)/2, not fully regular;
    row 4: type (m, 4), chi (4-m)/2, not fully regular (m/2 odd).
    """
    if m < 4 or m % 2 != 0:
        raise ValueError("m must be even and at least 4")
    if row not in (1, 2, 3, 4):
        raise ValueError("row must be 1..4")
    if row in (2, 4) and (m // 2) % 2 == 0:
        raise ValueError(f"row {row} requires m/2 odd")
    within_max_order(2 * m)
    # Rows 1 and 3 act on Z/m, with z the half turn x -> x + m/2; rows 2 and
    # 4 on Z/(m/2) x Z/2, with z the layer swap.  z is central: r z = z r.
    lattice, z = ((m, 0, 1), (m // 2, 0)) if row in (1, 3) else ((m // 2, 0, 2), (0, 1))
    reflect_0z, reflect_1z = (_FLIP_X, z), (_FLIP_X, (1 + z[0], z[1]))
    if row in (1, 2):
        slots = (_REFLECT_0, reflect_0z, _REFLECT_1, reflect_1z)
    else:
        slots = (reflect_0z, _REFLECT_0, (_IDENTITY, z), _REFLECT_1)
    return _slot_map(affine_quotient(_SLOT_NAMES, slots, lattice))


def sphere_family(kind: str, m: int, rpp: bool = False) -> EdgeBiregularMap:
    """Spherical families: ``cycle`` is the alternately coloured 2m-cycle on
    the equator (type (2, 2m)); ``dipole`` its dual, two vertices joined by
    2m edges (type (2m, 2)); ``semistar`` the single vertex with 2m
    semi-edges.  ``dipole`` with ``rpp=True`` gives the single-vertex digonal
    map on the projective plane instead (requires 4 | 2m)."""
    if m < 1:
        raise ValueError("m must be positive")
    if rpp and kind != "dipole":
        raise ValueError("rpp variant exists only for the dipole family")
    # The reflections act on Z/m, the swap of the two poles (the face centres
    # of the cycle, the vertices of the dipole) on a second coordinate mod 2.
    if kind == "cycle":
        slots, lattice = (_REFLECT_0, _SWAP_LAYERS, _REFLECT_1, _SWAP_LAYERS), (m, 0, 2)
    elif kind == "dipole" and rpp:
        if m % 2 != 0:
            raise ValueError("projective-plane dipole requires 4 | 2m")
        half_turn = (_IDENTITY, (m // 2, 0))  # (r2 rho2)^(m/2)
        slots, lattice = (half_turn, _REFLECT_0, half_turn, _REFLECT_1), (m, 0, 1)
    elif kind == "dipole":
        slots, lattice = (_SWAP_LAYERS, _REFLECT_0, _SWAP_LAYERS, _REFLECT_1), (m, 0, 2)
    elif kind == "semistar":
        slots, lattice = (_REFLECT_0, _REFLECT_0, _REFLECT_1, _REFLECT_1), (m, 0, 1)
    else:
        raise ValueError(f"unknown sphere family kind {kind!r}")
    within_max_order(2 * lattice[0] * lattice[2])
    return _slot_map(affine_quotient(_SLOT_NAMES, slots, lattice))


# ---------------------------------------------------------------------------
# Catalog of fully regular maps (via triangle-group quotients)
# ---------------------------------------------------------------------------

_PLATONIC = {
    "tetrahedron": (3, 3, 24),
    "cube": (3, 4, 48),
    "octahedron": (4, 3, 48),
    "dodecahedron": (3, 5, 120),
    "icosahedron": (5, 3, 120),
}

# R0, R2, R1: the reflections in the lines x = 1/2, y = 0 and y = x of the
# square grid, so R1 R2 R1 R0 and R2 R1 R0 R1 are the unit translations.
_SQUARE_GRID = ((_FLIP_X, (1, 0)), (_FLIP_Y, (0, 0)), (_SWAP, (0, 0)))


def regular_catalog(name: str) -> RegularMap:
    """Named fully regular maps: quotients of the full triangle group by
    defining extra relators.

    Names: the five platonic solids, ``hosohedron:m`` (type (m, 2)) and
    ``dihedron:m`` (type (2, m)), built by coset enumeration; and
    ``torus44:a:b-rect``, the square-grid torus map, written down as
    (Z²/gZ²) ⋊ D4.  The 90-degree rotation conjugates the X translation to
    the Y one, so the normal closure of X^a and Y^b is that of X^g and Y^g
    with g = gcd(a, b), and the result has order 8*g**2.
    """
    if name.startswith("torus44:"):
        parts = name.split(":")
        if len(parts) != 3 or not parts[2].endswith("-rect"):
            raise ValueError(f"unknown catalog name {name!r}")
        a = _positive_int(parts[1], name)
        b = _positive_int(parts[2][: -len("-rect")], name)
        g = gcd(a, b)
        within_max_order(8 * g * g)
        group = affine_quotient(("R0", "R2", "R1"), _SQUARE_GRID, (g, 0, g))
    elif name in _PLATONIC:
        k, l, expected = _PLATONIC[name]
        group = _enumerate(triangle_group(k, l), expected)
    elif name.startswith("hosohedron:") or name.startswith("dihedron:"):
        base, _, arg = name.partition(":")
        m = _positive_int(arg, name)
        expected = 4 * m
        if expected > DEFAULT_MAX_COSETS:  # refused before any relator is built
            raise CosetLimitExceeded(
                f"order {expected} is above max_cosets={DEFAULT_MAX_COSETS}")
        pres = triangle_group(m, 2) if base == "hosohedron" else triangle_group(2, m)
        group = _enumerate(pres, expected)
    else:
        raise ValueError(f"unknown catalog name {name!r}")
    return RegularMap(group, group.generator_index("R0"), group.generator_index("R2"),
                      group.generator_index("R1"), name=name)


def _positive_int(text: str, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"unknown catalog name {name!r}") from None
    if value < 1:
        raise ValueError(f"catalog parameter must be positive in {name!r}")
    return value
