"""Constructors for every classified family of edge-biregular maps, and the
built-in catalogs of regular maps and of groups to sweep.

Each family group, and each catalog entry with a parameter, is written down
as the right Cayley graph of a quotient (Z²/L) ⋊ P of affine maps, in
O(order), by ``affine_quotient``, after ``within_max_order`` has accepted its
order.  For type (4,4) the four slot involutions generate D∞ × D∞ = Z² ⋊ C2²,
the reflections in the sides of a rectangle, so the torus and Klein-bottle
maps are quotients (Z²/L) ⋊ C2² and the square-grid catalog map is
(Z²/gZ²) ⋊ D4.  The dihedral and sphere families, the hosohedra, the
dihedra and the dihedral catalog groups are quotients of Z ⋊ C2, some times
C2.  Only the five platonic solids are built by coset enumeration of
triangle-group quotients.  The tests check the columns against coset
enumeration of the defining relators and against closure of explicit
permutations.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .constructions import RegularMap
from .ebr_core import SLOT_NAMES, EdgeBiregularMap
from .perm_group import FiniteGroup, within_max_order
from .presentation import GroupPresentation, coset_enumerate, triangle_group

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
    return FiniteGroup(names, columns)


def _enumerate(pres: GroupPresentation, expected_order: int) -> FiniteGroup:
    group = coset_enumerate(pres, max_cosets=16 * expected_order)
    if group.order != expected_order:
        raise RuntimeError(
            f"internal error: expected order {expected_order}, got {group.order}")
    return group


def _slot_map(group: FiniteGroup) -> EdgeBiregularMap:
    return EdgeBiregularMap(group, *(group.generator_index(name) for name in SLOT_NAMES))


def torus_rect(a: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rectangular lattice, the quotient by the
    relators (r0 rho2)^a and (r2 rho0)^c: L = <(a, 0), (0, c)>.  Type (4,4),
    chi 0, order 4ac; fully regular exactly when the lattice is square
    (a == c)."""
    if a < 1 or c < 1:
        raise ValueError("torus_rect parameters must be positive")
    within_max_order(4 * a * c)
    return _slot_map(affine_quotient(SLOT_NAMES, _RECTANGLE, (a, 0, c)))


def torus_rhombic(b: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rhombic lattice, the quotient by the relators
    (r0 rho2)^2b and (r0 rho2)^b (r2 rho0)^c: L = <(2b, 0), (b, c)>.  Order
    8bc; fully regular when b == c."""
    if b < 1 or c < 1:
        raise ValueError("torus_rhombic parameters must be positive")
    within_max_order(8 * b * c)
    return _slot_map(affine_quotient(SLOT_NAMES, _RECTANGLE, (2 * b, b, c)))


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
    return _slot_map(affine_quotient(SLOT_NAMES, _RECTANGLE, (b, 0, 2 * a), glide))


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
    return _slot_map(affine_quotient(SLOT_NAMES, slots, lattice))


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
    return _slot_map(affine_quotient(SLOT_NAMES, slots, lattice))


# ---------------------------------------------------------------------------
# Built-in catalogs: fully regular maps, and groups to sweep
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

# R0 and R2 of the hosohedra and dihedra on two layers of Z/m; R1 is x -> 1 - x.
_LAYERED = {"hosohedron": (_SWAP_LAYERS, _REFLECT_0), "dihedron": (_REFLECT_0, _SWAP_LAYERS)}


def _parameter(text: str, unknown: str) -> int:
    """A parameter of a built-in name: ASCII digits only, else ``unknown``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(unknown)
    return int(text)


def regular_catalog(name: str) -> RegularMap:
    """Named fully regular maps: quotients of the full triangle group by
    defining extra relators.

    Names: the five platonic solids, built by coset enumeration;
    ``hosohedron:m`` (type (m, 2)) and ``dihedron:m`` (type (2, m)), written
    down as D_m × C2: the reflections x -> -x and x -> 1 - x of Z/m and the
    swap of two layers, central, as R0 of the hosohedron and R2 of the
    dihedron; and ``torus44:a:b-rect``, the square-grid torus map, written
    down as (Z²/gZ²) ⋊ D4.  The 90-degree rotation conjugates the X
    translation to the Y one, so the normal closure of X^a and Y^b is that of
    X^g and Y^g with g = gcd(a, b), and the result has order 8*g**2.
    """
    unknown = f"unknown catalog name {name!r}"
    base, _, arg = name.partition(":")
    if name in _PLATONIC:
        k, l, expected = _PLATONIC[name]
        group = _enumerate(triangle_group(k, l), expected)
    elif base == "torus44":
        a_text, _, b_text = arg.partition(":")
        if not b_text.endswith("-rect"):
            raise ValueError(unknown)
        a, b = _parameter(a_text, unknown), _parameter(b_text[: -len("-rect")], unknown)
        if min(a, b) < 1:
            raise ValueError(f"catalog parameter must be positive in {name!r}")
        g = gcd(a, b)
        within_max_order(8 * g * g)
        group = affine_quotient(("R0", "R2", "R1"), _SQUARE_GRID, (g, 0, g))
    elif base in _LAYERED:
        m = _parameter(arg, unknown)
        if m < 1:
            raise ValueError(f"catalog parameter must be positive in {name!r}")
        if m < 2:
            raise ValueError("triangle group parameters must be at least 2")
        within_max_order(4 * m)
        group = affine_quotient(("R0", "R2", "R1"), (*_LAYERED[base], _REFLECT_1), (m, 0, 2))
    else:
        raise ValueError(unknown)
    return RegularMap(group, group.generator_index("R0"), group.generator_index("R2"),
                      group.generator_index("R1"), name=name)


CATALOG_PREFIXES = ("dih:", "dihxc2:", "c2^")  # the names catalog_group reads


def catalog_names() -> list[str]:
    names = [f"dih:{n}" for n in range(2, 49, 2)]
    names += [f"dihxc2:{n}" for n in range(2, 25, 2)]
    names += [f"c2^{k}" for k in (1, 2, 3)]
    return names


def catalog_group(name: str) -> FiniteGroup:
    """Build a catalog group: dih:n, the dihedral group of order n, as
    Z/(n/2) ⋊ C2 with a: x -> -x and b: x -> 1 - x; dihxc2:n, that times C2
    with z a layer swap; or c2^k, the unit translations mod 2 and, for k = 3,
    a reflection, which fixes every translation mod 2."""
    unknown = f"unknown catalog group {name!r}"
    prefix = next((p for p in CATALOG_PREFIXES if name.startswith(p)), None)
    if prefix is None:
        raise ValueError(unknown)
    n = _parameter(name[len(prefix):], unknown)
    if prefix == "c2^":
        if not 1 <= n <= 3:
            raise ValueError("c2^k supports k in 1..3")
        gens = ((_IDENTITY, (1, 0)), (_IDENTITY, (0, 1)), _REFLECT_0)[:n]
        return affine_quotient([f"t{i}" for i in range(n)], gens, (2, 0, 1 if n == 1 else 2))
    if n < 2 or n % 2 != 0:
        raise ValueError("dihedral order must be even and at least 2")
    layers = 1 if prefix == "dih:" else 2
    within_max_order(layers * n)
    gens = (_REFLECT_0, _REFLECT_1, _SWAP_LAYERS)[:layers + 1]
    return affine_quotient(("a", "b", "z")[:layers + 1], gens, (n // 2, 0, layers))
