"""Constructors for every classified family of edge-biregular maps.

Euclidean families (torus and Klein bottle) are built from presentations via
coset enumeration; the dihedral families and the sphere families are built
from explicit permutations, deliberately independent of the enumeration code
path so that cross-checks between the two routes are meaningful.
"""

from __future__ import annotations

from math import gcd

from .constructions import RegularMap
from .ebr_core import EdgeBiregularMap
from .perm_group import FiniteGroup, Permutation, closure
from .presentation import (
    DEFAULT_MAX_COSETS,
    CosetLimitExceeded,
    GroupPresentation,
    Word,
    coset_enumerate,
    ebr_type_presentation,
    triangle_group,
)

_SLOT_NAMES = ("r0", "r2", "rho0", "rho2")
_R0, _R2, _RHO0, _RHO2 = range(4)


def _within_budget(order: int) -> int:
    """``order``, once a group of that order fits the default coset budget.
    Constructors check it before they build a relator, whose length grows
    with the order."""
    if order > DEFAULT_MAX_COSETS:
        raise CosetLimitExceeded(
            f"order {order} is above max_cosets={DEFAULT_MAX_COSETS}")
    return order


def _enumerate(pres: GroupPresentation, expected_order: int) -> FiniteGroup:
    group = coset_enumerate(pres, max_cosets=16 * expected_order)
    if group.order != expected_order:
        raise RuntimeError(
            f"internal error: expected order {expected_order}, got {group.order}")
    return group


def _grid_quotient(extra: list[Word], expected_order: int) -> FiniteGroup:
    base = ebr_type_presentation(4, 4)
    return _enumerate(GroupPresentation(base.generator_names, base.relators + tuple(extra)),
                      expected_order)


def _slot_map(group: FiniteGroup) -> EdgeBiregularMap:
    return EdgeBiregularMap(group, *(group.generator_index(name) for name in _SLOT_NAMES))


def torus_rect(a: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rectangular lattice: extra relators
    (r0 rho2)^a and (r2 rho0)^c.  Type (4,4), chi 0, order 4ac; fully
    regular exactly when the lattice is square (a == c)."""
    if a < 1 or c < 1:
        raise ValueError("torus_rect parameters must be positive")
    order = _within_budget(4 * a * c)
    extra = [tuple([(_R0, 1), (_RHO2, 1)] * a),
             tuple([(_R2, 1), (_RHO0, 1)] * c)]
    return _slot_map(_grid_quotient(extra, order))


def torus_rhombic(b: int, c: int) -> EdgeBiregularMap:
    """Toroidal map from the rhombic lattice: extra relators (r0 rho2)^2b
    and (r0 rho2)^b (r2 rho0)^c.  Order 8bc; fully regular when b == c."""
    if b < 1 or c < 1:
        raise ValueError("torus_rhombic parameters must be positive")
    order = _within_budget(8 * b * c)
    extra = [tuple([(_R0, 1), (_RHO2, 1)] * (2 * b)),
             tuple([(_R0, 1), (_RHO2, 1)] * b + [(_R2, 1), (_RHO0, 1)] * c)]
    return _slot_map(_grid_quotient(extra, order))


def klein(a: int, b: int) -> EdgeBiregularMap:
    """Klein-bottle map: extra relators (r2 rho0)^a r0 (a glide reflection,
    odd length, hence non-orientable) and (r0 rho2)^b with b in {1, 2}.
    Order 4ab; never fully regular."""
    if a < 1:
        raise ValueError("klein parameter a must be positive")
    if b not in (1, 2):
        raise ValueError("klein parameter b must be 1 or 2")
    order = _within_budget(4 * a * b)
    extra = [tuple([(_R2, 1), (_RHO0, 1)] * a + [(_R0, 1)]),
             tuple([(_R0, 1), (_RHO2, 1)] * b)]
    return _slot_map(_grid_quotient(extra, order))


# ---------------------------------------------------------------------------
# Dihedral families (explicit permutations)
# ---------------------------------------------------------------------------

def _reflection(n: int, t: int) -> Permutation:
    return Permutation((t - i) % n for i in range(n))

def _power(p: Permutation, n: int) -> Permutation:
    out = Permutation.identity(p.degree)
    for _ in range(n):
        out = out * p
    return out

def _rotation(n: int, j: int) -> Permutation:
    return Permutation((i + j) % n for i in range(n))

def _layered_reflection(p: int, t: int) -> Permutation:
    return Permutation(((t - i) % p) + layer * p
                       for layer in (0, 1) for i in range(p))

def _layer_swap(p: int) -> Permutation:
    return Permutation((i + p) % (2 * p) for i in range(2 * p))


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

    if row == 1:
        z = _rotation(m, m // 2)
        r0, rho0 = _reflection(m, 0), _reflection(m, 1)
        r2, rho2 = r0 * z, rho0 * z
    elif row == 2:
        p = m // 2
        z = _layer_swap(p)
        r0, rho0 = _layered_reflection(p, 0), _layered_reflection(p, 1)
        r2, rho2 = r0 * z, rho0 * z
    elif row == 3:
        z = _rotation(m, m // 2)
        r2, rho2 = _reflection(m, 0), _reflection(m, 1)
        rho0, r0 = z, z * r2
    else:
        p = m // 2
        z = _layer_swap(p)
        r2, rho2 = _layered_reflection(p, 0), _layered_reflection(p, 1)
        rho0, r0 = z, z * r2

    group = closure([r0, r2, rho0, rho2], names=_SLOT_NAMES)
    if group.order != 2 * m:
        raise RuntimeError(f"internal error: expected order {2 * m}, got {group.order}")
    return _slot_map(group)


# ---------------------------------------------------------------------------
# Sphere and projective-plane families (explicit permutations)
# ---------------------------------------------------------------------------

def _equator_and_poles(n: int, axes: tuple[int, int]):
    """Two reflections of an n-gon equator plus the pole swap, each acting on
    n + 2 points and fixing what it does not move."""
    def lift(p: Permutation) -> Permutation:
        return Permutation(list(p.images) + [n, n + 1])

    refl_a = lift(_reflection(n, axes[0]))
    refl_b = lift(_reflection(n, axes[1]))
    swap = Permutation(list(range(n)) + [n + 1, n])
    return refl_a, refl_b, swap


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

    if kind == "cycle":
        r0, rho0, swap = _equator_and_poles(2 * m, (1, 3))
        slots = (r0, swap, rho0, swap)
        expected = 4 * m
    elif kind == "dipole":
        if rpp:
            if m % 2 != 0:
                raise ValueError("projective-plane dipole requires 4 | 2m")
            if m == 2:
                r2 = Permutation.from_cycles(4, [(0, 1)])
                rho2 = Permutation.from_cycles(4, [(2, 3)])
            else:
                r2, rho2 = _reflection(m, 0), _reflection(m, 1)
            z = _power(r2 * rho2, m // 2)
            slots = (z, r2, z, rho2)
            expected = 2 * m
        elif m == 1:
            # A shaded/unshaded digon between two vertices; the reflections
            # across the two edges coincide and swap the two faces.
            swap = Permutation.from_cycles(4, [(0, 1)])
            face_swap = Permutation.from_cycles(4, [(2, 3)])
            slots = (swap, face_swap, swap, face_swap)
            expected = 4
        else:
            r2, rho2, swap = _equator_and_poles(2 * m, (0, 2))
            slots = (swap, r2, swap, rho2)
            expected = 4 * m
    elif kind == "semistar":
        if m == 1:
            r2 = rho2 = Permutation((1, 0))
        elif m == 2:
            r2 = Permutation.from_cycles(4, [(0, 1)])
            rho2 = Permutation.from_cycles(4, [(2, 3)])
        else:
            r2, rho2 = _reflection(m, 0), _reflection(m, 1)
        slots = (r2, r2, rho2, rho2)
        expected = 2 * m
    else:
        raise ValueError(f"unknown sphere family kind {kind!r}")

    group = closure(list(slots), names=_SLOT_NAMES)
    if group.order != expected:
        raise RuntimeError(f"internal error: expected order {expected}, got {group.order}")
    return _slot_map(group)


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

_R0T, _R2T, _R1T = 0, 1, 2  # generator indices in triangle_group presentations

# Unit translations of the square grid as words in the (4,4) reflections.
_T44_X = ((_R1T, 1), (_R2T, 1), (_R1T, 1), (_R0T, 1))
_T44_Y = ((_R2T, 1), (_R1T, 1), (_R0T, 1), (_R1T, 1))


def regular_catalog(name: str) -> RegularMap:
    """Named fully regular maps built by coset enumeration of the full
    triangle group plus defining extra relators.

    Names: the five platonic solids, ``hosohedron:m`` (type (m, 2)),
    ``dihedron:m`` (type (2, m)), and ``torus44:a:b-rect`` (the square-grid
    torus map; the 90-degree rotation conjugates the X translation to the Y
    one, so the normal closure of X^a and Y^b is that of X^g and Y^g with
    g = gcd(a, b), and the result has order 8*g**2).
    """
    if name in _PLATONIC:
        k, l, expected = _PLATONIC[name]
        pres = triangle_group(k, l)
    elif name.startswith("hosohedron:") or name.startswith("dihedron:"):
        base, _, arg = name.partition(":")
        m = _positive_int(arg, name)
        expected = _within_budget(4 * m)
        pres = triangle_group(m, 2) if base == "hosohedron" else triangle_group(2, m)
    elif name.startswith("torus44:"):
        parts = name.split(":")
        if len(parts) != 3 or not parts[2].endswith("-rect"):
            raise ValueError(f"unknown catalog name {name!r}")
        a = _positive_int(parts[1], name)
        b = _positive_int(parts[2][: -len("-rect")], name)
        g = gcd(a, b)
        expected = _within_budget(8 * g * g)
        base = triangle_group(4, 4)
        pres = GroupPresentation(
            base.generator_names,
            base.relators + (_T44_X * g, _T44_Y * g))
    else:
        raise ValueError(f"unknown catalog name {name!r}")

    group = _enumerate(pres, expected)
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
