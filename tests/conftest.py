"""Shared fixtures: rotation systems transcribed from drawings, and
independent oracles used to cross-check the library's fast paths."""

from __future__ import annotations

import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import settings, strategies as st

import ebrmaps.flag_maps as flag_maps
from ebrmaps import (CosetLimitExceeded, EdgeBiregularMap, GroupPresentation, Permutation,
                     closure, ebr_type_presentation, extend_generator_map,
                     rotation_system_to_flagmap, triangle_group)
from ebrmaps.enumeration import _commuting_involution_pairs
from ebrmaps.perm_group import cayley_form

# Derandomized, so that a property failure reproduces from the test log.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# Toroidal map on 11 vertices with even valencies and even face lengths but
# no alternate-edge-colouring.  See the comment in the fixture JSON for the
# vertex/edge key.
TORUS_ROTATIONS = [
    [0, 12, 11, 15],   # A
    [14, 13],          # B
    [2, 16, 1, 19],    # C
    [4, 24, 3, 36],    # D
    [6, 5],            # E
    [8, 26, 7, 38],    # F
    [10, 20, 9, 23],   # G
    [32, 18, 17, 28],  # H
    [22, 34, 30, 21],  # I
    [31, 29, 25, 27],  # J
    [39, 37, 33, 35],  # K
]
TORUS_PAIRING = [d for e in range(20) for d in (2 * e + 1, 2 * e)]

# Spherical map: nested squares joined by two pairs of parallel arcs, with an
# alternate-edge-colouring (even edge ids one colour, odd the other).
SPHERE_ROTATIONS = [
    [0, 7, 16, 18],    # P1
    [20, 2, 1, 22],    # P2
    [4, 3],            # P3
    [5, 6],            # P4
    [8, 19, 17, 15],   # Q1
    [10, 21, 23, 9],   # Q2
    [12, 11],          # Q3
    [13, 14],          # Q4
]
SPHERE_PAIRING = [d for e in range(12) for d in (2 * e + 1, 2 * e)]


def cube_rotation_system():
    """The cube with vertices as coordinate bit-triples, darts 3*v + axis."""
    rotations = []
    for v in range(8):
        parity = bin(v).count("1") % 2
        axes = (0, 1, 2) if parity == 0 else (0, 2, 1)
        rotations.append([3 * v + a for a in axes])
    pairing = [3 * ((d // 3) ^ (1 << (d % 3))) + d % 3 for d in range(24)]
    return rotations, pairing


@pytest.fixture(scope="session")
def torus_flagmap():
    return rotation_system_to_flagmap(TORUS_ROTATIONS, TORUS_PAIRING)


@pytest.fixture(scope="session")
def sphere_flagmap():
    return rotation_system_to_flagmap(SPHERE_ROTATIONS, SPHERE_PAIRING)


@pytest.fixture(scope="session")
def cube_flagmap():
    return rotation_system_to_flagmap(*cube_rotation_system())


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def evaluate_word(word, generators):
    """Evaluate a relator word on concrete permutations, left to right."""
    result = Permutation.identity(generators[0].degree)
    for idx, exp in word:
        g = generators[idx] if exp > 0 else generators[idx].inverse()
        for _ in range(abs(exp)):
            result = result * g
    return result


def involutions_by_scan(group):
    """Brute-force scan: non-identity elements squaring to the identity."""
    out = []
    for p in group.elements:
        if not p.is_identity() and (p * p).is_identity():
            out.append(p)
    return out


def dihedral_by_rotation(group) -> bool:
    """Oracle: the group is dihedral of its order when some element of order
    n/2 is inverted by an involution, and the two of them generate.  Every
    element order is read off its memoised right translation."""
    n = group.order
    if n % 2 != 0:
        return n == 1
    half = n // 2
    rotations = [i for i in range(n) if group.element_order(i) == half or half == 1]
    invs = [i for i in range(1, n) if group.element_order(i) == 2]
    for x in rotations:
        xinv = group.inv(x)
        for y in invs:
            if group.mul(group.mul(y, x), y) == xinv:
                if group.subgroup_order([x, y]) == n:
                    return True
    return False


def random_quotients(count):
    """Quotients of the (3, 4) triangle group by one or two random extra
    relators, the same ones on every call."""
    import random

    rng = random.Random(271828)
    base = triangle_group(3, 4)
    for _ in range(count):
        extra = tuple(tuple((rng.randrange(3), rng.choice((1, -1, 2)))
                            for _ in range(rng.randint(1, 6)))
                      for _ in range(rng.randint(1, 2)))
        yield GroupPresentation(base.generator_names, base.relators + extra)


def euler_formula(order: int, k: int, l: int) -> Fraction:
    """|H| (1/k - 1/2 + 1/l), evaluated exactly."""
    return order * (Fraction(1, k) - Fraction(1, 2) + Fraction(1, l))


def automorphism_by_full_table(group, src, dst):
    """Oracle for generator-map extension: build the word-translation map with
    a local BFS, then verify it on the full multiplication table.

    Returns the image list or None.  Unlike the library path, which checks
    only Cayley-graph edges, this verifies every product.
    """
    n = group.order
    src = [group.index(s) for s in src]
    dst = [group.index(d) for d in dst]
    images = [None] * n
    images[0] = 0
    frontier = [0]
    while frontier:
        new = []
        for a in frontier:
            for s, d in zip(src, dst):
                b = group.mul(a, s)
                fb = group.mul(images[a], d)
                if images[b] is None:
                    images[b] = fb
                    new.append(b)
                elif images[b] != fb:
                    return None
        frontier = new
    if None in images or len(set(images)) != n:
        return None
    for x in range(n):
        for y in range(n):
            if images[group.mul(x, y)] != group.mul(images[x], images[y]):
                return None
    return images


def translate_reference(src_group, src, dst_group, dst):
    """Oracle for isomorphism extension: the word-translation fill-in of
    ``src[i] -> dst[i]`` over the Cayley graph, independent of Cayley forms.

    Returns the full element-index map, or None on a conflicting assignment
    or a map that is not onto.  Raises ValueError when ``src`` does not
    generate ``src_group``.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    edges = [(src_group.right_translation(src_group.index(s)),
              dst_group.right_translation(dst_group.index(d))) for s, d in zip(src, dst)]
    images = [0] + [None] * (src_group.order - 1)
    queue = [0]
    pos = 0
    while pos < len(queue):
        a = queue[pos]
        pos += 1
        fa = images[a]
        for src_right, dst_right in edges:
            b = src_right[a]
            fb = dst_right[fa]
            if images[b] is None:
                images[b] = fb
                queue.append(b)
            elif images[b] != fb:
                return None
    if len(queue) != len(images):
        raise ValueError("src does not generate the group")
    return images if len(set(images)) == dst_group.order else None


def orientable_by_even_subgroup(m) -> bool:
    """Oracle: the map is orientable iff the products of slot-element pairs
    generate a subgroup of index exactly 2."""
    group = m.group
    slots = [i for i in m.slot_indices if i is not None]
    products = [group.mul(a, b) for a in slots for b in slots]
    return 2 * group.subgroup_order(products) == group.order


def pairwise_representatives(group, quads):
    """Quadratic deduplication oracle: compare every quadruple against the
    representatives found so far by attempting a generator-map extension.
    Returns the first quadruple of each class, in input order."""
    reps = []
    for quad in quads:
        for rep in reps:
            if translate_reference(group, quad, group, rep) is not None:
                break
        else:
            reps.append(quad)
    return reps


def pairwise_class_count(group, quads):
    return len(pairwise_representatives(group, quads))


def pairwise_class_sizes(maps):
    """Quadratic classification oracle: sort the maps by slot indices, then
    repeatedly take the first unassigned map and collect every map isomorphic
    to it, its twin, its dual or the twin of its dual.  Returns the class
    sizes in order of each class's first map."""
    def isomorphic(a, b):
        return (a.group.order == b.group.order and translate_reference(
            a.group, a.slot_indices, b.group, b.slot_indices) is not None)

    unassigned = sorted(maps, key=lambda m: m.slot_indices)
    sizes = []
    while unassigned:
        rep = unassigned.pop(0)
        images = [rep, rep.twin(), rep.dual(), rep.dual().twin()]
        remaining = [m for m in unassigned
                     if not any(isomorphic(m, image) for image in images)]
        sizes.append(1 + len(unassigned) - len(remaining))
        unassigned = remaining
    return sizes


def all_valid_quadruples(group, require_proper=False, require_distinct=False):
    """Direct, unoptimized generation of valid quadruples (soundness oracle)."""
    invs = group.involution_indices()
    order = group.order

    def commuting(x, y):
        return group.mul(x, y) == group.mul(y, x)

    quads = []
    for r0 in invs:
        for r2 in invs:
            if not commuting(r0, r2) or (require_proper and r0 == r2):
                continue
            for p0 in invs:
                for p2 in invs:
                    if not commuting(p0, p2) or (require_proper and p0 == p2):
                        continue
                    quad = (r0, r2, p0, p2)
                    if require_distinct and len(set(quad)) < 4:
                        continue
                    if group.subgroup_order(list(set(quad))) != order:
                        continue
                    quads.append(quad)
    return quads


def _automorphisms(group, source):
    """Aut(H) as element-index maps.  ``source`` is a tuple of involutions
    generating the group, so an automorphism is determined by its image of
    ``source``: a tuple of involutions whose pairwise products have the same
    orders as those of ``source`` (so equal and commuting slots stay so)."""
    invs = group.involution_indices()
    orders = [[group.element_order(group.mul(a, b)) for b in source] for a in source]
    images = [()]
    for k in range(len(source)):
        images = [image + (x,) for image in images for x in invs
                  if all(group.element_order(group.mul(y, x)) == orders[j][k]
                         for j, y in enumerate(image))]
    extensions = (extend_generator_map(group, list(source), list(image)) for image in images)
    return [aut for aut in extensions if aut is not None]


def _least_under_conjugation(group, pairs):
    """The pairs (sorted) that are least in their orbit under conjugation by
    the group; each orbit is walked by conjugating with the generators."""
    conjugators = [(group.inv(col[0]), col[0]) for col in group.columns]
    kept, seen = [], set()
    for pair in pairs:
        if pair not in seen:
            kept.append(pair)
            seen.add(pair)
            orbit = [pair]
            for x, y in orbit:  # grows while it is walked
                for g_inv, g in conjugators:
                    image = (group.mul(group.mul(g_inv, x), g), group.mul(group.mul(g_inv, y), g))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
    return kept


def twin_dual_least_form(m):
    """The least Cayley form of a map's quadruple under identity, twin, dual
    and twin-of-dual: equal for two maps exactly when one is isomorphic to
    the other or to its twin, dual or twin-of-dual, whatever their groups."""
    r0, r2, p0, p2 = m.slot_indices
    return min(cayley_form(m.group, quad)[1]
               for quad in ((r0, r2, p0, p2), (p0, p2, r0, r2), (r2, r0, p2, p0), (p2, p0, r2, r0)))


def pair_generation_memo(group):
    """``generates(r_pair, p_pair)``: whether two involution pairs generate
    ``group``, memoised on the subgroups the pairs generate, each found by
    closure, so the answer rests on no assumption about commuting pairs."""
    spans, joins = {}, {}

    def span(pair):
        if pair not in spans:
            spans[pair] = frozenset(group.subgroup_indices(pair))
        return spans[pair]

    def generates(r_pair, p_pair):
        key = frozenset((span(r_pair), span(p_pair)))
        if key not in joins:
            joins[key] = group.subgroup_order(r_pair + p_pair) == group.order
        return joins[key]

    return generates


def aut_orbit_representatives(group, require_proper=False, require_distinct=False,
                              chi_max=None):
    """Reference sweep: list Aut(H), join every pair with every pair, and take
    each quadruple not yet marked in lex order as the representative of its
    Aut(H)-orbit, marking the whole orbit.  Returns the representatives'
    quadruples (those with chi at most ``chi_max``)."""
    pairs = _commuting_involution_pairs(group, require_proper)
    generates = pair_generation_memo(group)
    quads = sorted(r_pair + p_pair for r_pair in pairs for p_pair in pairs
                   if not (require_distinct and len(set(r_pair + p_pair)) < 4)
                   and generates(r_pair, p_pair))
    if not quads:
        return []
    auts = _automorphisms(group, quads[0])
    reps = []
    marked = set()
    for quad in quads:
        if quad in marked:
            continue
        marked.update(tuple(aut[i] for i in quad) for aut in auts)
        if chi_max is None or EdgeBiregularMap(group, *quad).invariants().chi <= chi_max:
            reps.append(quad)
    return reps


def felsch_reference(pres, max_cosets):
    """The Felsch enumeration that queues both ends of every new table entry
    and scans one rotation at a time.  Returns the (coset, column) sequence
    of definitions, the one refused at the coset limit included, and either
    the generator image lists on the live cosets or ``CosetLimitExceeded``."""
    letters = []
    for word in pres.relators:
        letters.append([(idx, 1 if exp > 0 else -1) for idx, exp in word
                        for _ in range(abs(exp))])
    involutory = {w[0][0] for w in letters if len(w) == 2 and w[0] == w[1]}
    col_of, inv_col = {}, []
    for i in range(len(pres.generator_names)):
        col = len(inv_col)
        if i in involutory:
            col_of[(i, 1)] = col_of[(i, -1)] = col
            inv_col.append(col)
        else:
            col_of[(i, 1)], col_of[(i, -1)] = col, col + 1
            inv_col.extend([col + 1, col])
    n_cols = len(inv_col)
    rotations = [[] for _ in range(n_cols)]
    seen = set()
    for word in letters:
        cols = tuple(col_of[letter] for letter in word)
        if len(cols) == 2 and cols[0] == cols[1]:
            continue
        inverse = tuple(inv_col[x] for x in reversed(cols))
        for base in (cols, inverse):
            for shift in range(len(base)):
                rot = base[shift:] + base[:shift]
                if rot not in seen:
                    seen.add(rot)
                    rotations[rot[0]].append(rot)

    table, parent, alive = [[None] * n_cols], [0], [True]
    deductions, definitions = [], []
    state = {"live": 1, "cursor": 0}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(a, b):
        queue = []

        def merge(u, v):
            u, v = find(u), find(v)
            if u != v:
                u, v = min(u, v), max(u, v)
                parent[v] = u
                alive[v] = False
                state["live"] -= 1
                queue.append(v)

        merge(a, b)
        for dead in queue:  # grows while it is walked
            for x in range(n_cols):
                d = table[dead][x]
                if d is None:
                    continue
                table[d][inv_col[x]] = None
                if alive[d] and d < state["cursor"]:
                    state["cursor"] = d
                u, v = find(dead), find(d)
                if table[u][x] is not None:
                    merge(v, table[u][x])
                elif table[v][inv_col[x]] is not None:
                    merge(u, table[v][inv_col[x]])
                else:
                    table[u][x], table[v][inv_col[x]] = v, u
                    deductions.extend([(u, x), (v, inv_col[x])])

    def set_entry(c, x, d):
        c, d = find(c), find(d)
        if table[c][x] is not None:
            if find(table[c][x]) != d:
                coincidence(table[c][x], d)
            return
        mirror = table[d][inv_col[x]]
        if mirror is not None and find(mirror) != c:
            coincidence(mirror, c)
            return
        table[c][x], table[d][inv_col[x]] = d, c
        deductions.extend([(c, x), (d, inv_col[x])])

    def scan(word, alpha):
        f, i = alpha, 0
        while i < len(word) and table[f][word[i]] is not None:
            f, i = table[f][word[i]], i + 1
        if i == len(word):
            if f != alpha:
                coincidence(f, alpha)
            return
        b, j = alpha, len(word)
        while j > i and table[b][inv_col[word[j - 1]]] is not None:
            b, j = table[b][inv_col[word[j - 1]]], j - 1
        if j == i:
            if f != b:
                coincidence(f, b)
        elif j == i + 1:
            set_entry(f, word[i], b)

    while True:
        while deductions:
            c, x = deductions.pop()
            c = find(c)
            if not alive[c] or table[c][x] is None:
                continue
            for word in rotations[x]:
                scan(word, c)
                if not alive[c]:
                    break
        c = state["cursor"]
        while c < len(table) and not (alive[c] and None in table[c]):
            c += 1
        state["cursor"] = c
        if c == len(table):
            break
        x = table[c].index(None)
        definitions.append((c, x))
        if state["live"] >= max_cosets:
            return definitions, CosetLimitExceeded
        d = len(table)
        table.append([None] * n_cols)
        parent.append(d)
        alive.append(True)
        state["live"] += 1
        set_entry(c, x, d)

    live = [c for c in range(len(table)) if alive[c]]
    renumber = {c: i for i, c in enumerate(live)}
    return definitions, [[renumber[table[c][col_of[(i, 1)]]] for c in live]
                         for i in range(len(pres.generator_names))]


def family_presentation(family, x, y):
    """The defining relators of a (4,4) family map, the type presentation
    plus two long relators; its coset enumeration is the oracle for the
    affine writer.  ``family`` is torus_rect (x, y = a, c), torus_rhombic
    (b, c) or klein (a, b)."""
    r0, r2, rho0, rho2 = 0, 1, 2, 3
    along_x, along_y = [(r0, 1), (rho2, 1)], [(r2, 1), (rho0, 1)]
    extra = {
        "torus_rect": (along_x * x, along_y * y),
        "torus_rhombic": (along_x * (2 * x), along_x * x + along_y * y),
        "klein": (along_y * x + [(r0, 1)], along_x * y),
    }[family]
    base = ebr_type_presentation(4, 4)
    return GroupPresentation(base.generator_names, base.relators + tuple(map(tuple, extra)))


def torus44_presentation(g):
    """The triangle group (4,4) with the unit translations X = R1 R2 R1 R0
    and Y = R2 R1 R0 R1 of the square grid raised to the g-th power."""
    r0, r2, r1 = 0, 1, 2
    translation_x = ((r1, 1), (r2, 1), (r1, 1), (r0, 1))
    translation_y = ((r2, 1), (r1, 1), (r0, 1), (r1, 1))
    base = triangle_group(4, 4)
    return GroupPresentation(base.generator_names,
                             base.relators + (translation_x * g, translation_y * g))


def _reflection(n, t):
    return Permutation((t - i) % n for i in range(n))


def _two_reflections(n):
    """x -> -x and x -> 1 - x on Z/n; as two commuting transpositions for
    n = 2 and one transposition twice for n = 1, where Z/n is too small."""
    if n == 1:
        return Permutation((1, 0)), Permutation((1, 0))
    if n == 2:
        return Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(2, 3)])
    return _reflection(n, 0), _reflection(n, 1)


def _with_swap(perms):
    """``perms`` lifted to two more points, and the swap of those points."""
    d = perms[0].degree
    lifted = [Permutation(list(p.images) + [d, d + 1]) for p in perms]
    return lifted + [Permutation(list(range(d)) + [d + 1, d])]


def dihedral_by_closure(n, times_c2=False):
    """The dihedral group of order n (times C2) by closure of permutations,
    as the catalog built it before it wrote the columns down."""
    gens = list(_two_reflections(n // 2))
    if not times_c2:
        return closure(gens, names=["a", "b"])
    return closure(_with_swap(gens), names=["a", "b", "z"])


def _layered_reflection(p, t):
    return Permutation(((t - i) % p) + layer * p for layer in (0, 1) for i in range(p))


def dihedral_map_by_closure(m, row):
    """The group and slots of ``dihedral_map(m, row)`` by closure of explicit
    permutations of Z/m (rows 1, 3) or of two layers of Z/(m/2) (rows 2, 4),
    as the family was built before its columns were written down."""
    p = m // 2
    if row in (1, 3):
        z = Permutation((i + p) % m for i in range(m))
        refl_0, refl_1 = _reflection(m, 0), _reflection(m, 1)
    else:
        z = Permutation((i + p) % (2 * p) for i in range(2 * p))
        refl_0, refl_1 = _layered_reflection(p, 0), _layered_reflection(p, 1)
    if row in (1, 2):
        slots = (refl_0, refl_0 * z, refl_1, refl_1 * z)
    else:
        slots = (z * refl_0, refl_0, z, refl_1)
    return closure(list(slots), names=("r0", "r2", "rho0", "rho2"))


def sphere_family_by_closure(kind, m, rpp=False):
    """The group and slots of ``sphere_family(kind, m, rpp)`` by closure of
    reflections of an n-gon equator, each fixing two poles, and the pole swap;
    as the family was built before its columns were written down."""
    if kind == "cycle":
        r0, rho0, swap = _with_swap([_reflection(2 * m, 1), _reflection(2 * m, 3)])
        slots = (r0, swap, rho0, swap)
    elif kind == "dipole" and rpp:
        r2, rho2 = _two_reflections(m)
        z = Permutation.identity(r2.degree)
        for _ in range(m // 2):
            z = z * r2 * rho2
        slots = (z, r2, z, rho2)
    elif kind == "dipole" and m == 1:
        swap, face_swap = _two_reflections(2)
        slots = (swap, face_swap, swap, face_swap)
    elif kind == "dipole":
        r2, rho2, swap = _with_swap([_reflection(2 * m, 0), _reflection(2 * m, 2)])
        slots = (swap, r2, swap, rho2)
    else:
        r2, rho2 = _two_reflections(m)
        slots = (r2, r2, rho2, rho2)
    return closure(list(slots), names=("r0", "r2", "rho0", "rho2"))


# ---------------------------------------------------------------------------
# Flag maps: validation by Permutation products and orbit walks
# ---------------------------------------------------------------------------

def orbits_by_walk(n, perms):
    """Orbits of ``<perms>`` on 0..n-1 by breadth-first search through
    ``Permutation.__call__``, each listed from its least point, in order of
    that point."""
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        pos = 0
        while pos < len(orbit):
            f = orbit[pos]
            pos += 1
            for p in perms:
                g = p(f)
                if not seen[g]:
                    seen[g] = True
                    orbit.append(g)
        orbits.append(orbit)
    return orbits


def flagmap_error_reference(s0, s1, s2):
    """The message ``FlagMap(s0, s1, s2)`` must raise, or None when it must
    accept: composed permutations for the involution and fixed-point checks
    and one orbit walk of <s0, s1, s2> for connectivity."""
    n = s0.degree
    if s1.degree != n or s2.degree != n:
        return "flag permutations must share one degree"
    for name, p in (("s0", s0), ("s1", s1), ("s2", s2)):
        if not (p * p).is_identity():
            return f"{name} is not an involution"
    cross = s0 * s2
    if not (cross * cross).is_identity():
        return "s0*s2 is not an involution"
    if any(cross(i) == i for i in range(n)):
        return "s0*s2 has fixed points (semi-edge or boundary)"
    if len(orbits_by_walk(n, (s0, s1, s2))) != 1:
        return "flag system is disconnected"
    return None


def colouring_by_flag_scan(m):
    """Oracle: the medial-graph 2-colouring that rescans every flag for each
    dequeued edge, O(edges x flags), over edge orbits found by
    ``orbits_by_walk``."""
    orbit_of = [0] * m.flag_count
    for orbit in orbits_by_walk(m.flag_count, (m.s0, m.s2)):
        for f in orbit:
            orbit_of[f] = min(orbit)
    colour = {0: 0}
    queue = [0]
    for e in queue:
        for f in range(m.flag_count):
            if orbit_of[f] != e:
                continue
            g = orbit_of[m.s1(f)]
            if g == e or colour.get(g) == colour[e]:
                return None
            if g not in colour:
                colour[g] = 1 - colour[e]
                queue.append(g)
    return colour


def flag_involutions(convert, *args):
    """The (s0, s1, s2) that ``convert`` hands to ``FlagMap``."""
    with mock.patch.object(flag_maps, "FlagMap", lambda *perms: perms):
        return convert(*args)


@st.composite
def rotation_systems(draw, max_edges=6):
    """A random embedded graph: darts paired at random, then cut into
    vertices in a random cyclic order.  Often disconnected."""
    n = 2 * draw(st.integers(1, max_edges))
    darts = draw(st.permutations(range(n)))
    pairing = [0] * n
    for a, b in zip(darts[::2], darts[1::2]):
        pairing[a], pairing[b] = b, a
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    rotations = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    return rotations, pairing
