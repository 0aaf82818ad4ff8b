"""Shared fixtures: rotation systems transcribed from drawings, and
independent oracles used to cross-check the library's fast paths."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import settings, strategies as st

import ebrmaps.flag_maps as flag_maps
from ebrmaps import (CosetLimitExceeded, EdgeBiregularMap, GroupPresentation, Permutation,
                     closure, coset_enumerate, dihedral_presentation, ebr_type_presentation,
                     extend_generator_map, klein, rotation_system_to_flagmap, torus_rect,
                     triangle_group)
from ebrmaps.enumeration import ClassReport, MapClass, dihedral_table_row
from ebrmaps.perm_group import cayley_form, is_dihedral

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


def subgroup_reference(group, gens):
    """Oracle: the subgroup generated by ``gens``, in breadth-first discovery
    order, found with a set of the elements seen and no Cayley-form walk."""
    rights = [group.right_translation(g) for g in gens]
    seen = {0}
    out = [0]
    pos = 0
    while pos < len(out):
        e = out[pos]
        pos += 1
        for right in rights:
            f = right[e]
            if f not in seen:
                seen.add(f)
                out.append(f)
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
                if len(subgroup_reference(group, [x, y])) == n:
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


def regular_counts(r):
    """Oracle for a fully regular map ``(G; r0, r2, r1)``: its type and
    counts from element orders, k = order(r1 r2), l = order(r0 r1),
    V = |G|/2k, E = |G|/4, F = |G|/2l and chi = V - E + F."""
    n = r.group.order
    k, l = (r.r1 * r.r2).order(), (r.r0 * r.r1).order()
    V, E, F = n // (2 * k), n // 4, n // (2 * l)
    return SimpleNamespace(k=k, l=l, V=V, E=E, F=F, chi=V - E + F)


def regular_isomorphic_reference(a, b) -> bool:
    """Oracle: whether (r0, r2, r1) -> (r0', r2', r1') extends to an
    isomorphism of the two regular maps' groups, by word translation."""
    return (a.group.order == b.group.order
            and translate_reference(a.group, a.indices, b.group, b.indices) is not None)


def orientable_by_even_subgroup(m) -> bool:
    """Oracle: the map is orientable iff the products of slot-element pairs
    generate a subgroup of index exactly 2."""
    group = m.group
    slots = [i for i in m.slot_indices if i is not None]
    products = [group.mul(a, b) for a in slots for b in slots]
    return 2 * len(subgroup_reference(group, products)) == group.order


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


def classify_report_by_all_images(maps):
    """Reference for ``classify_report`` that infers no form: every map that
    opens a class walks its own, twin, dual and twin-of-dual quads, and each
    map joins the class that holds its own form."""
    maps = sorted(maps, key=lambda m: m.slot_indices)
    if not maps:
        return ClassReport(())
    members, by_form = [], {}
    for m in maps:
        own = cayley_form(m.group, m.slot_indices)[1]
        if own not in by_form:
            members.append([])
            r0, r2, p0, p2 = m.slot_indices
            for quad in ((r0, r2, p0, p2), (p0, p2, r0, r2), (r2, r0, p2, p0), (p2, p0, r2, r0)):
                by_form[cayley_form(m.group, quad)[1]] = members[-1]
        by_form[own].append(m)
    dihedral = is_dihedral(maps[0].group)
    classes = []
    for cls in members:
        inv = cls[0].invariants()
        row = (dihedral_table_row(inv.order, inv.k, inv.l, inv.V, inv.F, inv.chi,
                                  inv.fully_regular) if dihedral and inv.chi < 0 else None)
        classes.append(MapClass(
            class_size=len(cls), map_type=(inv.k, inv.l), chi=inv.chi, V=inv.V, F=inv.F,
            orientable=inv.orientable, fully_regular=inv.fully_regular, table_row=row))
    return ClassReport(tuple(classes))


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
                    if len(subgroup_reference(group, quad)) != order:
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


# Groups beyond the catalog that the pair survey is checked on, each built on
# request: involution classes of many sizes, and a deep breadth-first tree.
SURVEY_GROUPS = {
    "torus_rect(8,8)": lambda: torus_rect(8, 8).group,
    "klein(64,2)": lambda: klein(64, 2).group,
    "klein(64,1)": lambda: klein(64, 1).group,
    "dihedral_presentation(100)": lambda: coset_enumerate(dihedral_presentation(100)),
}


def conjugations_by_products(group):
    """Oracle: conjugation by each generator g, the array x -> g^-1 x g, two
    products per element."""
    return [[group.mul(group.mul(group.inv(col[0]), x), col[0]) for x in range(group.order)]
            for col in group.columns]


def commuting_pairs_by_products(group, proper):
    """The ordered pairs of commuting involutions, sorted, each pair tested by
    comparing its two products."""
    invs = group.involution_indices()
    return [(x, y) for x in invs for y in invs
            if not (proper and x == y) and group.mul(x, y) == group.mul(y, x)]


def right_translations_by_tree(group):
    """Oracle: every right translation ``x -> x*j``, in element order, each
    built from its breadth-first tree parent's through one generator column:
    element f is parent[f] * via[f], so x*f is (x*parent[f]) * via[f]."""
    rows = [list(range(group.order))]
    for f in range(1, group.order):
        col = group.columns[group._via[f]]
        rows.append([col[x] for x in rows[group._parent[f]]])
    return rows


def commuting_pairs_by_right_rows(group, proper):
    """Oracle: the ordered pairs of commuting involutions, sorted, read off
    the tree-built right translations: y*x is 1 or an involution."""
    rows = right_translations_by_tree(group)
    invs = [j for j in range(1, group.order) if rows[j][j] == 0]
    one_or_inv = {0, *invs}
    return [(x, y) for x in invs for y in invs
            if rows[x][y] in one_or_inv and not (proper and x == y)]


def merge_every_pair(parent, pairs, index, aut):
    """Merge every pair with its image under the automorphism ``aut`` in the
    union-find ``parent``, each set rooted at its least index."""
    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in enumerate([index[aut[x], aut[y]] for x, y in pairs]):
        if i != j:
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)


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
            spans[pair] = frozenset(subgroup_reference(group, pair))
        return spans[pair]

    def generates(r_pair, p_pair):
        key = frozenset((span(r_pair), span(p_pair)))
        if key not in joins:
            joins[key] = len(subgroup_reference(group, r_pair + p_pair)) == group.order
        return joins[key]

    return generates


def aut_orbit_representatives(group, require_proper=False, require_distinct=False,
                              chi_max=None):
    """Reference sweep: list Aut(H), join every pair with every pair, and take
    each quadruple not yet marked in lex order as the representative of its
    Aut(H)-orbit, marking the whole orbit.  Returns the representatives'
    quadruples (those with chi at most ``chi_max``)."""
    pairs = commuting_pairs_by_products(group, require_proper)
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
    """Orbits of ``<perms>``, image arrays on 0..n-1, by breadth-first
    search, each listed from its least point, in order of that point."""
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
                g = p[f]
                if not seen[g]:
                    seen[g] = True
                    orbit.append(g)
        orbits.append(orbit)
    return orbits


def orbits_by_union_find(n, perms):
    """Orbits of ``<perms>``, image arrays on 0..n-1, by union-find over the
    pairs f, p[f]: each orbit as a sorted list, in order of its least point."""
    parent = list(range(n))

    def root(f):
        while parent[f] != f:
            parent[f] = f = parent[parent[f]]
        return f

    for p in perms:
        for f in range(n):
            a, b = root(f), root(p[f])
            parent[max(a, b)] = min(a, b)
    classes = {}
    for f in range(n):
        classes.setdefault(root(f), []).append(f)
    return list(classes.values())


def edge_orbits_by_listing(m):
    """``FlagMap.edge_orbits`` as it was once listed: for each flag least in
    its edge, the edge's flags e, e*s0, e*s2, e*s0*s2, each once."""
    along, across = m.s0, m.s2
    quads = [(e, along[e], across[e], across[along[e]]) for e in range(m.flag_count)]
    return [list(dict.fromkeys(quad)) for quad in quads if quad[0] == min(quad)]


def underlying_dot_reference(m):
    """The underlying DOT graph by cosets: each corner times every element of
    a vertex or edge stabiliser, listed with ``subgroup_indices``."""
    if m.has_boundary:
        raise ValueError("underlying export needs a closed map")
    group = m.group
    r0, r2, p0, p2 = m.slot_indices

    vertex_stabiliser = group.subgroup_indices([r2, p2])
    vertex_of = {}
    for c in range(group.order):
        if c not in vertex_of:
            members = sorted(group.mul(c, w) for w in vertex_stabiliser)
            for member in members:
                vertex_of[member] = members[0]

    lines = ["graph underlying {", "  node [shape=circle, label=\"\"];"]
    free_end = 0
    for along, across, style in ((r0, r2, "solid"), (p0, p2, "dashed")):
        seen = set()
        semi = along == across
        stabiliser = group.subgroup_indices([along] if semi else [along, across])
        for c in range(group.order):
            if c in seen:
                continue
            members = [group.mul(c, w) for w in stabiliser]
            seen.update(members)
            ends = sorted({vertex_of[x] for x in members})
            if semi:
                lines.append(f"  f{free_end} [shape=point];")
                lines.append(f"  v{ends[0]} -- f{free_end} [style={style}];")
                free_end += 1
            elif len(ends) == 1:
                lines.append(f"  v{ends[0]} -- v{ends[0]} [style={style}];")
            else:
                lines.append(f"  v{ends[0]} -- v{ends[1]} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def flagmap_error_reference(s0, s1, s2):
    """The message ``FlagMap(s0, s1, s2)`` must raise on the image arrays of
    three bijections, or None when it must accept: composed permutations for
    the involution and fixed-point checks of s0*s2, one orbit walk of <s0, s1,
    s2> for connectivity, then a scan of s0 and of s2 for fixed points."""
    n = len(s0)
    if len(s1) != n or len(s2) != n:
        return "flag permutations must share one degree"
    arrays = (s0, s1, s2)
    s0, s1, s2 = map(Permutation, arrays)
    for name, p in (("s0", s0), ("s1", s1), ("s2", s2)):
        if not (p * p).is_identity():
            return f"{name} is not an involution"
    cross = s0 * s2
    if not (cross * cross).is_identity():
        return "s0*s2 is not an involution"
    if any(cross(i) == i for i in range(n)):
        return "s0*s2 has fixed points (semi-edge or boundary)"
    if len(orbits_by_walk(n, arrays)) != 1:
        return "flag system is disconnected"
    if any(s0(i) == i for i in range(n)):
        return "s0 has fixed points (semi-edge)"
    if any(s2(i) == i for i in range(n)):
        return "s2 has fixed points (boundary)"
    return None


def flagmap_refusal_reference(s0, s1, s2):
    """The exception ``FlagMap(s0, s1, s2)`` must raise, or None when it must
    accept, from the constructor's checks run in their documented order over
    any entries: one degree, every entry in ``0..n-1`` by ``min`` and ``max``,
    the involution test by indexing, then ``flagmap_error_reference``."""
    arrays = tuple(map(tuple, (s0, s1, s2)))
    n = len(arrays[0])
    named = list(zip(("s0", "s1", "s2"), arrays))
    try:
        if any(len(p) != n for p in arrays):
            raise ValueError("flag permutations must share one degree")
        for name, p in named:
            if p and not (0 <= min(p) and max(p) < n):
                raise ValueError(f"flag map key {name!r} has an entry outside 0..{n - 1}")
        for name, p in named:
            if tuple(p[p[f]] for f in range(n)) != tuple(range(n)):
                raise ValueError(f"{name} is not an involution")
    except (ValueError, TypeError) as exc:
        return exc
    message = flagmap_error_reference(*arrays)
    return None if message is None else ValueError(message)


def load_flagmap_reference(path):
    """``load_flagmap`` by its documented checks in order, each run over the
    whole file: a JSON object, the keys, integer arrays (booleans refused),
    the count, then ``flagmap_refusal_reference``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("flag map file must hold a JSON object")
    try:
        count = data["flag_count"]
        arrays = []
        for key in ("s0", "s1", "s2"):
            row = data[key]
            if not isinstance(row, list) or any(type(x) is not int for x in row):
                raise ValueError(f"flag map key {key!r} must be a list of integers")
            arrays.append(row)
    except KeyError as exc:
        raise ValueError(f"flag map file missing key {exc}") from None
    if len(arrays[0]) != count:
        raise ValueError("flag_count does not match the permutation arrays")
    refusal = flagmap_refusal_reference(*arrays)
    if refusal is not None:
        raise refusal
    return flag_maps.FlagMap(*arrays)


def outcome(call, *args):
    """What ``call(*args)`` gives, for comparing two implementations: the
    accepted flag map's image tuples, or the exception's type and message."""
    try:
        m = call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return m.s0, m.s1, m.s2


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
            g = orbit_of[m.s1[f]]
            if g == e or colour.get(g) == colour[e]:
                return None
            if g not in colour:
                colour[g] = 1 - colour[e]
                queue.append(g)
    return colour


def colouring_by_sorted_walk(m):
    """Oracle: the colouring read through a kept walk list.  Walk the edges
    breadth-first through s1 from the edge of flag 0, keeping the flag that
    first reaches each edge and giving the edge the side opposite its
    finder's; a transition within one side means no colouring.  Then each
    edge's least flag is the ``min`` of its walk flag h and the gathers
    ``s0 h``, ``s2 h`` and ``s2 s0 h``, and the least flags are sorted."""
    s0, s1, s2 = m.s0, m.s1, m.s2
    side = [None] * m.flag_count
    side[0] = side[s0[0]] = side[s2[0]] = side[s2[s0[0]]] = 0
    walk = [0]
    for h in walk:
        s = 1 - side[h]
        for f in (s1[h], s1[s0[h]], s1[s2[h]], s1[s2[s0[h]]]):
            if side[f] is None:
                side[f] = side[s0[f]] = side[s2[f]] = side[s2[s0[f]]] = s
                walk.append(f)
            elif side[f] != s:
                return None
    along = [s0[h] for h in walk]
    least = sorted(map(min, walk, along, [s2[h] for h in walk], [s2[g] for g in along]))
    return dict(zip(least, [side[f] for f in least]))


def rotation_system_reference(rotations, edge_pairing):
    """Oracle: ``rotation_system_to_flagmap`` with its checks in order and one
    comprehension per flag array, reading dart ``f // 2`` and side ``f % 2``."""
    n_darts = len(edge_pairing)
    if sorted(d for rot in rotations for d in rot) != list(range(n_darts)):
        raise ValueError("rotations must cover each dart exactly once")
    if any(not 0 <= e < n_darts for e in edge_pairing):
        raise ValueError(f"edge_pairing entries must lie in 0..{n_darts - 1}")
    if any(e == d or edge_pairing[e] != d for d, e in enumerate(edge_pairing)):
        raise ValueError("edge_pairing must be a fixed-point-free involution")
    succ, pred = [0] * n_darts, [0] * n_darts
    for rot in rotations:
        for a, b in zip(rot, list(rot[1:]) + list(rot[:1])):
            succ[a] = b
            pred[b] = a
    s0 = [2 * edge_pairing[f // 2] + (1 - f % 2) for f in range(2 * n_darts)]
    s1 = [(2 * succ[f // 2] + 1) if f % 2 == 0 else 2 * pred[f // 2]
          for f in range(2 * n_darts)]
    s2 = [f ^ 1 for f in range(2 * n_darts)]
    return flag_maps.FlagMap(s0, s1, s2)


def flag_involutions(convert, *args):
    """The (s0, s1, s2) image arrays that ``convert`` hands to ``FlagMap``."""
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=8)


@st.composite
def flagmap_documents(draw):
    """Flag-map JSON of every kind: any JSON value; objects whose arrays are
    of the wrong type, out of range or not involutions, with keys dropped;
    and the flag systems of random rotation systems, often disconnected."""
    kind = draw(st.sampled_from(["any", "arrays", "rotations"]))
    if kind == "any":
        return draw(JSON_VALUES)
    if kind == "rotations":
        perms = flag_involutions(rotation_system_to_flagmap, *draw(rotation_systems()))
        doc = {key: list(p) for key, p in zip(("s0", "s1", "s2"), perms)}
        return dict(flag_count=len(perms[0]), **doc)
    n = draw(st.integers(0, 8))
    arrays = st.lists(st.integers(-1, n + 1), min_size=n, max_size=n)
    doc = {"flag_count": draw(st.just(n) | JSON_VALUES)}
    doc.update({key: draw(arrays | st.permutations(range(n)) | JSON_VALUES)
                for key in ("s0", "s1", "s2")})
    return {key: value for key, value in doc.items() if draw(st.integers(0, 7))}
