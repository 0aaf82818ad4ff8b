"""The four benchmark workloads: seeded input plans, inputs and output checks.

A workload's op list is a sequence of rounds with the same shape: the same
slots (op kind and size band), heavy and light ops interleaved.  The seed
chooses the parameters inside each slot's band.  The benchmark takes its
statistics over complete rounds, so every run measures the same mix whatever
the seed and however fast the host is.

The checks never call into ``ebrmaps``: they compare each op's output with
closed forms from the paper and with facts the benchmark knows about the
inputs it generated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

CHI_TABLE_FLAGS = ["--proper", "--distinct", "--chi-max", "-1"]
CATALOG_FLAGS = (["--proper"], CHI_TABLE_FLAGS, [])


@dataclass
class Op:
    """One request of the closed loop.

    ``argv`` ops are one in-process ``ebrmaps.cli.main(argv)`` call; ``text``
    ops are one ``coset_enumerate(parse_presentation(text), max_cosets=budget)``
    call.  ``check(rc, output)`` returns None when the output is right and a
    message otherwise.
    """

    label: str
    check: Callable[[int, str], Optional[str]]
    argv: Optional[list[str]] = None
    text: Optional[str] = None
    budget: Optional[int] = None


@dataclass
class Workload:
    name: str
    tail_percentile: float
    plan: Callable  # (rng, smoke) -> list of rounds, each a list of spec dicts
    materialise: Callable  # (ebr, spec, workdir, index) -> Op
    rounds: int
    trace_rounds: int = 1  # rounds run by --trace 1


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def factor_pairs(n: int, low: int) -> list[tuple[int, int]]:
    """Ordered pairs (x, n // x) with both entries at least ``low``."""
    return [(x, n // x) for x in range(low, n // low + 1)
            if n % x == 0 and n // x >= low]


def spread(classes: list[list]) -> list:
    """Merge several lists so that each is spread evenly over the result."""
    keyed = []
    for rank, items in enumerate(classes):
        for j, item in enumerate(items):
            keyed.append(((j + 0.5) / len(items), rank, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _json(output: str):
    try:
        return json.loads(output), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def compare(found: dict, expected: dict) -> Optional[str]:
    wrong = [f"{key}={found.get(key)!r} (expected {value!r})"
             for key, value in expected.items() if found.get(key) != value]
    return "; ".join(wrong) or None


def euler_error(order: int, k: int, l: int, chi: int, proper_colours: int) -> Optional[str]:
    """chi = |H| (1/k + 1/l - p/4), where p colour classes are proper edges
    (p = 2 gives the usual |H|(1/k - 1/2 + 1/l); semi-edges add nothing)."""
    want = order * (Fraction(1, k) + Fraction(1, l) - Fraction(proper_colours, 4))
    if Fraction(chi) != want:
        return f"Euler identity fails: chi={chi}, |H|(1/k+1/l-{proper_colours}/4)={want}"
    return None


def closed_map_check(expected: dict, proper_colours: int):
    """Check an ``invariants()`` report against closed-form values."""

    def check(rc: int, output: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        data, err = _json(output)
        if err:
            return err
        wrong = compare(data, expected)
        if wrong:
            return wrong
        return euler_error(data["order"], data["k"], data["l"], data["chi"],
                           proper_colours)

    return check


def genus(chi: int, orientable: bool) -> int:
    return (2 - chi) // 2 if orientable else 2 - chi


def surface(order, k, l, chi, orientable, fully_regular) -> dict:
    return {"order": order, "k": k, "l": l, "V": order // k, "F": order // l,
            "chi": chi, "orientable": orientable, "genus": genus(chi, orientable),
            "fully_regular": fully_regular}


# ---------------------------------------------------------------------------
# family-analyze: `analyze --family` and `construct --catalog`
# ---------------------------------------------------------------------------

def family_expectation(family: str, p: dict) -> tuple[dict, int]:
    """Closed forms of the classified families: (expected fields, number of
    proper colour classes)."""
    if family == "torus-rect":
        a, c = p["a"], p["c"]
        return surface(4 * a * c, 4, 4, 0, True, a == c), 2
    if family == "torus-rhombic":
        b, c = p["b"], p["c"]
        return surface(8 * b * c, 4, 4, 0, True, b == c), 2
    if family == "klein":
        a, b = p["a"], p["b"]
        return surface(4 * a * b, 4, 4, 0, False, False), 2
    if family == "dihedral":
        m, row = p["m"], p["row"]
        # row: (k, l, chi, orientable, fully regular); rows 1-2 are
        # orientable, rows 3-4 admit no orientation character.
        k, l, chi, orientable, regular = {
            1: (2 * m, 2 * m, 2 - m, True, True),
            2: (m, m, 4 - m, True, True),
            3: (2 * m, 4, (2 - m) // 2, False, False),
            4: (m, 4, (4 - m) // 2, False, False),
        }[row]
        return surface(2 * m, k, l, chi, orientable, regular), 2
    m = p["m"]
    if family == "cycle":
        return surface(4 * m, 2, 2 * m, 2, True, True), 2
    if family == "dipole" and p.get("rpp"):
        return surface(2 * m, 2 * m, 2, 1, False, True), 2
    if family == "dipole":
        return surface(4 * m, 2 * m, 2, 2, True, True), 2
    if family == "semistar":
        return surface(2 * m, 2 * m, 2 * m, 2, True, True), 0
    raise ValueError(family)


PLATONIC = {  # name: (k, l, order) of the fully regular map
    "tetrahedron": (3, 3, 24),
    "cube": (3, 4, 48),
    "octahedron": (4, 3, 48),
    "dodecahedron": (3, 5, 120),
    "icosahedron": (5, 3, 120),
}


def regular_type(name: str) -> tuple[int, int, int]:
    if name in PLATONIC:
        return PLATONIC[name]
    base, _, m = name.partition(":")
    m = int(m)
    return (m, 2, 4 * m) if base == "hosohedron" else (2, m, 4 * m)


def construct_check(catalog: str, construction: int):
    """Constructions 1-2 give boundary maps; 3 doubles the type with chi
    unchanged; 4 (digonal faces only) splits each face into two digons."""
    k, l, n = regular_type(catalog)
    chi = n // (2 * k) - n // 4 + n // (2 * l)  # 2 for every catalog sphere
    if construction in (1, 2):
        absent = "rho2" if construction == 1 else "rho0"
        expected = {"order": n, "k": None if construction == 1 else 2 * k,
                    "l": 2 * l if construction == 1 else None,
                    "absent_slots": [absent],
                    "boundary_type": "a" if construction == 1 else "d",
                    "degeneracy_class": "boundary"}

        def check(rc: int, output: str) -> Optional[str]:
            if rc != 0:
                return f"exit code {rc}"
            data, err = _json(output)
            return err or compare(data, expected)

        return check
    if construction == 3:
        return closed_map_check(surface(n, 2 * k, 2 * l, chi, True, False), 1)
    return closed_map_check(surface(n, 2 * k, 2, 2, True, True), 2)


def plan_family(rng, smoke: bool) -> list[list[dict]]:
    def fam(family, **params):
        return {"family": family, "params": params}

    def torus_rect(pairs):
        a, c = rng.choice(pairs)
        return fam("torus-rect", a=a, c=c)

    def torus_rhombic(pairs):
        b, c = rng.choice(pairs)
        return fam("torus-rhombic", b=b, c=c)

    def klein(n):
        b = rng.choice((1, 2))
        return fam("klein", a=n // (4 * b), b=b)

    def dihedral(m):
        rows = [1, 2, 3, 4] if (m // 2) % 2 == 1 else [1, 3]
        return fam("dihedral", m=m, row=rng.choice(rows))

    def regular(name):
        valid = [1, 2, 3] + ([4] if regular_type(name)[1] == 2 else [])
        return {"catalog": name, "construction": rng.choice(valid)}

    if smoke:
        return [[torus_rect(factor_pairs(16, 2)), torus_rhombic(factor_pairs(8, 1)),
                 klein(64), dihedral(6), fam("cycle", m=3), fam("dipole", m=1),
                 fam("dipole", m=2, rpp=True), fam("semistar", m=2),
                 regular("tetrahedron"), regular("hosohedron:3")]]

    # Op latencies span three decades.  For a median and a tail percentile
    # that hold still, both must fall inside a dense cluster of latencies,
    # so each round has the same shape: 7 light ops (under ~0.15 s, drawn
    # over their whole ranges), 13 table-bound ops of 0.25-0.5 s (narrow
    # bands; the seed chooses cost-neutral parameters: orientation, dihedral
    # row, construction number, klein b) and torus_rect(8, 8), the ROADMAP
    # baseline op.
    def one_round(r):
        heavy = [torus_rect([(4, 9), (9, 4)]), torus_rect([(3, 12), (12, 3)]),
                 torus_rect([(6, 6)]), torus_rhombic([(2, 8), (8, 2)]),
                 torus_rhombic([(4, 4)]), torus_rhombic([(1, 16), (16, 1)]),
                 klein(128), klein(128),
                 dihedral(2 * rng.randint(44, 50)), dihedral(2 * rng.randint(44, 50)),
                 fam("cycle", m=rng.randint(44, 50)), fam("dipole", m=rng.randint(44, 50)),
                 regular(rng.choice(["dodecahedron", "icosahedron"]))]
        light = [fam("cycle", m=rng.randint(1, 35)), dihedral(2 * rng.randint(2, 35)),
                 fam("semistar", m=rng.randint(1, 50)), fam("dipole", m=rng.randint(1, 35)),
                 fam("dipole", m=2 * rng.randint(1, 25), rpp=True),
                 regular(rng.choice(["tetrahedron", "cube", "octahedron"])
                         if r % 2 else
                         f"{rng.choice(['hosohedron', 'dihedron'])}:{rng.randint(2, 20)}"),
                 [torus_rect(factor_pairs(16, 2)), torus_rhombic(factor_pairs(8, 1)),
                  klein(64)][r % 3]]
        return spread([[torus_rect([(8, 8)])], heavy, light])

    return [one_round(r) for r in range(FAMILY.rounds)]


def materialise_family(ebr, spec: dict, workdir: str, index: int) -> Op:
    if "family" in spec:
        family, params = spec["family"], spec["params"]
        text = ",".join(f"{k}={str(v).lower()}" for k, v in params.items())
        expected, proper = family_expectation(family, params)
        return Op(label=f"analyze {family} n={expected['order']}",
                  argv=["analyze", "--family", family, "--params", text],
                  check=closed_map_check(expected, proper))
    catalog, number = spec["catalog"], spec["construction"]
    return Op(label=f"construct {catalog.split(':')[0]} c{number}",
              argv=["construct", "--catalog", catalog, "--construction", str(number)],
              check=construct_check(catalog, number))


# ---------------------------------------------------------------------------
# catalog-sweep: `enumerate --group`
# ---------------------------------------------------------------------------

DIHEDRAL_ROW_FORMS = {
    # row: (type, chi, (V, F), fully regular) for the dihedral group of order
    # 2m, m even; rows 2 and 4 exist only when m/2 is odd.
    1: lambda m: ((2 * m, 2 * m), 2 - m, (1, 1), True),
    2: lambda m: ((m, m), 4 - m, (2, 2), True),
    3: lambda m: ((2 * m, 4), (2 - m) // 2, (1, m // 2), False),
    4: lambda m: ((m, 4), (4 - m) // 2, (2, m // 2), False),
}


def catalog_group_facts(name: str) -> tuple[int, bool]:
    """(order, dihedral?) of a catalog group, from its name alone.

    dih:n is dihedral of order n; dihxc2:n is D(n/2) x C2 of order 2n, which
    is dihedral exactly when n/2 is odd; c2^k is elementary abelian."""
    kind, _, arg = name.partition(":")
    if kind == "dih":
        return int(arg), True
    if kind == "dihxc2":
        n = int(arg)
        return 2 * n, (n // 2) % 2 == 1
    k = int(name[3:])
    return 2 ** k, k <= 2


def sweep_check(order: int, dihedral: bool, flags: list[str]):
    proper_only = "--proper" in flags
    chi_max = int(flags[flags.index("--chi-max") + 1]) if "--chi-max" in flags else None
    m = order // 2
    table = dihedral and m >= 4 and m % 2 == 0
    allowed = ({1, 2, 3, 4} if (m // 2) % 2 == 1 else {1, 3}) if table else set()

    def check(rc: int, output: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        classes, err = _json(output)
        if err:
            return err
        rows = set()
        for c in classes:
            k, l = c["type"]
            V, F, chi = c["V"], c["F"], c["chi"]
            if c["class_size"] < 1 or V * k != order or F * l != order:
                return f"class {c} has inconsistent counts for order {order}"
            proper_edges = V + F - chi
            if proper_edges not in (order // 2, order // 4, 0) or \
                    (proper_only and proper_edges != order // 2):
                return f"class {c} breaks Euler's formula for order {order}"
            if proper_edges == order // 2:
                err = euler_error(order, k, l, chi, 2)
                if err:
                    return err
            if c["orientable"] and chi % 2:
                return f"orientable class with odd chi: {c}"
            if chi_max is not None and chi > chi_max:
                return f"class with chi {chi} > {chi_max}"
            row = c["table_row"]
            if row is not None and not table:
                return f"table row {row} reported outside the dihedral table"
            if table and chi < 0 and proper_edges == order // 2:
                if row not in allowed:
                    return f"class {c} matches no allowed row of {sorted(allowed)}"
                (tk, tl), tchi, (tv, tf), regular = DIHEDRAL_ROW_FORMS[row](m)
                dual = (k, l, V, F) == (tl, tk, tf, tv)
                if not ((k, l, V, F) == (tk, tl, tv, tf) or dual) or \
                        chi != tchi or c["fully_regular"] != regular:
                    return f"class {c} differs from row {row}"
                rows.add(row)
        if table and rows != allowed:
            return f"rows found {sorted(rows)} != rows allowed {sorted(allowed)}"
        return None

    return check


CATALOG_HEAVY = ["dihxc2:20", "dihxc2:24", "dihxc2:16"]
CATALOG_MEDIUM = ["dihxc2:12", "dih:44", "dih:48", "dihxc2:22", "dih:36", "dih:28",
                  "dih:32", "dihxc2:18", "dih:40", "dihxc2:14", "dihxc2:8", "dih:20",
                  "dih:24"]


def catalog_names() -> list[str]:
    """The names of ``ebrmaps.enumeration.catalog_names()``, restated."""
    return ([f"dih:{n}" for n in range(2, 49, 2)]
            + [f"dihxc2:{n}" for n in range(2, 25, 2)]
            + [f"c2^{k}" for k in (1, 2, 3)])


def plan_catalog(rng, smoke: bool) -> list[list[dict]]:
    if smoke:
        return [[{"group": "dih:8", "flags": CHI_TABLE_FLAGS},
                 {"group": "c2^2", "flags": []},
                 {"group": "dihxc2:6", "flags": ["--proper"]},
                 {"file_m": 26}]]
    light = [g for g in catalog_names() if g not in CATALOG_HEAVY + CATALOG_MEDIUM]
    # One op costs from 1 ms to 6 s, and the flag set changes the cost of a
    # group up to tenfold; seeded flags moved the median latency by 40 %
    # between seeds.  So every round sweeps the whole catalog with the same
    # flags (group i of its tier takes flag set i mod 3), and the seed
    # chooses the orders of the two dihedral presentations: one with m/2 odd
    # (four table rows) and one with m/2 even (two rows).
    tiers = [[{"group": g, "flags": CATALOG_FLAGS[i % 3]} for i, g in enumerate(tier)]
             for tier in (CATALOG_HEAVY, CATALOG_MEDIUM, light)]
    return [spread([tiers[0], [{"file_m": rng.choice((26, 30))},
                               {"file_m": rng.choice((36, 40))}], tiers[1], tiers[2]])
            for _ in range(CATALOG.rounds)]


def materialise_catalog(ebr, spec: dict, workdir: str, index: int) -> Op:
    if "file_m" in spec:
        m = spec["file_m"]
        path = os.path.join(workdir, f"dihedral-{index}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(str(ebr.dihedral_presentation(m)) + "\n")
        return Op(label=f"enumerate dihedral-presentation order={2 * m}",
                  argv=["enumerate", "--group", path] + CHI_TABLE_FLAGS,
                  check=sweep_check(2 * m, True, CHI_TABLE_FLAGS))
    name, flags = spec["group"], spec["flags"]
    order, dihedral = catalog_group_facts(name)
    return Op(label=f"enumerate {name} {' '.join(flags) or 'all'}",
              argv=["enumerate", "--group", name] + flags,
              check=sweep_check(order, dihedral, flags))


# ---------------------------------------------------------------------------
# presentation-groups: coset_enumerate(parse_presentation(text), max_cosets=B)
# ---------------------------------------------------------------------------

BUDGETS = (100_000, 120_000)
BUDGET_PRESENTATIONS = ("triangle:3:7", "triangle:4:5", "square-grid", "ebr-type:4:6")
TORUS_AC = (252, 256, 264, 270, 280, 288, 294, 300)  # 4ac in [1008, 1200]


def near_square(n: int) -> tuple[int, int]:
    a = max(x for x in range(1, int(n ** 0.5) + 1) if n % x == 0)
    return a, n // a


def plan_presentation(rng, smoke: bool) -> list[list[dict]]:
    if smoke:
        return [[{"pres": name, "budget": 2_000}
                 for name in BUDGET_PRESENTATIONS]
                + [{"pres": "dihedral", "m": 32}, {"pres": "torus-rect", "a": 4, "c": 4},
                   {"pres": "triangle:2", "m": 16}]]

    # Long relators slow the Felsch enumeration, so the torus quotients use
    # near-square (a, c); the seed chooses the orientation.
    def one_round():
        a, c = near_square(rng.choice(TORUS_AC))
        finite = [{"pres": "dihedral", "m": rng.randint(500, 600)},
                  {"pres": "torus-rect", **dict(zip("ac", rng.choice([(a, c), (c, a)])))},
                  {"pres": "triangle:2", "m": rng.randint(250, 300)}]
        infinite = [{"pres": name, "budget": rng.randrange(BUDGETS[0], BUDGETS[1] + 1, 500)}
                    for name in BUDGET_PRESENTATIONS]
        return spread([infinite, finite])

    return [one_round() for _ in range(PRESENTATION.rounds)]


def materialise_presentation(ebr, spec: dict, workdir: str, index: int) -> Op:
    kind = spec["pres"]
    budget = spec.get("budget")
    if kind == "dihedral":
        pres, order = ebr.dihedral_presentation(spec["m"]), 2 * spec["m"]
    elif kind == "triangle:2":
        pres, order = ebr.triangle_group(2, spec["m"]), 4 * spec["m"]
    elif kind == "torus-rect":
        a, c = spec["a"], spec["c"]
        base = ebr.square_grid_group()
        # the torus_rect relators (r0 rho2)^a and (r2 rho0)^c
        extra = (tuple([(0, 1), (3, 1)] * a), tuple([(1, 1), (2, 1)] * c))
        pres = ebr.GroupPresentation(base.generator_names, base.relators + extra)
        order = 4 * a * c
    elif kind == "square-grid":
        pres, order = ebr.square_grid_group(), None
    elif kind == "ebr-type:4:6":
        pres, order = ebr.ebr_type_presentation(4, 6), None
    else:
        _, k, l = kind.split(":")
        pres, order = ebr.triangle_group(int(k), int(l)), None

    if order is None:
        def check(rc: int, output: str) -> Optional[str]:
            return None if output == "CosetLimitExceeded" else \
                f"expected CosetLimitExceeded, got {output[:80]!r}"
        label = f"budget {kind}"
    else:
        budget = 16 * order

        def check(rc: int, output: str) -> Optional[str]:
            data, err = _json(output)
            if err:
                return err
            return None if data["order"] == order else \
                f"order {data['order']} (expected {order})"
        label = f"finite {kind}"
    return Op(label=label, text=str(pres), budget=budget, check=check)


# ---------------------------------------------------------------------------
# flagmap-colourable: `colourable --flagmap F`
# ---------------------------------------------------------------------------

FLAG_TARGETS = (256, 400, 576, 784, 1024)  # p*q grid cells; 8*p*q flags


def grid_rotation_system(p: int, q: int, diagonal: bool):
    """The p x q square grid on the torus as a rotation system.

    Vertex (i, j) has darts 4v + d for d = east, north, west, south, in
    counterclockwise order.  With ``diagonal`` one face, far from dart 0, is
    split by a diagonal; its two ends then have valency 5, so no
    alternate-edge-colouring exists.  Without it, colouring the horizontal
    edges 0 and the vertical ones 1 alternates everywhere.
    """
    def v(i, j):
        return (i % p) * q + (j % q)

    n = p * q
    pairing = [0] * (4 * n)
    for i in range(p):
        for j in range(q):
            east, north = 4 * v(i, j), 4 * v(i, j) + 1
            west, south = 4 * v(i + 1, j) + 2, 4 * v(i, j + 1) + 3
            pairing[east], pairing[west] = west, east
            pairing[north], pairing[south] = south, north
    rotations = [[4 * x, 4 * x + 1, 4 * x + 2, 4 * x + 3] for x in range(n)]
    if diagonal:
        a, b = 4 * n, 4 * n + 1
        i, j = p // 2, q // 2
        rotations[v(i, j)].insert(1, a)          # north-east of (i, j)
        rotations[v(i + 1, j + 1)].insert(3, b)  # south-west of (i+1, j+1)
        pairing += [b, a]
    return rotations, pairing


def witness_error(rotations, pairing, witness) -> Optional[str]:
    """Walk every vertex and face of the rotation system and check that the
    witness colours alternate.  Edge e of the witness is the e-th edge in the
    order of its least dart, matching the flag map's least-flag order."""
    edges = sorted({min(d, pairing[d]) for d in range(len(pairing))})
    if len(witness) != len(edges) or set(witness) - {0, 1}:
        return f"witness has {len(witness)} entries for {len(edges)} edges"
    rank = {d: i for i, d in enumerate(edges)}

    def colour(d):
        return witness[rank[min(d, pairing[d])]]

    succ = {}
    for rot in rotations:
        for a, b in zip(rot, rot[1:] + rot[:1]):
            if colour(a) == colour(b):
                return f"colours repeat around the vertex of dart {a}"
            succ[a] = b
    for d in range(len(pairing)):
        if colour(d) == colour(succ[pairing[d]]):
            return f"colours repeat around the face after dart {d}"
    return None


def plan_flagmap(rng, smoke: bool) -> list[list[dict]]:
    targets = (16, 24) if smoke else FLAG_TARGETS

    def grid(target):
        """p x q within 1% of the target cell count, aspect at most 4."""
        options = [(p, round(target / p)) for p in range(4, target // 4 + 1)
                   if 4 * p >= round(target / p) >= p / 4
                   and abs(p * round(target / p) - target) <= 0.01 * target]
        return dict(zip("pq", rng.choice(options)))

    rounds = []
    for _ in range(FLAGMAP.rounds):
        good = [dict(grid(t), diagonal=False) for t in reversed(targets)]
        bad = [dict(grid(t), diagonal=True) for t in targets]
        rounds.append([x for pair in zip(good, bad) for x in pair])
    return rounds


def materialise_flagmap(ebr, spec: dict, workdir: str, index: int) -> Op:
    p, q, diagonal = spec["p"], spec["q"], spec["diagonal"]
    rotations, pairing = grid_rotation_system(p, q, diagonal)
    path = os.path.join(workdir, f"flagmap-{index}.json")
    ebr.save_flagmap(ebr.rotation_system_to_flagmap(rotations, pairing), path)

    def check(rc: int, output: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        data, err = _json(output)
        if err:
            return err
        if data["colourable"] == diagonal:
            return f"colourable={data['colourable']} for diagonal={diagonal}"
        if diagonal:
            return None
        return witness_error(rotations, pairing, data["witness"])

    kind = "split" if diagonal else "grid"
    return Op(label=f"colourable {kind} flags={2 * len(pairing)}",
              argv=["colourable", "--flagmap", path], check=check)


FAMILY = Workload("family-analyze", 75.0, plan_family, materialise_family, rounds=6)
CATALOG = Workload("catalog-sweep", 70.0, plan_catalog, materialise_catalog, rounds=2)
PRESENTATION = Workload("presentation-groups", 60.0, plan_presentation,
                        materialise_presentation, rounds=8, trace_rounds=2)
FLAGMAP = Workload("flagmap-colourable", 85.0, plan_flagmap, materialise_flagmap,
                   rounds=1, trace_rounds=2)

WORKLOADS = {w.name: w for w in (FAMILY, CATALOG, PRESENTATION, FLAGMAP)}
