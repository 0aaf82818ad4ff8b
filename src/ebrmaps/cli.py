"""Command-line interface: analysis, enumeration, constructions, colourability
and DOT export.  Every subcommand is a thin wrapper over library calls.

Exit codes: 0 success, 1 input or validation error, 2 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import constructions, families
from .ebr_core import SLOT_NAMES, EdgeBiregularMap
from .enumeration import (
    DEFAULT_CANDIDATE_BUDGET,
    CandidateBudgetExceeded,
    classify_report,
    enumerate_ebr,
)
from .flag_maps import _write_json, is_alternate_edge_colourable, load_flagmap
from .perm_group import FiniteGroup, GroupTooLargeError, orbits
from .presentation import (
    DEFAULT_MAX_COSETS,
    CosetLimitExceeded,
    coset_enumerate,
    parse_presentation,
)

_DOT_COLOURS = {"r0": "red", "r2": "green", "rho0": "blue", "rho2": "yellow"}

def _parse_params(text: Optional[str]) -> dict[str, int | bool]:
    """``key=value`` pairs, each key once: ``rpp`` is ``true`` or ``false``,
    every other parameter an integer."""
    params = {}
    if not text:
        return params
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed parameter {part!r}, expected key=value")
        key = key.strip()
        value = value.strip().lower()
        if key in params:
            raise ValueError(f"parameter {key!r} is given twice")
        if key == "rpp":
            if value not in ("true", "false"):
                raise ValueError("parameter 'rpp' must be true or false")
            params[key] = value == "true"
        else:
            try:  # -?[0-9]+ alone: int() would also read "+3", "1_0" and "٣"
                params[key] = int(value if re.fullmatch("-?[0-9]+", value) else "")
            except ValueError:
                raise ValueError(f"parameter {key!r} must be an integer") from None
    return params


def _families() -> dict:
    """Family name -> (constructor, parameter names in argument order); ``rpp``
    is optional.  Built per call, so a wrapper later set on a ``families``
    function, such as the bench tracer's, is the one called."""
    return {
        "torus-rect": (families.torus_rect, ("a", "c")),
        "torus-rhombic": (families.torus_rhombic, ("b", "c")),
        "klein": (families.klein, ("a", "b")),
        "dihedral": (families.dihedral_map, ("m", "row")),
        "cycle": (functools.partial(families.sphere_family, "cycle"), ("m",)),
        "dipole": (functools.partial(families.sphere_family, "dipole"), ("m", "rpp")),
        "semistar": (functools.partial(families.sphere_family, "semistar"), ("m",)),
    }


def _build_family(name: str, params: dict) -> EdgeBiregularMap:
    table = _families()
    if name not in table:
        raise ValueError(f"unknown family {name!r}; choose from " + ", ".join(sorted(table)))
    build, allowed = table[name]
    for key in params:
        if key not in allowed:
            raise ValueError(f"family {name!r} takes parameters {allowed}, not {key!r}")
    missing = [key for key in allowed if key != "rpp" and key not in params]
    if missing:
        raise ValueError(f"family {name!r} needs parameters {', '.join(missing)}")
    return build(*(params[key] for key in allowed if key in params))


def _presented_group(source: str, max_cosets: int) -> FiniteGroup:
    """The group ``source`` presents: text that starts with '<', or a file."""
    if not source.lstrip().startswith("<"):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    return coset_enumerate(parse_presentation(source), max_cosets=max_cosets)


def _build_from_presentation(source: str, slots: Optional[str],
                             max_cosets: int) -> EdgeBiregularMap:
    group = _presented_group(source, max_cosets)
    if slots is None:
        if len(group.generator_names) != 4:
            raise ValueError("--slots is required unless the presentation has "
                             "exactly four generators")
        names = list(group.generator_names)
    else:
        names = [s.strip() for s in slots.split(",")]
        if len(names) != 4:
            raise ValueError("--slots must list four entries (use '-' for absent)")
    return EdgeBiregularMap(
        group, *(None if n == "-" else group.generator_index(n) for n in names))


def _map_from_args(args) -> EdgeBiregularMap:
    if getattr(args, "family", None):
        return _build_family(args.family, _parse_params(args.params))
    if getattr(args, "presentation", None):
        return _build_from_presentation(args.presentation, args.slots, args.max_cosets)
    raise ValueError("specify a map with --family or --presentation")


def _map_report(m: EdgeBiregularMap) -> dict:
    if m.has_boundary:
        return m.boundary_report()
    return m.invariants().to_json_dict()


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    _emit(_map_report(_map_from_args(args)))
    return 0


def _cmd_enumerate(args) -> int:
    source = args.group
    # A name in the catalog grammar is never read as a file.
    if not source.startswith(families.CATALOG_PREFIXES) and os.path.exists(source):
        group = _presented_group(source, args.max_cosets)
    else:
        group = families.catalog_group(source)
    maps = enumerate_ebr(group, require_proper=args.proper,
                         require_distinct=args.distinct, chi_max=args.chi_max,
                         max_candidates=args.max_candidates)
    _emit(classify_report(maps).to_json())
    return 0


def _cmd_construct(args) -> int:
    regular = families.regular_catalog(args.catalog)
    build = {1: constructions.construction1, 2: constructions.construction2,
             3: constructions.construction3, 4: constructions.construction4}
    _emit(_map_report(build[args.construction](regular)))
    return 0


def _cmd_colourable(args) -> int:
    colouring = is_alternate_edge_colourable(load_flagmap(args.flagmap))
    report = {"colourable": colouring is not None}
    if colouring is not None:
        report["witness"] = list(colouring.values())
    _write_json(report, sys.stdout, 2)  # the witness can run to thousands of entries
    return 0


def _cmd_export(args) -> int:
    m = _map_from_args(args)
    text = corners_dot(m) if args.dot == "corners" else underlying_dot(m)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def corners_dot(m: EdgeBiregularMap) -> str:
    """Corner Cayley graph, one edge colour per generator slot."""
    group = m.group
    lines = ["graph corners {", "  node [shape=point];"]
    for name, idx in zip(SLOT_NAMES, m.slot_indices):
        if idx is None:
            continue
        colour = _DOT_COLOURS[name]
        for e, f in enumerate(group.right_translation(idx)):
            if e < f:
                lines.append(f"  {e} -- {f} [color={colour}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def underlying_dot(m: EdgeBiregularMap) -> str:
    """The map's vertex/edge graph: solid for shaded edges, dashed for
    unshaded; semi-edges end in an unlabelled point.  Vertices and edges are
    the corner orbits of two slots' right translations; a vertex is named by
    its least corner."""
    if m.has_boundary:
        raise ValueError("underlying export needs a closed map")
    n, right = m.group.order, m.group.right_translation
    r0, r2, p0, p2 = m.slot_indices

    vertex_of = [0] * n
    for vertex in orbits(n, (right(r2), right(p2))):
        for c in vertex:
            vertex_of[c] = vertex[0]

    lines = ["graph underlying {", "  node [shape=circle, label=\"\"];"]
    free_end = 0
    for along, across, style in ((r0, r2, "solid"), (p0, p2, "dashed")):
        for edge in orbits(n, (right(along), right(across))):
            ends = sorted({vertex_of[c] for c in edge})
            if along == across:  # a semi-edge
                lines.append(f"  f{free_end} [shape=point];")
                lines.append(f"  v{ends[0]} -- f{free_end} [style={style}];")
                free_end += 1
            else:  # a loop when both ends are one vertex
                lines.append(f"  v{ends[0]} -- v{ends[-1]} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_map_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="family name (e.g. torus-rect, dihedral)")
    parser.add_argument("--params", help="family parameters, e.g. a=4,c=3")
    parser.add_argument("--presentation",
                        help="presentation text, which starts with '<', or a file holding it")
    parser.add_argument("--slots",
                        help="comma list naming the r0,r2,rho0,rho2 generators "
                             "('-' marks an absent slot)")
    parser.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                        help="coset enumeration budget for --presentation")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(prog="ebrmaps",
                                     description="Edge-biregular map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants of a family or presented map")
    _add_map_source(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="classify structures over a group")
    p.add_argument("--group", required=True,
                   help="catalog name (dih:n, dihxc2:n, c2^k; never read as a file) "
                        "or presentation file")
    p.add_argument("--proper", action="store_true", help="exclude semi-edge maps")
    p.add_argument("--distinct", action="store_true",
                   help="require four distinct slot elements")
    p.add_argument("--chi-max", type=int, default=None,
                   help="keep maps with chi at most this value")
    p.add_argument("--max-candidates", type=int, default=DEFAULT_CANDIDATE_BUDGET,
                   help="most candidate quadruples to join; counted as the sweep joins "
                        "them, so a refusal comes after that much work")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                   help="coset enumeration budget for --group FILE")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("construct", help="apply a construction to a catalog map")
    p.add_argument("--catalog", required=True,
                   help="regular map name (cube, hosohedron:3, ...)")
    p.add_argument("--construction", type=int, required=True, choices=(1, 2, 3, 4))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("colourable", help="test a flag map for an alternate colouring")
    p.add_argument("--flagmap", required=True, help="flag map JSON file")
    p.set_defaults(func=_cmd_colourable)

    p = sub.add_parser("export", help="write a DOT graph")
    _add_map_source(p)
    p.add_argument("--dot", required=True, choices=("corners", "underlying"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (CosetLimitExceeded, GroupTooLargeError, CandidateBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of ours, still one line and no traceback
        detail = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
