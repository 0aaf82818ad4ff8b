"""Command-line interface: analysis, enumeration, constructions, colourability
and DOT export.  Every subcommand is a thin wrapper over library calls.

Exit codes: 0 success, 1 input or validation error, 2 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
from .flag_maps import is_alternate_edge_colourable, load_flagmap
from .perm_group import GroupTooLargeError
from .presentation import (
    DEFAULT_MAX_COSETS,
    CosetLimitExceeded,
    coset_enumerate,
    parse_presentation,
)

_DOT_COLOURS = {"r0": "red", "r2": "green", "rho0": "blue", "rho2": "yellow"}

def _parse_params(text: Optional[str]) -> dict[str, int | bool]:
    """``key=value`` pairs: ``rpp`` is ``true`` or ``false``, every other
    parameter an integer."""
    params = {}
    if not text:
        return params
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed parameter {part!r}, expected key=value")
        key = key.strip()
        value = value.strip().lower()
        if key == "rpp":
            if value not in ("true", "false"):
                raise ValueError("parameter 'rpp' must be true or false")
            params[key] = value == "true"
        else:
            try:
                params[key] = int(value)
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


def _presentation_text(source: str) -> str:
    if source.lstrip().startswith("<"):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _build_from_presentation(source: str, slots: Optional[str],
                             max_cosets: int) -> EdgeBiregularMap:
    pres = parse_presentation(_presentation_text(source))
    group = coset_enumerate(pres, max_cosets=max_cosets)
    if slots is None:
        if len(pres.generator_names) != 4:
            raise ValueError("--slots is required unless the presentation has "
                             "exactly four generators")
        names = list(pres.generator_names)
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
        pres = parse_presentation(_presentation_text(source))
        group = coset_enumerate(pres, max_cosets=args.max_cosets)
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
    flagmap = load_flagmap(args.flagmap)
    colouring = is_alternate_edge_colourable(flagmap)
    if colouring is None:
        _emit({"colourable": False})
    else:
        witness = [colouring[rep] for rep in sorted(colouring)]
        _emit({"colourable": True, "witness": witness})
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
    unshaded; semi-edges end in an unlabelled point."""
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
                   help="most candidate quadruples to join: the (r0, r2) pairs least "
                        "under conjugation times all (rho0, rho2) pairs")
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
