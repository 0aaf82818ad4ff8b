"""Spans around the public functions of each ebrmaps module, from outside.

The tracer replaces functions and methods with timing wrappers; ``src/`` is
not changed.  A function imported with ``from .x import y`` is bound in every
importing module, so each binding that is the original function object is
replaced.  Methods are replaced on their classes.

Spans live in memory as parallel arrays (name, parent, op, start, end) and
are written out once, when the run ends.  A layer's self time is the sum of
its spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer name -> (module, attribute) of each function the layer's span wraps.
FUNCTIONS = {
    "perm_group.closure": [("perm_group", "closure")],
    "perm_group.extend_generator_map": [("perm_group", "extend_generator_map")],
    "presentation.parse_presentation": [("presentation", "parse_presentation")],
    "presentation.coset_enumerate": [("presentation", "coset_enumerate")],
    "ebr_core.are_isomorphic": [("ebr_core", "are_isomorphic")],
    "enumeration.enumerate_ebr": [("enumeration", "enumerate_ebr")],
    "enumeration.classify_report": [("enumeration", "classify_report")],
    "families.build": [("families", name) for name in (
        "torus_rect", "torus_rhombic", "klein", "dihedral_map", "sphere_family",
        "regular_catalog")],
    "constructions.construct": [("constructions", f"construction{i}")
                                for i in (1, 2, 3, 4)],
    "flag_maps.load_flagmap": [("flag_maps", "load_flagmap")],
    "flag_maps.is_alternate_edge_colourable": [
        ("flag_maps", "is_alternate_edge_colourable")],
    "cli.main": [("cli", "main")],
}

# Layer name -> (module, class, method).
METHODS = {
    "perm_group.Permutation": ("perm_group", "Permutation", "__init__"),
    "perm_group.element_order": ("perm_group", "FiniteGroup", "element_order"),
    "perm_group.subgroup_indices": ("perm_group", "FiniteGroup", "subgroup_indices"),
    "ebr_core.EdgeBiregularMap": ("ebr_core", "EdgeBiregularMap", "__init__"),
    "ebr_core.invariants": ("ebr_core", "EdgeBiregularMap", "invariants"),
}

TABLE = "perm_group.table"  # the first FiniteGroup.mul of each group
OP = "bench.op"  # root span of each op; its self time is the harness's share

LAYERS = [TABLE] + list(METHODS) + list(FUNCTIONS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self, span: int) -> str:
        parent = self.parent[span]
        return self.names[self.name[parent]] if parent >= 0 else ""

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call.  ``after(span, result,
        exc, args, kwargs)`` runs once the span has ended."""
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[span] = perf_counter()
                stack.pop()
                if after is not None:
                    after(span, None, exc, args, kwargs)
                raise
            ends[span] = perf_counter()
            stack.pop()
            if after is not None:
                after(span, result, None, args, kwargs)
            return result

        return wrapper

    def duration(self, span: int) -> float:
        return self.end[span] - self.start[span]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap every layer function in ``modules`` (short name -> module)."""
        hooks = self._hooks()
        for layer, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(modules[module_name], attr)
                wrapped = self.wrap(layer, original, hooks.get(layer))
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        for layer, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(modules[module_name], cls_name)
            self._set(cls, attr, self.wrap(layer, cls.__dict__[attr], hooks.get(layer)))

        # FiniteGroup.mul runs millions of times.  Only the first call per
        # group is timed (it materialises the Cayley table); the original
        # method is then bound on the instance, so later calls skip the
        # wrapper.
        group_cls = modules["perm_group"].FiniteGroup
        original_mul = group_cls.__dict__["mul"]
        timed_mul = self.wrap(TABLE, original_mul)

        def first_mul(group, i, j):
            group.mul = original_mul.__get__(group)
            return timed_mul(group, i, j)

        self._set(group_cls, "mul", first_mul)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hooks(self) -> dict:
        counts = self.counts

        def closure(span, result, exc, args, kwargs):
            if result is not None:
                counts["perm_group.closure.elements"] += result.order

        def coset_enumerate(span, result, exc, args, kwargs):
            if result is not None:
                counts["presentation.coset_enumerate.index_sum"] += result.order
            elif type(exc).__name__ == "CosetLimitExceeded":
                budget = kwargs.get("max_cosets", args[1] if len(args) > 1 else None)
                counts["presentation.coset_enumerate.budget_hits"] += 1
                counts["presentation.budget_cosets"] += budget
                counts["presentation.budget_s"] += self.duration(span)

        def extend(span, result, exc, args, kwargs):
            if self.parent_name(span) == "enumeration.enumerate_ebr":
                counts["enumeration.dedup_attempts"] += 1
                counts["enumeration.dedup_hits"] += result is not None

        def build_map(span, result, exc, args, kwargs):
            if self.parent_name(span) == "enumeration.enumerate_ebr":
                counts["enumeration.candidates"] += 1

        def enumerate_ebr(span, result, exc, args, kwargs):
            if result is not None:
                counts["enumeration.representatives"] += len(result)

        def classify(span, result, exc, args, kwargs):
            if result is not None:
                counts["enumeration.classes"] += len(result.classes)

        def colourable(span, result, exc, args, kwargs):
            counts["flag_maps.flags"] += args[0].flag_count
            counts["flag_maps.colourable"] += result is not None
            counts["flag_maps.colour_s"] += self.duration(span)

        def main(span, result, exc, args, kwargs):
            counts["cli.exit_nonzero"] += result != 0

        return {
            "perm_group.closure": closure,
            "presentation.coset_enumerate": coset_enumerate,
            "perm_group.extend_generator_map": extend,
            "ebr_core.EdgeBiregularMap": build_map,
            "enumeration.enumerate_ebr": enumerate_ebr,
            "enumeration.classify_report": classify,
            "flag_maps.is_alternate_edge_colourable": colourable,
            "cli.main": main,
        }

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: (number of spans, total self time)."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def write(self, path: str) -> None:
        """Gzipped, one tab-separated line per span: id, name, op, parent,
        start, end (seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\top\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n")


def per_layer_metrics(tracer: Tracer, stdout_bytes: int,
                      untraced_s: float, traced_s: float) -> tuple[dict, dict]:
    """The per-layer metrics of BENCHMARK.json and, for the report, each
    ratio's numerator and denominator."""
    calls, self_s = tracer.self_times()
    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    bases: dict[str, tuple[float, float]] = {}

    def ratio(name, num, den, unit="ratio"):
        metrics[name] = (num / den if den else 0.0, unit)
        bases[name] = (num, den)

    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["perm_group.closure.elements"] = (c["perm_group.closure.elements"], "count")
    for key in ("index_sum", "budget_hits"):
        name = f"presentation.coset_enumerate.{key}"
        metrics[name] = (c[name], "count")
    ratio("presentation.budget_cosets_per_s", c["presentation.budget_cosets"],
          c["presentation.budget_s"], "1/s")
    for key in ("candidates", "representatives", "dedup_attempts", "classes"):
        metrics[f"enumeration.{key}"] = (c[f"enumeration.{key}"], "count")
    ratio("enumeration.reps_per_candidate", c["enumeration.representatives"],
          c["enumeration.candidates"])
    ratio("enumeration.dedup_hit_ratio", c["enumeration.dedup_hits"],
          c["enumeration.dedup_attempts"])
    metrics["flag_maps.flags"] = (c["flag_maps.flags"], "count")
    ratio("flag_maps.flags_per_s", c["flag_maps.flags"], c["flag_maps.colour_s"], "1/s")
    ratio("flag_maps.colourable_ratio", c["flag_maps.colourable"],
          calls["flag_maps.is_alternate_edge_colourable"])
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["cli.exit_nonzero"] = (c["cli.exit_nonzero"], "count")
    ratio("trace.overhead_ratio", traced_s, untraced_s)
    return metrics, bases


def report(workload: str, tracer: Tracer, metrics: dict, bases: dict,
           out=sys.stdout) -> dict:
    """Print the traced-run report and return it as a dict: self time and
    calls per layer with its share of traced op time, then every ratio with
    its base."""
    calls, self_s = tracer.self_times()
    total = sum(self_s.values())
    rows = sorted(self_s, key=lambda name: -self_s[name])
    layers = {name: {"calls": calls[name], "self_s": round(self_s[name], 6),
                     "share": round(self_s[name] / total, 4) if total else 0.0}
              for name in rows}
    print(f"# traced run of {workload}: self time by layer "
          f"(total {total:.3f} s over {calls[OP]} ops)", file=out)
    for name in rows:
        row = layers[name]
        print(f"#   {name:42s} {row['self_s']:10.4f} s {100 * row['share']:6.1f} % "
              f"{row['calls']:10d} calls", file=out)
    print("# ratios (value = numerator / denominator)", file=out)
    for name, (num, den) in bases.items():
        print(f"#   {name:42s} {metrics[name][0]:12.4f} = {num:.6g} / {den:.6g}",
              file=out)
    return {"layers": layers,
            "ratios": {name: {"value": metrics[name][0], "numerator": num,
                              "denominator": den}
                       for name, (num, den) in bases.items()}}


def dump_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
