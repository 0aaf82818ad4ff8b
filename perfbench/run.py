"""Closed-loop benchmark of the ebrmaps toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one op at a time, in this single process, until ``--seconds``
have passed and at least one round of the op list is complete.  The inputs
come from ``--seed`` alone.  Every op's output is checked by ``workloads.py``
without calling into ebrmaps.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
rounds of the op list once untraced and once with spans around every layer
(see ``tracer.py``), and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it summarises the run record (seed, Python
version, nproc, line count of ``src/ebrmaps``, sha256 of all op output); the
whole record goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS, Op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MODULES = ("perm_group", "presentation", "ebr_core", "enumeration", "families",
           "constructions", "flag_maps", "cli")

# The speed of this kind of shared host drifts by up to 1.8x within minutes,
# moving every op alike, so raw times of two runs minutes apart differ by
# more than any regression worth catching.  Before each op the benchmark
# times calibrate(), a fixed pure-Python workload that never calls ebrmaps,
# and scales each time by REFERENCE_S / (rolling median of the calibrations
# around it): times read as on a host where calibrate() takes REFERENCE_S.
# The raw wall times stay in the run record.
REFERENCE_S = 0.008
CALIBRATION_WINDOW = 9


def calibrate() -> float:
    """Seconds to build the Cayley table of the dihedral group of order 60
    from tuples and a dict, as the library does; collected garbage first so
    that the previous op's heap does not leak into the timing."""
    gc.collect()
    start = time.perf_counter()
    n = 30
    perms = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    perms += [tuple((k - i) % n for i in range(n)) for k in range(n)]
    index = {p: i for i, p in enumerate(perms)}
    [[index[tuple(q[i] for i in p)] for q in perms] for p in perms]
    return time.perf_counter() - start


def rolling_median(values: list[float], width: int) -> list[float]:
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def import_ebrmaps() -> SimpleNamespace:
    """A fresh import of ebrmaps from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "ebrmaps" or m.startswith("ebrmaps.")]:
        del sys.modules[name]
    package = importlib.import_module("ebrmaps")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ebrmaps was imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"ebrmaps.{name}") for name in MODULES}
    names = {k: v for k, v in vars(package).items() if not k.startswith("_")}
    names.update(modules, modules=modules)
    return SimpleNamespace(**names)


def set_up(workload, seed: int, smoke: bool, workdir: str):
    """Import ebrmaps and generate the inputs: (ebr, ops, ops per round)."""
    ebr = import_ebrmaps()
    rng = random.Random(f"{workload.name}:{seed}")
    rounds = workload.plan(rng, smoke)
    ops = []
    for round_ in rounds:
        for spec in round_:
            ops.append(workload.materialise(ebr, spec, workdir, len(ops)))
    return ebr, ops, len(rounds[0])


def execute(ebr, op: Op):
    """Run one op: (exit code, output text, latency in seconds)."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ebr.cli.main(op.argv)
        return rc, out.getvalue(), time.perf_counter() - start
    presentation = ebr.presentation
    start = time.perf_counter()
    try:
        group = presentation.coset_enumerate(presentation.parse_presentation(op.text),
                                             max_cosets=op.budget)
    except presentation.CosetLimitExceeded:
        return 0, "CosetLimitExceeded", time.perf_counter() - start
    latency = time.perf_counter() - start
    return 0, json.dumps({"order": group.order,
                          "generators": [list(g.images) for g in group.generators]}), latency


class Outcomes:
    """Per-op results: latencies, failures, and one output digest per op of
    the list (a repeat must reproduce it exactly)."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.stdout_bytes = 0

    def run(self, ebr, index: int, runner=execute) -> None:
        slot = index % len(self.ops)
        op = self.ops[slot]
        self.labels.append(op.label)
        try:
            rc, output, latency = runner(ebr, op)
        except Exception as exc:  # an op that raised is a failed op
            self.latencies.append(0.0)
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(latency)
        self.stdout_bytes += len(output.encode())
        digest = hashlib.sha256(output.encode()).hexdigest()
        if slot not in self.digests:
            self.digests[slot] = digest
            problem = op.check(rc, output)
        elif self.digests[slot] != digest:
            problem = "output differs from the first run of the same op"
        else:
            problem = None
        if problem:
            self.failures.append(f"{op.label}: {problem}")

    def stdout_sha256(self) -> str:
        """sha256 over the digests of every distinct op run, in op order."""
        h = hashlib.sha256()
        for slot in sorted(self.digests):
            h.update(self.digests[slot].encode())
        return h.hexdigest()

    def summary(self) -> dict:
        by_label: dict[str, list[float]] = {}
        for label, latency in zip(self.labels, self.latencies):
            by_label.setdefault(label, []).append(latency)
        for failure in self.failures[:20]:
            print(f"# FAILED {failure}", file=sys.stderr)
        return {"attempted": len(self.latencies), "failed": len(self.failures),
                "failures": self.failures[:20],
                "stdout_sha256": self.stdout_sha256(), "stdout_ops": len(self.digests),
                "latency_by_op": {label: {"n": len(v),
                                          "median_ms": 1000 * statistics.median(v)}
                                  for label, v in sorted(by_label.items())}}


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the percentile: a Beta-weighted mean of the
    order statistics around its rank, which moves smoothly when noise swaps
    two neighbouring ops.  The Beta(p(n+1), (1-p)(n+1)) weights are taken at
    the rank midpoints."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log(1 - x)
            for x in ((i + 0.5) / n for i in range(n))]
    weights = [math.exp(w - max(logs)) for w in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "ebrmaps", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, ebr, ops, round_len, args, setup) -> dict:
    outcomes = Outcomes(ops)
    calibrations = []
    deadline = time.perf_counter() + args.seconds
    while len(calibrations) < round_len or time.perf_counter() < deadline:
        calibrations.append(calibrate())
        outcomes.run(ebr, len(calibrations) - 1)

    # Every statistic comes from the complete rounds, which all have the
    # same mix; the last, partial round would change the mix with speed.
    done = len(outcomes.latencies)
    whole = done - done % round_len
    raw = outcomes.latencies[:whole]
    scale = [REFERENCE_S / c for c in rolling_median(calibrations, CALIBRATION_WINDOW)]
    latencies = [x * f for x, f in zip(raw, scale)]
    pct = workload.tail_percentile
    tail = percentile(latencies, pct)
    setup_scale = REFERENCE_S / statistics.median(setup["calibrations"])
    metrics = {
        "setup_s": metric(setup_scale * statistics.median(setup["seconds"]), "s"),
        "ops_per_s": metric(whole / sum(latencies), "1/s"),
        "op_p50_ms": metric(1000 * percentile(latencies, 50), "ms"),
        "op_tail_ms": metric(1000 * tail, "ms"),
        "ok_ratio": metric((done - len(outcomes.failures)) / done, "fraction"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }
    return {"metrics": metrics,
            "raw_wall": {"setup_s": statistics.median(setup["seconds"]),
                         "ops_per_s": whole / sum(raw),
                         "op_p50_ms": 1000 * percentile(raw, 50),
                         "op_tail_ms": 1000 * percentile(raw, pct)},
            "calibration_ms": 1000 * statistics.median(calibrations),
            "tail_percentile": pct, "latency_samples": whole,
            "tail_beyond": sum(1 for x in latencies if x > tail),
            "latencies_ms": [round(1000 * x, 3) for x in outcomes.latencies],
            "calibrations_ms": [round(1000 * x, 3) for x in calibrations],
            "setup": setup, **outcomes.summary()}


def traced(workload, ebr, ops, round_len, tag) -> dict:
    """The first ``trace_rounds`` rounds untraced, then the same ops traced."""
    count = round_len * workload.trace_rounds

    def run_all(outcomes, runner):
        start = time.perf_counter()
        for index in range(count):
            outcomes.run(ebr, index, runner)
        return time.perf_counter() - start

    plain = Outcomes(ops)
    untraced_s = run_all(plain, execute)

    tracer = tracing.Tracer()
    tracer.install(ebr.modules)
    traced_op = tracer.wrap(tracing.OP, execute)

    def runner(ebr_, op):
        tracer.current_op += 1
        return traced_op(ebr_, op)

    spanned = Outcomes(ops)
    try:
        traced_s = run_all(spanned, runner)
    finally:
        tracer.uninstall()
    if spanned.stdout_sha256() != plain.stdout_sha256():
        spanned.failures.append("traced output differs from untraced output")

    tracer.write(os.path.join(OUT, "results", f"{workload.name}.spans.tsv.gz"))
    values, bases = tracing.per_layer_metrics(tracer, spanned.stdout_bytes,
                                              untraced_s, traced_s)
    layer_report = tracing.report(workload.name, tracer, values, bases)
    result = spanned.summary()
    result["failures"] = plain.failures[:10] + result["failures"]
    result["failed"] += len(plain.failures)
    result["attempted"] += len(plain.latencies)
    return {"metrics": {name: metric(v, unit) for name, (v, unit) in values.items()},
            "report": layer_report, "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.start), **result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, one round (for the self-test)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    try:
        import_ebrmaps()
    except ImportError as exc:
        print(f"perfbench: cannot import ebrmaps from {SRC}: {exc}", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "inputs", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        setup = {"seconds": [], "calibrations": []}
        for _ in range(SETUP_REPEATS):
            setup["calibrations"].append(calibrate())
            start = time.perf_counter()
            ebr, ops, round_len = set_up(workload, args.seed, args.smoke, workdir)
            setup["seconds"].append(time.perf_counter() - start)
        if args.trace:
            result = traced(workload, ebr, ops, round_len, tag)
        else:
            result = untraced(workload, ebr, ops, round_len, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "src_lines": src_lines(), **result}
    tracing.dump_json(os.path.join(OUT, "results", f"{tag}.json"), record)
    brief = ("workload", "seed", "trace", "python", "nproc", "src_lines", "stdout_sha256",
             "stdout_ops", "raw_wall", "calibration_ms", "tail_percentile",
             "latency_samples", "tail_beyond", "untraced_s", "traced_s", "spans")
    print(json.dumps({k: record[k] for k in brief if k in record}))
    print(json.dumps({"correct": not result["failed"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
