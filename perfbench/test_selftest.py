"""Self-test of the benchmark: every workload at its smallest sizes, traced
and untraced, against the result schema of BENCHMARK.json; plus checks that
the output checks catch wrong answers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_run_matches_schema(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    info = json.loads(info_line)
    assert info["seed"] == 3 and info["trace"] == trace
    assert info["src_lines"] > 0 and info["nproc"] >= 1 and info["python"]
    assert len(info["stdout_sha256"]) == 64 and info["stdout_ops"] >= 1


def test_same_seed_gives_same_output():
    digests = set()
    for _ in range(2):
        proc = bench("--workload", "family-analyze", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--smoke")
        digests.add(json.loads(proc.stdout.splitlines()[-2])["stdout_sha256"])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "catalog-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the checks reject wrong answers ------------------------------------------

def torus_report(**changes) -> str:
    data = {"order": 64, "k": 4, "l": 4, "V": 16, "F": 16, "chi": 0,
            "orientable": True, "genus": 1, "fully_regular": True}
    data.update(changes)
    return json.dumps(data)


def test_family_check_rejects_wrong_invariants():
    expected, proper = workloads.family_expectation("torus-rect", {"a": 4, "c": 4})
    check = workloads.closed_map_check(expected, proper)
    assert check(0, torus_report()) is None
    assert check(0, torus_report(chi=2)) is not None
    assert check(0, torus_report(fully_regular=False)) is not None
    assert check(1, torus_report()) is not None


def dihedral_class(row: int, m: int) -> dict:
    (k, l), chi, (V, F), regular = workloads.DIHEDRAL_ROW_FORMS[row](m)
    return {"class_size": 1, "type": [k, l], "chi": chi, "V": V, "F": F,
            "orientable": row < 3, "fully_regular": regular, "table_row": row}


def test_sweep_check_needs_every_allowed_row():
    check = workloads.sweep_check(12, True, workloads.CHI_TABLE_FLAGS)
    classes = [dihedral_class(row, 6) for row in (1, 2, 3, 4)]
    assert check(0, json.dumps(classes)) is None
    assert check(0, json.dumps(classes[:3])) is not None
    classes[0]["table_row"] = None
    assert check(0, json.dumps(classes)) is not None


def test_witness_check_rejects_a_wrong_colouring():
    rotations, pairing = workloads.grid_rotation_system(4, 4, diagonal=False)
    edges = sorted({min(d, pairing[d]) for d in range(len(pairing))})
    witness = [d % 2 for d in edges]  # east and west darts are even
    assert workloads.witness_error(rotations, pairing, witness) is None
    witness[3] = 1 - witness[3]
    assert workloads.witness_error(rotations, pairing, witness) is not None
