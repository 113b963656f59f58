"""Smoke test of the benchmark: a tiny run of every workload.

For each workload it checks that every metric BENCHMARK.json names is
printed with its unit, that no op fails, and that the per-layer counts
of two traced runs with the same seed are identical.

Run from the repository root, either directly or under pytest (the file
name keeps it out of the default test collection):

    python3 perfbench/check_smoke.py
    python3 -m pytest -q perfbench/check_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED, SECONDS = "7", "1"
TIMED_UNITS = {"s", "ns/letter", "ratio"}  # per-layer metrics that are not counts


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, specs: list) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def check_workload(workload: str) -> None:
    check_result(run(workload, 0), SPEC["end_to_end"])
    first, second = run(workload, 1), run(workload, 1)
    for result in (first, second):
        check_result(result, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIMED_UNITS]
    assert counts
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_share():
    check_workload("share")


def test_decide():
    check_workload("decide")


def test_auth():
    check_workload("auth")


def test_attack():
    check_workload("attack")


if __name__ == "__main__":
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"{w['name']}: ok")
