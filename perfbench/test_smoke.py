"""Smoke test of the benchmark at tiny sizes; takes a few seconds.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(name, trace):
    *_, result, errors = run.run_workload(
        name, seed=3, seconds=0, trace=trace, scale="tiny", probes=1)
    return result, errors


def test_every_metric_is_emitted_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workloads.WORKLOADS:
            result, errors = _run(name, trace)
            assert result["correct"] and result["failed"] == 0, errors
            assert {k: m["unit"] for k, m in result["metrics"].items()} == want
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_planted_wrong_tree_lands_in_failed():
    pkg = workloads.load_program()
    construct, graph = pkg.construct, pkg.graph
    right = construct.construct_max_tree

    def path_instead(d):
        n = right(d).n
        return graph.Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    construct.construct_max_tree = path_instead
    try:
        result, errors = _run("large", 0)
    finally:
        construct.construct_max_tree = right
    planted = sum(len(spec[0]) for kind, spec in workloads.LARGE["tiny"].items()
                  if kind in ("construct", "check"))
    assert not result["correct"]
    assert result["failed"] == planted
    assert all("realize" in e or "paths" in e for e in errors)


def test_last_line_follows_the_result_contract():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


if __name__ == "__main__":
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "-q", __file__]))
