"""Smoke test of the benchmark: every workload once, at its smallest size.

Each workload runs in its own process, untraced and traced, exactly as the
benchmark command does.  The test checks that every metric named in
BENCHMARK.json is printed with its unit, that no output differs from the
golden outputs, and that every traced function was called by some workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_prints_every_metric_and_matches_golden():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    calls: dict = {}
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_benchmark(workload, trace)
            assert result["correct"] is True, (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            if trace:
                assert result["metrics"]["error_ratio"]["value"] == 0
                suffix = f"trace-{workload}-smoke-seed1.jsonl"
                with open(os.path.join(HERE, "out", suffix), encoding="utf-8") as fh:
                    header = json.loads(fh.readline())
                assert not header["missing"], header["missing"]
                for qual, n in header["calls"].items():
                    calls[qual] = calls.get(qual, 0) + n
    wrapped = [qual for names in LAYERS.values() for qual in names]
    assert [q for q in wrapped if not calls.get(q)] == []
