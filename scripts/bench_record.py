#!/usr/bin/env python3
"""Record the benchmark's numbers for one change in ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py 24
    python3 scripts/bench_record.py 24 --runs 3 --seconds 5 --suite kS4 --out /tmp

For each workload of ``BENCHMARK.json`` it makes --runs untraced runs of
``perfbench/run.py`` on seed 1, --seconds each, one after another in fresh
processes, and keeps the median of each end-to-end metric.  One traced
``families`` run of the same length adds the per-layer numbers.  Then the
axiom suite of one group algebra (``verify_bialgebra`` plus
``verify_antipode`` on kS3, kS4, kS5 or kC<n>; kS5 by default) runs
SUITE_RUNS (5) times in a child process of its own, which reports its check
count, verdict, peak resident set size (``ru_maxrss``) and, as ``wall_s``,
the fastest of those runs: one raw run of the kS5 suite varies from 0.12
to 0.19 s with the processor's speed, and the minimum varies least.

``cold_start`` times what one fresh process pays: ``python -c pass``, ``python
-c "import braidhopf.cli"`` and ``python -m braidhopf --report machine check
hopf corpus/algebras/c2.alg``, each a child of this interpreter.  The three
run one at a time, in turn, three rounds per --runs (15 by default); the
entry keeps the best and the median wall time of each.  An import compiles
the source unless ``__pycache__`` holds bytecode for this interpreter, so the
entry also records whether every package module had it before the first
round and after the last (``PYTHONDONTWRITEBYTECODE`` keeps a child from
writing it).

The file, written to --out (the repository root by default), is JSON with
sorted keys.  ``src_sha256`` and ``src_lines`` identify the source that was
measured; ``commit`` is the HEAD it was measured at.  Nothing is written,
and the exit status is 1, when a run reports an output that differs from
``perfbench/golden.json`` or a check of the suite fails.
"""

import argparse
import importlib.util
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 1
SUITE_RUNS = 5
SUITE = re.compile(r"kS([345])|kC([1-9][0-9]*)")
# name -> the arguments of the interpreter that one cold_start child runs
COLD_START = {"python_pass": ["-c", "pass"],
              "import_cli": ["-c", "import braidhopf.cli"],
              "check_hopf_c2": ["-m", "braidhopf", "--report", "machine", "check", "hopf",
                                "corpus/algebras/c2.alg"]}


def suite_name(name: str) -> str:
    if SUITE.fullmatch(name) is None:
        raise argparse.ArgumentTypeError(f"expected kS3, kS4, kS5 or kC<n>, got {name!r}")
    return name


def run_workload(workload: str, seconds: float, trace: int) -> dict:
    """The JSON result line of one run.py process, with its env line as "env"."""
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("env "))
    result["env"] = dict(pair.split("=", 1) for pair in env.split()[1:])
    return result


def axiom_suite(name: str) -> dict:
    """The axiom suite of one group algebra, timed SUITE_RUNS times in this
    process; wall_s is the fastest run."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from braidhopf.builders import cyclic_group, group_algebra, symmetric_group
    from braidhopf.hopf import verify_antipode, verify_bialgebra
    from braidhopf.report import make_report

    s, c = SUITE.fullmatch(name).groups()
    h = group_algebra(symmetric_group(int(s)) if s else cyclic_group(int(c)))
    walls = []
    for _ in range(SUITE_RUNS):
        start = time.perf_counter()
        report = make_report(name, verify_bialgebra(h) + verify_antipode(h))
        walls.append(time.perf_counter() - start)
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"algebra": name, "dim": h.dim, "checks": len(report.checks),
            "overall": report.overall, "wall_s": min(walls), "peak_rss_mb": peak_mb}


def bytecode_cached() -> bool:
    """Whether __pycache__ holds bytecode of every package module for this interpreter."""
    package = os.path.join(ROOT, "src", "braidhopf")
    return all(os.path.exists(importlib.util.cache_from_source(os.path.join(package, f)))
               for f in os.listdir(package) if f.endswith(".py"))


def cold_start(repeats: int) -> dict:
    """Best and median wall time of each COLD_START child over repeats
    rounds, the children run one at a time and in turn."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    cached_before = bytecode_cached()
    walls = {name: [] for name in COLD_START}
    for _ in range(repeats):
        for name, args in COLD_START.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            walls[name].append(time.perf_counter() - start)
    entry = {name: {"best_s": min(w), "median_s": statistics.median(w)}
             for name, w in walls.items()}
    return {**entry, "repeats": repeats, "bytecode_cached_before": cached_before,
            "bytecode_cached_after": bytecode_cached()}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--axiom-suite":
        print(json.dumps(axiom_suite(argv[1])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the number in the file name")
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--seconds", type=float, default=25, help="length of each run")
    parser.add_argument("--suite", type=suite_name, default="kS5",
                        help="the group algebra whose axiom suite is timed")
    parser.add_argument("--out", default=ROOT, help="directory the file is written to")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    end_to_end, wrong = {}, []
    for workload in workloads:
        results = []
        for k in range(args.runs):
            results.append(run_workload(workload, args.seconds, 0))
            print(f"{workload} run {k + 1}/{args.runs}: "
                  f"wall_s {results[-1]['metrics']['wall_s']['value']:.4g}", flush=True)
        wrong += [workload for r in results if not r["correct"]]
        end_to_end[workload] = {name: statistics.median(r["metrics"][name]["value"]
                                                        for r in results)
                                for name in results[0]["metrics"]}
    traced = run_workload("families", args.seconds, 1)
    if not traced["correct"]:
        wrong.append("families (traced)")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--axiom-suite",
                           args.suite], capture_output=True, text=True, check=True)
    suite = json.loads(done.stdout)
    cold = cold_start(3 * args.runs)
    if wrong or suite["overall"] != "pass":
        print(f"not written: wrong outputs in {sorted(set(wrong))}, "
              f"axiom suite {suite['overall']}", file=sys.stderr)
        return 1

    env = traced["env"]
    record = {"pr": args.pr, "seed": SEED, "runs": args.runs, "seconds": args.seconds,
              "commit": env["commit"], "src_sha256": env["src_sha256"],
              "src_lines": int(env["src_lines"]), "python": env["python"],
              "nproc": int(env["nproc"]), "end_to_end": end_to_end,
              "per_layer": {"families": {name: m["value"]
                                         for name, m in traced["metrics"].items()}},
              "axiom_suite": suite, "cold_start": cold}
    path = os.path.join(args.out, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
