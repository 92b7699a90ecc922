#!/usr/bin/env python3
"""braidhopf benchmark: one workload in one fresh single-threaded process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One closed-loop client runs passes over the workload's items for about
``--seconds`` seconds, each item only after the previous one returned, and
checks every output against ``golden.json``.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter

import workloads as wl
from spans import Tracer, self_times
from speed import REFERENCE_S, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Fixed per workload so the statistic means the same on every commit: the
# highest of 50/75/90/95/99 that leaves at least 10 samples above it at the
# baseline sample count (README.md has the counts).
TAIL_PERCENTILE = {"corpus": 99, "s4": 50, "families": 50, "mutants": 75}
# Set-up is repeated at least this often and for at least this long (or for
# --seconds, if shorter); the median is reported.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
    ("checks_per_s", "1/s"), ("peak_rss_mb", "MB"),
]

_COUNTED = {
    "linalg.elim": ("cells", "pivots"),
    "linalg.pipeline": ("columns", "factor_stages", "plain_stages", "out_nnz"),
    "linalg.product": ("out_nnz",),
    "report.compare": ("entries", "fails"),
    "textio.parse": ("bytes",),
    "cli.dispatch": (),
    "category.braiding": (),
    "category.morphism_report": (),
}
_SELF_ONLY = ("hopf", "weakproj", "products", "filtration")
_UNITS = {"calls": "count", "self_s": "s", "bytes": "B"}

PER_LAYER = []
for _layer, _counters in _COUNTED.items():
    for _metric in ("calls", "self_s", *_counters):
        PER_LAYER.append((f"{_layer}.{_metric}", _UNITS.get(_metric, "count")))
PER_LAYER.insert(PER_LAYER.index(("report.compare.fails", "count")) + 1,
                 ("report.compare.useful_ratio", "ratio"))
PER_LAYER += [(f"{layer}.self_s", "s") for layer in (*_SELF_ONLY, "builders")]
PER_LAYER += [("repo.src_lines", "lines"), ("trace.overhead_s", "s"), ("error_ratio", "ratio")]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def environment() -> dict:
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "braidhopf", "*.py")))
    sha = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        sha.update(data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "src_sha256": sha.hexdigest()[:16], "src_lines": lines}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.intervals: list[tuple] = []    # per item: (start, end, first, last probe sample)
        self.latencies: list[float] = []    # per item, set by settle()
        self.checks = 0
        self.bad: list[tuple[str, list[str]]] = []
        self.layers: dict = {}

    def settle(self, probe) -> None:
        self.latencies = [probe.corrected(*r) if probe else r[1] - r[0]
                          for r in self.intervals]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(end - start for start, end, _, _ in self.intervals)


def run_pass(work, order, probe=None, tracer=None, number=0) -> Pass:
    out = Pass(tracer is not None)
    mark = probe.mark if probe else (lambda: 0)
    gc.collect()
    for k in order:
        item_id, run = work.items[k]
        if tracer is not None:
            tracer.item = (number, item_id)
        first = mark()
        start = perf_counter()
        try:
            code, text, checks = run()
        except Exception as exc:  # an item that raises is a failed item, not a crash
            code, text, checks = -1, f"raised {exc!r}", ()
        end = perf_counter()
        out.intervals.append((start, end, first, mark()))
        out.checks += len(checks)
        problems = wl.check_item(work, item_id, code, text, checks)
        if problems:
            out.bad.append((item_id, problems))
    return out


def layer_metrics(spans, counts) -> dict:
    own = self_times(spans)
    out = {}
    for layer, counters in _COUNTED.items():
        out[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
        for c in counters:
            out[f"{layer}.{c}"] = counts.get(f"{layer}.{c}", 0)
    materialized = counts.get("report.compare.materialized", 0)
    out["report.compare.useful_ratio"] = (
        counts.get("report.compare.needed", 0) / materialized if materialized else 1.0)
    for layer in _SELF_ONLY:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def write_spans(path: str, header: dict, spans) -> None:
    index = {id(s): k for k, s in enumerate(spans)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in spans:
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(json.dumps([s.layer, s.func, s.start, s.end, parent, s.item]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest item list of the workload (for the smoke test)")
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "braidhopf", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "corpus"))):
        print("error: src/braidhopf and corpus/ not found; run from a braidhopf checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    probe = None if args.trace else SpeedProbe()
    begin = perf_counter()
    with probe or contextlib.nullcontext():
        setups = []
        while (len(setups) < SETUP_REPEATS
               or perf_counter() - begin < min(SETUP_MIN_S, args.seconds)):
            gc.collect()
            first = probe.mark() if probe else 0
            start = perf_counter()
            mods = wl.load_modules()
            golden = wl.load_golden()
            work = wl.prepare(mods, args.workload, args.seed, golden, args.smoke)
            setups.append((start, perf_counter(), first, probe.mark() if probe else 0))
        passes, tracer, setup_spans, audit = measure(args, mods, golden, work, probe)
    for p in passes:
        p.settle(probe)

    env = environment()
    attempted = sum(len(p.intervals) for p in passes)
    failed = sum(len(p.bad) for p in passes)
    error_ratio = failed / attempted
    print(f"braidhopf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for item_id, problems in [bad for p in passes for bad in p.bad][:5]:
        print(f"MISMATCH {item_id}: {'; '.join(problems)}")
    for problem in audit:
        print(f"TRACE AUDIT: {problem}")

    plain = [p for p in passes if not p.traced]
    if not args.trace:
        print(f"speed probe: {len(probe.durations)} samples, median "
              f"{statistics.median(probe.durations) * 1e3:.4f} ms, "
              f"reference {REFERENCE_S * 1e3} ms")
        setup = [probe.corrected(*r) for r in setups]
        raw_setup = [r[1] - r[0] for r in setups]
        metrics = end_to_end(args.workload, plain, setup, raw_setup, len(work.items))
    else:
        traced = [p for p in passes if p.traced]
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        values["builders.self_s"] = self_times(setup_spans).get("builders", 0.0)
        values["repo.src_lines"] = env["src_lines"]
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        values["error_ratio"] = error_ratio
        metrics = {}
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<32} {values[name]:>14.6g} {unit}")
        print(f"{len(traced)} traced and {len(plain)} untraced passes; "
              f"per-layer values are medians per traced pass")
        if tracer.missing:
            print("not wrapped (absent from the program): " + ", ".join(tracer.missing))
        header = {"workload": args.workload, "seed": args.seed, "env": env,
                  "calls": tracer.calls, "missing": tracer.missing,
                  "pass_wall_s": traced[0].wall,
                  "span": ["layer", "function", "start", "end", "parent", "item"]}
        suffix = "-smoke" if args.smoke else ""
        write_spans(os.path.join(OUT_DIR, f"trace-{args.workload}{suffix}-seed{args.seed}.jsonl"),
                    header, setup_spans + tracer.first_pass)
    print(f"error_ratio {error_ratio:g}: {failed} of {attempted} items differ from golden")
    correct = failed == 0 and not audit
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(args, mods, golden, work, probe):
    """Closed loop: passes until the next one would end after --seconds.

    With --trace 1, passes alternate untraced and traced, and the inputs
    are generated once more under the tracer so set-up spans are recorded.
    """
    audit: list[str] = []
    tracer, setup_spans = None, []
    if args.trace:
        tracer = Tracer(mods)
        tracer.install()
        audit += [f"not rebound: {name}" for name in tracer.unbound()]
        work = wl.prepare(mods, args.workload, args.seed, golden, args.smoke)
        setup_spans, _ = tracer.take()
        tracer.uninstall()
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    passes: list[Pass] = []
    begin = perf_counter()
    while True:
        order = rng.sample(range(len(work.items)), len(work.items))
        if args.trace and len(passes) % 2 == 1:
            tracer.install()
            p = run_pass(work, order, tracer=tracer, number=len(passes))
            tracer.uninstall()
            spans, counts = tracer.take()
            if not tracer.first_pass:
                tracer.first_pass = spans
            p.layers = layer_metrics(spans, counts)
            summed = sum(self_times(spans).values())
            if summed > p.raw_wall:
                audit.append(f"pass {len(passes)}: summed self time {summed:.4f} s "
                             f"exceeds pass wall {p.raw_wall:.4f} s")
        else:
            p = run_pass(work, order, probe=probe)
        passes.append(p)
        elapsed = perf_counter() - begin
        if len(passes) >= (2 if args.trace else 1) and elapsed + p.raw_wall > args.seconds:
            return passes, tracer, setup_spans, audit


def end_to_end(workload: str, plain: list[Pass], setup: list[float], raw_setup: list[float],
               items: int) -> dict:
    latencies = [x for p in plain for x in p.latencies]
    raw = [end - start for p in plain for start, end, _, _ in p.intervals]
    q = TAIL_PERCENTILE[workload]
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": (statistics.median(setup), statistics.median(raw_setup)),
        "wall_s": (statistics.median(p.wall for p in plain),
                   statistics.median(p.raw_wall for p in plain)),
        "item_p50_ms": (statistics.median(latencies) * 1e3, statistics.median(raw) * 1e3),
        "item_tail_ms": (percentile(latencies, q) * 1e3, percentile(raw, q) * 1e3),
        "checks_per_s": (statistics.median(p.checks / p.wall for p in plain),
                         statistics.median(p.checks / p.raw_wall for p in plain)),
        "peak_rss_mb": (usage / 1024, usage / 1024),
    }
    tail = percentile(latencies, q)
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "wall_s": f"median of {len(plain)} passes of {items} items",
        "item_p50_ms": f"{len(latencies)} samples",
        "item_tail_ms": f"p{q} of {len(latencies)} samples, "
                        f"{sum(x > tail for x in latencies)} above",
        "checks_per_s": f"{plain[0].checks} checks per pass",
        "peak_rss_mb": "ru_maxrss of this process and its children",
    }
    print(f"{'metric':<14} {'corrected':>12} {'raw':>12} unit")
    metrics = {}
    for name, unit in END_TO_END:
        value, raw_value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<14} {value:>12.6g} {raw_value:>12.6g} {unit:<4} {notes[name]}")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
