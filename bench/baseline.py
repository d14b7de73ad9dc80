"""Repeat benchmark runs and summarise them.

    python3 bench/baseline.py [--out bench/BENCH_baseline.json]

For each workload in BENCHMARK.json: RUNS untraced runs, each with its
own seed (1 to RUNS), and one traced run.  Then a repeat set of RUNS
more untraced runs per workload (seeds RUNS+1 to 2*RUNS), to see whether
two sets of runs of the same code agree.  Prints, per end-to-end metric,
the median and the spread (interquartile range over median) beside a
third of the metric's bound, and for the repeat set how far its median
moved from the first set's, in the worse direction, beside the bound.
Writes everything, with the environment and each workload's query mix,
to ``--out``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10

#: Which end-to-end metric each layer's metrics should move, per workload.
LAYER_TO_END_TO_END = {
    "formula": {"should_move": ["proof latency_p50_ms (parse_sequent before each search)",
                                "proof throughput_qps (from_json_dict parses one "
                                "conclusion per node)",
                                "cli latency_p50_ms"]},
    "matrix": {"should_move": ["semantics throughput_qps", "semantics latency_p90_ms"],
               "must_not_raise": ["semantics latency_p50_ms"]},
    "relational": {"should_move": ["semantics throughput_qps"]},
    "nd": {"should_move": ["proof latency_p90_ms and throughput_qps (search)",
                           "proof latency_p50_ms (depth-6 search)",
                           "proof throughput_qps (check and from_json_dict)"]},
    "fc": {"should_move": ["cli throughput_qps"], "watch": ["setup_s"]},
    "cli": {"should_move": ["cli latency_p50_ms", "setup_s"]},
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "git_rev": rev}


def workload_mix(name: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import workloads
    cls = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        w = cls(ROOT, 0, workdir)
        mix = collections.Counter(q.kind for q in w.deck())
    return {"loop": "closed", "callers": 1, "seed_argument": "--seed",
            "deck_size": cls.deck_size, "min_queries": cls.min_queries,
            "mix_per_deck": dict(sorted(mix.items())),
            "why": " ".join(cls.__doc__.split()) if cls.__doc__ else ""}


def run_set(spec: dict, first_seed: int) -> dict:
    """RUNS untraced runs per workload, seeds from ``first_seed``."""
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in range(first_seed, first_seed + RUNS):
            result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}", file=sys.stderr)
        entry = {"seeds": [first_seed, first_seed + RUNS - 1],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "bound": metric["bound"], "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
        workloads[name] = entry
    return workloads


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    report = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "layer_to_end_to_end": LAYER_TO_END_TO_END,
              "workloads": run_set(spec, 1)}
    for name, entry in report["workloads"].items():
        entry["mix"] = workload_mix(name)
        traced = run_once(name, 1, spec["run_seconds"], 1)
        entry["traced"] = {"seed": 1, "attempted": traced["attempted"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
    repeat = run_set(spec, RUNS + 1)
    report["repeat_set"] = {"workloads": repeat}
    for name, entry in report["workloads"].items():
        for metric in spec["end_to_end"]:
            first = entry["end_to_end"][metric["name"]]
            second = repeat[name]["end_to_end"][metric["name"]]
            second["worse_than_first_set"] = worsening(metric, first["median"], second["median"])
            for label, summary in (("first ", first), ("repeat", second)):
                flag = "ok" if summary["spread"] < metric["bound"] / 3 else "WIDE"
                print(f"{name:10s} {label} {metric['name']:16s} median {summary['median']:12.4f} "
                      f"spread {summary['spread']:7.4f} (bound/3 {metric['bound'] / 3:.4f}) {flag}")
            worse = second["worse_than_first_set"]
            print(f"{name:10s} repeat {metric['name']:16s} worse than first set by {worse:7.4f} "
                  f"(bound {metric['bound']:.4f}) {'ok' if worse <= metric['bound'] else 'OVER'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
