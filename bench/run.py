"""cnl4 benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload semantics --seed 1 --seconds 20 --trace 0

Run from the root of a cnl4 checkout; the program is imported from
``src/``.  One caller runs queries in a closed loop: the next query
starts when the previous one has returned (for ``cli``, when its process
has exited).  Whole decks of queries run until ``--seconds`` have passed
and at least ``min_queries`` have completed.  Every answer is judged
against the reference in ``refmodel``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` re-runs with spans recorded around
every layer entry point and reports per-layer metrics instead, plus the
tracing overhead measured by replaying the same queries untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from workloads import Outcome, child_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
INTERPRETER_REPEATS = 7


def setup_seconds(code: str) -> float:
    """Median time, over fresh interpreters, to run ``code`` (an import
    plus any warm-up call), timed inside the child."""
    probe = ("import time\n_t = time.perf_counter()\n" + code
             + "\nprint(time.perf_counter() - _t)")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(ROOT),
                             capture_output=True, text=True, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def interpreter_ms() -> float:
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000


class Loop:
    """Closed-loop runner: runs decks, times each query, judges answers."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.latencies: list[float] = []
        self.deck_rates: list[float] = []   # queries per second of each deck
        self.verdicts = {"ok": 0, "failed": 0, "wrong": 0}

    def done(self, start: float, seconds: float) -> bool:
        return (time.perf_counter() - start >= seconds
                and len(self.latencies) >= self.w.min_queries)

    def run_query(self, q, execute, judge) -> float:
        start = time.perf_counter()
        try:
            out = Outcome(execute(q))
        except Exception as exc:  # a crash is a failed query, not a benchmark error
            out = Outcome(error=exc)
        elapsed = time.perf_counter() - start
        self.verdicts[judge(q, out)] += 1
        return elapsed

    def run_deck(self, deck, execute, tracer=None) -> None:
        first = len(self.latencies)
        if tracer is None:
            for q in deck:
                self.latencies.append(self.run_query(q, execute, self.w.judge))
        else:
            judge = tracer.wrap("bench.judge", "bench", self.w.judge)
            for q in deck:
                tracer.query = len(self.latencies)
                with tracer.span("bench.query", "bench"):
                    self.latencies.append(self.run_query(q, execute, judge))
        self.deck_rates.append(len(deck) / sum(self.latencies[first:]))

    def run(self, seconds: float) -> None:
        """New decks until ``seconds`` have passed and enough queries ran."""
        start = time.perf_counter()
        while not self.done(start, seconds):
            self.run_deck(self.w.deck(), self.w.execute)


def end_to_end(workload, seconds: float) -> dict:
    loop = Loop(workload)
    loop.run(seconds)
    lat = loop.latencies
    return {
        "loop": loop,
        "metrics": {
            # decks share one mix, so each deck's rate estimates the same
            # throughput; their median discards decks that ran while the
            # machine was busy with something else
            "throughput_qps": (statistics.median(loop.deck_rates), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "ok_frac": (loop.verdicts["ok"] / len(lat), "ratio"),
        },
    }


def traced(workload, seconds: float) -> dict:
    """Run decks with spans recorded, each followed by an untraced replay
    of the same deck; alternating cancels slow drifts in machine speed
    out of the overhead estimate."""
    from tracing import PROGRAM_ENTRY_POINTS, Tracer, layer_metrics
    tracer = Tracer()
    loop, replay = Loop(workload), Loop(workload)
    if workload.name == "cli":
        # each child process installs the wrappers itself
        entry_points = []
        spans_path = os.path.join(workload.workdir, "spans.jsonl")
        child = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), spans_path]

        def execute(q):
            with tracer.span("cli.process", "cli"):
                parent = len(tracer.spans) - 1
                result = workload.execute(q, command=lambda argv: child + argv)
            tracer.load(spans_path, parent, tracer.query)
            return result
    else:
        entry_points = PROGRAM_ENTRY_POINTS + workload.ENTRY_POINTS
        execute = workload.execute

    wall = 0.0
    start = time.perf_counter()
    while not loop.done(start, seconds):
        deck = workload.deck()
        tracer.install(entry_points)
        with tracer.span("bench.deck", "bench"):
            deck_start = time.perf_counter()
            loop.run_deck(deck, execute, tracer)
            wall += time.perf_counter() - deck_start
        tracer.uninstall()
        replay.run_deck(deck, workload.execute)
    metrics = layer_metrics(tracer.spans, len(loop.latencies), wall)
    overheads = [plain / traced - 1 for plain, traced in zip(replay.deck_rates, loop.deck_rates)]
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    metrics["cli.interpreter_ms"] = (interpreter_ms(), "ms")
    return {"loop": loop, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("semantics", "proof", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cnl4", "__init__.py")):
        print(f"error: no cnl4 sources under {SRC}; run from a cnl4 checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        try:
            if args.trace:
                workload.warm_up()
                result = traced(workload, args.seconds)
            else:
                setup_s = setup_seconds(workload.setup_code)
                workload.warm_up()
                result = end_to_end(workload, args.seconds)
                result["metrics"]["setup_s"] = (setup_s, "s")
        finally:
            peak_rss_mb = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB")
    loop = result["loop"]
    metrics = result["metrics"]
    print(json.dumps({
        "correct": loop.verdicts["wrong"] == 0,
        "attempted": len(loop.latencies),
        "failed": loop.verdicts["failed"] + loop.verdicts["wrong"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
