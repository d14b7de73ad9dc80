"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import refmodel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Loop  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return refmodel.Reference(ROOT)


def test_reference_matches_golden_tables(ref):
    import cnl4
    path = os.path.join(refmodel.data_dir(ROOT), "matrix_tables.txt")
    with open(path, encoding="utf-8") as handle:
        entries = [line.split() for line in handle if line.strip()]
    assert len(entries) == 36
    for entry in entries:
        if entry[0] == "~":
            f, env, want = ("~", "x"), {"x": entry[1]}, entry[2]
        else:
            f, env, want = (entry[0], "x", "y"), {"x": entry[1], "y": entry[2]}, entry[3]
        assert ref.value(f, env) == want
        names, column = ref.rows(f)
        row = [ref.interpretation(names, k) for k in range(len(column))].index(env)
        assert column[row] == want
    assert cnl4.matrix.matrix_table_lines() == [" ".join(e) for e in entries]


def test_reference_agrees_with_is_consequence(ref):
    import cnl4
    rng = random.Random(2024)
    for _ in range(150):
        names = gen.atom_names(rng, rng.randint(1, 6))
        premises, conclusion = gen.random_sequent(rng, names, rng.randint(0, 3),
                                                  shared=rng.random() < 0.5)
        text = refmodel.render_sequent(premises, conclusion)
        sequent = cnl4.parse_sequent(text)
        assert str(sequent) == text
        verdict = cnl4.is_consequence(sequent)
        valid, witness, checked = ref.decide(premises, conclusion)
        assert (verdict.valid, verdict.checked) == (valid, checked), text
        got = None if verdict.witness is None else [(k, v.value) for k, v in verdict.witness.items()]
        assert got == (None if witness is None else list(witness.items())), text
        assert ref.rows(conclusion)[1] == [v.value for _, v in cnl4.truth_table(sequent.conclusion)]


def test_reference_parser_round_trips(ref):
    rng = random.Random(5)
    for _ in range(100):
        f = gen.random_formula(rng, gen.atom_names(rng, 4), 7, shared=True)
        assert refmodel.parse(refmodel.render(f)) == f
        assert refmodel.parse(workloads._loose(f)) == f


@pytest.mark.parametrize("name", ["semantics", "proof", "cli"])
def test_generation_is_deterministic(name, tmp_path):
    def first_decks(seed):
        w = workloads.WORKLOADS[name](ROOT, seed, str(tmp_path / f"{seed}-{len(os.listdir(tmp_path))}"))
        os.makedirs(w.workdir)
        decks = [w.deck() for _ in range(2)]
        return [[(q.kind, _plain(q.arg), q.expect) for q in deck] for deck in decks]

    one = first_decks(7)
    assert first_decks(7) == one
    assert first_decks(8) != one


def _plain(arg):
    # check-proof arguments name files numbered per workload; compare the
    # command, not where its file was written
    if isinstance(arg, list):
        return [os.path.basename(a) if a.endswith(".json") else a for a in arg]
    return arg


@pytest.mark.parametrize("name", ["semantics", "proof"])
def test_in_process_smoke_run_has_no_failures(name, tmp_path):
    w = workloads.WORKLOADS[name](ROOT, 3, str(tmp_path))
    w.warm_up()
    loop = Loop(w)
    loop.run(0)
    assert len(loop.latencies) == w.deck_size
    assert loop.verdicts == {"ok": w.deck_size, "failed": 0, "wrong": 0}


def test_cli_smoke_run_fails_only_on_deep_nesting(tmp_path):
    w = workloads.Cli(ROOT, 3, str(tmp_path))
    deck = w.deck()
    deep = sum(q.kind == "deep" for q in deck)
    assert deep == 1
    try:
        verdicts = [(q.kind, w.judge(q, workloads.Outcome(w.execute(q)))) for q in deck]
    finally:
        peak_mb = w.finish()
    assert peak_mb > 0
    assert all(verdict != "wrong" for _, verdict in verdicts)
    assert all(kind == "deep" for kind, verdict in verdicts if verdict != "ok")


def test_self_times_subtract_children():
    spans = [["a", "x", 0.0, 10.0, -1, 0, None, None],
             ["b", "y", 1.0, 4.0, 0, 0, None, None],
             ["c", "y", 5.0, 9.0, 0, 0, None, None],
             ["d", "z", 6.0, 7.0, 2, 0, None, None]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_accounted_frac_leaves_out_loop_time():
    # 10 s deck: 3 s in a layer, 1 s judging, the rest in the loop itself
    spans = [["bench.deck", "bench", 0.0, 10.0, -1, -1, None, None],
             ["bench.query", "bench", 0.0, 10.0, 0, 0, None, None],
             ["cnl4.is_consequence", "matrix", 1.0, 4.0, 1, 0, None, None],
             ["bench.judge", "bench", 5.0, 6.0, 1, 0, "ok", None]]
    metrics = tracing.layer_metrics(spans, 1, 10.0)
    assert metrics["matrix.consequence_ms"][0] == 3000.0
    assert metrics["bench.judge_ms"][0] == 1000.0
    assert metrics["trace.accounted_frac"][0] == 0.4


def test_search_sequents_lie_within_the_search_fragment():
    import cnl4
    rng = random.Random(11)
    for depth, splits in ((5, 0), (6, 1), (6, 2)):
        for _ in range(100):
            premises, goal = workloads.search_sequent(rng, depth, splits)
            assert workloads.case_splits(premises) == splits
            found = cnl4.search(cnl4.parse_sequent(refmodel.render_sequent(premises, goal)), depth)
            assert found is not None


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
                          "semantics", "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # the loop's own glue is a small share of a deck on this workload
    assert 0.9 < result["metrics"]["trace.accounted_frac"]["value"] < 1.0
    assert result["metrics"]["matrix.consequence_ms"]["value"] > 0


@pytest.mark.parametrize("name", ["semantics", "cli"])
def test_peak_rss_is_not_the_callers(name):
    # the caller holds 200 MiB; the run must report its own memory only
    run = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    caller = ("import subprocess, sys\nheld = bytearray(200 * 2**20)\n"
              f"sys.exit(subprocess.run({run!r}).returncode)")
    out = subprocess.run([sys.executable, "-c", caller], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert 5 < result["metrics"]["peak_rss_mb"]["value"] < 100


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
